import dataclasses

import numpy as np
import pytest

from uavnoma import bcd, game, sca
from uavnoma.linklayer import build_link_state, cycle_ee
from uavnoma.params import IterLimits, SystemParams
from uavnoma.scenario import make_scenario

DESK = dict(N=2, M=4, R_min=0.0)


def test_trace_monotone_desk_seeds():
    params = SystemParams(**DESK)
    for seed in range(10):
        res = bcd.run_algorithm4(make_scenario(seed, params), params)
        ees = res.trace.ee_values()
        assert all(b >= a - 1e-9 for a, b in zip(ees, ees[1:])), (seed, ees)


def test_terminates_within_round_limit():
    params = SystemParams()
    res = bcd.run_algorithm4(make_scenario(0, params), params)
    assert res.counters["rounds"] <= params.iters.rounds
    assert res.trace.stop_reason != ""


def test_final_report_consistent():
    params = SystemParams(**DESK)
    res = bcd.run_algorithm4(make_scenario(1, params), params)
    assert res.ee == pytest.approx(res.trace.ee_values()[-1], rel=1e-9)
    assert res.report.feasible["C1"] and res.report.feasible["C7"]
    assert res.report.feasible["C2"] and res.report.feasible["C8"]


def test_placement_freeze_never_wins():
    """Skipping the placement block cannot beat the full pipeline."""
    params = SystemParams(**DESK)
    wins = 0
    seeds = range(12)
    for seed in seeds:
        scn = make_scenario(seed, params)
        full = bcd.run_pipeline(scn, params=params, scheme="noma")
        frozen = bcd.run_pipeline(scn, params=params, scheme="noma",
                                  use_placement=False)
        if frozen.ee <= full.ee + 1e-12:
            wins += 1
    assert wins >= 0.9 * len(list(seeds))


def test_infeasible_rate_floor_raises_structured():
    # fixed tiny budget with a positive floor on weak CE channels
    params = SystemParams(N=4, M=8, R_min=0.5)
    scn = make_scenario(0, params)
    with pytest.raises(bcd.PipelineInfeasible) as err:
        bcd.run_pipeline(scn, params=params, fixed_P_T=1e-6)
    assert err.value.constraint == "C3/C4"


def test_ce_floor_above_ceiling_raises_structured():
    # seed 1 at the defaults: ETPA gives pair 2 a CE SINR ceiling below the
    # floor before any block runs
    params = SystemParams()
    with pytest.raises(bcd.PipelineInfeasible) as err:
        bcd.run_pipeline(make_scenario(1, params), scheme="etpa")
    assert err.value.constraint == "C3/C4"


def test_zero_gain_probe_keeps_pipeline_running():
    # seed 3, N=2 at the defaults: a placement probe meets a zero ZF gain,
    # whose rate floor is unbounded
    params = SystemParams(N=2)
    res = bcd.run_pipeline(make_scenario(3, params), scheme="noma")
    assert all(res.report.feasible.values())


def test_rejected_moves_keep_budget_and_floors():
    # seed 1, N=2 at the defaults: a move whose floors exceed the new budget
    # used to be accepted, returning powers far above the budget
    params = SystemParams(N=2)
    res = bcd.run_pipeline(make_scenario(1, params), scheme="noma")
    flags = res.report.feasible
    assert flags["C1"] and flags["C3"] and flags["C4"]


def test_etpa_scheme_runs():
    params = SystemParams(**DESK)
    res = bcd.run_pipeline(make_scenario(2, params), params=params,
                           scheme="etpa")
    assert res.ee > 0
    ees = res.trace.ee_values()
    assert all(b >= a - 1e-9 for a, b in zip(ees, ees[1:]))


def test_oma_scheme_runs():
    params = SystemParams(**DESK)
    res = bcd.run_pipeline(make_scenario(2, params), params=params,
                           scheme="oma")
    assert res.ee > 0


def test_fixed_budget_pipeline_tau_zero():
    params = SystemParams(**DESK)
    res = bcd.run_pipeline(make_scenario(3, params), params=params,
                           fixed_P_T=2.0)
    assert res.alloc.tau == 0.0
    assert np.sum(res.alloc.p) <= 2.0 + 1e-8


def test_counters_populated():
    params = SystemParams(**DESK)
    probe = bcd.run_pipeline(make_scenario(0, params), params=params).counters
    assert probe["rounds"] >= 1
    assert probe["sca_outer"] >= 1
    assert probe["game_iterations"] >= 1


def test_multistart_never_below_single_start():
    params = SystemParams(**DESK)
    scn = make_scenario(5, params)
    single = bcd.run_pipeline(scn, params=params, scheme="noma")
    multi = bcd.run_pipeline_multistart(scn, params=params, scheme="noma",
                                        k=3, grid=5)
    assert multi.ee >= single.ee - 1e-12


def test_position_starts_diverse_and_in_box():
    params = SystemParams(**DESK)
    scn = make_scenario(0, params)
    starts = bcd.position_starts(scn, params, k=4, grid=7)
    assert starts[0] == scn.uav_xy
    assert len(starts) <= 5
    x_min, x_max, y_min, y_max = params.box
    for x, y in starts:
        assert x_min <= x <= x_max and y_min <= y <= y_max
    sep = 0.2 * max(x_max - x_min, y_max - y_min)
    picked = starts[1:]
    for i, (a, b) in enumerate(picked):
        for c, d in picked[i + 1:]:
            assert (a - c) ** 2 + (b - d) ** 2 >= sep ** 2 - 1e-9


def test_max_rounds_override():
    params = SystemParams(**DESK, iters=IterLimits(rounds=1))
    res = bcd.run_pipeline(make_scenario(0, params), params=params)
    assert res.counters["rounds"] == 1


def test_sca_stop_counters_rerun_and_sum_over_rounds(monkeypatch):
    """The SCA and block-1 counters are deterministic and add up the rounds."""
    params = SystemParams(N=4, M=8, R_min=0.0)
    results, games = [], []
    solve, play = bcd.sca_mod.run_algorithm2, bcd.game_mod.run_algorithm1

    def record(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    def record_game(*args, **kwargs):
        games.append(play(*args, **kwargs))
        return games[-1]

    monkeypatch.setattr(bcd.sca_mod, "run_algorithm2", record)
    monkeypatch.setattr(bcd.game_mod, "run_algorithm1", record_game)
    first = bcd.run_algorithm4(make_scenario(1, params)).counters
    rounds, played = list(results), list(games)
    assert bcd.run_algorithm4(make_scenario(1, params)).counters == first
    assert len(rounds) == first["rounds"]
    # block 1 plays one game per pair every round
    assert len(played) == first["rounds"] * params.N
    assert first["game_uncertified"] == sum(not g.certified for g in played)
    assert first["game_clamped"] == sum(g.ordering_clamped for g in played)
    assert first["sca_stalled"] == sum(r.stops["stall"] for r in rounds)
    assert first["sca_inner_capped"] == sum(r.stops["capped"] for r in rounds)
    assert first["sca_proj_unconverged"] == sum(r.proj_unconverged
                                                for r in rounds)
    assert first["sca_inner"] == sum(r.inner_iterations for r in rounds)
    # every outer SCA iteration solves one subproblem, which stops once
    assert first["sca_outer"] == sum(sum(r.stops.values()) for r in rounds)
    assert first["sca_stalled"] > 0


def test_block3_rejects_positions_whose_floors_cannot_be_funded(monkeypatch):
    """A proposed position whose rate floors need tau beyond the cycle is
    rejected; the pipeline neither raises nor moves the UAV there."""
    params = SystemParams(N=4)
    proposals = []
    place = bcd.placement_mod.run_algorithm3

    def record(scenario, alloc, **kwargs):
        res = place(scenario, alloc, **kwargs)
        proposals.append((scenario, alloc, res.xy))
        return res

    monkeypatch.setattr(bcd.placement_mod, "run_algorithm3", record)
    res = bcd.run_pipeline(make_scenario(7, params), params=params,
                           scheme="noma")
    unfunded = []
    for scenario, alloc, xy in proposals:
        link = build_link_state(scenario.with_uav(*xy))
        problem = sca.ScaProblem.from_link(link, alloc.alpha_cc,
                                           alloc.alpha_ce, params)
        try:
            problem.tau_range
        except sca.InfeasibleAllocation:
            unfunded.append(xy)
    assert unfunded
    assert res.scenario.uav_xy not in unfunded


def test_polish_alpha_matches_rebuilt_problem():
    """The polished split equals the one of a ScaProblem rebuilt per trial."""
    params = SystemParams(N=3, M=6)
    link = build_link_state(make_scenario(2, params))
    a0 = np.full(3, 0.3)
    problem = sca.ScaProblem.from_link(link, a0, 1.0 - a0, params)
    p, tau = np.array([0.8, 1.2, 0.5]), 0.4 * params.T

    def rebuilt_ee(trial):
        return dataclasses.replace(problem, alpha_cc=trial,
                                   alpha_ce=1.0 - trial).exact_objective(p, tau)

    ref = a0.copy()
    for n in range(ref.size):
        def ee_of(a, n=n):
            trial = ref.copy()
            trial[n] = a
            return rebuilt_ee(trial)
        ref[n] = game.best_response(ee_of, 1e-6, 0.5, tol=1e-6)
    assert np.array_equal(bcd._polish_alpha(problem.g1, problem.g2), ref)


def golden_split(p, tau, g1, g2, beacon_gain, params, alpha_cc):
    """The per-pair golden-section search the closed form replaced."""
    out = alpha_cc.copy()
    for n in range(out.size):
        def ee_of(a, n=n):
            trial = out.copy()
            trial[n] = a
            return cycle_ee(p, trial, tau, g1, g2, beacon_gain, params)
        out[n] = game.best_response(ee_of, 1e-6, 0.5, tol=1e-6)
    return out


def test_polish_alpha_closed_form_matches_golden_search():
    """The closed-form split is the search's answer or ties it in the EE.

    Gains near those of a converged N=4, M=8 drop. Pairs: g1 > g2 with
    ample power, g1 < g2, p_n = 0 (every split ties and the search keeps
    its lower end), and a small p_n whose EE gain over the search's last
    bracket is below its 1e-15 tie rule, so it stops short of 0.5.
    """
    params = SystemParams(N=4, M=8, R_min=0.0)
    g1 = np.array([1.2, 4.7e-5, 3.8e-4, 0.23])
    g2 = np.array([4.6e-9, 1.5e-4, 5.0e-5, 1.8e-6])
    beacon_gain, tau = 1.42, 0.0625 * params.T
    p = np.array([2.27, 1.0, 0.0, 3e-9])
    ref = golden_split(p, tau, g1, g2, beacon_gain, params, np.full(4, 0.5))
    closed = bcd._polish_alpha(g1, g2)

    def ee(alpha_cc):
        return cycle_ee(p, alpha_cc, tau, g1, g2, beacon_gain, params)

    def with_ref(n):
        out = closed.copy()
        out[n] = ref[n]
        return out

    assert closed[0] == ref[0] == 0.5
    assert closed[1] == ref[1] == bcd.ALPHA_LO
    assert ref[2] == 1e-6 and closed[2] == 0.5
    assert ee(closed) == ee(with_ref(2))
    assert 0.49999 < ref[3] < 0.5
    assert ee(closed) >= ee(with_ref(3))
    assert ee(closed) == pytest.approx(ee(with_ref(3)), rel=1e-15, abs=0.0)
    assert ee(closed) >= ee(ref)
