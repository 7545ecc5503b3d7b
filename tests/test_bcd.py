import dataclasses

import numpy as np
import pytest

from uavnoma import bcd, game, sca
from uavnoma.linklayer import build_link_state
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
    """The SCA stop counters are deterministic and add up the rounds."""
    params = SystemParams(N=4, M=8, R_min=0.0)
    results = []
    solve = bcd.sca_mod.run_algorithm2

    def record(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bcd.sca_mod, "run_algorithm2", record)
    first = bcd.run_algorithm4(make_scenario(1, params)).counters
    rounds = list(results)
    assert bcd.run_algorithm4(make_scenario(1, params)).counters == first
    assert len(rounds) == first["rounds"]
    assert first["sca_stalled"] == sum(r.stops["stall"] for r in rounds)
    assert first["sca_inner_capped"] == sum(r.stops["capped"] for r in rounds)
    assert first["sca_proj_unconverged"] == sum(r.proj_unconverged
                                                for r in rounds)
    assert first["sca_inner"] == sum(r.inner_iterations for r in rounds)
    # every outer SCA iteration solves one subproblem, which stops once
    assert first["sca_outer"] == sum(sum(r.stops.values()) for r in rounds)
    assert first["sca_stalled"] > 0


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
    assert np.array_equal(bcd._polish_alpha(problem, p, tau, a0), ref)
