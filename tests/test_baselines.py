import itertools
import tracemalloc

import numpy as np
import pytest

from uavnoma import baselines as bl
from uavnoma import bcd
from uavnoma.linklayer import (build_report, cycle_energy, exact_rates,
                               static_power, tx_budget)
from uavnoma.params import SystemParams
from uavnoma.placement import search_box
from uavnoma.scenario import make_scenario

CRITERION7_GRID = bl.GridSpec(alpha_steps=21, power_steps=21, tau_steps=11,
                              x_steps=11, y_steps=11)
FIG12_GRID = bl.GridSpec(alpha_steps=11, power_steps=11, tau_steps=7,
                         x_steps=7, y_steps=7)   # the CLI's "es" scheme


def test_etpa_coefficients_eta_one():
    a_cc, a_ce = bl.etpa_coefficients(4.0, 1.0, 1.0)
    assert a_cc == pytest.approx(0.2)
    assert a_ce == pytest.approx(0.8)


def test_etpa_coefficients_eta_zero():
    a_cc, a_ce = bl.etpa_coefficients(9.0, 1.0, 0.0)
    assert a_cc == a_ce == pytest.approx(0.5)


def test_etpa_weak_user_gets_more():
    a_cc, a_ce = bl.etpa_coefficients(5.0, 0.5, 0.7)
    assert a_cc < a_ce
    assert a_cc + a_ce == pytest.approx(1.0)


def test_etpa_validation():
    with pytest.raises(ValueError):
        bl.etpa_coefficients(-1.0, 1.0, 0.7)
    with pytest.raises(ValueError):
        bl.etpa_coefficients(1.0, 1.0, 2.0)


def test_grid_size_and_guards():
    params = SystemParams(N=2, M=4)
    spec = bl.GridSpec()
    assert bl.grid_size(params, spec) == 21 ** 2 * 21 * 11 * 11 * 11
    with pytest.raises(ValueError, match="N <= 3"):
        bl.exhaustive_search(make_scenario(0, SystemParams(N=4, M=8)))
    big = bl.GridSpec(alpha_steps=100, power_steps=100, tau_steps=100,
                      x_steps=100, y_steps=100)
    with pytest.raises(ValueError, match="grid too large"):
        bl.exhaustive_search(make_scenario(0, params), grid_spec=big)


def test_power_splits_sum_to_one():
    for n in (1, 2, 3):
        s = bl._power_splits(n, 11)
        assert np.allclose(np.sum(s, axis=1), 1.0)
        assert np.all(s >= -1e-12)


def test_exhaustive_search_single_pair_brute():
    """ES against an independent loop-based scan on a tiny grid."""
    params = SystemParams(N=1, M=2, R_min=0.0)
    scn = make_scenario(0, params)
    spec = bl.GridSpec(alpha_steps=5, power_steps=1, tau_steps=5,
                       x_steps=3, y_steps=3)
    _, alloc, ee = bl.exhaustive_search(scn, grid_spec=spec)

    from uavnoma.linklayer import build_link_state
    from uavnoma.sca import ScaProblem
    best = -np.inf
    for x in np.linspace(-50, 50, 3):
        for y in np.linspace(-50, 50, 3):
            link = build_link_state(scn.with_uav(x, y))
            for tau in np.linspace(0.0, params.T * (1 - 1e-3), 5):
                for a in np.linspace(0.1, 0.5, 5):
                    prob = ScaProblem.from_link(
                        link, np.array([a]), np.array([1 - a]), params)
                    p = np.array([prob.budget(tau)])
                    if np.all(link.antenna_loads @ p <= params.P_iota + 1e-12):
                        best = max(best, prob.exact_objective(p, tau))
    assert ee == pytest.approx(best, rel=1e-9)


def test_exhaustive_search_respects_rate_floor():
    params = SystemParams(N=1, M=4, R_min=0.05)
    scn = make_scenario(1, params)
    spec = bl.GridSpec(alpha_steps=7, power_steps=1, tau_steps=7,
                       x_steps=5, y_steps=5)
    best_scn, alloc, ee = bl.exhaustive_search(scn, grid_spec=spec)
    from uavnoma.linklayer import build_link_state, build_report
    rep = build_report(best_scn, alloc)
    assert rep.feasible["C3"] and rep.feasible["C4"] and rep.feasible["C8"]
    assert rep.EE == pytest.approx(ee, rel=1e-9)


def test_oma_and_no_eh_wrappers():
    """The OMA and battery-powered reference points of the pipeline."""
    params = SystemParams(N=2, M=4, R_min=0.0)
    scn = make_scenario(0, params)
    rep_oma = bcd.run_pipeline(scn, params=params, scheme="oma").report
    rep_no_eh = bcd.run_pipeline(scn, params=params, scheme="noma",
                                 fixed_P_T=1.0).report
    assert rep_oma.EE > 0 and rep_no_eh.EE > 0
    assert rep_no_eh.energy["uav_tx"] == pytest.approx(1.0 * params.T)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exhaustive_search_stays_in_scenario_box(seed):
    """With params.box wider than the scenario's box, the oracle searches
    the part inside the scenario's box, as placement does."""
    scn = make_scenario(seed, SystemParams(N=2, M=4, R_min=0.0,
                                           box=(-5.0, 5.0, -5.0, 5.0)))
    wide = scn.params.replace(box=(-50.0, 50.0, -50.0, 50.0))
    spec = bl.GridSpec(alpha_steps=5, power_steps=5, tau_steps=5,
                       x_steps=5, y_steps=5)
    best_scn, alloc, ee = bl.exhaustive_search(scn, params=wide,
                                               grid_spec=spec)
    x, y = best_scn.uav_xy
    assert -5.0 <= x <= 5.0 and -5.0 <= y <= 5.0
    rep = build_report(best_scn, alloc)
    assert all(rep.feasible.values())
    assert rep.EE == pytest.approx(ee, rel=1e-9)
    # the box that placement searches gives the same oracle
    assert bl.exhaustive_search(scn, grid_spec=spec)[2] == ee
    res = bcd.run_pipeline(scn, params=wide)
    rx, ry = res.scenario.uav_xy
    assert -5.0 <= rx <= 5.0 and -5.0 <= ry <= 5.0


@pytest.mark.parametrize("field", ["alpha_steps", "power_steps", "tau_steps",
                                   "x_steps", "y_steps"])
@pytest.mark.parametrize("steps", [0, -1])
def test_grid_spec_rejects_step_counts_below_one(field, steps):
    with pytest.raises(ValueError, match=field):
        bl.GridSpec(**{field: steps})


# -- the per-pair search against the alpha-product loop it replaced ----------

def _loop_search(scenario, spec):
    """The exhaustive search as a loop over positions and harvest times,
    scoring every (alpha combination, split) of each slice. Returns
    (ee, xy, tau, alpha_cc, p); raises ValueError when nothing is feasible.
    """
    prm = scenario.params
    alpha_axis = np.linspace(0.5 / spec.alpha_steps, 0.5, spec.alpha_steps)
    alphas = np.array(list(itertools.product(alpha_axis, repeat=prm.N)))
    splits = bl._power_splits(prm.N, spec.power_steps)
    taus = np.linspace(0.0, prm.T * (1.0 - 1e-3), spec.tau_steps)
    box = search_box(scenario, prm)
    X, Y = np.meshgrid(np.linspace(box[0], box[1], spec.x_steps),
                       np.linspace(box[2], box[3], spec.y_steps),
                       indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    P_s = static_power(prm)
    a1 = alphas[:, None, :]
    gains_cc, gains_ce, beams, beacon_gains = bl.link_gains(
        scenario, np.stack([X, Y], axis=1))
    best = (-np.inf, None, None, None, None)
    for x, y, g_cc, g_ce, q, beacon_gain in zip(
            X.tolist(), Y.tolist(), gains_cc, gains_ce, beams, beacon_gains):
        antenna_loads = np.abs(q) ** 2
        for tau in taus:
            P_T = tx_budget(tau, beacon_gain, prm)
            p = P_T * splits[None, :, :]
            r_cc, r_ce = exact_rates(p, a1, g_cc, g_ce, prm)
            ok = (np.all(r_cc >= prm.R_min - 1e-12, axis=2)
                  & np.all(r_ce >= prm.R_min - 1e-12, axis=2))
            loads = splits @ antenna_loads.T * P_T
            ok &= np.all(loads <= prm.P_iota + 1e-12, axis=1)[None, :]
            if not np.any(ok):
                continue
            ee = ((prm.T - tau) * np.sum(r_cc + r_ce, axis=2)
                  / cycle_energy(tau, P_T, P_s, prm))
            ee = np.where(ok, ee, -np.inf)
            idx = np.unravel_index(np.argmax(ee), ee.shape)
            if ee[idx] > best[0]:
                best = (float(ee[idx]), (x, y), tau, alphas[idx[0]].copy(),
                        P_T * splits[idx[1]].copy())
    if best[1] is None:
        raise ValueError("no feasible grid point")
    return best


def _hex(ee, xy, tau, alpha_cc, p):
    return (float(ee).hex(), [float(v).hex() for v in xy], float(tau).hex(),
            [float(v).hex() for v in alpha_cc], [float(v).hex() for v in p])


def _assert_matches_loop(scn, spec):
    try:
        want = _hex(*_loop_search(scn, spec))
    except ValueError:
        with pytest.raises(ValueError, match="^no feasible grid point: "):
            bl.exhaustive_search(scn, grid_spec=spec)
        return "infeasible"
    best_scn, alloc, ee = bl.exhaustive_search(scn, grid_spec=spec)
    assert _hex(ee, best_scn.uav_xy, alloc.tau, alloc.alpha_cc,
                alloc.p) == want
    assert np.array_equal(alloc.alpha_ce, 1.0 - alloc.alpha_cc)
    return "feasible"


@pytest.mark.parametrize("R_min,seed", [(0.0, 5), (0.0, 7), (0.1, 0),
                                        (0.1, 3)])
def test_search_matches_loop_on_criterion7_grid(R_min, seed):
    scn = make_scenario(seed, SystemParams(N=2, M=4, R_min=R_min))
    assert _assert_matches_loop(scn, CRITERION7_GRID) == "feasible"


@pytest.mark.parametrize("N,M,R_min", [(1, 2, 0.0), (1, 3, 0.1),
                                       (3, 5, 0.0), (3, 4, 0.02)])
def test_search_matches_loop_on_one_and_three_pairs(N, M, R_min):
    params = SystemParams(N=N, M=M, R_min=R_min)
    spec = (bl.GridSpec(alpha_steps=7, power_steps=7, tau_steps=4,
                        x_steps=3, y_steps=3) if N == 3 else CRITERION7_GRID)
    for seed in range(3):
        _assert_matches_loop(make_scenario(seed, params), spec)


def test_search_matches_loop_on_fig12_grid():
    """The CLI's fig12_es_gap cells (defaults, N=2, seeds 0-5), whose seed 5
    has no feasible grid point at any beacon power."""
    outcomes = []
    for P_beacon in (10.0, 20.0, 30.0):
        params = SystemParams().replace(P_beacon=P_beacon, N=2)
        outcomes += [_assert_matches_loop(make_scenario(seed, params),
                                          FIG12_GRID) for seed in range(6)]
    assert outcomes.count("infeasible") == 3


def test_zero_power_pair_gets_the_first_alpha():
    """A pair given no power ties over every alpha; the loop kept the first.
    On these drops the other pair's best alpha is the last one, 0.5."""
    for seed, idle in ((5, 0), (7, 1)):
        scn = make_scenario(seed, SystemParams(N=2, M=4, R_min=0.0))
        _, alloc, _ = bl.exhaustive_search(scn, grid_spec=CRITERION7_GRID)
        assert alloc.p[idle] == 0.0 and alloc.p[1 - idle] > 0.0
        assert alloc.alpha_cc[idle] == 0.5 / CRITERION7_GRID.alpha_steps
        assert alloc.alpha_cc[1 - idle] == 0.5


def test_split_tie_resolves_to_the_first_alpha_combination(monkeypatch):
    """Two identical pairs at one position; splits (1/4, 3/4) and (3/4, 1/4)
    tie exactly and beat (1/2, 1/2). Each pair takes the smallest alpha that
    meets its CC rate floor, so the later split has the smaller alpha
    combination, (0.125, 0.375) against (0.375, 0.125), and wins as it did
    in the loop: alpha combinations come before splits."""
    params = SystemParams(N=2, M=4, R_min=0.01)
    spec = bl.GridSpec(alpha_steps=4, power_steps=5, tau_steps=2,
                       x_steps=1, y_steps=1)
    tau = np.linspace(0.0, params.T * (1.0 - 1e-3), spec.tau_steps)[-1]
    P_T = tx_budget(tau, 1.0, params)   # the patched beacon gain is 1
    # the CC floor needs alpha p g_cc >= 2^R_min - 1: alpha 0.13 at half
    # the budget, just above the grid's 0.125
    g_cc = (2.0 ** params.R_min - 1.0) / (0.13 * P_T / 2)

    def link_gains(scenario, xy):
        k = len(xy)
        return (np.full((k, 2), g_cc), np.full((k, 2), 1e6 * g_cc),
                np.zeros((k, 4, 2)), np.ones(k))
    monkeypatch.setattr(bl, "link_gains", link_gains)
    scn = make_scenario(0, params)
    assert _assert_matches_loop(scn, spec) == "feasible"
    _, alloc, _ = bl.exhaustive_search(scn, grid_spec=spec)
    np.testing.assert_array_equal(alloc.p, [0.75 * P_T, 0.25 * P_T])
    np.testing.assert_array_equal(alloc.alpha_cc, [0.125, 0.375])


def test_infeasible_grid_names_the_blocking_constraint():
    floors = make_scenario(1, SystemParams(N=3, M=5, R_min=0.05))
    spec = bl.GridSpec(alpha_steps=7, power_steps=7, tau_steps=4,
                       x_steps=3, y_steps=3)
    with pytest.raises(ValueError, match="no feasible grid point: rate "
                       r"floors \(C3/C4\) miss for some pair at every"):
        bl.exhaustive_search(floors, grid_spec=spec)
    caps = make_scenario(5, SystemParams().replace(N=2))
    with pytest.raises(ValueError, match="no feasible grid point: antenna "
                       r"caps \(C8\) are exceeded wherever the rate floors"):
        bl.exhaustive_search(caps, grid_spec=FIG12_GRID)


# bound on the oracle's traced allocations on the criterion-7 grid, bytes.
# Chunks of positions keep it under 1 MB; rating all 121 positions at once
# allocates about 39 MB
ES_TRACED_PEAK_BOUND = 4e6


def test_search_memory_stays_bounded():
    scn = make_scenario(1, SystemParams(N=2, M=4, R_min=0.0))
    bl.exhaustive_search(scn, grid_spec=CRITERION7_GRID)   # warm caches
    tracemalloc.start()
    try:
        bl.exhaustive_search(scn, grid_spec=CRITERION7_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ES_TRACED_PEAK_BOUND, peak
