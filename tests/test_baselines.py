import numpy as np
import pytest

from uavnoma import baselines as bl
from uavnoma import bcd
from uavnoma.linklayer import build_report
from uavnoma.params import SystemParams
from uavnoma.scenario import make_scenario


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
