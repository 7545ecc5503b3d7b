import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavnoma import channel as ch
from uavnoma import linklayer as ll
from uavnoma.params import SystemParams
from uavnoma.scenario import make_scenario


class FakeChannel:
    def __init__(self, h):
        self.h = np.asarray(h, complex)


def rand_channels(rng, M, N):
    return [FakeChannel(rng.normal(size=M) + 1j * rng.normal(size=M))
            for _ in range(N)]


def test_zf_orthonormal_channels():
    cc = [FakeChannel([1.0, 0.0]), FakeChannel([0.0, 1.0])]
    prec = ll.zf_precoders(cc)
    assert abs(prec.columns[:, 0] @ np.array([1, 0])) == pytest.approx(1.0)
    assert abs(prec.columns[:, 1] @ np.array([0, 1])) == pytest.approx(1.0)


def test_zf_single_pair_matched_filter():
    h = np.array([1.0 + 1j, 2.0, -1j])
    prec = ll.zf_precoders([FakeChannel(h)])
    q = prec.columns[:, 0]
    assert abs(np.vdot(h, q)) == pytest.approx(np.linalg.norm(h), rel=1e-12)


def test_zf_residuals_random():
    rng = np.random.Generator(np.random.PCG64(5))
    cc = rand_channels(rng, 4, 3)
    prec = ll.zf_precoders(cc)
    for n in range(3):
        assert np.linalg.norm(prec.columns[:, n]) == pytest.approx(1.0, abs=1e-12)
        for m in range(3):
            if m != n:
                assert abs(np.vdot(cc[m].h, prec.columns[:, n])) <= ll.ZF_TOL


def test_ce_combiner_single_pair_matched():
    h = np.array([0.5, 1.0 - 2j])
    prec = ll.zf_precoders([FakeChannel(h)])
    comb = ll.ce_combiners([FakeChannel(h)], prec)
    assert abs(comb.w_ce[0]) == pytest.approx(np.linalg.norm(h), rel=1e-12)


def test_ce_combiner_residuals_random():
    rng = np.random.Generator(np.random.PCG64(9))
    cc = rand_channels(rng, 5, 3)
    ce = rand_channels(rng, 5, 3)
    prec = ll.zf_precoders(cc)
    comb = ll.ce_combiners(ce, prec)
    G = [ce[m].h * np.vdot(ce[m].h, prec.columns[:, m]).conjugate()
         for m in range(3)]
    for n in range(3):
        for m in range(3):
            if m != n:
                assert abs(np.vdot(G[m], comb.v_ce[:, n])) <= ll.ZF_TOL


def test_cc_snr_and_ce_sinr():
    p = SystemParams()   # B = 1

    def snr(r):
        return 2.0 ** r - 1.0
    r_cc, _ = ll.exact_rates(2.0, 0.5, 3.0, 1.0, p)
    assert snr(r_cc) == pytest.approx(3.0)
    r_cc, _ = ll.exact_rates(2.0, 0.0, 3.0, 1.0, p)
    assert r_cc == 0.0
    _, r_ce = ll.exact_rates(1.0, 0.2, 1.0, 1.0, p)
    assert snr(r_ce) == pytest.approx(0.8 / 1.2)
    _, r_ce = ll.exact_rates(2.0, 0.0, 1.0, 1.5, p)
    assert snr(r_ce) == pytest.approx(2.0 * 1.5)
    # interference-limited ceiling
    _, r_ce = ll.exact_rates(1e12, 0.3, 1.0, 1.0, p)
    assert snr(r_ce) == pytest.approx(0.7 / 0.3, rel=1e-9)


def alloc_for(params, p, a_cc, tau, fixed=None):
    p = np.full(params.N, float(p))
    a = np.full(params.N, float(a_cc))
    return ll.Allocation(p=p, alpha_cc=a, alpha_ce=1.0 - a, tau=tau,
                         fixed_P_T=fixed)


def test_allocation_validation():
    with pytest.raises(ValueError):
        ll.Allocation(p=np.array([-1.0]), alpha_cc=np.array([0.5]),
                      alpha_ce=np.array([0.5]), tau=0.1)
    with pytest.raises(ValueError):
        ll.Allocation(p=np.array([1.0]), alpha_cc=np.array([0.5]),
                      alpha_ce=np.array([0.6]), tau=0.1)


@pytest.mark.parametrize("field, bad", [
    ("p", np.nan), ("p", np.inf), ("alpha_cc", np.nan), ("alpha_ce", np.nan),
    ("tau", np.nan), ("tau", np.inf)])
def test_allocation_rejects_non_finite(field, bad):
    kw = dict(p=np.array([1.0]), alpha_cc=np.array([0.5]),
              alpha_ce=np.array([0.5]), tau=0.1)
    kw[field] = np.array([bad]) if field != "tau" else bad
    with pytest.raises(ValueError, match="finite"):
        ll.Allocation(**kw)


def test_sum_throughput_vanishes_at_tau_T():
    p = SystemParams(N=1, M=2)
    scn = make_scenario(0, p)
    a = alloc_for(p, 1.0, 0.3, p.T - 1e-9)
    assert ll.build_report(scn, a).R_sum == pytest.approx(0.0, abs=1e-6)


def test_single_pair_unit_snrs_throughput():
    # gamma_cc = gamma_ce = 1, tau = 0, B = 1 -> R_sum = 2
    p = SystemParams(N=1, M=2)
    scn = make_scenario(0, p)
    link = ll.build_link_state(scn)
    g1, g2 = link.eff_gain_cc[0], link.eff_gain_ce[0]
    a_cc = 0.5
    p_cc = 1.0 / (a_cc * g1)            # gamma_cc = 1
    # ce: a_ce*p*g2/(1+a_cc*p*g2) = 1 has a different p; check additivity instead
    a = ll.Allocation(p=np.array([p_cc]), alpha_cc=np.array([a_cc]),
                      alpha_ce=np.array([1 - a_cc]), tau=0.0)
    r_cc, r_ce = ll.exact_rates(a.p, a.alpha_cc, g1, g2, p)
    assert r_cc[0] == pytest.approx(1.0, rel=1e-10)
    assert ll.build_report(scn, a, link=link).R_sum == pytest.approx(
        float(r_cc[0] + r_ce[0]), rel=1e-12)


def energy(tau, params, link_gain):
    P_T = ll.tx_budget(tau, link_gain, params)
    return ll.cycle_energy(tau, P_T, ll.static_power(params), params)


def test_energy_at_tau_zero():
    p = SystemParams()
    hover = ch.propulsion_power(0.0, p.rotor)
    assert energy(0.0, p, 1.0) == pytest.approx(
        (p.M * p.P_a + hover) * p.T + 2 * p.N * p.P_user * p.T, rel=1e-12)


def test_energy_increasing_in_tau():
    p = SystemParams()
    vals = [energy(t, p, 2.0) for t in (0.1, 0.3, 0.6, 0.9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_energy_user_term_scales_with_n():
    p1, p2 = SystemParams(N=2, M=8), SystemParams(N=4, M=8)
    assert ll.static_power(p2) - ll.static_power(p1) == pytest.approx(
        2 * 2 * p1.P_user, rel=1e-12)


def test_beacon_energy_flag():
    base = SystemParams()
    on = SystemParams(include_beacon_energy=True)
    e0 = energy(0.5, base, 2.0)
    e1 = energy(0.5, on, 2.0)
    assert e1 - e0 == pytest.approx(base.P_beacon * 0.5, rel=1e-12)


def test_report_matches_reference_composition():
    """EE of build_report equals a straight-line recomputation from scratch."""
    p = SystemParams(N=2, M=4)
    scn = make_scenario(11, p)
    link = ll.build_link_state(scn)
    a = ll.Allocation(p=np.array([0.8, 1.3]), alpha_cc=np.array([0.3, 0.25]),
                      alpha_ce=np.array([0.7, 0.75]), tau=0.4)
    rep = ll.build_report(scn, a)

    r_sum = 0.0
    for n in range(p.N):
        g1, g2 = link.eff_gain_cc[n], link.eff_gain_ce[n]
        snr = a.alpha_cc[n] * a.p[n] * g1
        sinr = a.alpha_ce[n] * a.p[n] * g2 / (1 + a.alpha_cc[n] * a.p[n] * g2)
        r_sum += np.log2(1 + snr) + np.log2(1 + sinr)
    r_sum *= (p.T - a.tau) * p.B
    P_T = a.tau * link.beacon_gain * p.P_beacon * p.xi / (p.T - a.tau)
    e_sum = (p.M * p.P_a * a.tau + P_T * p.T + p.M * p.P_a * p.T
             + ch.propulsion_power(0.0, p.rotor) * p.T
             + 2 * p.N * p.P_user * p.T)
    assert rep.R_sum == pytest.approx(r_sum, rel=1e-12)
    assert rep.E_sum == pytest.approx(e_sum, rel=1e-12)
    assert rep.EE == pytest.approx(r_sum / e_sum, rel=1e-12)
    assert sum(rep.energy.values()) == pytest.approx(e_sum, rel=1e-12)


def test_constraint_flags():
    p = SystemParams(N=1, M=2)
    scn = make_scenario(0, p)
    link = ll.build_link_state(scn)
    a = alloc_for(p, 0.5, 0.4, 0.0, fixed=1.0)
    flags = ll.constraint_flags(scn, link, a)
    assert flags["C1"] and flags["C2"] and flags["C5"] and flags["C6"]
    assert flags["C7"] and flags["C8"]
    over = alloc_for(p, 5.0, 0.4, 0.0, fixed=1.0)
    assert not ll.constraint_flags(scn, link, over)["C1"]


def test_oma_rates_convention():
    p = SystemParams(N=1, M=2)
    scn = make_scenario(0, p)
    link = ll.build_link_state(scn)
    a = alloc_for(p, 2.0, 0.5, 0.0, fixed=5.0)
    r_cc, r_ce = ll.exact_rates(a.p, a.alpha_cc, link.eff_gain_cc,
                                link.eff_gain_ce, p, scheme="oma")
    assert r_cc[0] == pytest.approx(
        0.5 * np.log2(1 + 2.0 * link.eff_gain_cc[0]), rel=1e-12)
    assert r_ce[0] == pytest.approx(
        0.5 * np.log2(1 + 2.0 * link.eff_gain_ce[0]), rel=1e-12)


def test_oma_flags_use_oma_rates():
    """An OMA allocation at its own rate floor meets C3 and C4."""
    p = SystemParams(N=1, M=2)
    scn = make_scenario(0, p)
    link = ll.build_link_state(scn)
    t2 = 2.0 ** (2.0 * p.R_min / p.B) - 1.0
    p_floor = t2 / min(link.eff_gain_cc[0], link.eff_gain_ce[0])
    a = alloc_for(p, p_floor, 0.5, 0.0, fixed=p_floor)
    flags = ll.constraint_flags(scn, link, a, scheme="oma")
    assert flags["C3"] and flags["C4"]
    assert not ll.constraint_flags(scn, link, a, scheme="noma")["C4"]


# -- the EE physics is written once -----------------------------------------

PHYSICS_CASES = {
    "noma": dict(scheme="noma", fixed_P_T=None, params={}),
    "oma": dict(scheme="oma", fixed_P_T=None, params={}),
    "fixed_P_T": dict(scheme="noma", fixed_P_T=2.5, params={}),
    "beacon_energy": dict(scheme="noma", fixed_P_T=None,
                          params=dict(include_beacon_energy=True)),
}


@pytest.mark.parametrize("case", sorted(PHYSICS_CASES))
def test_ee_defined_once(case):
    """Report, SCA objective, CLI curve and ES oracle agree on one point."""
    from uavnoma import baselines, cli
    from uavnoma.sca import ScaProblem

    c = PHYSICS_CASES[case]
    params = SystemParams(N=2, M=4, R_min=0.0, **c["params"])
    seed, tau = 4, 0.35 if c["fixed_P_T"] is None else 0.0
    scn = make_scenario(seed, params)
    link = ll.build_link_state(scn)
    P_T = ll.tx_budget(tau, link.beacon_gain, params, c["fixed_P_T"])
    alloc = ll.Allocation(p=np.full(2, P_T / 2), alpha_cc=np.full(2, 0.3),
                          alpha_ce=np.full(2, 0.7), tau=tau,
                          fixed_P_T=c["fixed_P_T"])
    ee = ll.build_report(scn, alloc, link=link, scheme=c["scheme"]).EE
    problem = ScaProblem.from_link(link, alloc.alpha_cc, alloc.alpha_ce,
                                   params, mode=c["scheme"],
                                   fixed_P_T=c["fixed_P_T"])
    assert problem.exact_objective(alloc.p, tau) == pytest.approx(ee, rel=1e-12)
    # the SCA objective is the link layer's EE itself, bit for bit
    assert problem.exact_objective(alloc.p, tau) == ll.cycle_ee(
        alloc.p, alloc.alpha_cc, tau, link.eff_gain_cc, link.eff_gain_ce,
        link.beacon_gain, params, c["scheme"], c["fixed_P_T"])
    if c["scheme"] != "noma" or c["fixed_P_T"] is not None:
        return   # the CLI curve and the oracle are harvested NOMA only
    assert cli._fixed_tau_ee(params, seed, tau) == pytest.approx(ee, rel=1e-12)
    spec = baselines.GridSpec(alpha_steps=5, power_steps=5, tau_steps=5,
                              x_steps=3, y_steps=3)
    best_scn, best_alloc, ee_es = baselines.exhaustive_search(scn,
                                                               grid_spec=spec)
    assert ll.build_report(best_scn, best_alloc).EE == pytest.approx(
        ee_es, rel=1e-12)


# -- the batched ZF kernel ---------------------------------------------------

def null_space_reference(scn, xy):
    """Per-position ZF quantities from scipy's SVD null space, one by one."""
    import scipy.linalg
    params = scn.params
    uav = (xy[0], xy[1], params.h)
    by_id = {u.id: u for u in scn.users}
    H_cc = np.stack([ch.user_channel(uav, by_id[p.cc], params).h
                     for p in scn.pairs])
    H_ce = np.stack([ch.user_channel(uav, by_id[p.ce], params).h
                     for p in scn.pairs])
    q = np.empty((params.M, params.N), complex)
    for n in range(params.N):
        own = H_cc[n]
        if params.N > 1:
            ns = scipy.linalg.null_space(np.delete(H_cc, n, axis=0).conj())
            own = ns @ (ns.conj().T @ own)
        q[:, n] = own / np.linalg.norm(own)
    g_cc = np.abs(np.sum(H_cc.conj() * q.T, axis=1)) ** 2
    g_ce = np.abs(np.sum(H_ce.conj() * q.T, axis=1)) ** 2
    d_pu = np.hypot(np.hypot(xy[0] - params.beacon_xy[0],
                             xy[1] - params.beacon_xy[1]), params.h)
    beacon = params.M ** 2 * params.beta0 * d_pu ** (-params.beta)
    return (g_cc, g_ce, np.abs(q) ** 2, beacon, np.linalg.cond(H_cc),
            np.sum(np.abs(H_ce) ** 2, axis=1))


@given(N=st.integers(1, 4), extra=st.integers(0, 6),
       seed=st.integers(0, 10 ** 6),
       xy=st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
                   min_size=1, max_size=5),
       above_user=st.booleans())
@settings(max_examples=80, deadline=None)
def test_link_gains_match_null_space_reference(N, extra, seed, xy,
                                               above_user):
    """Gains, loads and beacon gain against an SVD null-space reference.

    Compared where cond(H_cc) <= 1e6, since beyond that the reference is
    itself only good to about eps * cond. A CE gain is a projection that
    can be much smaller than its channel's own gain |h_ce|^2, so its error
    is bounded relative to that. Row k of a batch equals the K = 1 call.
    """
    params = SystemParams(N=N, M=N + extra, R_min=0.0)
    scn = make_scenario(seed, params)
    xy = np.array(xy)
    if above_user:
        xy[0] = scn.users[0].pos[:2]
    batch = ll.link_gains(scn, xy)
    for k in range(len(xy)):
        single = ll.link_gains(scn, xy[k])
        for a, b in zip(batch, single):
            assert np.array_equal(a[k], b[0])
        g_cc, g_ce, loads, beacon, cond, ce_norm2 = null_space_reference(
            scn, xy[k])
        assert batch[3][k] == pytest.approx(beacon, rel=1e-9)
        if cond > 1e6:
            continue
        assert batch[0][k] == pytest.approx(g_cc, rel=1e-9)
        assert np.all(np.abs(batch[1][k] - g_ce) <= 1e-9 * ce_norm2)
        assert np.abs(batch[2][k]) ** 2 == pytest.approx(loads, abs=1e-9)


def test_zf_empty_null_space_raises():
    rng = np.random.Generator(np.random.PCG64(2))
    with pytest.raises(np.linalg.LinAlgError):
        ll.zf_precoders(rand_channels(rng, 2, 3))
