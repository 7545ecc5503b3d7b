import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavnoma import bcd, sca
from uavnoma import linklayer as ll
from uavnoma.linklayer import Allocation, build_link_state, build_report
from uavnoma.params import SystemParams
from uavnoma.scenario import make_scenario


def make_problem(seed=0, N=2, M=4, mode="noma", alpha_cc=0.3, **pkw):
    params = SystemParams(N=N, M=M, **pkw)
    scn = make_scenario(seed, params)
    link = build_link_state(scn)
    a = np.full(N, alpha_cc)
    return sca.ScaProblem.from_link(link, a, 1.0 - a, params, mode=mode), scn


def rand_point(problem, rng, tau=None):
    tau = rng.uniform(0.2, 0.8) if tau is None else tau
    p = rng.uniform(0.1, 5.0, size=problem.params.N)
    return p, tau


# -- rate lower bounds ------------------------------------------------------

def test_lower_bounds_zero_rmin():
    p = SystemParams(N=2, M=4, R_min=0.0)
    lo_cc, lo_ce = sca.rate_lower_bounds([0.3, 0.3], [0.7, 0.7],
                                         np.ones(2), np.ones(2), p)
    assert np.all(lo_cc == 0.0) and np.all(lo_ce == 0.0)


def test_lower_bounds_sinr_ceiling():
    p = SystemParams(N=1, M=2, R_min=2.0)  # requires SINR 3 > ceiling 1
    with pytest.raises(sca.InfeasibleAllocation, match="pair 0"):
        sca.rate_lower_bounds([0.5], [0.5], np.ones(1), np.ones(1), p)


def test_lower_bound_cc_against_bisection():
    p = SystemParams(N=1, M=2, R_min=0.1, B=1.0)
    lo_cc, _ = sca.rate_lower_bounds([0.5], [0.5],
                                     np.full(1, 2.0), np.full(1, 1e6), p)
    # bisection oracle on B*log2(1 + p*alpha*g) = R_min with alpha*g = 1
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.log2(1.0 + mid) < p.R_min:
            lo = mid
        else:
            hi = mid
    assert lo_cc[0] == pytest.approx(lo, rel=1e-9)
    assert lo_cc[0] == pytest.approx(2.0 ** 0.1 - 1.0, rel=1e-9)


def test_lower_bound_ce_meets_floor_exactly():
    p = SystemParams(N=1, M=2, R_min=0.3)
    a_cc, a_ce, g2 = 0.2, 0.8, 1.7
    _, lo_ce = sca.rate_lower_bounds([a_cc], [a_ce], np.ones(1),
                                     np.array([g2]), p)
    sinr = a_ce * lo_ce[0] * g2 / (1.0 + a_cc * lo_ce[0] * g2)
    assert np.log2(1.0 + sinr) == pytest.approx(p.R_min, rel=1e-10)


# -- objectives -------------------------------------------------------------

def test_exact_objective_equals_system_ee():
    problem, scn = make_problem(seed=3)
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(10):
        p, tau = rand_point(problem, rng)
        alloc = Allocation(p=p, alpha_cc=problem.alpha_cc,
                           alpha_ce=problem.alpha_ce, tau=tau)
        rep = build_report(scn, alloc)
        assert problem.exact_objective(p, tau) == pytest.approx(
            rep.EE, rel=1e-10)


def test_exact_objective_tau_interior_max():
    problem, _ = make_problem(seed=0, R_min=0.0)
    taus = np.linspace(0.01, 0.99, 200)
    vals = [problem.exact_objective(
        np.full(problem.params.N, problem.budget(t) / problem.params.N), t)
        for t in taus]
    k = int(np.argmax(vals))
    assert 0 < k < len(taus) - 1


def test_tangency():
    problem, _ = make_problem(seed=2)
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(50):
        p, tau = rand_point(problem, rng)
        assert abs(problem.surrogate_objective(p, tau, p, tau)
                   - problem.exact_objective(p, tau)) <= 1e-10


def test_minorization_in_p():
    """At tau = tau_ref the surrogate never exceeds the exact objective."""
    problem, _ = make_problem(seed=2)
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(200):
        p_ref, tau = rand_point(problem, rng)
        p, _ = rand_point(problem, rng, tau=tau)
        gap = problem.exact_objective(p, tau) - problem.surrogate_objective(
            p, tau, p_ref, tau)
        assert gap >= -1e-12


def test_surrogate_gradient_matches_fd():
    problem, _ = make_problem(seed=4)
    rng = np.random.Generator(np.random.PCG64(9))
    p_ref, tau_ref = rand_point(problem, rng)
    p, tau = rand_point(problem, rng)
    gp, gt = problem.surrogate_gradient(p, tau, p_ref, tau_ref)
    eps = 1e-6
    for n in range(p.size):
        d = np.zeros_like(p)
        d[n] = eps
        fd = (problem.surrogate_objective(p + d, tau, p_ref, tau_ref)
              - problem.surrogate_objective(p - d, tau, p_ref, tau_ref)) / (2 * eps)
        assert gp[n] == pytest.approx(fd, rel=1e-5, abs=1e-12)
    fd = (problem.surrogate_objective(p, tau + eps, p_ref, tau_ref)
          - problem.surrogate_objective(p, tau - eps, p_ref, tau_ref)) / (2 * eps)
    assert gt == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_gradient_at_expansion_matches_exact_fd():
    problem, _ = make_problem(seed=4)
    rng = np.random.Generator(np.random.PCG64(10))
    p, tau = rand_point(problem, rng)
    gp, _ = problem.surrogate_gradient(p, tau, p, tau)
    eps = 1e-6
    for n in range(p.size):
        d = np.zeros_like(p)
        d[n] = eps
        fd = (problem.exact_objective(p + d, tau)
              - problem.exact_objective(p - d, tau)) / (2 * eps)
        assert gp[n] == pytest.approx(fd, rel=1e-5, abs=1e-12)


# -- projection and subproblem ---------------------------------------------

def test_project_powers_respects_all_sets():
    rng = np.random.Generator(np.random.PCG64(11))
    loads = rng.uniform(0.0, 0.5, size=(4, 3))
    p, converged = sca.project_powers(rng.uniform(-1, 10, 3), np.full(3, 0.2),
                                      5.0, loads, 2.0)
    assert converged
    assert np.all(p >= 0.2 - 1e-10)
    assert np.sum(p) <= 5.0 + 1e-8
    assert np.all(loads @ p <= 2.0 + 1e-8)


def test_subproblem_budget_tight_when_cap_active():
    problem, _ = make_problem(seed=5, R_min=0.0)
    p_min = sca.combined_lower_bounds(problem)
    tau_lo, tau_hi = sca.tau_bounds(problem, p_min)
    p0, tau0 = sca.initial_point(problem, p_min, tau_lo, tau_hi)
    p, tau, _ = sca.solve_subproblem(problem, p0, tau0, p_min, tau_lo, tau_hi)
    # rates increase in p, so the budget should bind at the solution
    assert np.sum(p) == pytest.approx(problem.budget(tau), rel=1e-6)


def test_subproblem_single_pair_matches_grid():
    problem, _ = make_problem(seed=6, N=1, M=2, R_min=0.0)
    tau = 0.5
    cap = problem.budget(tau)
    p_min = np.zeros(1)
    p, _, _ = sca.solve_subproblem(problem, np.array([cap / 2]), tau,
                                   p_min, tau, tau)
    grid = np.linspace(0.0, cap, 2001)
    vals = np.array([problem.surrogate_objective(np.array([x]), tau,
                                                 np.array([cap / 2]), tau)
                     for x in grid])
    best = grid[np.argmax(vals)]
    assert abs(p[0] - best) <= 1e-2 * max(1.0, cap)


def test_run_algorithm2_monotone_and_converged():
    problem, _ = make_problem(seed=0, R_min=0.0)
    res = sca.run_algorithm2(problem)
    assert res.converged
    exact = [row[3] for row in res.trace]
    assert all(b >= a - 1e-9 for a, b in zip(exact, exact[1:]))


def test_run_algorithm2_n1_matches_2d_grid():
    problem, _ = make_problem(seed=1, N=1, M=2, R_min=0.0)
    res = sca.run_algorithm2(problem)
    taus = np.linspace(0.01, 0.99, 99)
    best = -np.inf
    for tau in taus:
        cap = problem.budget(tau)
        ps = np.linspace(0.0, cap, 400)
        for x in ps:
            best = max(best, problem.exact_objective(np.array([x]), tau))
    assert res.objective >= best * (1.0 - 0.01)


def test_oma_mode_surrogate_is_exact():
    problem, _ = make_problem(seed=2, mode="oma")
    rng = np.random.Generator(np.random.PCG64(12))
    p, tau = rand_point(problem, rng)
    p_ref, tau_ref = rand_point(problem, rng)
    assert problem.surrogate_objective(p, tau, p_ref, tau_ref) == \
        problem.exact_objective(p, tau)


def test_fixed_budget_mode():
    problem, _ = make_problem(seed=0, R_min=0.0)
    problem.fixed_P_T = 3.0
    assert problem.budget(0.7) == 3.0
    res = sca.run_algorithm2(problem, p0=np.full(2, 1.0), tau0=0.0)
    assert res.tau == 0.0
    assert np.sum(res.p) <= 3.0 + 1e-8


def test_tau_bounds_closed_form():
    problem, _ = make_problem(seed=3, R_min=0.1)
    p_min = sca.combined_lower_bounds(problem)
    lo, hi = sca.tau_bounds(problem, p_min)
    S = float(np.sum(p_min))
    assert lo == pytest.approx(S * problem.params.T / (problem.G + S), rel=1e-6)
    # at tau = lo the harvested budget covers the lower bounds
    assert problem.budget(lo) >= S - 1e-9
    assert hi < problem.params.T


@pytest.mark.parametrize("mode", ["noma", "oma"])
def test_lower_bounds_zero_gain_infeasible(mode):
    p = SystemParams(N=2, M=4, R_min=0.1)
    with pytest.raises(sca.InfeasibleAllocation, match="pair 1"):
        sca.rate_lower_bounds([0.3, 0.3], [0.7, 0.7], np.array([1.0, 0.0]),
                              np.array([0.5, 0.0]), p, mode=mode)


# -- batched projection, block backtracking, stall stop ----------------------

def one_row_projection(p, p_min, cap, loads, P_iota):
    """The one-point cyclic projection, round by round, as a reference."""
    def cap_simplex(q, cap):
        q = np.maximum(q, 0.0)
        if q.sum() <= cap:
            return q
        if cap <= 0.0:
            return np.zeros_like(q)
        u = np.sort(q)[::-1]
        css = np.cumsum(u)
        ks = np.arange(1, u.size + 1)
        k = int(ks[u - (css - cap) / ks > 0.0][-1])
        return np.maximum(q - (css[k - 1] - cap) / k, 0.0)

    head = max(float(cap - p_min.sum()), 0.0)
    q = p - p_min
    slack = P_iota - loads @ p_min
    for _ in range(sca.PROJ_ROUNDS):
        q = cap_simplex(q, head)
        v = loads @ q - slack
        k = int(np.argmax(v))
        if v[k] <= sca.PROJ_TOL:
            return q + p_min, True
        a = loads[k]
        q = np.maximum(q - a * (v[k] / (a @ a)), 0.0)
    return q + p_min, False


@given(N=st.integers(1, 5), extra=st.integers(0, 6), K=st.integers(1, 12),
       seed=st.integers(0, 10 ** 6), tight=st.booleans(),
       floors=st.booleans())
@settings(max_examples=120, deadline=None)
def test_batched_projection_rows_equal_single_calls(N, extra, K, seed, tight,
                                                    floors):
    """Row k of a batch is the K = 1 call and the one-row reference, bit for
    bit, and converged rows are feasible.

    Tight caps sit just above what the floors put on the antennas, so the
    alternating pass sometimes runs out of rounds there (about 1 row in 10).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    M = N + extra
    loads = rng.uniform(0.0, 1.0, size=(M, N)) ** 2
    loads /= loads.sum(axis=0)          # unit-norm precoder columns
    p_min = rng.uniform(0.0, 0.5, size=N) if floors else np.zeros(N)
    base = float(np.max(loads @ p_min))
    P_iota = base + (rng.uniform(1e-3, 0.1) if tight else rng.uniform(1.0, 5.0))
    caps = np.sum(p_min) + rng.uniform(0.0, 6.0, size=K)
    P = rng.uniform(-1.0, 8.0, size=(K, N))
    out, converged = sca.project_powers(P, p_min, caps, loads, P_iota)
    assert out.shape == (K, N) and converged.shape == (K,)
    for k in range(K):
        row, ok = sca.project_powers(P[k], p_min, caps[k], loads, P_iota)
        assert np.array_equal(row, out[k]) and ok == converged[k]
        ref, ref_ok = one_row_projection(P[k], p_min, caps[k], loads, P_iota)
        assert np.array_equal(row, ref) and ok == ref_ok
        if ok:
            assert np.all(row >= p_min)
            assert np.sum(row) <= caps[k] * (1.0 + 1e-12)
            assert np.all(loads @ row <= P_iota + sca.PROJ_TOL + 1e-12)


def test_project_powers_scalar_cap_broadcasts():
    rng = np.random.Generator(np.random.PCG64(3))
    loads = rng.uniform(0.0, 0.5, size=(5, 3))
    P = rng.uniform(0.0, 4.0, size=(4, 3))
    a, ok_a = sca.project_powers(P, np.zeros(3), 2.5, loads, 1.0)
    b, ok_b = sca.project_powers(P, np.zeros(3), np.full(4, 2.5), loads, 1.0)
    assert np.array_equal(a, b) and np.array_equal(ok_a, ok_b)


def sequential_subproblem(problem, p_ref, tau_ref, p_min, tau_lo, tau_hi,
                          grad_tol=1e-7, max_iter=400):
    """The one-step-at-a-time ascent without the stall stop, as a reference."""
    prm = problem.params

    def project(p, tau):
        tau = float(np.clip(tau, tau_lo, tau_hi))
        p, _ = sca.project_powers(p, p_min, problem.budget(tau),
                                  problem.antenna_loads, prm.P_iota)
        return p, tau

    p, tau = project(np.asarray(p_ref, float).copy(), tau_ref)
    val = problem.surrogate_objective(p, tau, p_ref, tau_ref)
    step = 1.0
    for _ in range(max_iter):
        gp, gt = problem.surrogate_gradient(p, tau, p_ref, tau_ref)
        p_probe, tau_probe = project(p + gp, tau + gt)
        if np.sqrt(np.sum((p_probe - p) ** 2)
                   + (tau_probe - tau) ** 2) < grad_tol:
            break
        improved = False
        for _ in range(40):
            p_new, tau_new = project(p + step * gp, tau + step * gt)
            val_new = problem.surrogate_objective(p_new, tau_new, p_ref,
                                                  tau_ref)
            move = np.sum(gp * (p_new - p)) + gt * (tau_new - tau)
            if val_new >= val + 1e-4 * max(move, 0.0) and val_new >= val:
                p, tau, val = p_new, tau_new, val_new
                step = min(step * 1.5, 1e6)
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return p, tau


def drop_subproblems(seeds):
    """The SCA subproblems run_algorithm4 solves on N=4, M=8 drops."""
    calls = []
    solve = sca.solve_subproblem

    def record(problem, p_ref, tau_ref, *args, **kwargs):
        calls.append((problem, np.array(p_ref), tau_ref) + args)
        return solve(problem, p_ref, tau_ref, *args, **kwargs)

    params = SystemParams(N=4, M=8, R_min=0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sca, "solve_subproblem", record)
        for seed in seeds:
            bcd.run_algorithm4(make_scenario(seed, params))
    return calls


def test_subproblem_matches_sequential_ascent():
    """Block backtracking and the stall stop keep the sequential answer."""
    calls = drop_subproblems([1, 2, 3])
    assert len(calls) >= 10
    stops = set()
    for problem, p_ref, tau_ref, *box in calls:
        p, tau, stats = sca.solve_subproblem(problem, p_ref, tau_ref, *box)
        p_seq, tau_seq = sequential_subproblem(problem, p_ref, tau_ref, *box)
        stops.add(stats.stop)
        assert problem.surrogate_objective(p, tau, p_ref, tau_ref) == \
            pytest.approx(problem.surrogate_objective(p_seq, tau_seq, p_ref,
                                                      tau_ref), rel=1e-15)
        assert problem.exact_objective(p, tau) == pytest.approx(
            problem.exact_objective(p_seq, tau_seq), rel=1e-12)
    assert "stall" in stops


def test_tx_budget_array_equals_scalar_calls():
    params = SystemParams(N=2, M=4)
    taus = np.linspace(0.0, params.T * 0.999, 17)
    batch = ll.tx_budget(taus, 3.7e-4, params)
    assert np.array_equal(batch, [ll.tx_budget(float(t), 3.7e-4, params)
                                  for t in taus])
    assert ll.tx_budget(0, 3.7e-4, params) == 0.0
    for bad in (np.array([0.2, params.T]), np.array([-1e-9, 0.5]),
                np.array([[0.1, np.nan]]), params.T, np.float64(-1e-9),
                float("nan")):
        with pytest.raises(ValueError):
            ll.tx_budget(bad, 3.7e-4, params)


def test_objectives_broadcast_over_rows():
    problem, _ = make_problem(seed=4)
    rng = np.random.Generator(np.random.PCG64(13))
    P = rng.uniform(0.1, 5.0, size=(6, problem.params.N))
    taus = rng.uniform(0.2, 0.8, size=6)
    p_ref, tau_ref = P[0], taus[0]
    exact = problem.exact_objective(P, taus)
    sur = problem.surrogate_objective(P, taus, p_ref, tau_ref)
    for k in range(6):
        assert exact[k] == problem.exact_objective(P[k], taus[k])
        assert sur[k] == problem.surrogate_objective(P[k], taus[k], p_ref,
                                                     tau_ref)


def test_scans_skip_candidates_above_an_antenna_cap():
    """Where the floors fit the caps, no scan returns an unconverged point."""
    params = SystemParams(N=4, M=8, R_min=0.0)
    skipped = 0
    for seed in range(1, 7):
        link = build_link_state(make_scenario(seed, params))
        a = np.full(params.N, 0.3)
        problem = sca.ScaProblem.from_link(link, a, 1.0 - a, params)
        p_min = sca.combined_lower_bounds(problem)
        tau_lo, tau_hi = sca.tau_bounds(problem, p_min)
        assert sca.floors_fit_caps(problem, p_min)
        p0, tau0 = sca.initial_point(problem, p_min, tau_lo, tau_hi)
        p, tau, n = sca._screen_starts(problem, p0, tau0, p_min, tau_lo,
                                       tau_hi)
        skipped += n
        for q, t in ((p, tau), sca._polish_tau(problem, p, tau, p_min,
                                               tau_lo, tau_hi)[:2]):
            _, ok = sca.project_powers(q, p_min, problem.budget(t),
                                       problem.antenna_loads, params.P_iota)
            assert ok or (q is p0)
    assert skipped > 0


def test_stop_reasons_count_every_subproblem():
    problem, _ = make_problem(seed=0, N=4, M=8, R_min=0.0)
    res = sca.run_algorithm2(problem)
    assert set(res.stops) == set(sca.STOP_REASONS)
    assert sum(res.stops.values()) == len(res.trace) - 1
    assert res.proj_unconverged >= 0


@pytest.mark.parametrize("pkw, seed, rel", [
    (dict(N=2, M=4), 4, 1e-9),               # moved by +1.0e-10
    (dict(N=3, M=4, P_iota=0.05), 2, 1e-5),  # moved by -2.1e-6
])
def test_stall_stop_deviation_is_bounded(monkeypatch, pkw, seed, rel):
    """The stall stop moves these OMA drops off the 400-step ascent's answer.

    Per-drop EE on the N=4, M=8 drops of run_algorithm4 is bit-identical
    with and without the stop; here the stalled iterate differs from the
    400-step one in the last bits of p, and later BCD rounds amplify that.
    The tolerances record the accepted deviations.
    """
    params = SystemParams(R_min=0.0, **pkw)

    def run():
        return bcd.run_pipeline(make_scenario(seed, params), params=params,
                                scheme="oma")

    res = run()
    monkeypatch.setattr(sca, "STALL_STEPS", 10 ** 9)
    ref = run()
    assert res.counters["sca_stalled"] > 0
    assert ref.counters["sca_stalled"] == 0
    assert res.ee == pytest.approx(ref.ee, rel=rel)
