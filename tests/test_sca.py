import numpy as np
import pytest

from uavnoma import sca
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
    p = sca.project_powers(rng.uniform(-1, 10, 3), np.full(3, 0.2), 5.0,
                           loads, 2.0)
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


def test_trace_csv():
    problem, _ = make_problem(seed=0, R_min=0.0)
    rows = list(sca.trace_to_csv_rows(sca.run_algorithm2(problem)))
    assert rows[0].startswith("j,tau,p_1")
    assert len(rows) >= 2


@pytest.mark.parametrize("mode", ["noma", "oma"])
def test_lower_bounds_zero_gain_infeasible(mode):
    p = SystemParams(N=2, M=4, R_min=0.1)
    with pytest.raises(sca.InfeasibleAllocation, match="pair 1"):
        sca.rate_lower_bounds([0.3, 0.3], [0.7, 0.7], np.array([1.0, 0.0]),
                              np.array([0.5, 0.0]), p, mode=mode)
