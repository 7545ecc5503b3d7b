"""WPT time and inter-pair power allocation by successive convex approximation.

The nonconcave coupling term of the throughput is replaced by its tangent
linearization at the previous iterate; each convexified
subproblem is solved by projected gradient ascent over the polytope
{p >= lower bounds, sum(p) <= P_T(tau), per-antenna caps, tau in [tau_lo, T)}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linklayer as ll
from .params import SystemParams

LN2 = np.log(2.0)
TAU_GUARD = 1e-6       # keep tau away from the P_T singularity at tau = T
PROJ_ROUNDS = 100
PROJ_TOL = 1e-10


class InfeasibleAllocation(RuntimeError):
    """A rate constraint cannot be met at the current coefficients."""


@dataclass
class ScaProblem:
    """Fixed data of problem P3/P4: coefficients, gains and energy constants."""

    alpha_cc: np.ndarray
    alpha_ce: np.ndarray
    g1: np.ndarray           # effective CC gains
    g2: np.ndarray           # effective CE gains
    beacon_gain: float
    antenna_loads: np.ndarray  # M x N
    params: SystemParams
    mode: str = "noma"       # or "oma"
    fixed_P_T: float = None

    def __post_init__(self):
        p = self.params
        # P_T = tau*G/(T - tau); at tau = T/2 the budget is G itself
        self.G = ll.tx_budget(0.5 * p.T, self.beacon_gain, p)
        self.P_s = ll.static_power(p)
        self.c_tau = ll.cycle_energy(1.0, 0.0, 0.0, p)  # dE/dtau at fixed P_T

    @classmethod
    def from_link(cls, link: ll.LinkState, alpha_cc, alpha_ce, params,
                  mode="noma", fixed_P_T=None):
        return cls(alpha_cc=np.asarray(alpha_cc, float),
                   alpha_ce=np.asarray(alpha_ce, float),
                   g1=link.eff_gain_cc, g2=link.eff_gain_ce,
                   beacon_gain=link.beacon_gain,
                   antenna_loads=link.antenna_loads, params=params,
                   mode=mode, fixed_P_T=fixed_P_T)

    # -- budget and energy --------------------------------------------------

    def budget(self, tau: float) -> float:
        return ll.tx_budget(tau, self.beacon_gain, self.params, self.fixed_P_T)

    def energy(self, tau: float) -> float:
        return ll.cycle_energy(tau, self.budget(tau), self.P_s, self.params)

    def energy_dtau(self, tau: float) -> float:
        if self.fixed_P_T is not None:
            return self.c_tau
        T = self.params.T
        return self.c_tau + T * self.G * T / (T - tau) ** 2

    # -- objectives ---------------------------------------------------------

    def rate_sum(self, p, tau) -> float:
        r_cc, r_ce = ll.exact_rates(p, self.alpha_cc, self.g1, self.g2,
                                    self.params, self.mode)
        return float((self.params.T - tau) * np.sum(r_cc + r_ce))

    def exact_objective(self, p, tau) -> float:
        return self.rate_sum(p, tau) / self.energy(tau)

    def surrogate_objective(self, p, tau, p_ref, tau_ref) -> float:
        prm = self.params
        if self.mode == "oma":
            return self.exact_objective(p, tau)
        pos = (prm.T - tau) * prm.B * np.sum(
            np.log2(1.0 + self.alpha_cc * p * self.g1)
            + np.log2(1.0 + p * self.g2))
        c = self.alpha_cc * self.g2 / (LN2 * (1.0 + self.alpha_cc * p_ref * self.g2))
        neg = (prm.T - tau_ref) * prm.B * np.sum(
            np.log2(1.0 + self.alpha_cc * p_ref * self.g2) + c * (p - p_ref))
        return float((pos - neg) / self.energy(tau))

    def surrogate_gradient(self, p, tau, p_ref, tau_ref):
        prm = self.params
        E = self.energy(tau)
        if self.mode == "oma":
            dnum_p = (prm.T - tau) * prm.B * 0.5 * (
                self.g1 / (LN2 * (1.0 + p * self.g1))
                + self.g2 / (LN2 * (1.0 + p * self.g2)))
            pos_terms = 0.5 * np.sum(np.log2(1.0 + p * self.g1)
                                     + np.log2(1.0 + p * self.g2))
            num = (prm.T - tau) * prm.B * pos_terms
            dnum_tau = -prm.B * pos_terms
        else:
            dnum_p = (prm.T - tau) * prm.B * (
                self.alpha_cc * self.g1 / (LN2 * (1.0 + self.alpha_cc * p * self.g1))
                + self.g2 / (LN2 * (1.0 + p * self.g2)))
            c = self.alpha_cc * self.g2 / (LN2 * (1.0 + self.alpha_cc * p_ref * self.g2))
            dnum_p = dnum_p - (prm.T - tau_ref) * prm.B * c
            pos_terms = np.sum(np.log2(1.0 + self.alpha_cc * p * self.g1)
                               + np.log2(1.0 + p * self.g2))
            neg = np.sum(np.log2(1.0 + self.alpha_cc * p_ref * self.g2)
                         + c * (p - p_ref))
            num = (prm.T - tau) * prm.B * pos_terms - (prm.T - tau_ref) * prm.B * neg
            dnum_tau = -prm.B * pos_terms
        dE = self.energy_dtau(tau)
        grad_p = dnum_p / E
        grad_tau = dnum_tau / E - num * dE / E ** 2
        if self.fixed_P_T is not None:
            grad_tau = 0.0
        return grad_p, float(grad_tau)


def rate_lower_bounds(alpha_cc, alpha_ce, g1, g2, params, mode="noma"):
    """Per-pair minimum powers implied by the rate floors C3/C4.

    Returns (p_min_cc, p_min_ce) arrays; raises InfeasibleAllocation when
    the CE SINR ceiling alpha_ce/alpha_cc sits below the required SINR, or
    when a floor is not finite (a zero effective gain).
    """
    alpha_cc = np.asarray(alpha_cc, float)
    alpha_ce = np.asarray(alpha_ce, float)
    t = 2.0 ** (params.R_min / params.B) - 1.0
    if t == 0.0:
        z = np.zeros_like(alpha_cc)
        return z, z.copy()
    g1, g2 = np.asarray(g1, float), np.asarray(g2, float)
    with np.errstate(divide="ignore"):   # a zero gain is reported below
        if mode == "oma":
            t2 = 2.0 ** (2.0 * params.R_min / params.B) - 1.0
            p_cc, p_ce = t2 / g1, t2 / g2
        else:
            p_cc = t / (alpha_cc * g1)
            margin = alpha_ce - t * alpha_cc
            bad = np.nonzero(margin <= 0.0)[0]
            if bad.size:
                raise InfeasibleAllocation(
                    f"pair {int(bad[0])}: CE rate floor exceeds the SINR "
                    f"ceiling alpha_ce/alpha_cc = "
                    f"{alpha_ce[bad[0]] / alpha_cc[bad[0]]:.4g}")
            p_ce = t / (g2 * margin)
    bad = np.nonzero(~(np.isfinite(p_cc) & np.isfinite(p_ce)))[0]
    if bad.size:
        raise InfeasibleAllocation(
            f"pair {int(bad[0])}: rate floor needs unbounded power "
            "(zero effective gain)")
    return p_cc, p_ce


def combined_lower_bounds(problem: ScaProblem):
    lo_cc, lo_ce = rate_lower_bounds(problem.alpha_cc, problem.alpha_ce,
                                     problem.g1, problem.g2, problem.params,
                                     mode=problem.mode)
    return np.maximum(lo_cc, lo_ce)


def tau_bounds(problem: ScaProblem, p_min):
    """Feasible WPT time interval given the power lower bounds."""
    prm = problem.params
    if problem.fixed_P_T is not None:
        if problem.fixed_P_T < np.sum(p_min) - 1e-12:
            raise InfeasibleAllocation(
                "fixed power budget below the rate-floor requirement")
        return 0.0, 0.0
    hi = prm.T * (1.0 - TAU_GUARD)
    S = float(np.sum(p_min))
    if S <= 0.0:
        return 0.0, hi
    lo = S * prm.T / (problem.G + S) * (1.0 + 1e-9) + 1e-15
    if lo > hi:
        raise InfeasibleAllocation("rate floors require tau beyond the cycle")
    return lo, hi


def _cap_simplex(q, cap):
    """Exact projection of q onto {q >= 0, sum q <= cap} (sort-based)."""
    q = np.maximum(q, 0.0)
    s = q.sum()
    if s <= cap:
        return q
    if cap <= 0.0:
        return np.zeros_like(q)
    u = np.sort(q)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    mask = u - (css - cap) / ks > 0.0
    k = int(ks[mask][-1])
    theta = (css[k - 1] - cap) / k
    return np.maximum(q - theta, 0.0)


def project_powers(p, p_min, cap, loads, P_iota):
    """Cyclic projection onto {p >= p_min, sum p <= cap, loads @ p <= P_iota}.

    The lower bounds and the budget are handled by one exact projection
    (shift to q = p - p_min); the per-antenna rows are folded in by a short
    alternating pass, which converges fast since the caps are rarely tight.
    """
    p_min = np.asarray(p_min, float)
    head = float(cap - p_min.sum())
    q = np.asarray(p, float) - p_min
    loads = np.asarray(loads, float)
    slack = P_iota - loads @ p_min
    for _ in range(PROJ_ROUNDS):
        q = _cap_simplex(q, max(head, 0.0))
        v = loads @ q - slack
        k = int(np.argmax(v))
        if v[k] <= PROJ_TOL:
            break
        a = loads[k]
        q = np.maximum(q - a * (v[k] / (a @ a)), 0.0)
    return q + p_min


def solve_subproblem(problem: ScaProblem, p_ref, tau_ref, p_min, tau_lo, tau_hi,
                     grad_tol=1e-7, max_iter=None):
    """Maximize the surrogate by projected gradient ascent with backtracking."""
    prm = problem.params
    if max_iter is None:
        max_iter = prm.iters.inner

    def project(p, tau):
        tau = float(np.clip(tau, tau_lo, tau_hi))
        cap = problem.budget(tau)
        p = project_powers(p, p_min, cap, problem.antenna_loads, prm.P_iota)
        return p, tau

    p, tau = project(np.asarray(p_ref, float).copy(), tau_ref)
    val = problem.surrogate_objective(p, tau, p_ref, tau_ref)
    step = 1.0
    iters = 0
    for iters in range(1, max_iter + 1):
        gp, gt = problem.surrogate_gradient(p, tau, p_ref, tau_ref)
        # projected-gradient stationarity test at a unit probe step
        p_probe, tau_probe = project(p + gp, tau + gt)
        pg_norm = np.sqrt(np.sum((p_probe - p) ** 2) + (tau_probe - tau) ** 2)
        if pg_norm < grad_tol:
            break
        improved = False
        for _ in range(40):
            p_new, tau_new = project(p + step * gp, tau + step * gt)
            val_new = problem.surrogate_objective(p_new, tau_new, p_ref, tau_ref)
            move = np.sum(gp * (p_new - p)) + gt * (tau_new - tau)
            if val_new >= val + 1e-4 * max(move, 0.0) and val_new >= val:
                p, tau, val = p_new, tau_new, val_new
                step = min(step * 1.5, 1e6)
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return p, tau, iters


@dataclass
class ScaResult:
    p: np.ndarray
    tau: float
    objective: float
    converged: bool
    trace: list = field(default_factory=list)   # (j, tau, p..., exact, surrogate)
    inner_iterations: int = 0


def initial_point(problem: ScaProblem, p_min, tau_lo, tau_hi):
    prm = problem.params
    if problem.fixed_P_T is not None:
        tau0 = 0.0
    else:
        tau0 = max(prm.T / 2.0, min(tau_lo * 1.01 + 1e-12, tau_hi))
        tau0 = float(np.clip(tau0, tau_lo, tau_hi))
    cap = problem.budget(tau0)
    p0 = np.full(prm.N, cap / prm.N)
    p0 = project_powers(p0, p_min, cap, problem.antenna_loads, prm.P_iota)
    return p0, tau0


SCREEN_TAUS = 9   # coarse WPT-time candidates scanned before the ascent


def _screen_starts(problem: ScaProblem, p, tau, p_min, tau_lo, tau_hi):
    """Best starting point among the incumbent and a coarse candidate scan.

    The exact EE is multimodal: shutting a weak pair off and concentrating
    the budget on a strong one can beat every interior point, and a larger
    harvest time with a correspondingly larger budget can beat a small one.
    Gradient ascent cannot cross the valleys in between, so the start is
    chosen by screening equal and per-pair concentrated splits over a
    coarse harvest-time grid.
    """
    prm = problem.params
    best = (p, tau, problem.exact_objective(p, tau))
    if problem.fixed_P_T is None and tau_hi > tau_lo:
        taus = np.linspace(max(tau_lo, 1e-3 * prm.T), tau_hi, SCREEN_TAUS)
    else:
        taus = [tau]
    for t in taus:
        cap = problem.budget(t)
        head = cap - float(np.sum(p_min))
        if head <= 0.0:
            continue
        splits = [np.full(prm.N, head / prm.N)]
        splits.extend(head * row for row in np.eye(prm.N))
        for extra in splits:
            cand = project_powers(p_min + extra, p_min, cap,
                                  problem.antenna_loads, prm.P_iota)
            val = problem.exact_objective(cand, t)
            if val > best[2]:
                best = (cand, t, val)
    return best[0], best[1]


def _polish_tau(problem: ScaProblem, p, tau, p_min, tau_lo, tau_hi):
    """1-D refinement of the harvest time along the budget-tight boundary.

    Gradient ascent stalls on the curve p = budget(tau): raising tau at
    fixed p lowers the EE even when raising tau and p together raises it.
    The refinement rescales p with the budget, scans a coarse tau grid and
    golden-sections the best bracket.
    """
    from .game import best_response

    if problem.fixed_P_T is not None or tau_hi <= tau_lo:
        return p, tau
    cap0 = problem.budget(tau)

    def at(t):
        cap = problem.budget(t)
        scale = cap / cap0 if cap0 > 0.0 else 1.0
        cand = project_powers(p * scale, p_min, cap, problem.antenna_loads,
                              problem.params.P_iota)
        return problem.exact_objective(cand, t), cand

    grid = np.linspace(tau_lo, tau_hi, 33)
    vals = [at(t)[0] for t in grid]
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    t_best = best_response(lambda t: at(t)[0], lo, hi, tol=1e-8)
    if at(t_best)[0] < vals[k]:
        t_best = grid[k]
    val, cand = at(t_best)
    if val > problem.exact_objective(p, tau):
        return cand, float(t_best)
    return p, tau


def run_algorithm2(problem: ScaProblem, p0=None, tau0=None) -> ScaResult:
    """Outer SCA loop: re-linearize at each solution until the EE settles.

    Iterates are accepted only if the exact objective does not decrease, so
    the recorded trace is monotone even where the minorization is inexact
    in tau.
    """
    prm = problem.params
    p_min = combined_lower_bounds(problem)
    tau_lo, tau_hi = tau_bounds(problem, p_min)
    if p0 is None or tau0 is None:
        p, tau = initial_point(problem, p_min, tau_lo, tau_hi)
    else:
        tau = float(np.clip(tau0, tau_lo, tau_hi))
        p = project_powers(p0, p_min, problem.budget(tau),
                           problem.antenna_loads, prm.P_iota)
    p, tau = _screen_starts(problem, p, tau, p_min, tau_lo, tau_hi)
    F = problem.exact_objective(p, tau)
    trace = [(0, tau, p.copy(), F, F)]
    inner_total = 0
    converged = False
    for j in range(1, prm.iters.J + 1):
        p_new, tau_new, inner = solve_subproblem(
            problem, p, tau, p_min, tau_lo, tau_hi)
        inner_total += inner
        F_new = problem.exact_objective(p_new, tau_new)
        if F_new - F <= prm.tol.ell_sca:
            # about to settle: refine tau along the budget-tight boundary,
            # which the gradient ascent cannot track on its own
            p_pol, tau_pol = _polish_tau(problem, *(
                (p_new, tau_new) if F_new >= F else (p, tau)),
                p_min, tau_lo, tau_hi)
            F_pol = problem.exact_objective(p_pol, tau_pol)
            if F_pol > max(F, F_new):
                p_new, tau_new, F_new = p_pol, tau_pol, F_pol
        sur = problem.surrogate_objective(p_new, tau_new, p, tau)
        if F_new < F:
            # stalled ascent: keep the previous iterate
            trace.append((j, tau, p.copy(), F, sur))
            converged = True
            break
        trace.append((j, tau_new, p_new.copy(), F_new, sur))
        dF = F_new - F
        p, tau, F = p_new, tau_new, F_new
        if dF <= prm.tol.ell_sca:
            converged = True
            break
    return ScaResult(p=p, tau=tau, objective=F, converged=converged,
                     trace=trace, inner_iterations=inner_total)


def trace_to_csv_rows(result: ScaResult):
    n = result.p.size
    yield "j,tau," + ",".join(f"p_{i + 1}" for i in range(n)) + ",exact_EE,surrogate_EE"
    for j, tau, p, exact, sur in result.trace:
        ps = ",".join(f"{v:.10g}" for v in p)
        yield f"{j},{tau:.10g},{ps},{exact:.10g},{sur:.10g}"
