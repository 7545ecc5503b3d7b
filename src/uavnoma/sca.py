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
BACKTRACK_BLOCK = 8    # backtracking steps projected and evaluated per call
BACKTRACK_STEPS = 40   # halvings tried before an inner step gives up
STALL_STEPS = 20       # accepted steps in a row that leave the surrogate as is
GRAD_TOL = 1e-7        # projected-gradient step length read as stationary
STOP_REASONS = ("stationary", "no_ascent", "stall", "capped")


class InfeasibleAllocation(RuntimeError):
    """A rate constraint cannot be met at the current coefficients."""


def _scalar(x):
    """A 0-d result as a float; a batch of results as it is."""
    return float(x) if np.ndim(x) == 0 else x


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
    # p may be (K, N) with tau (K,): one value per row, each equal to the
    # call with that row alone; a single point gives a float.

    def exact_objective(self, p, tau):
        return _scalar(ll.cycle_ee(p, self.alpha_cc, tau, self.g1, self.g2,
                                   self.beacon_gain, self.params, self.mode,
                                   self.fixed_P_T))

    def _dc_terms(self, p, p_ref):
        """The DC split of the NOMA rate sum, without its B(T - tau) factors.

        Returns the concave log terms at p, the CE interference term
        linearized at p_ref and evaluated at p, and the slope c of that
        linearization; each sum is over the last axis of p.
        """
        a, g1, g2 = self.alpha_cc, self.g1, self.g2
        c = a * g2 / (LN2 * (1.0 + a * p_ref * g2))
        pos = np.sum(np.log2(1.0 + a * p * g1) + np.log2(1.0 + p * g2),
                     axis=-1)
        neg = np.sum(np.log2(1.0 + a * p_ref * g2) + c * (p - p_ref), axis=-1)
        return pos, neg, c

    def surrogate_objective(self, p, tau, p_ref, tau_ref):
        prm = self.params
        if self.mode == "oma":
            return self.exact_objective(p, tau)
        pos, neg, _ = self._dc_terms(p, p_ref)
        num = (prm.T - tau) * prm.B * pos - (prm.T - tau_ref) * prm.B * neg
        return _scalar(num / self.energy(tau))

    def surrogate_gradient(self, p, tau, p_ref, tau_ref):
        prm = self.params
        E = self.energy(tau)
        if self.mode == "oma":
            dnum_p = (prm.T - tau) * prm.B * 0.5 * (
                self.g1 / (LN2 * (1.0 + p * self.g1))
                + self.g2 / (LN2 * (1.0 + p * self.g2)))
            pos = 0.5 * np.sum(np.log2(1.0 + p * self.g1)
                               + np.log2(1.0 + p * self.g2))
            num = (prm.T - tau) * prm.B * pos
        else:
            pos, neg, c = self._dc_terms(p, p_ref)
            dnum_p = (prm.T - tau) * prm.B * (
                self.alpha_cc * self.g1 / (LN2 * (1.0 + self.alpha_cc * p * self.g1))
                + self.g2 / (LN2 * (1.0 + p * self.g2)))
            dnum_p = dnum_p - (prm.T - tau_ref) * prm.B * c
            num = (prm.T - tau) * prm.B * pos - (prm.T - tau_ref) * prm.B * neg
        dnum_tau = -prm.B * pos
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
    """Exact projection of each row of q onto {q >= 0, sum q <= cap}.

    q is (K, N) and cap (K,) >= 0; sort-based, row by row in one pass.
    """
    q = np.maximum(q, 0.0)
    fit = q.sum(axis=-1) <= cap
    if fit.all():
        return q
    over = np.flatnonzero(~fit)
    c = cap[over]
    u = np.sort(q[over], axis=-1)[:, ::-1]
    css = np.cumsum(u, axis=-1)
    ks = np.arange(1, u.shape[-1] + 1)
    mask = u - (css - c[:, None]) / ks > 0.0
    k = ks[-1] - np.argmax(mask[:, ::-1], axis=-1)     # last True, 1-based
    theta = (css[np.arange(over.size), k - 1] - c) / k
    rows = np.maximum(q[over] - theta[:, None], 0.0)
    rows[c <= 0.0] = 0.0
    q[over] = rows
    return q


def project_powers(p, p_min, cap, loads, P_iota):
    """Cyclic projection onto {p >= p_min, sum p <= cap, loads @ p <= P_iota}.

    p is one point (N,) or a batch (K, N) with caps cap, a scalar or (K,);
    row k of a batch equals the call with row k alone, bit for bit. The
    lower bounds and the budget are handled by one exact projection
    (shift to q = p - p_min); the per-antenna rows are folded in by an
    alternating pass that corrects the most violated row, and a row stops
    being updated once no row is violated by more than PROJ_TOL. Where the
    caps are tight against the budget this pass can zigzag for all
    PROJ_ROUNDS rounds and leave an antenna above its cap.

    Returns the projected powers, shaped like p, and whether each row
    converged (a bool for one point, (K,) for a batch).
    """
    p = np.asarray(p, float)
    p_min = np.asarray(p_min, float)
    loads = np.asarray(loads, float)
    q = np.atleast_2d(p) - p_min
    K = q.shape[0]
    head = np.maximum(np.broadcast_to(cap - p_min.sum(), (K,)), 0.0)
    slack = P_iota - loads @ p_min
    norms = None
    converged = np.zeros(K, bool)
    live, ql, hl = np.arange(K), q, head    # the rows still being updated
    for _ in range(PROJ_ROUNDS):
        ql = _cap_simplex(ql, hl)
        # per-row matrix-vector products, so a row's bits do not depend on K
        v = np.matmul(loads, ql[:, :, None])[..., 0] - slack
        k = np.argmax(v, axis=-1)
        vk = v.max(axis=-1)
        go = ~(vk <= PROJ_TOL)
        if not go.all():
            q[live] = ql
            converged[live[~go]] = True
            if not go.any():
                break
            live, ql, hl, k, vk = live[go], ql[go], hl[go], k[go], vk[go]
        if norms is None:
            norms = np.matmul(loads[:, None, :], loads[:, :, None])[:, 0, 0]
        ql = np.maximum(ql - loads[k] * (vk / norms[k])[:, None], 0.0)
    else:
        q[live] = ql
    out = q + p_min
    if p.ndim == 1:
        return out[0], bool(converged[0])
    return out, converged


def floors_fit_caps(problem: ScaProblem, p_min) -> bool:
    """Whether the rate floors alone meet the per-antenna caps.

    Only then can every projection converge; otherwise none does, and the
    scans must not discard their candidates for it.
    """
    v = problem.antenna_loads @ p_min - problem.params.P_iota
    return bool(np.all(v <= PROJ_TOL))


@dataclass
class SubproblemStats:
    iterations: int
    stop: str            # one of STOP_REASONS
    unconverged: int     # projected points read that did not converge


def solve_subproblem(problem: ScaProblem, p_ref, tau_ref, p_min, tau_lo, tau_hi):
    """Maximize the surrogate by projected gradient ascent with backtracking.

    Each step projects the unit probe of the stationarity test and a block
    of BACKTRACK_BLOCK halvings step * 2^-j in one call and takes the first
    halving that passes the ascent test, the one the sequential halving
    loop would take; at most BACKTRACK_STEPS halvings are tried. The ascent
    stops at stationarity, when no halving ascends, after STALL_STEPS
    accepted steps in a row that leave the surrogate unchanged (the
    iterate then only drifts by rounding along the budget-tight boundary,
    where the unit probe never reads stationary), or after
    params.iters.inner steps.

    Returns (p, tau, SubproblemStats).
    """
    prm = problem.params

    def project(p, tau):
        tau = np.clip(tau, tau_lo, tau_hi)
        p, ok = project_powers(p, p_min, problem.budget(tau),
                               problem.antenna_loads, prm.P_iota)
        return p, tau, ok

    p, tau, ok = project(np.asarray(p_ref, float), float(tau_ref))
    tau = float(tau)
    unconverged = int(not ok)
    val = problem.surrogate_objective(p, tau, p_ref, tau_ref)
    step = 1.0
    stalled = 0
    stop = "capped"
    iters = 0
    for iters in range(1, prm.iters.inner + 1):
        gp, gt = problem.surrogate_gradient(p, tau, p_ref, tau_ref)
        accepted = None
        for tried in range(0, BACKTRACK_STEPS, BACKTRACK_BLOCK):
            steps = np.cumprod(np.r_[step, np.full(BACKTRACK_BLOCK - 1, 0.5)])
            probe = tried == 0     # the unit probe leads the first block
            s = np.r_[1.0, steps] if probe else steps
            P, taus, ok = project(p + s[:, None] * gp, tau + s * gt)
            if probe:
                # projected-gradient stationarity test at the unit probe
                unconverged += int(not ok[0])
                if np.sqrt(np.sum((P[0] - p) ** 2)
                           + (taus[0] - tau) ** 2) < GRAD_TOL:
                    stop = "stationary"
                    break
                P, taus, ok = P[1:], taus[1:], ok[1:]
            vals = problem.surrogate_objective(P, taus, p_ref, tau_ref)
            move = np.sum(gp * (P - p), axis=-1) + gt * (taus - tau)
            good = np.flatnonzero((vals >= val + 1e-4 * np.maximum(move, 0.0))
                                  & (vals >= val))
            read = good[0] + 1 if good.size else steps.size
            unconverged += int(np.sum(~ok[:read]))
            if good.size:
                accepted = good[0]
                break
            step = steps[-1] * 0.5
        else:
            stop = "no_ascent"
        if accepted is None:
            break
        stalled = stalled + 1 if vals[accepted] == val else 0
        p, tau, val = P[accepted], float(taus[accepted]), float(vals[accepted])
        step = min(steps[accepted] * 1.5, 1e6)
        if stalled >= STALL_STEPS:
            stop = "stall"
            break
    return p, tau, SubproblemStats(iters, stop, unconverged)


@dataclass
class ScaResult:
    p: np.ndarray
    tau: float
    objective: float
    converged: bool
    trace: list = field(default_factory=list)   # (j, tau, p..., exact, surrogate)
    inner_iterations: int = 0
    stops: dict = field(                        # subproblems per STOP_REASONS
        default_factory=lambda: dict.fromkeys(STOP_REASONS, 0))
    proj_unconverged: int = 0   # scan and ascent points left above a cap


def initial_point(problem: ScaProblem, p_min, tau_lo, tau_hi):
    prm = problem.params
    if problem.fixed_P_T is not None:
        tau0 = 0.0
    else:
        tau0 = max(prm.T / 2.0, min(tau_lo * 1.01 + 1e-12, tau_hi))
        tau0 = float(np.clip(tau0, tau_lo, tau_hi))
    cap = problem.budget(tau0)
    p0 = np.full(prm.N, cap / prm.N)
    p0, _ = project_powers(p0, p_min, cap, problem.antenna_loads, prm.P_iota)
    return p0, tau0


SCREEN_TAUS = 9   # coarse WPT-time candidates scanned before the ascent


def _scan(problem: ScaProblem, rows, p_min, caps, taus, fit):
    """Project candidate powers onto their budgets and score them.

    rows (K, N) are projected with budgets caps (K,) in one call and scored
    by the exact EE at harvest times taus (K,) in one more; one point (N,)
    with scalar cap and tau gives a float score. When fit (the floors
    alone meet the antenna caps) a candidate whose projection did not
    converge scores -inf.

    Returns (candidates, scores, converged flags).
    """
    cands, ok = project_powers(rows, p_min, caps, problem.antenna_loads,
                               problem.params.P_iota)
    vals = problem.exact_objective(cands, taus)
    if fit:
        vals = np.where(ok, vals, -np.inf)
    return cands, vals, ok


def _screen_starts(problem: ScaProblem, p, tau, p_min, tau_lo, tau_hi):
    """Best starting point among the incumbent and a coarse candidate scan.

    The exact EE is multimodal: shutting a weak pair off and concentrating
    the budget on a strong one can beat every interior point, and a larger
    harvest time with a correspondingly larger budget can beat a small one.
    Gradient ascent cannot cross the valleys in between, so the start is
    chosen by screening equal and per-pair concentrated splits over a
    coarse harvest-time grid in one scan. Candidates whose projection did
    not converge are skipped when the floors alone fit the antenna caps.

    Returns (p, tau, number of unconverged candidates).
    """
    prm = problem.params
    N = prm.N
    if problem.fixed_P_T is None and tau_hi > tau_lo:
        taus = np.linspace(max(tau_lo, 1e-3 * prm.T), tau_hi, SCREEN_TAUS)
    else:
        taus = np.array([tau])
    caps = np.broadcast_to(problem.budget(taus), taus.shape)
    heads = caps - float(np.sum(p_min))
    use = heads > 0.0
    if not use.any():
        return p, tau, 0
    taus, caps, heads = taus[use], caps[use], heads[use]
    # per harvest time: the equal split, then all of the head on each pair
    extra = np.concatenate([np.repeat((heads / N)[:, None, None], N, axis=2),
                            heads[:, None, None] * np.eye(N)], axis=1)
    t_rows = np.repeat(taus, N + 1)
    cands, vals, ok = _scan(problem, (p_min + extra).reshape(-1, N), p_min,
                            np.repeat(caps, N + 1), t_rows,
                            floors_fit_caps(problem, p_min))
    k = int(np.argmax(vals))
    if vals[k] > problem.exact_objective(p, tau):
        p, tau = cands[k], t_rows[k]
    return p, tau, int(np.sum(~ok))


def _polish_tau(problem: ScaProblem, p, tau, p_min, tau_lo, tau_hi):
    """1-D refinement of the harvest time along the budget-tight boundary.

    Gradient ascent stalls on the curve p = budget(tau): raising tau at
    fixed p lowers the EE even when raising tau and p together raises it.
    The refinement rescales p with the budget, scans a coarse tau grid in
    one scan, and golden-sections the best bracket. Grid points whose
    projection did not converge are passed over when the floors alone fit
    the antenna caps, and so is such a refined point, in favour of the
    best grid point.

    Returns (p, tau, number of unconverged projections read).
    """
    from .game import best_response

    if problem.fixed_P_T is not None or tau_hi <= tau_lo:
        return p, tau, 0
    cap0 = problem.budget(tau)
    fit = floors_fit_caps(problem, p_min)
    missed = 0

    def at(t):
        nonlocal missed
        cap = problem.budget(t)
        scale = cap / cap0 if cap0 > 0.0 else 1.0
        cand, val, ok = _scan(problem, p * scale, p_min, cap, t, False)
        missed += not ok
        return val, cand, ok

    grid = np.linspace(tau_lo, tau_hi, 33)
    caps = problem.budget(grid)
    scales = caps / cap0 if cap0 > 0.0 else np.ones_like(caps)
    cands, vals, ok = _scan(problem, p * scales[:, None], p_min, caps, grid,
                            fit)
    missed += int(np.sum(~ok))
    k = int(np.argmax(vals))
    if vals[k] == -np.inf:
        return p, tau, missed
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    t_best = best_response(lambda t: at(t)[0], lo, hi, tol=1e-8)
    val, cand, ok = at(t_best)
    if val < vals[k] or (fit and not ok):
        t_best, val, cand = grid[k], vals[k], cands[k]
    if val > problem.exact_objective(p, tau):
        return cand, float(t_best), missed
    return p, tau, missed


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
        p, _ = project_powers(p0, p_min, problem.budget(tau),
                              problem.antenna_loads, prm.P_iota)
    p, tau, missed = _screen_starts(problem, p, tau, p_min, tau_lo, tau_hi)
    F = problem.exact_objective(p, tau)
    trace = [(0, tau, p.copy(), F, F)]
    inner_total = 0
    stops = dict.fromkeys(STOP_REASONS, 0)
    converged = False
    for j in range(1, prm.iters.J + 1):
        p_new, tau_new, stats = solve_subproblem(
            problem, p, tau, p_min, tau_lo, tau_hi)
        inner_total += stats.iterations
        stops[stats.stop] += 1
        missed += stats.unconverged
        F_new = problem.exact_objective(p_new, tau_new)
        if F_new - F <= prm.tol.ell_sca:
            # about to settle: refine tau along the budget-tight boundary,
            # which the gradient ascent cannot track on its own
            p_pol, tau_pol, n = _polish_tau(problem, *(
                (p_new, tau_new) if F_new >= F else (p, tau)),
                p_min, tau_lo, tau_hi)
            missed += n
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
                     trace=trace, inner_iterations=inner_total, stops=stops,
                     proj_unconverged=missed)
