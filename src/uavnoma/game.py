"""Intra-pair power split via supermodular-game best-response iteration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EXP_CAP = 700.0   # exp() overflows just above this; the utility is already
                  # hopeless there, so clamping cannot move an argmax


def _penalty(kappa, p):
    return math.exp(min(kappa * p, EXP_CAP))


@dataclass(frozen=True)
class UtilityParams:
    g_cc: float    # |h~_{n,1}|^2, effective CC gain
    g_ce: float    # |h~_{n,2}|^2, effective CE gain
    Ps: float      # static power: P_uav + 2N P_user, W
    kappa: float   # penalty coefficient, 1/W
    p_max: float   # per-pair power budget p_n, W

    def __post_init__(self):
        if self.Ps <= 0 or self.p_max <= 0:
            raise ValueError("Ps and p_max must be > 0")
        if self.g_cc <= self.g_ce:
            raise ValueError("CC user must have the stronger effective channel")


@dataclass
class GameState:
    i: int
    p_cc: float
    p_ce: float
    f_cc: float
    f_ce: float


@dataclass
class GameResult:
    alpha_cc: float
    alpha_ce: float
    p_cc: float
    p_ce: float
    converged: bool
    certified: bool          # Theorem-2 strategy spaces stayed nonempty
    ordering_clamped: bool   # NOMA ordering had to be forced
    trace: list = field(default_factory=list)


def utility_cc(p_cc, up: UtilityParams) -> float:
    return (math.log2(1.0 + p_cc * up.g_cc) / (p_cc + up.Ps)
            - _penalty(up.kappa, p_cc))


def utility_ce(p_ce, p_cc, up: UtilityParams) -> float:
    sinr = p_ce * up.g_ce / (1.0 + p_cc * up.g_ce)
    return (math.log2(1.0 + sinr) / (p_ce + up.Ps)
            - _penalty(up.kappa, p_ce))


def supermodular_lower_bound(p_cc, up: UtilityParams) -> float:
    """Smallest CE power for which the game has increasing differences."""
    return math.sqrt(up.Ps * (p_cc * up.g_ce + 1.0) / up.g_ce)


def cc_upper_bound(p_ce, up: UtilityParams) -> float:
    """Largest CC power keeping the adjusted CC strategy space valid."""
    return p_ce * p_ce / up.Ps - 1.0 / up.g_ce


def best_response(objective, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Golden-section argmax of a concave 1-D objective on [lo, hi].

    Ties resolve toward lo (the final bracket's lower end is returned when
    the values there are not worse).
    """
    if lo > hi:
        raise ValueError(f"empty strategy space: [{lo}, {hi}]")
    a, b = lo, hi
    if b - a <= tol:
        return a
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = objective(x2)
    cands = [a, 0.5 * (a + b), b]
    vals = [objective(c) for c in cands]
    best = max(vals)
    for c, v in zip(cands, vals):
        if v >= best - 1e-15:
            return c
    return a


def run_algorithm1(up: UtilityParams, eps_game: float = 1e-6,
                   max_iter: int = 60) -> GameResult:
    """Best-response iteration on the certified strategy spaces.

    The CC player starts from half the budget and the CE player from the
    supermodularity lower bound. Whenever the certified spaces empty out
    (common when Ps is large relative to the budget), the iteration falls
    back to the plain simplex spaces and the result is flagged uncertified;
    the fixed point reached is still a Nash point of the relaxed game.
    """
    certified = True
    p_cc = up.p_max / 2.0
    p_ce = supermodular_lower_bound(p_cc, up)
    if p_cc + p_ce > up.p_max:
        certified = False
        p_ce = min(p_ce, up.p_max - p_cc)
    trace = [GameState(0, p_cc, p_ce, utility_cc(p_cc, up),
                       utility_ce(p_ce, p_cc, up))]
    converged = False
    for i in range(1, max_iter + 1):
        # CC best response on the adjusted space
        hi_cc = min(up.p_max - p_ce, cc_upper_bound(p_ce, up)) if certified \
            else up.p_max - p_ce
        if hi_cc < 0.0:
            certified = False
            hi_cc = max(up.p_max - p_ce, 0.0)
        p_cc_new = best_response(lambda p: utility_cc(p, up), 0.0, hi_cc)

        # CE best response on the updated space
        lo_ce = supermodular_lower_bound(p_cc_new, up) if certified else 0.0
        hi_ce = up.p_max - p_cc_new
        if lo_ce > hi_ce:
            certified = False
            lo_ce = 0.0
        p_ce_new = best_response(lambda p: utility_ce(p, p_cc_new, up),
                                 lo_ce, max(hi_ce, lo_ce))

        delta = max(abs(p_cc_new - p_cc), abs(p_ce_new - p_ce))
        p_cc, p_ce = p_cc_new, p_ce_new
        trace.append(GameState(i, p_cc, p_ce, utility_cc(p_cc, up),
                               utility_ce(p_ce, p_cc, up)))
        if delta < eps_game:
            converged = True
            break

    total = p_cc + p_ce
    clamped = False
    if total <= 0.0:
        alpha_cc = alpha_ce = 0.5
        clamped = True
    else:
        alpha_cc, alpha_ce = p_cc / total, p_ce / total
        if alpha_cc > alpha_ce:
            alpha_cc = alpha_ce = 0.5
            clamped = True
    return GameResult(alpha_cc=alpha_cc, alpha_ce=alpha_ce, p_cc=p_cc,
                      p_ce=p_ce, converged=converged, certified=certified,
                      ordering_clamped=clamped, trace=trace)
