"""Comparison schemes and the brute-force search oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# build_link_state and build_report are imported for the names that
# perfbench/tracer.py wraps in this module
from .linklayer import (Allocation, build_link_state, build_report,  # noqa: F401
                        cycle_energy, exact_rates, link_gains, static_power,
                        tx_budget)
from .params import SystemParams
from .placement import box_grid, search_box
from .scenario import Scenario

MAX_GRID_POINTS = int(1e8)
# Elements of one chunk's rate arrays (alpha x positions x tau x split x
# pair), 2 positions of the criterion-7 grid at N = 2: chunks of 1-2
# positions ran fastest there, larger ones only add memory
ES_CHUNK_ELEMENTS = 20_000
SLACK = 1e-12   # allowance of the rate floors and antenna caps


def etpa_coefficients(g_cc, g_ce, eta: float):
    """Fractional allocation: coefficients proportional to gain^(-eta).

    The gains may be arrays, one pair per element.
    """
    if np.min(g_cc) <= 0 or np.min(g_ce) <= 0:
        raise ValueError("gains must be positive")
    if not 0 <= eta <= 1:
        raise ValueError("eta must lie in [0, 1]")
    w_cc, w_ce = g_cc ** (-eta), g_ce ** (-eta)
    total = w_cc + w_ce
    return w_cc / total, w_ce / total


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution of the exhaustive search."""

    alpha_steps: int = 21   # per-pair alpha_cc values in (0, 0.5]
    power_steps: int = 21   # simplex resolution of the inter-pair split
    tau_steps: int = 11
    x_steps: int = 11
    y_steps: int = 11

    def __post_init__(self):
        for name in ("alpha_steps", "power_steps", "tau_steps", "x_steps",
                     "y_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")


def _power_splits(n_pairs: int, steps: int):
    """Fractions of the total budget per pair, summing to 1."""
    if n_pairs == 1:
        return np.ones((1, 1))
    fr = np.linspace(0.0, 1.0, steps)
    if n_pairs == 2:
        return np.stack([fr, 1.0 - fr], axis=1)
    combos = [c + (1.0 - sum(c),) for c in itertools.product(fr, repeat=n_pairs - 1)
              if sum(c) <= 1.0 + 1e-12]
    return np.array(combos)


def grid_size(params: SystemParams, spec: GridSpec) -> int:
    n_splits = len(_power_splits(params.N, spec.power_steps))
    return (spec.alpha_steps ** params.N * n_splits * spec.tau_steps
            * spec.x_steps * spec.y_steps)


def _pair_rates(p, alpha_cc, g_cc, g_ce, prm: SystemParams):
    """r_cc + r_ce of each pair, -inf where it misses a rate floor (C3/C4)."""
    r_cc, r_ce = exact_rates(p, alpha_cc, g_cc, g_ce, prm)
    floor = prm.R_min - SLACK
    return np.where((r_cc >= floor) & (r_ce >= floor), r_cc + r_ce, -np.inf)


def _ee(rates, tau, energy, prm: SystemParams):
    """EE of per-pair rates (..., N) at harvest time tau and cycle energy."""
    return (prm.T - tau) * np.sum(rates, axis=-1) / energy


def _first_maximiser(rates, ee_of, target):
    """(alpha index per pair, split index) of the first point whose EE is
    target, the slice's maximum, in the order of the alpha-product grid:
    alpha combinations (pair 0 slowest) major, splits minor.

    rates (A x S x N) are one slice's per-pair rates; ee_of maps rates
    (..., S, N) to EEs (..., S). The EE rises with each pair's rate, so a
    prefix of alpha indices reaches target exactly when it does with the
    other pairs at their best; fixing pairs one at a time keeps this exact
    in floating point, rounding ties included.
    """
    n_alpha, _, n_pairs = rates.shape
    pick = np.zeros(n_pairs, dtype=int)
    best = rates.max(axis=0)                      # S x N
    for n in range(n_pairs):
        trial = np.repeat(best[None], n_alpha, axis=0)
        trial[:, :, :n] = rates[pick[:n], :, np.arange(n)].T
        trial[:, :, n] = rates[:, :, n]
        pick[n] = np.argmax(np.any(ee_of(trial) == target, axis=1))
    chosen = rates[pick, :, np.arange(n_pairs)].T.copy()   # S x N
    return pick, int(np.argmax(ee_of(chosen) == target))


def exhaustive_search(scenario: Scenario, params: SystemParams = None,
                      grid_spec: GridSpec = None):
    """Best feasible point of the EE over a full Cartesian decision grid.

    The grid is UAV position x harvest time tau x power split x alpha_cc per
    pair; the positions span params.box within the scenario's box
    (search_box), the box that placement searches. Returns (best_scenario,
    best_alloc, best_ee). Guarded against combinatorial blowup: N <= 3 and
    at most MAX_GRID_POINTS grid points. Raises ValueError("no feasible
    grid point: ...") naming the blocking constraint when no point meets
    the rate floors (C3/C4) and antenna caps (C8).

    The alpha product is never formed. At a fixed position, tau and split
    the energy is fixed (every split spends the whole budget), pair n's
    rates and floors depend only on its own alpha_n and p_n, and the
    antenna caps only on the split; so the best alpha combination is each
    pair's own best alpha, and the work per (position, tau) is A*S*N rates
    instead of A^N*S*N. The rates are computed for chunks of positions at
    once, each rate array holding at most ES_CHUNK_ELEMENTS elements, or
    one position's where that is more.

    Ties resolve as a loop over positions, then tau, scoring the full
    (alpha combination, split) grid of each slice and keeping a strictly
    better slice would: the first (position, tau) reaching the maximum
    wins, and within it the first alpha combination (pair 0's index
    slowest), then the first split. A pair given no power ties over every
    alpha and gets the smallest.
    """
    prm = params or scenario.params
    spec = grid_spec or GridSpec()
    if prm.N > 3:
        raise ValueError("exhaustive search is guarded to N <= 3")
    total = grid_size(prm, spec)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid too large: {total} > {MAX_GRID_POINTS} points")

    alpha_axis = np.linspace(0.5 / spec.alpha_steps, 0.5, spec.alpha_steps)
    splits = _power_splits(prm.N, spec.power_steps)                       # S x N
    taus = np.linspace(0.0, prm.T * (1.0 - 1e-3), spec.tau_steps)
    X, Y = box_grid(search_box(scenario, prm), spec.x_steps, spec.y_steps)

    P_s = static_power(prm)
    gains_cc, gains_ce, beams, beacon_gains = link_gains(
        scenario, np.stack([X, Y], axis=1))
    unit_loads = splits @ np.swapaxes(np.abs(beams) ** 2, -1, -2)  # K x S x M
    alphas = alpha_axis[:, None, None, None, None]
    step = max(1, ES_CHUNK_ELEMENTS // (alpha_axis.size * taus.size
                                        * splits.size))
    best_ee, best_at = -np.inf, None
    floors_met = False
    for lo in range(0, len(X), step):
        c = slice(lo, lo + step)
        P_T = tx_budget(taus, beacon_gains[c, None], prm)           # K' x Tau
        caps = np.all(unit_loads[c, None] * P_T[..., None, None]
                      <= prm.P_iota + SLACK, axis=-1)               # K' x Tau x S
        rates = _pair_rates(P_T[..., None, None] * splits, alphas,
                            gains_cc[c, None, None], gains_ce[c, None, None],
                            prm).max(axis=0)                        # K' x Tau x S x N
        ee = _ee(rates, taus[:, None],
                 cycle_energy(taus, P_T, P_s, prm)[..., None], prm)
        slice_max = np.where(caps, ee, -np.inf).max(axis=-1)        # K' x Tau
        i = int(np.argmax(slice_max))
        if slice_max.flat[i] > best_ee:
            best_ee = float(slice_max.flat[i])
            best_at = (lo + i // taus.size, i % taus.size)
        floors_met = floors_met or bool(np.any(np.all(rates > -np.inf, -1)))
    if best_at is None:
        # tau = 0 leaves no power to cap, so C8 alone never blocks the grid
        raise ValueError("no feasible grid point: " + (
            "antenna caps (C8) are exceeded wherever the rate floors "
            "(C3/C4) hold" if floors_met else
            "rate floors (C3/C4) miss for some pair at every grid point"))

    k, t = best_at
    tau = taus[t]
    P_T = tx_budget(tau, beacon_gains[k], prm)
    caps = np.all(unit_loads[k] * P_T <= prm.P_iota + SLACK, axis=-1)
    energy = cycle_energy(tau, P_T, P_s, prm)
    rates = _pair_rates(P_T * splits, alpha_axis[:, None, None],
                        gains_cc[k], gains_ce[k], prm)               # A x S x N
    pick, s = _first_maximiser(
        rates, lambda r: np.where(caps, _ee(r, tau, energy, prm), -np.inf),
        best_ee)
    alpha_cc = alpha_axis[pick]
    scn = scenario.with_uav(float(X[k]), float(Y[k]))
    alloc = Allocation(p=P_T * splits[s], alpha_cc=alpha_cc,
                       alpha_ce=1.0 - alpha_cc, tau=tau)
    return scn, alloc, best_ee
