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
from .placement import search_box
from .scenario import Scenario

MAX_GRID_POINTS = int(1e8)


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


def exhaustive_search(scenario: Scenario, params: SystemParams = None,
                      grid_spec: GridSpec = None):
    """Best feasible point of the EE over a full Cartesian decision grid.

    The positions span params.box within the scenario's box (search_box),
    the box that placement searches. Returns (best_scenario, best_alloc,
    best_ee). Guarded against combinatorial blowup: N <= 3 and at most
    1e8 grid points.
    """
    prm = params or scenario.params
    spec = grid_spec or GridSpec()
    if prm.N > 3:
        raise ValueError("exhaustive search is guarded to N <= 3")
    total = grid_size(prm, spec)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid too large: {total} > {MAX_GRID_POINTS} points")

    alpha_axis = np.linspace(0.5 / spec.alpha_steps, 0.5, spec.alpha_steps)
    alphas = np.array(list(itertools.product(alpha_axis, repeat=prm.N)))  # K1 x N
    splits = _power_splits(prm.N, spec.power_steps)                       # K2 x N
    taus = np.linspace(0.0, prm.T * (1.0 - 1e-3), spec.tau_steps)
    box = search_box(scenario, prm)
    xs = np.linspace(box[0], box[1], spec.x_steps)
    ys = np.linspace(box[2], box[3], spec.y_steps)

    P_s = static_power(prm)
    a1 = alphas[:, None, :]           # K1 x 1 x N
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    gains_cc, gains_ce, beams, beacon_gains = link_gains(
        scenario, np.stack([X, Y], axis=1))
    best = (-np.inf, None, None, None, None)
    for x, y, g_cc, g_ce, q, beacon_gain in zip(
            X.tolist(), Y.tolist(), gains_cc, gains_ce, beams, beacon_gains):
        antenna_loads = np.abs(q) ** 2
        for tau in taus:
            P_T = tx_budget(tau, beacon_gain, prm)
            p = P_T * splits[None, :, :]          # 1 x K2 x N
            r_cc, r_ce = exact_rates(p, a1, g_cc, g_ce, prm)
            ok = (np.all(r_cc >= prm.R_min - 1e-12, axis=2)
                  & np.all(r_ce >= prm.R_min - 1e-12, axis=2))
            loads = splits @ antenna_loads.T * P_T   # K2 x M
            ok &= np.all(loads <= prm.P_iota + 1e-12, axis=1)[None, :]
            if not np.any(ok):
                continue
            ee = ((prm.T - tau) * np.sum(r_cc + r_ce, axis=2)
                  / cycle_energy(tau, P_T, P_s, prm))
            ee = np.where(ok, ee, -np.inf)
            idx = np.unravel_index(np.argmax(ee), ee.shape)
            if ee[idx] > best[0]:
                best = (float(ee[idx]), (x, y), tau,
                        alphas[idx[0]].copy(), P_T * splits[idx[1]].copy())

    ee_best, xy, tau, alpha_cc, p = best
    if xy is None:
        raise ValueError("no feasible grid point")
    scn = scenario.with_uav(*xy)
    alloc = Allocation(p=p, alpha_cc=alpha_cc, alpha_ce=1.0 - alpha_cc, tau=tau)
    return scn, alloc, ee_best
