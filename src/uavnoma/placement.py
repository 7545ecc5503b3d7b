"""UAV horizontal position optimization under box constraints.

The ascent direction is the finite-difference gradient of the exact EE
(step controlled by a Richardson self-consistency check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# build_link_state and build_report are imported for the names that
# perfbench/tracer.py wraps in this module; f uses link_gains directly
from .linklayer import (Allocation, build_link_state, build_report,  # noqa: F401
                        cycle_ee, link_gains)
from .scenario import Scenario

FD_STEP0 = 1e-3
FD_RTOL = 1e-5
FD_HALVINGS = 8     # step halvings of the finite-difference ladder
ARMIJO_C = 1e-4
MAX_HALVINGS = 40
ARMIJO_BLOCK = 8    # Armijo halvings evaluated per call of the objective
INIT_STEP = 5.0     # first Armijo step, before a Barzilai-Borwein seed exists


@dataclass
class PlacementResult:
    xy: tuple
    ee: float
    converged: bool
    trace: list = field(default_factory=list)  # (omega, x, y, EE)


def ee_of_position(scenario: Scenario, alloc: Allocation, scheme="noma",
                   box=None):
    """EE as a function of the UAV (x, y) with users and allocation frozen.

    f(x, y) takes scalars or arrays of one shape and returns the EE at each
    position, all from one link_gains call; a scalar pair gives a float.
    Positions are clamped to `box` (default: the scenario's admissible
    box) so finite-difference stencils at the boundary stay valid.
    """
    params = scenario.params
    x_min, x_max, y_min, y_max = box or params.box

    def f(x, y):
        x, y = np.broadcast_arrays(np.clip(x, x_min, x_max),
                                   np.clip(y, y_min, y_max))
        g_cc, g_ce, _, beacon_gain = link_gains(
            scenario, np.stack([x.ravel(), y.ravel()], axis=1))
        ee = cycle_ee(alloc.p, alloc.alpha_cc, alloc.tau, g_cc, g_ce,
                      beacon_gain, params, scheme, alloc.fixed_P_T)
        return ee.reshape(x.shape) if x.ndim else float(ee[0])
    return f


def fd_gradient(f, x, y, step0=FD_STEP0):
    """Central differences with step halving until two estimates agree.

    The whole halving ladder, four points per step, is one call of f; the
    estimates are then compared in order, so the result is the one that
    evaluating the steps one by one would give.
    """
    s = step0 / 2.0 ** np.arange(FD_HALVINGS + 1)
    zero = np.zeros_like(s)
    v = f(x + np.concatenate([s, -s, zero, zero]),
          y + np.concatenate([zero, zero, s, -s])).reshape(4, -1)
    grads = np.stack([(v[0] - v[1]) / (2.0 * s),
                      (v[2] - v[3]) / (2.0 * s)], axis=1)
    g = grads[0]
    for g_half in grads[1:]:
        scale = max(np.linalg.norm(g_half), 1e-12)
        if np.linalg.norm(g_half - g) <= FD_RTOL * scale:
            return g_half
        g = g_half
    return g


def ee_gradient(scenario: Scenario, alloc: Allocation, scheme="noma"):
    """(dEE/dx0, dEE/dy0) of the exact EE at the scenario's UAV position."""
    f = ee_of_position(scenario, alloc, scheme=scheme)
    return fd_gradient(f, scenario.uav_xy[0], scenario.uav_xy[1])


def maximize_over_box(f, xy0, box, eps, max_iter) -> PlacementResult:
    """Projected gradient ascent of f over the box, Armijo backtracking.

    The Armijo halvings are evaluated ARMIJO_BLOCK at a time in one call
    of f, and the first accepted step is taken, as a one-by-one search
    would take it.
    """
    lo = np.array([box[0], box[2]])
    hi = np.array([box[1], box[3]])
    z = np.clip(np.asarray(xy0, float), lo, hi)
    ee = float(f(z[0], z[1]))
    trace = [(0, z[0], z[1], ee)]
    converged = False
    g_prev = None
    z_prev = None
    for omega in range(1, max_iter + 1):
        g = fd_gradient(f, z[0], z[1])
        # Barzilai-Borwein step seed tames the zigzag of plain ascent on
        # ill-conditioned ridges; Armijo halving keeps the trace monotone
        step = INIT_STEP
        if g_prev is not None:
            s = z - z_prev
            y = g - g_prev
            sy = -(s @ y)    # positive where the objective is locally concave
            if sy > 1e-18:
                step = float(np.clip((s @ s) / sy, 1e-8, 1e4))
        accepted = _armijo(f, z, ee, g, step, lo, hi)
        if accepted is None:
            trace.append((omega, z[0], z[1], ee))
            converged = True
            break
        z_new, ee_new = accepted
        delta = ee_new - ee
        z_prev, g_prev = z.copy(), g
        z, ee = z_new, ee_new
        trace.append((omega, z[0], z[1], ee))
        if delta < eps:
            converged = True
            break
    return PlacementResult(xy=(float(z[0]), float(z[1])), ee=ee,
                           converged=converged, trace=trace)


def _armijo(f, z, ee, g, step, lo, hi):
    """First of MAX_HALVINGS halvings of `step` that passes the Armijo test.

    Returns (z_new, ee_new), or None when every halving fails.
    """
    steps = step * 0.5 ** np.arange(MAX_HALVINGS)
    for b in range(0, MAX_HALVINGS, ARMIJO_BLOCK):
        Z = np.clip(z + steps[b:b + ARMIJO_BLOCK, None] * g, lo, hi)
        values = f(Z[:, 0], Z[:, 1])
        for z_new, ee_new in zip(Z, values):
            move = g @ (z_new - z)
            if ee_new >= ee + ARMIJO_C * max(move, 0.0) and ee_new >= ee:
                return z_new, float(ee_new)
    return None


def search_box(scenario: Scenario, params):
    """The part of params.box inside the scenario's own box.

    The scenario's box is the one its UAV position and the C5/C6 flags are
    checked against, so a placement must not leave it.
    """
    a, b = params.box, scenario.params.box
    return (max(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), min(a[3], b[3]))


def run_algorithm3(scenario: Scenario, alloc: Allocation, params=None,
                   scheme="noma", grid_init=0) -> PlacementResult:
    """Optimize the UAV position at fixed allocation.

    grid_init > 1 seeds the ascent from the best point of a grid_init x
    grid_init coarse scan of the box (the EE landscape is multimodal in
    the array-response angles); 0 starts from the current UAV position.
    The box is params.box within the scenario's box (search_box).
    """
    prm = params or scenario.params
    box = search_box(scenario, prm)
    f = ee_of_position(scenario, alloc, scheme=scheme, box=box)
    xy0 = scenario.uav_xy
    if grid_init and grid_init > 1:
        xs = np.linspace(box[0], box[1], int(grid_init))
        ys = np.linspace(box[2], box[3], int(grid_init))
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        cx = np.append(X.ravel(), xy0[0])
        cy = np.append(Y.ravel(), xy0[1])
        best = int(np.argmax(f(cx, cy)))
        xy0 = (cx[best], cy[best])
    return maximize_over_box(f, xy0, box, eps=prm.tol.eps_place,
                             max_iter=prm.iters.N_MAX)
