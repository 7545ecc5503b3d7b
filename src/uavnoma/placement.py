"""UAV horizontal position optimization under box constraints.

The ascent direction is the finite-difference gradient of the exact EE
(step controlled by a Richardson self-consistency check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linklayer import Allocation, build_link_state, build_report
from .scenario import Scenario

FD_STEP0 = 1e-3
FD_RTOL = 1e-5
ARMIJO_C = 1e-4
MAX_HALVINGS = 40


@dataclass
class PlacementResult:
    xy: tuple
    ee: float
    converged: bool
    trace: list = field(default_factory=list)  # (omega, x, y, EE)


def ee_of_position(scenario: Scenario, alloc: Allocation, scheme="noma"):
    """EE as a function of the UAV (x, y) with users and allocation frozen.

    Probe positions are clamped to the admissible box so finite-difference
    stencils at the boundary stay valid.
    """
    x_min, x_max, y_min, y_max = scenario.params.box

    def f(x, y):
        moved = scenario.with_uav(np.clip(x, x_min, x_max),
                                  np.clip(y, y_min, y_max))
        link = build_link_state(moved)
        return build_report(moved, alloc, link=link, scheme=scheme).EE
    return f


def _central_diff(f, x, y, step):
    gx = (f(x + step, y) - f(x - step, y)) / (2.0 * step)
    gy = (f(x, y + step, ) - f(x, y - step)) / (2.0 * step)
    return np.array([gx, gy])


def fd_gradient(f, x, y, step0=FD_STEP0, rtol=FD_RTOL, max_halvings=8):
    """Central differences with step halving until two estimates agree."""
    step = step0
    g = _central_diff(f, x, y, step)
    for _ in range(max_halvings):
        g_half = _central_diff(f, x, y, step / 2.0)
        scale = max(np.linalg.norm(g_half), 1e-12)
        if np.linalg.norm(g_half - g) <= rtol * scale:
            return g_half
        g = g_half
        step /= 2.0
    return g


def ee_gradient(scenario: Scenario, alloc: Allocation, scheme="noma"):
    """(dEE/dx0, dEE/dy0) of the exact EE at the scenario's UAV position."""
    f = ee_of_position(scenario, alloc, scheme=scheme)
    return fd_gradient(f, scenario.uav_xy[0], scenario.uav_xy[1])


def maximize_over_box(f, xy0, box, eps, max_iter,
                      init_step=5.0) -> PlacementResult:
    """Projected gradient ascent of f over the box, Armijo backtracking."""
    x_min, x_max, y_min, y_max = box

    def clip(z):
        return np.array([np.clip(z[0], x_min, x_max),
                         np.clip(z[1], y_min, y_max)])

    z = clip(np.asarray(xy0, float))
    ee = f(z[0], z[1])
    trace = [(0, z[0], z[1], ee)]
    converged = False
    g_prev = None
    z_prev = None
    for omega in range(1, max_iter + 1):
        g = fd_gradient(f, z[0], z[1])
        # Barzilai-Borwein step seed tames the zigzag of plain ascent on
        # ill-conditioned ridges; Armijo halving keeps the trace monotone
        step = init_step
        if g_prev is not None:
            s = z - z_prev
            y = g - g_prev
            sy = -(s @ y)    # positive where the objective is locally concave
            if sy > 1e-18:
                step = float(np.clip((s @ s) / sy, 1e-8, 1e4))
        improved = False
        for _ in range(MAX_HALVINGS):
            z_new = clip(z + step * g)
            ee_new = f(z_new[0], z_new[1])
            move = g @ (z_new - z)
            if ee_new >= ee + ARMIJO_C * max(move, 0.0) and ee_new >= ee:
                improved = True
                break
            step *= 0.5
        if not improved:
            trace.append((omega, z[0], z[1], ee))
            converged = True
            break
        delta = ee_new - ee
        z_prev, g_prev = z.copy(), g
        z, ee = z_new, ee_new
        trace.append((omega, z[0], z[1], ee))
        if delta < eps:
            converged = True
            break
    return PlacementResult(xy=(float(z[0]), float(z[1])), ee=ee,
                           converged=converged, trace=trace)


def run_algorithm3(scenario: Scenario, alloc: Allocation, params=None,
                   scheme="noma", grid_init=0) -> PlacementResult:
    """Optimize the UAV position at fixed allocation.

    grid_init > 1 seeds the ascent from the best point of a grid_init x
    grid_init coarse scan of the box (the EE landscape is multimodal in
    the array-response angles); 0 starts from the current UAV position.
    """
    prm = params or scenario.params
    f = ee_of_position(scenario, alloc, scheme=scheme)
    xy0 = scenario.uav_xy
    if grid_init and grid_init > 1:
        xs = np.linspace(prm.box[0], prm.box[1], int(grid_init))
        ys = np.linspace(prm.box[2], prm.box[3], int(grid_init))
        cands = [(x, y) for x in xs for y in ys] + [tuple(xy0)]
        xy0 = max(cands, key=lambda c: f(c[0], c[1]))
    return maximize_over_box(f, xy0, prm.box, eps=prm.tol.eps_place,
                             max_iter=prm.iters.N_MAX)


def trace_to_csv_rows(result: PlacementResult):
    yield "omega,x0,y0,EE"
    for row in result.trace:
        yield ",".join(f"{v:.10g}" if i else str(int(v))
                       for i, v in enumerate(row))
