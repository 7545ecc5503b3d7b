import numpy as np
import pytest

from uavnoma import channel as ch
from uavnoma import placement as pl
from uavnoma.linklayer import ZF_TOL, Allocation, link_gains
from uavnoma.params import SystemParams
from uavnoma.scenario import GroundUser, Scenario, UserPair, make_scenario


def small_instance(seed=0, R_min=0.0):
    params = SystemParams(N=2, M=4, R_min=R_min)
    scn = make_scenario(seed, params)
    alloc = Allocation(p=np.array([1.0, 1.5]), alpha_cc=np.array([0.3, 0.3]),
                       alpha_ce=np.array([0.7, 0.7]), tau=0.5)
    return scn, alloc, params


def mirror_instance():
    """Users mirror-symmetric about y = 0; beacon already on y = 0."""
    params = SystemParams(N=2, M=4)
    mk = lambda i, x, y, role: GroundUser(
        id=i, pos=(x, y, 0.0), role=role,
        dist_to_center=float(np.hypot(x, y)))
    users = (mk(0, 10.0, 6.0, "CC"), mk(1, 10.0, -6.0, "CC"),
             mk(2, 30.0, 9.0, "CE"), mk(3, 30.0, -9.0, "CE"))
    pairs = (UserPair(0, 0, 3), UserPair(1, 1, 2))
    scn = Scenario(params=params, uav_xy=(0.0, 0.0), users=users,
                   pairs=pairs, seed=-1)
    alloc = Allocation(p=np.array([1.0, 1.0]), alpha_cc=np.array([0.3, 0.3]),
                       alpha_ce=np.array([0.7, 0.7]), tau=0.4)
    return scn, alloc


def test_symmetric_scenario_zero_y_gradient():
    scn, alloc = mirror_instance()
    g = pl.ee_gradient(scn, alloc)
    assert abs(g[1]) <= 1e-8


def test_fd_richardson_consistency():
    scn, alloc, _ = small_instance(seed=1)
    f = pl.ee_of_position(scn, alloc)
    x, y = 3.0, -2.0
    g1 = pl.fd_gradient(f, x, y, step0=1e-3)
    g2 = pl.fd_gradient(f, x, y, step0=5e-4)
    assert np.linalg.norm(g1 - g2) <= 1e-5 * max(np.linalg.norm(g2), 1e-12)


def test_toy_power_law_gradient():
    """FD machinery against a hand-derived derivative of a power law."""
    beta = 1.05

    def toy(x, y):
        return (x * x + y * y + 100.0) ** (-beta / 2.0)

    g = pl.fd_gradient(toy, 3.0, 4.0)
    r2 = 3.0 ** 2 + 4.0 ** 2 + 100.0
    hand = -beta * r2 ** (-beta / 2.0 - 1.0)
    assert g[0] == pytest.approx(hand * 3.0, rel=1e-6)
    assert g[1] == pytest.approx(hand * 4.0, rel=1e-6)


def test_trace_monotone_and_in_box():
    scn, alloc, params = small_instance(seed=3)
    res = pl.run_algorithm3(scn, alloc, params)
    ees = [row[3] for row in res.trace]
    assert all(b >= a - 1e-12 for a, b in zip(ees, ees[1:]))
    x_min, x_max, y_min, y_max = params.box
    assert x_min <= res.xy[0] <= x_max and y_min <= res.xy[1] <= y_max
    assert res.ee >= ees[0]


def test_matches_grid_oracle():
    for seed in (0, 1, 2):
        scn, alloc, params = small_instance(seed=seed)
        res = pl.run_algorithm3(scn, alloc, params, grid_init=21)
        f = pl.ee_of_position(scn, alloc)
        xs = np.linspace(params.box[0], params.box[1], 21)
        ys = np.linspace(params.box[2], params.box[3], 21)
        grid_best = max(f(x, y) for x in xs for y in ys)
        assert res.ee >= grid_best * (1.0 - 0.01)


def test_interior_stationarity():
    scn, alloc, params = small_instance(seed=4)
    from uavnoma.params import Tolerances
    params = params.replace(tol=Tolerances(eps_place=1e-11))
    scn = scn.with_uav(*scn.uav_xy)
    scn = type(scn)(params=params, uav_xy=scn.uav_xy, users=scn.users,
                    pairs=scn.pairs, seed=scn.seed)
    res = pl.run_algorithm3(scn, alloc, params, grid_init=21)
    x_min, x_max, y_min, y_max = params.box
    margin = 1.0
    interior = (x_min + margin < res.xy[0] < x_max - margin
                and y_min + margin < res.xy[1] < y_max - margin)
    if interior:
        f = pl.ee_of_position(scn, alloc)
        g = pl.fd_gradient(f, res.xy[0], res.xy[1])
        assert np.linalg.norm(g) <= 1e-5 * max(abs(res.ee), 1.0)


def test_link_gains_rank_deficient_at_mirror_origin():
    """Identical CC channels: the QR beam is finite, admissible, repeatable."""
    scn, _ = mirror_instance()
    params = scn.params
    g_cc, g_ce, q, beacon = link_gains(scn, scn.uav_xy)
    for a in (g_cc, g_ce, q, beacon):
        assert np.all(np.isfinite(a))
    q = q[0]
    assert np.allclose(np.linalg.norm(q, axis=0), 1.0, atol=1e-12)
    uav = (*scn.uav_xy, params.h)
    by_id = {u.id: u for u in scn.users}
    H_cc = [ch.user_channel(uav, by_id[p.cc], params).h for p in scn.pairs]
    assert np.array_equal(H_cc[0], H_cc[1])
    for n in range(params.N):
        for m in range(params.N):
            if m != n:
                assert abs(np.vdot(H_cc[m], q[:, n])) <= ZF_TOL
    again = link_gains(scn, scn.uav_xy)
    for a, b in zip((g_cc, g_ce, q, beacon), again):
        assert np.array_equal(np.squeeze(a), np.squeeze(b))


def scalar_only(f, calls):
    """The same objective, evaluated one position per call."""
    def g(x, y):
        x, y = np.broadcast_arrays(x, y)
        calls.append(x.size)
        out = np.array([f(float(a), float(b))
                        for a, b in zip(x.ravel(), y.ravel())])
        return out.reshape(x.shape) if x.ndim else float(out[0])
    return g


def test_batched_evaluation_matches_one_by_one():
    """Batching the ladder and the Armijo halvings only regroups calls."""
    scn, alloc, params = small_instance(seed=2)
    f = pl.ee_of_position(scn, alloc)
    calls = []
    g = scalar_only(f, calls)
    assert np.array_equal(pl.fd_gradient(f, 3.0, -2.0),
                          pl.fd_gradient(g, 3.0, -2.0))
    a = pl.maximize_over_box(f, (20.0, 10.0), params.box, eps=1e-9,
                             max_iter=60)
    b = pl.maximize_over_box(g, (20.0, 10.0), params.box, eps=1e-9,
                             max_iter=60)
    assert (a.xy, a.ee, a.converged) == (b.xy, b.ee, b.converged)
    assert a.trace == b.trace and len(a.trace) > 2
    assert max(calls) > 1    # the batched path ran


@pytest.mark.parametrize("half", [20.0, 80.0])
def test_params_box_other_than_scenario_box(half, monkeypatch):
    """Placement searches params.box within the scenario's box only.

    On this drop the ascent runs into both boxes' edges.
    """
    scn, alloc, _ = small_instance(seed=5)
    params = scn.params.replace(box=(-half, half, -half, half))
    lo, hi = max(-half, -50.0), min(half, 50.0)
    probes = []
    kernel = pl.link_gains

    def spy(scenario, xy):
        probes.append(np.asarray(xy, float).reshape(-1, 2))
        return kernel(scenario, xy)
    monkeypatch.setattr(pl, "link_gains", spy)
    res = pl.run_algorithm3(scn, alloc, params, grid_init=11)
    seen = np.concatenate(probes)
    assert np.all((seen >= lo) & (seen <= hi))
    assert lo <= res.xy[0] <= hi and lo <= res.xy[1] <= hi
    moved = scn.with_uav(*res.xy)   # inside the scenario's box
    assert res.ee == pl.ee_of_position(moved, alloc)(*res.xy)
