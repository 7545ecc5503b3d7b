import numpy as np
import pytest

from uavnoma.params import SystemParams
from uavnoma.scenario import (GroundUser, generate_users, make_scenario,
                              pair_users)


def test_two_users_closer_tagged_cc():
    p = SystemParams(N=1, M=1)
    users = generate_users(7, p)
    assert len(users) == 2
    assert users[0].role == "CC" and users[1].role == "CE"
    assert users[0].dist_to_center <= users[1].dist_to_center


def test_all_users_inside_disc():
    p = SystemParams(N=6, M=8)
    for seed in range(20):
        for u in generate_users(seed, p):
            assert u.dist_to_center <= p.disc_radius + 1e-12


def test_determinism():
    p = SystemParams()
    assert generate_users(42, p) == generate_users(42, p)
    s1, s2 = make_scenario(42, p), make_scenario(42, p)
    assert s1 == s2


def test_disc_sampling_is_uniform():
    # area-uniform drop: fraction inside radius r tends to (r/R)^2
    p = SystemParams(N=4, M=8)
    dists = np.array([u.dist_to_center
                      for s in range(400) for u in generate_users(s, p)])
    frac = np.mean(dists <= p.disc_radius / np.sqrt(2.0))
    assert abs(frac - 0.5) < 0.05


def test_pairing_closest_cc_with_farthest_ce():
    p = SystemParams(N=2, M=4)
    scn = make_scenario(3, p)
    users = scn.users
    c1, c2, e1, e2 = users  # sorted by distance, CC half first
    pairs = {(pr.cc, pr.ce) for pr in scn.pairs}
    assert pairs == {(c1.id, e2.id), (c2.id, e1.id)}


def test_single_pair():
    p = SystemParams(N=1, M=2)
    scn = make_scenario(0, p)
    assert len(scn.pairs) == 1
    assert scn.pairs[0].cc == scn.users[0].id
    assert scn.pairs[0].ce == scn.users[1].id


def test_tie_break_by_id():
    mk = lambda i, r, role: GroundUser(id=i, pos=(r, 0.0, 0.0), role=role,
                                       dist_to_center=r)
    users = [mk(0, 5.0, "CC"), mk(1, 5.0, "CC"), mk(2, 9.0, "CE"),
             mk(3, 9.0, "CE")]
    pairs = pair_users(users)
    assert (pairs[0].cc, pairs[0].ce) == (0, 3)
    assert (pairs[1].cc, pairs[1].ce) == (1, 2)


def test_odd_count_rejected():
    p = SystemParams(N=1, M=2)
    users = generate_users(0, p)
    with pytest.raises(ValueError, match="odd"):
        pair_users(users[:1])


def test_uav_outside_box_rejected():
    p = SystemParams()
    with pytest.raises(ValueError, match="box"):
        make_scenario(0, p, uav_xy=(1000.0, 0.0))


def test_with_uav_keeps_users():
    p = SystemParams()
    scn = make_scenario(0, p)
    moved = scn.with_uav(5.0, -5.0)
    assert moved.users == scn.users and moved.uav_xy == (5.0, -5.0)
