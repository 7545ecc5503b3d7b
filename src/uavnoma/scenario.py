"""User drop generation, CC/CE classification and the two-user pairing scheme."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import SystemParams


@dataclass(frozen=True)
class GroundUser:
    id: int
    pos: tuple            # (x, y, 0.0), metres
    role: str             # "CC" or "CE"
    dist_to_center: float

    def __post_init__(self):
        if self.pos[2] != 0.0:
            raise ValueError("ground users sit at z = 0")
        if self.role not in ("CC", "CE"):
            raise ValueError(f"bad role {self.role!r}")


@dataclass(frozen=True)
class UserPair:
    n: int    # pair index, 0 = closest CC / farthest CE
    cc: int   # user id of the cell-center member
    ce: int   # user id of the cell-edge member


@dataclass(frozen=True)
class Scenario:
    params: SystemParams
    uav_xy: tuple
    users: tuple    # 2N GroundUser, sorted by dist_to_center ascending
    pairs: tuple    # N UserPair
    seed: int

    def __post_init__(self):
        x_min, x_max, y_min, y_max = self.params.box
        x0, y0 = self.uav_xy
        if not (x_min <= x0 <= x_max and y_min <= y0 <= y_max):
            raise ValueError("UAV position outside the admissible box")
        if len(self.users) != 2 * self.params.N:
            raise ValueError("scenario must hold exactly 2N users")

    def with_uav(self, x0: float, y0: float) -> "Scenario":
        return Scenario(self.params, (float(x0), float(y0)),
                        self.users, self.pairs, self.seed)


def generate_users(seed: int, params: SystemParams):
    """Drop 2N users i.i.d. uniform on the coverage disc.

    Uniformity over the disc uses radius = R*sqrt(u). Users are returned
    sorted by distance to the disc center; the closer half is tagged CC.
    Ties are broken by draw order so regeneration is bit-identical.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n_users = 2 * params.N
    r = params.disc_radius * np.sqrt(rng.uniform(size=n_users))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n_users)
    xy = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
    order = np.lexsort((np.arange(n_users), r))
    users = []
    for rank, idx in enumerate(order):
        role = "CC" if rank < params.N else "CE"
        users.append(GroundUser(
            id=int(idx),
            pos=(float(xy[idx, 0]), float(xy[idx, 1]), 0.0),
            role=role,
            dist_to_center=float(r[idx]),
        ))
    return users


def pair_users(users):
    """Match CC rank i with CE rank N-1-i (closest CC with farthest CE).

    Expects the sorted output of generate_users: first half CC, second
    half CE, distances ascending.
    """
    if len(users) % 2 != 0:
        raise ValueError("cannot pair an odd number of users")
    n_pairs = len(users) // 2
    cc = users[:n_pairs]
    ce = users[n_pairs:]
    if any(u.role != "CC" for u in cc) or any(u.role != "CE" for u in ce):
        raise ValueError("users must be sorted with the CC half first")
    return [UserPair(n=i, cc=cc[i].id, ce=ce[n_pairs - 1 - i].id)
            for i in range(n_pairs)]


def make_scenario(seed: int, params: SystemParams, uav_xy=(0.0, 0.0)) -> Scenario:
    users = generate_users(seed, params)
    pairs = pair_users(users)
    return Scenario(params=params, uav_xy=(float(uav_xy[0]), float(uav_xy[1])),
                    users=tuple(users), pairs=tuple(pairs), seed=seed)

