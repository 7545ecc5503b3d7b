"""Geometry, ULA responses, path loss, beacon link and power models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import RotorParams, SystemParams

MIN_DISTANCE = 1.0  # minimum UAV-user separation, m


@dataclass(frozen=True)
class ChannelVector:
    h: np.ndarray        # complex, trailing axis of length M
    dist: float          # or an array of distances, from los_channels
    theta: float
    beta_nk: float       # large-scale path gain


@dataclass(frozen=True)
class BeaconLink:
    d_PU: float          # or an array, one per UAV position
    gain: float          # ||H_PU W_PU||^2 = M^2 beta_PU


def distance(uav, point):
    """3-D Euclidean distance, clamped below at the 1 m minimum separation.

    Broadcasts over leading axes of `uav` and `point` (last axis x, y, z).
    """
    uav = np.asarray(uav, float)
    point = np.asarray(point, float)
    d = np.sqrt((uav[..., 0] - point[..., 0]) ** 2
                + (uav[..., 1] - point[..., 1]) ** 2
                + (uav[..., 2] - point[..., 2]) ** 2)
    return np.maximum(d, MIN_DISTANCE)


def path_gain(dist, params: SystemParams):
    return params.beta0 * dist ** (-params.beta)


def array_response(theta, M: int, spacing_ratio: float) -> np.ndarray:
    """ULA response a(theta): M entries of modulus 1/sqrt(M) on a trailing
    axis; a `theta` array gives one response per leading index."""
    m = np.arange(M)
    phase = 2.0 * np.pi * spacing_ratio * m * np.cos(np.asarray(theta)[..., None])
    return np.exp(1j * phase) / np.sqrt(M)


def los_channels(uav, points, params: SystemParams) -> ChannelVector:
    """LoS channels h = sqrt(M*beta)*a(theta), theta = arcsin(z/d).

    `uav` and `points` broadcast against each other over leading axes
    (last axis x, y, z); every field carries the broadcast shape, and `h`
    one more trailing axis of length M.
    """
    d = distance(uav, points)
    z = np.asarray(uav, float)[..., 2]
    theta = np.arcsin(np.minimum(z / d, 1.0))   # pi/2 under a 1 m clamp
    beta_nk = path_gain(d, params)
    a = array_response(theta, params.M, params.spacing_ratio)
    h = np.sqrt(params.M * beta_nk)[..., None] * a
    return ChannelVector(h=h, dist=d, theta=theta, beta_nk=beta_nk)


def user_channel(uav, user, params: SystemParams) -> ChannelVector:
    """LoS channel from a UAV at `uav` (x, y, z) to one ground user."""
    cv = los_channels(uav, user.pos, params)
    return ChannelVector(h=cv.h, dist=float(cv.dist), theta=float(cv.theta),
                         beta_nk=float(cv.beta_nk))


def beacon_link(uav, params: SystemParams) -> BeaconLink:
    """Rank-1 LoS beacon-to-UAV channel H_PU = M sqrt(beta_PU) a a^H.

    The matched energy beam W_PU = a is its unique best unit beam, so the
    harvesting gain ||H_PU W_PU||^2 is M^2 beta_PU in closed form.
    Broadcasts over leading axes of `uav`.
    """
    d_PU = distance(uav, (*params.beacon_xy, 0.0))
    return BeaconLink(d_PU=d_PU, gain=params.M ** 2 * path_gain(d_PU, params))


def propulsion_power(V: float, rotor: RotorParams) -> float:
    """Rotary-wing propulsion power at horizontal speed V."""
    blade = rotor.P0 * (1.0 + 3.0 * V ** 2 / rotor.Utip ** 2)
    induced = rotor.Pi * np.sqrt(
        np.sqrt(1.0 + V ** 4 / (4.0 * rotor.v0 ** 4)) - V ** 2 / (2.0 * rotor.v0 ** 2))
    parasite = 0.5 * rotor.d0 * rotor.rho * rotor.s * rotor.A * V ** 3
    return float(blade + induced + parasite)
