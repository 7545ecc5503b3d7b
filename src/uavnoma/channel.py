"""Geometry, ULA responses, path loss, beacon link and power models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import RotorParams, SystemParams

MIN_DISTANCE = 1.0  # minimum UAV-user separation, m


@dataclass(frozen=True)
class ArrayResponse:
    entries: np.ndarray  # complex, |entry| = 1/sqrt(M)


@dataclass(frozen=True)
class ChannelVector:
    h: np.ndarray        # complex M-vector
    dist: float
    theta: float
    beta_nk: float       # large-scale path gain


@dataclass(frozen=True)
class BeaconLink:
    d_PU: float
    gain: float          # ||H_PU W_PU||^2 = M^2 beta_PU


def distance(uav, point) -> float:
    """3-D Euclidean distance, clamped below at the 1 m minimum separation."""
    d = np.sqrt((uav[0] - point[0]) ** 2
                + (uav[1] - point[1]) ** 2
                + (uav[2] - point[2]) ** 2)
    return float(max(d, MIN_DISTANCE))


def path_gain(dist: float, params: SystemParams) -> float:
    return params.beta0 * dist ** (-params.beta)


def array_response(theta: float, M: int, spacing_ratio: float) -> ArrayResponse:
    m = np.arange(M)
    phase = 2.0 * np.pi * spacing_ratio * m * np.cos(theta)
    return ArrayResponse(np.exp(1j * phase) / np.sqrt(M))


def user_channel(uav, user, params: SystemParams) -> ChannelVector:
    """LoS channel h = sqrt(M*beta)*a(theta), theta = arcsin(h/d)."""
    d = distance(uav, user.pos)
    theta = float(np.arcsin(uav[2] / d)) if uav[2] <= d else np.pi / 2
    beta_nk = path_gain(d, params)
    a = array_response(theta, params.M, params.spacing_ratio)
    h = np.sqrt(params.M * beta_nk) * a.entries
    return ChannelVector(h=h, dist=d, theta=theta, beta_nk=beta_nk)


def beacon_link(uav, params: SystemParams) -> BeaconLink:
    """Rank-1 LoS beacon-to-UAV channel H_PU = M sqrt(beta_PU) a a^H.

    The matched energy beam W_PU = a is its unique best unit beam, so the
    harvesting gain ||H_PU W_PU||^2 is M^2 beta_PU in closed form.
    """
    xb, yb = params.beacon_xy
    d_PU = np.sqrt((xb - uav[0]) ** 2 + (yb - uav[1]) ** 2 + uav[2] ** 2)
    d_PU = float(max(d_PU, MIN_DISTANCE))
    return BeaconLink(d_PU=d_PU, gain=params.M ** 2 * path_gain(d_PU, params))


def propulsion_power(V: float, rotor: RotorParams) -> float:
    """Rotary-wing propulsion power at horizontal speed V."""
    blade = rotor.P0 * (1.0 + 3.0 * V ** 2 / rotor.Utip ** 2)
    induced = rotor.Pi * np.sqrt(
        np.sqrt(1.0 + V ** 4 / (4.0 * rotor.v0 ** 4)) - V ** 2 / (2.0 * rotor.v0 ** 2))
    parasite = 0.5 * rotor.d0 * rotor.rho * rotor.s * rotor.A * V ** 3
    return float(blade + induced + parasite)
