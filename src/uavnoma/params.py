"""System-wide physical and algorithmic constants.

All tunables live in a single validated, immutable record so that every
simulation run is fully described by (params, seed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import yaml


@dataclass(frozen=True)
class RotorParams:
    """Rotary-wing propulsion constants (SI units)."""

    P0: float = 0.1      # blade profile power, W
    Pi: float = 0.2      # induced power, W
    Utip: float = 200.0  # rotor blade tip speed, m/s
    v0: float = 7.2      # mean rotor induced velocity in hover, m/s
    d0: float = 0.3      # fuselage drag ratio
    s: float = 0.05      # rotor solidity
    rho: float = 1.225   # air density, kg/m^3
    A: float = 0.79      # rotor disc area, m^2

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"rotor constant {f.name} must be > 0")


@dataclass(frozen=True)
class Tolerances:
    """Convergence accuracies of the four nested solvers."""

    eps_game: float = 1e-6    # intra-pair best-response gap
    ell_sca: float = 1e-6     # SCA objective change
    eps_place: float = 1e-7   # placement EE change
    varpi: float = 1e-3       # outer-loop fractional EE increase


@dataclass(frozen=True)
class IterLimits:
    I: int = 60          # intra-pair game rounds
    J: int = 30          # SCA outer iterations
    N_MAX: int = 1000    # placement iterations
    inner: int = 400     # projected-gradient steps per SCA subproblem
    rounds: int = 20     # outer block-descent rounds


@dataclass(frozen=True)
class SystemParams:
    """All constants of the downlink model and the optimization stack."""

    M: int = 8                     # UAV antennas
    N: int = 4                     # user pairs (2N ground users)
    B: float = 1.0                 # bandwidth, Hz
    beta0: float = 1.8             # channel power gain at 1 m
    beta: float = 1.05             # path-loss exponent
    xi: float = 0.8                # energy conversion efficiency
    P_beacon: float = 30.0         # beacon transmit power, W
    P_a: float = 0.05              # per-RF-chain power, W
    P_user: float = 0.1            # per-user circuit power, W
    kappa: float = 0.05            # game penalty coefficient, 1/W
    R_min: float = 0.1             # minimum rate, bit/s/Hz
    T: float = 1.0                 # cycle duration, s
    h: float = 10.0                # UAV altitude, m
    beacon_xy: tuple = (-60.0, 0.0)
    box: tuple = (-50.0, 50.0, -50.0, 50.0)   # (x_min, x_max, y_min, y_max)
    disc_radius: float = 50.0      # user drop radius, m
    spacing_ratio: float = 0.5     # antenna spacing over wavelength
    P_iota: float = 10.0           # per-antenna power cap, W
    eta: float = 0.7               # FTPA decay factor (ETPA baseline)
    rotor: RotorParams = field(default_factory=RotorParams)
    tol: Tolerances = field(default_factory=Tolerances)
    iters: IterLimits = field(default_factory=IterLimits)
    include_beacon_energy: bool = False     # charge P_beacon*tau into E_sum
    grid_init_placement: bool = True        # coarse-grid start for placement

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ValueError("M and N must be positive integers")
        if self.M < self.N:
            raise ValueError(
                f"M={self.M} < N={self.N}: the inter-pair null spaces are empty")
        if not 0 < self.xi <= 1:
            raise ValueError("xi must lie in (0, 1]")
        for name in ("B", "beta", "beta0", "T", "h", "disc_radius",
                     "P_beacon", "P_a", "P_user", "P_iota", "spacing_ratio"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.R_min < 0:
            raise ValueError("R_min must be >= 0")
        if not 0 <= self.eta <= 1:
            raise ValueError("eta must lie in [0, 1]")
        x_min, x_max, y_min, y_max = self.box
        if not (x_min < x_max and y_min < y_max):
            raise ValueError("box must satisfy x_min < x_max and y_min < y_max")
        xb, yb = self.beacon_xy
        if (xb * xb + yb * yb) ** 0.5 <= self.disc_radius:
            raise ValueError("beacon must sit outside the coverage disc")

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)

    # -- config (de)serialization ------------------------------------------

    def to_config(self) -> dict:
        d = dataclasses.asdict(self)
        d["beacon_xy"] = list(d["beacon_xy"])
        d["box"] = list(d["box"])
        return d

    @classmethod
    def from_config(cls, cfg: dict) -> "SystemParams":
        cfg = dict(cfg)
        unknown = set(cfg) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for sub, typ in (("rotor", RotorParams), ("tol", Tolerances),
                         ("iters", IterLimits)):
            if sub in cfg and isinstance(cfg[sub], dict):
                bad = set(cfg[sub]) - {f.name for f in dataclasses.fields(typ)}
                if bad:
                    raise ConfigError(f"unknown {sub} keys: {sorted(bad)}")
                cfg[sub] = typ(**cfg[sub])
        for tup in ("beacon_xy", "box"):
            if tup in cfg:
                cfg[tup] = tuple(cfg[tup])
        try:
            return cls(**cfg)
        except ValueError as e:
            raise ConfigError(str(e)) from e


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def load_params(path) -> SystemParams:
    """Load a YAML config file whose sections mirror SystemParams fields."""
    with open(path) as fh:
        cfg = yaml.safe_load(fh) or {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return SystemParams.from_config(cfg)


def save_params(params: SystemParams, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(params.to_config(), fh, sort_keys=True)
