"""Flat key=value experiment configuration with engineering units.

Noise powers arrive in dBm and the transmit power in watts, positions in
meters, and angles in degrees; everything is converted at this boundary and
nowhere else. A key that names no field is a ``ConfigError``.
``parse_config(render_config(cfg))`` round-trips exactly.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Optional, Tuple

from .arrays import UlaGeometry
from .channels import Scene
from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "render_config", "dbm_to_watts", "scene_from_config"]

EXPERIMENTS = ("sense-sweep", "detect", "isac-tradeoff", "ris-isac-tradeoff", "beampattern")


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclasses.dataclass
class RunConfig:
    """One experiment run; field units match the config file."""

    experiment: str = "sense-sweep"
    seed: int = 0
    # Scene (Table-style keys).
    transmit_power: float = 1.0           # watts
    noise_sensing_dbm: float = -60.0
    noise_comms_dbm: float = -60.0
    l_t: int = 15
    l_s: int = 15
    n_ris: int = 64
    bs_position: Tuple[float, float] = (0.0, 0.0)
    target_position: Tuple[float, float] = (40.0, 0.0)
    ris_position: Tuple[float, float] = (30.0, 30.0)
    user_position: Tuple[float, float] = (20.0, -20.0)
    pathloss_exp_direct: float = 2.5
    pathloss_exp_ris: float = 2.2
    sinr_threshold_db: float = 10.0
    samples_t: int = 64
    target_gain_var: float = 1.0
    spacing_wavelengths: float = 0.5
    # sense-sweep extras: a straight road with a blockage interval
    # (waypoint labels A..J in the plots; blockage from the given index on).
    road_start: Tuple[float, float] = (10.0, 25.0)
    road_end: Tuple[float, float] = (55.0, 25.0)
    num_waypoints: int = 10
    blocked_from_index: int = 6
    # detect extras.
    snr_db_list: Tuple[float, ...] = (0.0, 5.0, 10.0)
    pf_list: Tuple[float, ...] = (0.1, 0.01)
    trials: int = 100000
    # isac-tradeoff extras.
    rho_list: Tuple[float, ...] = (0.0, 0.3, 0.6, 0.9, 1.0)
    r0_points: int = 25
    # ris-isac-tradeoff extras.
    coupling: str = "weak"
    ris_modes: Tuple[str, ...] = ("with", "without", "reference")
    # beampattern extras.
    target_angles_deg: Tuple[float, ...] = (-40.0, 20.0)
    beam_width_deg: float = 10.0
    grid_points: int = 181
    blocked_user_path: bool = True

    def validate(self) -> "RunConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        for name in ("l_t", "l_s", "samples_t", "num_waypoints", "trials",
                     "r0_points", "grid_points"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.l_s < 2 and self.experiment in ("sense-sweep", "isac-tradeoff", "ris-isac-tradeoff"):
            # One centred element has adot = 0: its echo holds no angle information.
            raise ConfigError(f"l_s must be >= 2 for {self.experiment} (got {self.l_s})")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.n_ris < 0:
            raise ConfigError("n_ris must be >= 0")
        if not sys.float_info.min <= self.transmit_power < math.inf:
            # A denormal budget: ||w||^2 rounds past the beamformer's own budget check.
            raise ConfigError(f"transmit_power must be finite and >= {sys.float_info.min!r} W")
        for name in ("noise_sensing_dbm", "noise_comms_dbm"):
            try:
                watts = dbm_to_watts(getattr(self, name))
            except OverflowError:
                watts = math.inf
            # A denormal noise power rounds the CRBs to 0 and the rates to inf.
            if not sys.float_info.min <= watts < math.inf:  # also a NaN
                raise ConfigError(
                    f"{name} must give a finite power of at least {sys.float_info.min!r} W")
        if not self.target_gain_var >= 0:
            raise ConfigError("target_gain_var must be >= 0")
        if not self.spacing_wavelengths > 0:
            raise ConfigError("spacing_wavelengths must be positive")
        if not self.beam_width_deg > 0:
            raise ConfigError("beam_width_deg must be positive")
        for pf in self.pf_list:
            if not 0.0 < pf < 1.0:
                raise ConfigError("pf_list entries must lie in (0, 1)")
        for name in ("snr_db_list", "pf_list", "rho_list", "ris_modes", "target_angles_deg"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ConfigError(f"{name} entries must not repeat")
        for rho in self.rho_list:
            if not 0.0 <= rho <= 1.0:
                raise ConfigError("rho_list entries must lie in [0, 1]")
        if self.coupling not in ("strong", "weak"):
            raise ConfigError("coupling must be 'strong' or 'weak'")
        bad_modes = set(self.ris_modes) - {"with", "without", "reference"}
        if bad_modes:
            raise ConfigError(f"unknown ris_modes: {sorted(bad_modes)}")
        if self.experiment == "beampattern" and not self.target_angles_deg:
            raise ConfigError("target_angles_deg must hold at least one angle for beampattern")
        if self.experiment == "isac-tradeoff" and not self.rho_list:
            raise ConfigError("rho_list must hold at least one value for isac-tradeoff")
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_position(text: str) -> Tuple[float, float]:
    cleaned = text.strip().strip("[]()")
    parts = [p for p in cleaned.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"positions need exactly two coordinates: {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_tuple(text: str, caster):
    cleaned = text.strip().strip("[]()")
    parts = [p.strip() for p in cleaned.split(",") if p.strip()]
    return tuple(caster(p) for p in parts)


def _coerce(name: str, raw: str):
    field = _FIELDS[name]
    hint = field.type
    try:
        if hint == "int":
            value = int(raw)
        elif hint == "float":
            value = float(raw)
        elif hint == "bool":
            value = _parse_bool(raw)
        elif hint == "str":
            value = raw.strip()
        elif hint == "Tuple[float, float]":
            value = _parse_position(raw)
        elif hint == "Tuple[float, ...]":
            value = _parse_tuple(raw, float)
        elif hint == "Tuple[str, ...]":
            value = _parse_tuple(raw, str)
        else:  # pragma: no cover - every field type is enumerated above
            raise ValueError(f"unhandled config type {hint!r}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {exc}") from None
    entries = value if isinstance(value, tuple) else (value,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
        raise ConfigError(f"bad value for {name!r}: must be finite")
    return value


def parse_config(text: str, experiment: Optional[str] = None) -> RunConfig:
    """Parse a flat key = value document; '#' starts a comment.

    ``experiment``, when given, holds unless the document has its own
    ``experiment`` line, and the document is validated against it. Error
    messages count the document's own lines.
    """
    values = {} if experiment is None else {"experiment": experiment}
    seen, unknown = {}, []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        if key not in _FIELDS:
            unknown.append(key)
            continue
        values[key] = _coerce(key, raw)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    return RunConfig(**values).validate()


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: RunConfig) -> str:
    lines = []
    for field in dataclasses.fields(RunConfig):
        lines.append(f"{field.name} = {_render_value(getattr(cfg, field.name))}")
    return "\n".join(lines) + "\n"


def scene_from_config(cfg: RunConfig) -> Scene:
    """Convert engineering units to the SI-unit scene object."""
    return Scene(
        bs_position=cfg.bs_position,
        ris_position=cfg.ris_position,
        target_position=cfg.target_position,
        user_position=cfg.user_position,
        tx=UlaGeometry(cfg.l_t, cfg.spacing_wavelengths),
        rx=UlaGeometry(cfg.l_s, cfg.spacing_wavelengths),
        ris=UlaGeometry(cfg.n_ris, cfg.spacing_wavelengths) if cfg.n_ris else None,
        pathloss_exp_direct=cfg.pathloss_exp_direct,
        pathloss_exp_ris=cfg.pathloss_exp_ris,
        noise_power_sensing=dbm_to_watts(cfg.noise_sensing_dbm),
        noise_power_comms=dbm_to_watts(cfg.noise_comms_dbm),
        target_gain_var=cfg.target_gain_var,
        samples=cfg.samples_t,
        transmit_power=cfg.transmit_power,
        seed=cfg.seed,
        blocked_user_path=cfg.blocked_user_path if cfg.experiment == "beampattern" else False,
    )
