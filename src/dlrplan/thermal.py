"""Steady-state conductor thermal rating.

A bare overhead conductor at temperature T carries the current that
balances convective and radiative cooling against solar heating and
ohmic losses:

    q_c + q_r = q_s + I^2 R(T)

Solving at the design temperature gives the ampacity

    I_max = sqrt((q_c + q_r - q_s) / R(T_max))

The individual heat-rate terms follow the IEEE-standard formulation for
bare stranded conductors (SI units, conductor diameter in meters):
forced and natural convection with a wind-direction factor, gray-body
radiation, and solar gain proportional to the projected area.  Weather
is taken as uniform along the line, and only the steady state is
modeled, so results are independent of line length.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import InputError, read_json

# Conservative weather behind a nominal (static) rating; used when a
# rating spec does not override it.  Figures-of-merit: light oblique
# wind, hot day, strong sun.
DEFAULT_NLR_WEATHER_FIELDS = {
    "wind_speed": 0.5,
    "wind_angle": 22.5,
    "ambient_temperature": 30.0,
    "solar_irradiance": 900.0,
}


def _require_finite(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise InputError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class WeatherSample:
    """One weather observation at conductor height.

    wind_angle is measured against the line axis in degrees (0 =
    parallel) and is folded into [0, 90] on construction.
    """

    wind_speed: float            # m/s
    wind_angle: float            # degrees to line axis
    ambient_temperature: float   # degC
    solar_irradiance: float      # W/m^2 incident on the projected area

    def __post_init__(self):
        ws = _require_finite("wind_speed", self.wind_speed)
        ang = _require_finite("wind_angle", self.wind_angle)
        ta = _require_finite("ambient_temperature", self.ambient_temperature)
        qs = _require_finite("solar_irradiance", self.solar_irradiance)
        if ws < 0:
            raise InputError(f"wind_speed must be >= 0, got {ws}")
        if qs < 0:
            raise InputError(f"solar_irradiance must be >= 0, got {qs}")
        ang = abs(ang) % 180.0
        if ang > 90.0:
            ang = 180.0 - ang
        object.__setattr__(self, "wind_speed", ws)
        object.__setattr__(self, "wind_angle", ang)
        object.__setattr__(self, "ambient_temperature", ta)
        object.__setattr__(self, "solar_irradiance", qs)


DEFAULT_NLR_WEATHER = WeatherSample(**DEFAULT_NLR_WEATHER_FIELDS)


@dataclass(frozen=True)
class ConductorParams:
    """Physical conductor data for the heat balance.

    Resistance is linear in temperature between (and beyond) the two
    reference points.
    """

    diameter: float               # m
    resistance_at_t_low: float    # ohm/m at t_low
    t_low: float                  # degC
    resistance_at_t_high: float   # ohm/m at t_high
    t_high: float                 # degC
    emissivity: float
    absorptivity: float
    max_temperature: float        # degC, the rating temperature
    elevation: float = 0.0        # m above sea level

    def __post_init__(self):
        for name in ("diameter", "resistance_at_t_low", "t_low", "resistance_at_t_high",
                     "t_high", "emissivity", "absorptivity", "max_temperature", "elevation"):
            _require_finite(name, getattr(self, name))
        if self.diameter <= 0:
            raise InputError(f"diameter must be > 0, got {self.diameter}")
        if self.resistance_at_t_low <= 0 or self.resistance_at_t_high <= 0:
            raise InputError("resistances must be > 0")
        if self.t_high <= self.t_low:
            raise InputError("t_high must exceed t_low")
        if self.resistance_at_t_high < self.resistance_at_t_low:
            raise InputError("resistance must be nondecreasing in temperature")
        if not 0.0 <= self.emissivity <= 1.0:
            raise InputError(f"emissivity must be in [0, 1], got {self.emissivity}")
        if not 0.0 <= self.absorptivity <= 1.0:
            raise InputError(f"absorptivity must be in [0, 1], got {self.absorptivity}")
        if self.max_temperature <= -273.15:
            raise InputError("max_temperature must exceed absolute zero")

    def resistance(self, temperature: float) -> float:
        """ohm/m at the given conductor temperature (linear interp/extrapolation)."""
        slope = (self.resistance_at_t_high - self.resistance_at_t_low) / (self.t_high - self.t_low)
        return self.resistance_at_t_low + slope * (temperature - self.t_low)


class HeatTerms(NamedTuple):
    q_c: float  # convective loss, W/m
    q_r: float  # radiative loss, W/m
    q_s: float  # solar gain, W/m


def heat_terms(w: WeatherSample, c: ConductorParams, t_conductor: float) -> HeatTerms:
    """Heat-rate terms of the balance at a given conductor temperature.

    Convection takes the larger of the natural and the two forced
    correlations (low/high Reynolds), signed by the conductor-ambient
    temperature difference.  Solar gain does not depend on t_conductor.
    """
    t_c = _require_finite("t_conductor", t_conductor)
    t_a = w.ambient_temperature
    dt = t_c - t_a

    t_film = 0.5 * (t_c + t_a)
    rho_f = (1.293 - 1.525e-4 * c.elevation + 6.379e-9 * c.elevation**2) / (1.0 + 0.00367 * t_film)
    mu_f = 1.458e-6 * (t_film + 273.0) ** 1.5 / (t_film + 383.4)
    k_f = 2.424e-2 + 7.477e-5 * t_film - 4.407e-9 * t_film**2

    phi = math.radians(w.wind_angle)
    k_angle = 1.194 - math.cos(phi) + 0.194 * math.cos(2 * phi) + 0.368 * math.sin(2 * phi)
    n_re = c.diameter * rho_f * w.wind_speed / mu_f
    forced_coef = max(1.01 + 1.35 * n_re**0.52, 0.754 * n_re**0.6) * k_f * k_angle
    natural = 3.645 * math.sqrt(rho_f) * c.diameter**0.75 * abs(dt) ** 1.25
    q_c = math.copysign(max(forced_coef * abs(dt), natural), dt)

    q_r = 17.8 * c.diameter * c.emissivity * (((t_c + 273.0) / 100.0) ** 4 - ((t_a + 273.0) / 100.0) ** 4)
    q_s = c.absorptivity * w.solar_irradiance * c.diameter

    return HeatTerms(q_c=q_c, q_r=q_r, q_s=q_s)


def ampacity(w: WeatherSample, c: ConductorParams) -> float:
    """Maximum steady-state current (A) at the conductor's rating temperature.

    When solar gain exceeds the available cooling, the radicand is
    clamped and the ampacity is 0 (the conductor overheats at any load).
    """
    q = heat_terms(w, c, c.max_temperature)
    net = q.q_c + q.q_r - q.q_s
    if net <= 0.0:
        return 0.0
    return math.sqrt(net / c.resistance(c.max_temperature))


@dataclass(frozen=True)
class LineRatingSpec:
    """Ties a conductor and its nominal (static) rating to one line.

    The nominal rating must be reproduced, within 0.5%, by the ampacity
    under the stated NLR weather converted at the line voltage
    (three-phase: P = sqrt(3) V I).
    """

    conductor: ConductorParams
    voltage_kv: float
    nominal_rating_mw: float
    nlr_weather: WeatherSample = DEFAULT_NLR_WEATHER

    def __post_init__(self):
        if self.voltage_kv <= 0:
            raise InputError(f"voltage_kv must be > 0, got {self.voltage_kv}")
        if self.nominal_rating_mw <= 0:
            raise InputError(f"nominal_rating_mw must be > 0, got {self.nominal_rating_mw}")
        base_amps = ampacity(self.nlr_weather, self.conductor)
        if base_amps <= 0.0:
            raise InputError("NLR weather yields zero ampacity; degenerate rating spec")
        implied_mw = math.sqrt(3.0) * self.voltage_kv * base_amps / 1000.0
        if abs(implied_mw - self.nominal_rating_mw) > 0.005 * self.nominal_rating_mw:
            raise InputError(
                f"nominal_rating_mw={self.nominal_rating_mw} inconsistent with NLR-weather "
                f"ampacity ({implied_mw:.2f} MW implied at {self.voltage_kv} kV)"
            )

    @property
    def base_ampacity(self) -> float:
        return ampacity(self.nlr_weather, self.conductor)


def rating_pu(w: WeatherSample, spec: LineRatingSpec) -> float:
    """Line rating normalized to the nominal (NLR-weather) ampacity."""
    base = spec.base_ampacity
    if base <= 0.0:
        raise InputError("rating spec has zero base ampacity")
    return ampacity(w, spec.conductor) / base


def rating_mw(w: WeatherSample, spec: LineRatingSpec) -> float:
    """Deliverable power (MW) under the given weather."""
    return rating_pu(w, spec) * spec.nominal_rating_mw


# ---------------------------------------------------------------------------
# File schemas: JSON objects keyed exactly by the dataclass field names;
# weather tables as CSV with one column per field.

_WEATHER_COLUMNS = ("wind_speed", "wind_angle", "ambient_temperature", "solar_irradiance")


def _weather_from_mapping(obj: dict, where: str) -> WeatherSample:
    missing = [k for k in _WEATHER_COLUMNS if k not in obj]
    if missing:
        raise InputError(f"{where}: missing weather fields {missing}")
    try:
        values = {k: float(obj[k]) for k in _WEATHER_COLUMNS}
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: non-numeric weather value ({exc})") from exc
    return WeatherSample(**values)


def _conductor_from_mapping(obj: dict, where: str) -> ConductorParams:
    fields = ("diameter", "resistance_at_t_low", "t_low", "resistance_at_t_high",
              "t_high", "emissivity", "absorptivity", "max_temperature")
    missing = [k for k in fields if k not in obj]
    if missing:
        raise InputError(f"{where}: missing conductor fields {missing}")
    try:
        kwargs = {k: float(obj[k]) for k in fields}
        kwargs["elevation"] = float(obj.get("elevation", 0.0))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: non-numeric conductor value ({exc})") from exc
    return ConductorParams(**kwargs)


def load_rating_spec(path: str | Path) -> LineRatingSpec:
    """Read a rating-spec JSON document (conductor + voltage + NLR data)."""
    obj = read_json(path)
    if not isinstance(obj, dict) or "conductor" not in obj:
        raise InputError(f"{path}: expected an object with a 'conductor' section")
    return rating_spec_from_mapping(obj, str(path))


def rating_spec_from_mapping(obj: dict, where: str) -> LineRatingSpec:
    conductor = _conductor_from_mapping(obj["conductor"], where)
    for key in ("voltage_kv", "nominal_rating_mw"):
        if key not in obj:
            raise InputError(f"{where}: missing field {key}")
    weather = DEFAULT_NLR_WEATHER
    if "nlr_weather" in obj:
        weather = _weather_from_mapping(obj["nlr_weather"], where)
    return LineRatingSpec(
        conductor=conductor,
        voltage_kv=float(obj["voltage_kv"]),
        nominal_rating_mw=float(obj["nominal_rating_mw"]),
        nlr_weather=weather,
    )


def read_weather_csv(path: str | Path) -> list[WeatherSample]:
    """Read a weather table; raises InputError with the offending row number."""
    samples: list[WeatherSample] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is not None:
            missing = [c for c in _WEATHER_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise InputError(f"{path}: missing weather columns {missing}")
        for i, row in enumerate(reader, start=2):
            try:
                samples.append(_weather_from_mapping(row, f"{path}:{i}"))
            except InputError:
                raise
    return samples
