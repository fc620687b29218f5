"""Thermal rating tests, anchored on a hand-evaluated worked example."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlrplan.errors import InputError
from dlrplan.thermal import (
    DEFAULT_NLR_WEATHER,
    ConductorParams,
    LineRatingSpec,
    WeatherSample,
    ampacity,
    heat_terms,
    load_rating_spec,
    rating_mw,
    rating_pu,
    read_weather_csv,
)

# Frozen line-by-line hand evaluation of the worked example: Drake 26/7
# ACSR at conductor temperature 100 degC, ambient 40 degC, 0.61 m/s
# perpendicular wind, full sun (effective incident 996.93 W/m^2 from
# the standard's solar geometry: 1027 W/m^2 at 76.1 deg incidence).
#   t_film = 70, rho_f = 1.028721, mu_f = 2.042759e-5, k_f = 0.0294523
#   N_Re = 864.44, K_angle(90 deg) = 1.0
#   forced convection (low-Re branch) = 82.083 W/m   <- governs
#   natural convection = 42.416 W/m
#   q_r = 17.8 * 0.02814 * 0.8 * (3.73^4 - 3.13^4) = 39.105 W/m
#   q_s = 0.8 * 996.926 * 0.02814 = 22.443 W/m
#   R(100) = 8.688e-5 + 25 * (8.688e-5 - 7.283e-5)/50 = 9.3905e-5 ohm/m
#   I = sqrt((82.083 + 39.105 - 22.443)/9.3905e-5) = 1025.45 A
ORACLE_WEATHER = WeatherSample(
    wind_speed=0.61, wind_angle=90.0, ambient_temperature=40.0,
    solar_irradiance=1027.0 * math.sin(math.radians(76.1)),
)
ORACLE_Q_C = 82.083
ORACLE_Q_R = 39.105
ORACLE_Q_S = 22.443
ORACLE_AMPACITY = 1025.45


def test_worked_example_heat_terms(drake):
    q = heat_terms(ORACLE_WEATHER, drake, t_conductor=100.0)
    assert q.q_c == pytest.approx(ORACLE_Q_C, rel=0.01)
    assert q.q_r == pytest.approx(ORACLE_Q_R, rel=0.01)
    assert q.q_s == pytest.approx(ORACLE_Q_S, rel=0.01)


def test_worked_example_ampacity(drake):
    assert ampacity(ORACLE_WEATHER, drake) == pytest.approx(ORACLE_AMPACITY, rel=0.01)


def test_heat_balance_fixed_point(drake):
    amps = ampacity(ORACLE_WEATHER, drake)
    q = heat_terms(ORACLE_WEATHER, drake, drake.max_temperature)
    resid = abs(q.q_c + q.q_r - q.q_s - amps**2 * drake.resistance(drake.max_temperature))
    assert resid <= 1e-9 * (q.q_c + q.q_r)


def test_no_radiation_without_temperature_difference(drake):
    w = WeatherSample(1.0, 45.0, 25.0, 0.0)
    q = heat_terms(w, drake, t_conductor=25.0)
    assert q.q_r == 0.0


def test_solar_gain_linear_in_irradiance(drake):
    w1 = WeatherSample(1.0, 45.0, 25.0, 400.0)
    w2 = WeatherSample(1.0, 45.0, 25.0, 800.0)
    assert heat_terms(w2, drake, 75.0).q_s == pytest.approx(2 * heat_terms(w1, drake, 75.0).q_s)


def test_solar_gain_independent_of_conductor_temperature(drake):
    w = WeatherSample(1.0, 45.0, 25.0, 700.0)
    assert heat_terms(w, drake, 50.0).q_s == heat_terms(w, drake, 120.0).q_s


def test_zero_radicand_clamps_to_zero_ampacity():
    # Tiny rating temperature: solar gain dominates all cooling.
    cond = ConductorParams(
        diameter=0.02814, resistance_at_t_low=7.283e-5, t_low=25.0,
        resistance_at_t_high=8.688e-5, t_high=75.0, emissivity=0.1,
        absorptivity=1.0, max_temperature=40.0,
    )
    w = WeatherSample(0.0, 0.0, 40.0, 1200.0)
    assert ampacity(w, cond) == 0.0


def test_rating_is_one_at_nlr_weather(drake_spec):
    assert rating_pu(drake_spec.nlr_weather, drake_spec) == pytest.approx(1.0, abs=1e-12)


def test_high_wind_more_than_doubles_ampacity(drake, drake_spec):
    base = ampacity(drake_spec.nlr_weather, drake)
    high = ampacity(WeatherSample(10.0, 90.0, 30.0, 900.0), drake)
    assert high > 2.0 * base


def test_wind_sweep_ratings_nondecreasing(drake_spec):
    prev = 0.0
    for ws in [0.0, 0.3, 0.5, 1.0, 2.0, 4.0, 7.0, 10.0]:
        r = rating_pu(WeatherSample(ws, 22.5, 30.0, 900.0), drake_spec)
        assert r >= prev - 1e-12
        prev = r


def test_sensitivity_ordering_wind_strongest(drake):
    """From the NLR base, wind upside dwarfs the ambient and solar upsides."""
    base = ampacity(DEFAULT_NLR_WEATHER, drake)
    gain_wind = ampacity(WeatherSample(10.0, 22.5, 30.0, 900.0), drake) - base
    gain_ambient = ampacity(WeatherSample(0.5, 22.5, 0.0, 900.0), drake) - base
    gain_solar = ampacity(WeatherSample(0.5, 22.5, 30.0, 0.0), drake) - base
    assert gain_wind > 0 and gain_ambient > 0 and gain_solar > 0
    assert gain_wind > gain_ambient > gain_solar


@settings(max_examples=60, deadline=None)
@given(
    ws=st.floats(0.0, 15.0),
    ang=st.floats(0.0, 90.0),
    ta=st.floats(-20.0, 45.0),
    irr=st.floats(0.0, 1200.0),
    bump=st.floats(0.05, 5.0),
)
def test_ampacity_monotonicity(ws, ang, ta, irr, bump):
    """Sign rules: up in wind, down in ambient temperature and irradiance."""
    base = ampacity(WeatherSample(ws, ang, ta, irr), DRAKE_FOR_PROPS)
    assert ampacity(WeatherSample(ws + bump, ang, ta, irr), DRAKE_FOR_PROPS) >= base - 1e-9
    assert ampacity(WeatherSample(ws, ang, min(ta + bump, 99.0), irr), DRAKE_FOR_PROPS) <= base + 1e-9
    assert ampacity(WeatherSample(ws, ang, ta, irr + 10 * bump), DRAKE_FOR_PROPS) <= base + 1e-9


DRAKE_FOR_PROPS = ConductorParams(
    diameter=0.02814, resistance_at_t_low=7.283e-5, t_low=25.0,
    resistance_at_t_high=8.688e-5, t_high=75.0, emissivity=0.8,
    absorptivity=0.8, max_temperature=100.0,
)


def test_convection_nondecreasing_in_wind(drake):
    w_lo = WeatherSample(1.0, 60.0, 20.0, 500.0)
    w_hi = WeatherSample(3.0, 60.0, 20.0, 500.0)
    assert heat_terms(w_hi, drake, 80.0).q_c >= heat_terms(w_lo, drake, 80.0).q_c


def test_radiation_increasing_in_temperature_difference(drake):
    w = WeatherSample(1.0, 60.0, 20.0, 500.0)
    q1 = heat_terms(w, drake, 60.0).q_r
    q2 = heat_terms(w, drake, 90.0).q_r
    assert q2 > q1 > 0


def test_wind_angle_normalization():
    assert WeatherSample(1.0, 135.0, 20.0, 0.0).wind_angle == pytest.approx(45.0)
    assert WeatherSample(1.0, -30.0, 20.0, 0.0).wind_angle == pytest.approx(30.0)
    assert WeatherSample(1.0, 270.0, 20.0, 0.0).wind_angle == pytest.approx(90.0)


def test_non_finite_inputs_rejected(drake):
    with pytest.raises(InputError):
        WeatherSample(float("nan"), 45.0, 20.0, 0.0)
    with pytest.raises(InputError):
        heat_terms(WeatherSample(1.0, 45.0, 20.0, 0.0), drake, float("inf"))


def test_conductor_validation():
    with pytest.raises(InputError):
        ConductorParams(diameter=-1.0, resistance_at_t_low=1e-5, t_low=25.0,
                        resistance_at_t_high=2e-5, t_high=75.0, emissivity=0.5,
                        absorptivity=0.5, max_temperature=100.0)
    with pytest.raises(InputError):
        ConductorParams(diameter=0.02, resistance_at_t_low=2e-5, t_low=25.0,
                        resistance_at_t_high=1e-5, t_high=75.0, emissivity=0.5,
                        absorptivity=0.5, max_temperature=100.0)


def test_rating_spec_rejects_inconsistent_nominal(drake):
    with pytest.raises(InputError):
        LineRatingSpec(conductor=drake, voltage_kv=230.0, nominal_rating_mw=10.0)


def test_rating_mw_scales_with_nominal(drake_spec):
    w = WeatherSample(3.0, 90.0, 10.0, 100.0)
    assert rating_mw(w, drake_spec) == pytest.approx(
        rating_pu(w, drake_spec) * drake_spec.nominal_rating_mw
    )


def test_weather_csv_roundtrip(tmp_path):
    p = tmp_path / "weather.csv"
    p.write_text(
        "wind_speed,wind_angle,ambient_temperature,solar_irradiance\n"
        "0.5,22.5,30,900\n"
        "2.0,90,10,0\n"
    )
    rows = read_weather_csv(p)
    assert len(rows) == 2
    assert rows[1].wind_speed == 2.0


def test_weather_csv_bad_row_reports_line(tmp_path):
    p = tmp_path / "weather.csv"
    p.write_text(
        "wind_speed,wind_angle,ambient_temperature,solar_irradiance\n"
        "0.5,22.5,30,900\n"
        "oops,90,10,0\n"
    )
    with pytest.raises(InputError, match=":3"):
        read_weather_csv(p)


def test_rating_spec_json_loader(tmp_path, drake_spec):
    import json

    doc = {
        "conductor": {
            "diameter": 0.02814, "resistance_at_t_low": 7.283e-5, "t_low": 25,
            "resistance_at_t_high": 8.688e-5, "t_high": 75, "emissivity": 0.8,
            "absorptivity": 0.8, "max_temperature": 100,
        },
        "voltage_kv": 230.0,
        "nominal_rating_mw": drake_spec.nominal_rating_mw,
        "nlr_weather": {"wind_speed": 0.5, "wind_angle": 22.5,
                        "ambient_temperature": 30, "solar_irradiance": 900},
    }
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    spec = load_rating_spec(p)
    assert spec.voltage_kv == 230.0
    assert rating_pu(spec.nlr_weather, spec) == pytest.approx(1.0, abs=1e-12)
