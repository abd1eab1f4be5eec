import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magnomech.errors import ConfigError
from magnomech.params import (TWO_PI, SystemParams, apply_override,
                              parse_config, rabi_frequency, serialize_config)

SECTION3 = """\
# effective parameters of the baseline experiment
coupling_mode = effective
omega_0_hz = 10e9
omega_p_hz = 10e6
kappa_a_hz = 2.1e6
kappa_p_hz = 100
kappa_n1_hz = 0.1e6
kappa_n2_hz = 0.1e6
gamma_u_hz = 1e6
g1_hz = 1.5e6
g2_hz = 1.5e6
f_hz = 0
G_au_hz = 6e6
G_np_hz = 3.5e6
"""


def test_section3_defaults():
    p = parse_config(SECTION3)
    assert p.omega_p == TWO_PI * 1e7
    assert p.kappa_a == TWO_PI * 2.1e6
    assert p.kappa_p == TWO_PI * 100.0
    assert p.G_np_direct == TWO_PI * 3.5e6
    # unspecified detunings default to the resonant operating point
    for name in ("delta_1", "delta_2", "delta_u", "delta_n1", "delta_n2"):
        assert getattr(p, name) == p.omega_p
    # material defaults
    assert p.spin_density == 4.22e27
    assert p.gyromagnetic_ratio == TWO_PI * 28e9


def test_unit_convention_sentinel():
    """Every *_hz key is multiplied by exactly 2*pi internally."""
    text = """\
coupling_mode = microscopic
omega_0_hz = 101.0
omega_p_hz = 7.0
kappa_a_hz = 11.0
kappa_p_hz = 13.0
kappa_n1_hz = 17.0
kappa_n2_hz = 19.0
gamma_u_hz = 23.0
g1_hz = 29.0
g2_hz = 31.0
f_hz = 37.0
G_au_hz = 41.0
g_np_hz = 43.0
delta_1_hz = 47.0
delta_2_hz = 53.0
delta_u_hz = 59.0
delta_n1_hz = 61.0
delta_n2_hz = 67.0
gyro_hz_per_tesla = 79.0
B_tesla = 0.5
sphere_diameter_m = 1e-4
spin_density_per_m3 = 1e27
"""
    p = parse_config(text)
    expected = {
        "omega_0": 101.0, "omega_p": 7.0, "kappa_a": 11.0, "kappa_p": 13.0,
        "kappa_n1": 17.0, "kappa_n2": 19.0, "gamma_u": 23.0, "g1": 29.0,
        "g2": 31.0, "f": 37.0, "G_au": 41.0, "g_np": 43.0, "delta_1": 47.0,
        "delta_2": 53.0, "delta_u": 59.0, "delta_n1": 61.0, "delta_n2": 67.0,
        "gyromagnetic_ratio": 79.0,
    }
    for field, hz in expected.items():
        assert getattr(p, field) == TWO_PI * hz, field
    assert p.B_field == 0.5
    assert p.sphere_diameter == 1e-4
    assert p.spin_density == 1e27


def test_mode_frequencies_follow_explicit_detunings():
    p = parse_config(SECTION3 + "delta_1_hz = 12e6\n")
    assert p.delta_1 == TWO_PI * 12e6


def test_detuning_derived_from_explicit_frequency():
    # the frequency becomes its detuning in Hz, before the 2*pi
    p = parse_config(SECTION3 + "omega_n1_hz = 10.002e9\n")
    assert p.delta_n1 == TWO_PI * 2e6
    # a matching detuning may be given alongside
    both = parse_config(SECTION3 + "omega_n1_hz = 10.002e9\n"
                        "delta_n1_hz = 2e6\n")
    assert both == p


@pytest.mark.parametrize("old,new,match", [
    ("kappa_a_hz = 2.1e6", "kappa_a_hz = -1", "negative or zero rate"),
    ("", "omega_n2_hz = 11e9\ndelta_n2_hz = 10e6\n", "inconsistent"),
    ("", "bogus_key = 1.0\n", "unknown key"),
    ("", "kerr_K_hz = 73.0\n", "unknown key"),
    ("", "P_d_watt = 1e-3\n", "unknown key"),
    ("", "omega_d_hz = 10e9\n", "unknown key"),
    ("", "omega_p_hz = 1e7\n", "duplicate key"),
    ("g1_hz = 1.5e6", "g1_hz = fast", "invalid number"),
    ("G_au_hz = 6e6", "G_au_hz =", "empty value"),
    ("", "just some words\n", "expected 'key = value'"),
])
def test_parse_errors(old, new, match):
    text = SECTION3.replace(old, new) if old else SECTION3 + new
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_missing_mandatory_key():
    broken = SECTION3.replace("gamma_u_hz = 1e6\n", "")
    with pytest.raises(ConfigError, match="missing mandatory.*gamma_u_hz"):
        parse_config(broken)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_values_rejected(value):
    with pytest.raises(ConfigError, match="non-finite"):
        parse_config(SECTION3.replace("g1_hz = 1.5e6", f"g1_hz = {value}"))
    with pytest.raises(ConfigError, match="non-finite"):
        parse_config(SECTION3.replace("G_np_hz = 3.5e6",
                                      f"G_np_hz = {value}"))


def test_direct_construction_rejects_non_finite(baseline):
    with pytest.raises(ConfigError, match="finite"):
        SystemParams(**{**_fields(baseline), "delta_1": float("nan")})


def test_effective_mode_requires_direct_coupling():
    broken = SECTION3.replace("G_np_hz = 3.5e6\n", "")
    with pytest.raises(ConfigError, match="G_np_hz"):
        parse_config(broken)


MICRO = SECTION3.replace("coupling_mode = effective",
                         "coupling_mode = microscopic").replace(
    "G_np_hz = 3.5e6\n",
    "g_np_hz = 1e-3\nB_tesla = 3.3e-5\nsphere_diameter_m = 250e-6\n")


def test_microscopic_mode_requirements():
    p = parse_config(MICRO)
    assert p.coupling_mode == "microscopic"
    assert p.g_np == TWO_PI * 1e-3
    with pytest.raises(ConfigError, match="B_tesla"):
        parse_config(MICRO.replace("B_tesla = 3.3e-5\n", ""))
    with pytest.raises(ConfigError, match="g_np_hz > 0"):
        parse_config(MICRO.replace("g_np_hz = 1e-3", "g_np_hz = 0"))


def test_parse_rejects_nonpositive_drive_constants():
    # the one site for these rules: rabi_frequency trusts its record
    for key, field in (("sphere_diameter_m", "sphere_diameter"),
                       ("spin_density_per_m3", "spin_density"),
                       ("gyro_hz_per_tesla", "gyromagnetic_ratio")):
        for value in ("0", "-1"):
            text = MICRO.replace(f"{key} = 250e-6\n", "")
            with pytest.raises(ConfigError, match=f"{field} must be positive"):
                parse_config(text + f"{key} = {value}\n")


def test_mode_requirements_hold_on_every_path(baseline):
    # --mode (an override of coupling_mode), --set and direct construction
    # meet the same check in SystemParams that a config file meets
    micro = parse_config(MICRO)
    with pytest.raises(ConfigError, match="g_np_hz > 0"):
        apply_override(baseline, "coupling_mode", "microscopic")
    with pytest.raises(ConfigError, match="g_np_hz > 0"):
        apply_override(micro, "g_np_hz", 0.0)
    with pytest.raises(ConfigError, match="g_np_hz > 0"):
        replace(micro, g_np=0.0)
    with pytest.raises(ConfigError, match="coupling_mode"):
        parse_config(MICRO.replace("coupling_mode = microscopic",
                                   "coupling_mode = both"))
    # the drive keys: a microscopic record without a drive field or a
    # sphere diameter is refused however it is reached
    drive = "microscopic mode requires B_tesla, sphere_diameter_m"
    coupled = replace(baseline, g_np=micro.g_np)
    with pytest.raises(ConfigError, match=drive):
        parse_config(MICRO.replace("B_tesla = 3.3e-5\n", "")
                     .replace("sphere_diameter_m = 250e-6\n", ""))
    with pytest.raises(ConfigError, match=drive):
        apply_override(coupled, "coupling_mode", "microscopic")
    with pytest.raises(ConfigError, match=drive):
        replace(coupled, coupling_mode="microscopic")
    with pytest.raises(ConfigError, match=drive):
        SystemParams(**{**_fields(micro), "B_field": None,
                        "sphere_diameter": None})
    for key, field in (("B_tesla", "B_field"),
                       ("sphere_diameter_m", "sphere_diameter")):
        message = f"microscopic mode requires {key}$"
        with pytest.raises(ConfigError, match=message):
            parse_config(MICRO.replace(f"{key} = ", "# "))
        with pytest.raises(ConfigError, match=message):
            replace(micro, **{field: None})
    # and an effective record needs its direct coupling
    with pytest.raises(ConfigError, match="effective mode requires G_np_hz"):
        apply_override(micro, "coupling_mode", "effective")
    with pytest.raises(ConfigError, match="effective mode requires G_np_hz"):
        replace(baseline, G_np_direct=None)


@pytest.mark.parametrize("mode, key", [
    ("microscopic", "G_np_hz"),
    ("effective", "g_np_hz"),
    ("effective", "B_tesla"),
    ("effective", "sphere_diameter_m"),
    ("effective", "spin_density_per_m3"),
    ("effective", "gyro_hz_per_tesla"),
])
def test_override_of_a_key_the_mode_never_reads(baseline, mode, key):
    p = parse_config(MICRO) if mode == "microscopic" else baseline
    with pytest.raises(ConfigError, match=f"{mode} mode never reads '{key}'"):
        apply_override(p, key, 1.0)


def test_override_value_must_be_a_number(baseline):
    with pytest.raises(ConfigError, match="invalid number for 'f_hz': 'x'"):
        apply_override(baseline, "f_hz", "x")
    with pytest.raises(ConfigError, match="invalid number for 'G_np_hz'"):
        apply_override(baseline, "G_np_hz", "3.5e6+j1")


def test_non_finite_value_is_named_alike_on_every_path(baseline):
    message = "non-finite value for 'g1_hz'"
    for build in (
            lambda: parse_config(SECTION3.replace("g1_hz = 1.5e6",
                                                  "g1_hz = inf")),
            lambda: apply_override(baseline, "g1_hz", math.inf),
            lambda: replace(baseline, g1=math.inf),
            lambda: SystemParams(**{**_fields(baseline), "g1": math.inf})):
        with pytest.raises(ConfigError, match=message):
            build()
    with pytest.raises(ConfigError, match="non-finite value for 'G_np_hz'"):
        apply_override(baseline, "G_np_hz", complex(1.0, math.nan))
    with pytest.raises(ConfigError, match="non-finite value for 'omega_u_hz'"):
        parse_config(SECTION3 + "omega_u_hz = nan\ndelta_u_hz = 1e7\n")


def test_roundtrip_baselines():
    for text in (SECTION3, MICRO):
        p = parse_config(text)
        assert parse_config(serialize_config(p)) == p


def test_roundtrip_complex_direct_coupling():
    p = parse_config(SECTION3.replace("G_np_hz = 3.5e6",
                                      "G_np_hz = 3.5e6+2.5e5j"))
    assert p.G_np_direct == TWO_PI * complex(3.5e6, 2.5e5)
    assert parse_config(serialize_config(p)) == p


_hz = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False,
                allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(kappa_a=_hz, kappa_p=_hz, kappa_n1=_hz, kappa_n2=_hz, gamma_u=_hz,
       g1=_hz, g2=_hz, f=_hz, G_au=_hz, G_np=_hz, omega_p=_hz,
       d1=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_roundtrip_random_configs(kappa_a, kappa_p, kappa_n1, kappa_n2,
                                  gamma_u, g1, g2, f, G_au, G_np, omega_p, d1):
    text = (
        "coupling_mode = effective\n"
        f"omega_0_hz = 10e9\nomega_p_hz = {omega_p!r}\n"
        f"kappa_a_hz = {kappa_a!r}\nkappa_p_hz = {kappa_p!r}\n"
        f"kappa_n1_hz = {kappa_n1!r}\nkappa_n2_hz = {kappa_n2!r}\n"
        f"gamma_u_hz = {gamma_u!r}\n"
        f"g1_hz = {g1!r}\ng2_hz = {g2!r}\nf_hz = {f!r}\n"
        f"G_au_hz = {G_au!r}\nG_np_hz = {G_np!r}\ndelta_1_hz = {d1!r}\n"
    )
    p = parse_config(text)
    assert parse_config(serialize_config(p)) == p


# absolute-frequency key -> the detuning it sets
_DETUNING_OF = {"omega_cav_1_hz": "delta_1", "omega_cav_2_hz": "delta_2",
                "omega_u_hz": "delta_u", "omega_n1_hz": "delta_n1",
                "omega_n2_hz": "delta_n2"}
_frame_hz = st.integers(min_value=10 ** 6, max_value=2 * 10 ** 7).map(
    lambda k: 1000.0 * k)
_frequency_key = st.sampled_from(sorted(_DETUNING_OF))


@settings(max_examples=100, deadline=None)
@given(omega_0=_frame_hz,
       near_khz=st.dictionaries(_frequency_key, st.integers(-10 ** 5, 10 ** 5)),
       far=st.dictionaries(_frequency_key, st.floats(1e3, 1e12)))
def test_roundtrip_absolute_frequencies(omega_0, near_khz, far):
    # kHz-round frequencies within 100 MHz of the frame, and arbitrary ones
    # anywhere from 1 kHz to 1 THz
    given_hz = {key: omega_0 + 1000.0 * k for key, k in near_khz.items()}
    given_hz.update(far)
    assume(given_hz)
    text = SECTION3.replace("omega_0_hz = 10e9", f"omega_0_hz = {omega_0!r}")
    text += "".join(f"{key} = {hz!r}\n" for key, hz in given_hz.items())
    p = parse_config(text)
    assert parse_config(serialize_config(p)) == p
    for key, hz in given_hz.items():
        assert getattr(p, _DETUNING_OF[key]) == TWO_PI * (hz - omega_0), key


def test_direct_construction_validation(baseline):
    with pytest.raises(ConfigError, match="kappa_p"):
        SystemParams(**{**_fields(baseline), "kappa_p": 0.0})
    with pytest.raises(ConfigError, match="non-negative"):
        SystemParams(**{**_fields(baseline), "g1": -1.0})
    with pytest.raises(ConfigError, match="coupling_mode"):
        SystemParams(**{**_fields(baseline), "coupling_mode": "both"})


def _fields(p):
    from dataclasses import fields
    return {f.name: getattr(p, f.name) for f in fields(p)}


def test_apply_override_detuning_moves_frequency(baseline):
    p = apply_override(baseline, "delta_n1_hz", 8e6)
    assert p.delta_n1 == TWO_PI * 8e6


def test_apply_override_rejects_frame_keys(baseline):
    with pytest.raises(ConfigError, match="not overridable"):
        apply_override(baseline, "omega_0_hz", 9e9)



# --- Rabi rate -------------------------------------------------------------

def test_rabi_zero_field():
    assert rabi_frequency(0.0, 250e-6, 4.22e27, TWO_PI * 28e9) == 0.0


def test_rabi_diameter_scaling():
    base = rabi_frequency(1e-4, 250e-6, 4.22e27, TWO_PI * 28e9)
    doubled = rabi_frequency(1e-4, 500e-6, 4.22e27, TWO_PI * 28e9)
    assert doubled == pytest.approx(2.0 ** 1.5 * base, rel=1e-12)


def test_rabi_value():
    # frozen from (sqrt(5)/4) gyro sqrt(rho * pi/6 * d^3) B evaluated by
    # hand with B = 0.05 mT, d = 250 um, rho = 4.22e27, gyro = 2pi*28 GHz/T
    value = rabi_frequency(0.05e-3, 250e-6, 4.22e27, TWO_PI * 28e9)
    assert value == pytest.approx(913689143261883.6, rel=1e-12)
    n_spins = 4.22e27 * math.pi / 6.0 * (250e-6) ** 3
    independent = math.sqrt(5.0) / 4.0 * (TWO_PI * 28e9) * math.sqrt(n_spins) * 0.05e-3
    assert value == pytest.approx(independent, rel=1e-15)


def test_rabi_linear_in_field_and_sqrt_density():
    base = rabi_frequency(1e-5, 250e-6, 4.22e27, TWO_PI * 28e9)
    assert rabi_frequency(3e-5, 250e-6, 4.22e27, TWO_PI * 28e9) == \
        pytest.approx(3.0 * base, rel=1e-12)
    assert rabi_frequency(1e-5, 250e-6, 4 * 4.22e27, TWO_PI * 28e9) == \
        pytest.approx(2.0 * base, rel=1e-12)

