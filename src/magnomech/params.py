"""Physical parameters of the two-cavity magnomechanical system.

Unit conventions
----------------
Config files quote every frequency-like quantity as an ordinary frequency
``nu = omega / 2pi`` in hertz (keys end in ``_hz``).  Every internal value
is angular (rad/s).  The gyromagnetic ratio follows the same rule: the
conventional YIG number is entered as ``gyro_hz_per_tesla = 28e9`` and used
internally as ``2*pi*28e9`` rad/s/T.  Published "GHz/T" values that omit
the 2*pi are deliberately read this way; see README.

The model works in the frame of the microwave drive (``omega_0``), so
each mode is stored only as its detuning from that frame.  An absolute
mode frequency is input only: it is converted to its detuning once, in
hertz.

The drive-enhanced magnon-phonon coupling has two possible sources,
selected by ``coupling_mode``:

* ``effective``   -- the enhanced coupling is an input (``G_np_hz``);
  no steady-state self-consistency is involved.
* ``microscopic`` -- the single-magnon coupling ``g_np_hz`` plus the drive
  field (``B_tesla``, ``sphere_diameter_m``, spin density, gyromagnetic
  ratio) determine the enhanced coupling through the driven magnon's
  steady amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

EFFECTIVE = "effective"
MICROSCOPIC = "microscopic"

DEFAULT_SPIN_DENSITY = 4.22e27          # 1/m^3, YIG
DEFAULT_GYRO_HZ_PER_TESLA = 28.0e9      # Hz/T
DEFAULT_SPHERE_DIAMETER = 250e-6        # m, typical YIG sphere

_RATE_FIELDS = ("kappa_a", "kappa_p", "kappa_n1", "kappa_n2", "gamma_u")
_COUPLING_FIELDS = ("g1", "g2", "f", "G_au", "g_np")


@dataclass(frozen=True)
class SystemParams:
    """Validated parameter record, all frequencies angular (rad/s).

    Immutable after construction; safe to share across workers.
    """

    # phonon frequency and the drive (rotating) frame
    omega_p: float
    omega_0: float
    # dissipation
    kappa_a: float
    kappa_p: float
    kappa_n1: float
    kappa_n2: float
    gamma_u: float
    # couplings
    g1: float
    g2: float
    f: float
    G_au: float
    # detunings relative to the drive frame
    delta_1: float
    delta_2: float
    delta_u: float
    delta_n1: float
    delta_n2: float
    coupling_mode: str
    G_np_direct: complex | None = None
    g_np: float = 0.0
    # magnon drive (microscopic mode)
    B_field: float = 0.0
    sphere_diameter: float = DEFAULT_SPHERE_DIAMETER
    spin_density: float = DEFAULT_SPIN_DENSITY
    gyromagnetic_ratio: float = TWO_PI * DEFAULT_GYRO_HZ_PER_TESLA

    def __post_init__(self):
        for field_ in fields(self):
            value = getattr(self, field_.name)
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise ConfigError(f"{field_.name} must be finite")
            if isinstance(value, complex) and not (
                    math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ConfigError(f"{field_.name} must be finite")
        for name in _RATE_FIELDS:
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"negative or zero rate: {name} must be strictly positive")
        for name in _COUPLING_FIELDS:
            if getattr(self, name) < 0.0:
                raise ConfigError(f"coupling {name} must be non-negative")
        for name in ("omega_p", "omega_0", "sphere_diameter",
                     "spin_density", "gyromagnetic_ratio"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.B_field < 0.0:
            raise ConfigError("B_field must be non-negative")
        if self.coupling_mode not in (EFFECTIVE, MICROSCOPIC):
            raise ConfigError(
                f"coupling_mode must be '{EFFECTIVE}' or '{MICROSCOPIC}', "
                f"got {self.coupling_mode!r}")
        if self.coupling_mode == EFFECTIVE and self.G_np_direct is None:
            raise ConfigError("coupling_mode=effective requires G_np_direct")
        if self.coupling_mode == MICROSCOPIC and not self.g_np > 0.0:
            raise ConfigError("microscopic mode requires g_np_hz > 0")


# ---------------------------------------------------------------------------
# config document handling
# ---------------------------------------------------------------------------

# config key -> SystemParams field, for keys that are nu-values in Hz, in
# the order the serializer writes them
_HZ_KEYS = {
    "omega_p_hz": "omega_p",
    "omega_0_hz": "omega_0",
    "kappa_a_hz": "kappa_a",
    "kappa_p_hz": "kappa_p",
    "kappa_n1_hz": "kappa_n1",
    "kappa_n2_hz": "kappa_n2",
    "gamma_u_hz": "gamma_u",
    "g1_hz": "g1",
    "g2_hz": "g2",
    "f_hz": "f",
    "G_au_hz": "G_au",
    "g_np_hz": "g_np",
    "delta_1_hz": "delta_1",
    "delta_2_hz": "delta_2",
    "delta_u_hz": "delta_u",
    "delta_n1_hz": "delta_n1",
    "delta_n2_hz": "delta_n2",
    "gyro_hz_per_tesla": "gyromagnetic_ratio",
}

# absolute mode frequency (input only) -> the detuning key it stands for
_DELTA_OF_OMEGA = {
    "omega_cav_1_hz": "delta_1_hz",
    "omega_cav_2_hz": "delta_2_hz",
    "omega_u_hz": "delta_u_hz",
    "omega_n1_hz": "delta_n1_hz",
    "omega_n2_hz": "delta_n2_hz",
}

# keys taken verbatim (SI units already)
_PLAIN_KEYS = {
    "B_tesla": "B_field",
    "sphere_diameter_m": "sphere_diameter",
    "spin_density_per_m3": "spin_density",
}

_COMPLEX_HZ_KEY = "G_np_hz"  # may carry a complex value, e.g. 3.5e6+1e5j

KNOWN_KEYS = (frozenset(_HZ_KEYS) | frozenset(_PLAIN_KEYS)
              | frozenset(_DELTA_OF_OMEGA) | {_COMPLEX_HZ_KEY, "coupling_mode"})

MANDATORY_KEYS = (
    "omega_p_hz", "omega_0_hz",
    "kappa_a_hz", "kappa_p_hz", "kappa_n1_hz", "kappa_n2_hz", "gamma_u_hz",
    "g1_hz", "g2_hz", "f_hz", "G_au_hz",
    "coupling_mode",
)


def _split_lines(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def _number(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"invalid number for {key!r}: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value for {key!r}: {text!r}")
    return value


def _complex_number(key: str, text: str) -> complex:
    try:
        value = complex(text)
    except ValueError:
        raise ConfigError(f"invalid complex number for {key!r}: {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"non-finite value for {key!r}: {text!r}")
    return value


def parse_config(text: str) -> SystemParams:
    """Parse a flat ``key = value`` document into a validated SystemParams.

    Frequency-like keys are nu-values in Hz and are multiplied by 2*pi.
    An absolute mode frequency becomes the detuning ``omega_hz -
    omega_0_hz`` in Hz before that multiplication, so every detuning has
    an exact Hz value and serializes without loss.  Unspecified detunings
    default to the resonant operating point delta = omega_p.
    """
    raw = _split_lines(text)

    missing = [k for k in MANDATORY_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing mandatory key(s): {', '.join(missing)}")

    mode = raw["coupling_mode"]
    if mode == EFFECTIVE and _COMPLEX_HZ_KEY not in raw:
        raise ConfigError("missing mandatory key(s): G_np_hz (effective mode)")
    if mode == MICROSCOPIC:
        missing = [k for k in ("g_np_hz", "B_tesla", "sphere_diameter_m")
                   if k not in raw]
        if missing:
            raise ConfigError("missing mandatory key(s): "
                              f"{', '.join(missing)} (microscopic mode)")

    fields: dict[str, object] = {"coupling_mode": mode}
    for key, field in _HZ_KEYS.items():
        if key in raw:
            fields[field] = TWO_PI * _number(key, raw[key])
    for key, field in _PLAIN_KEYS.items():
        if key in raw:
            fields[field] = _number(key, raw[key])
    if _COMPLEX_HZ_KEY in raw:
        fields["G_np_direct"] = TWO_PI * _complex_number(
            _COMPLEX_HZ_KEY, raw[_COMPLEX_HZ_KEY])

    omega_0_hz = _number("omega_0_hz", raw["omega_0_hz"])
    for omega_key, delta_key in _DELTA_OF_OMEGA.items():
        delta_field = _HZ_KEYS[delta_key]
        if omega_key in raw:
            omega_hz = _number(omega_key, raw[omega_key])
            delta_hz = omega_hz - omega_0_hz
            tol = 1e-9 * max(abs(omega_hz), abs(omega_0_hz), 1.0)
            if delta_key not in raw:
                fields[delta_field] = TWO_PI * delta_hz
            elif abs(delta_hz - _number(delta_key, raw[delta_key])) > tol:
                raise ConfigError(
                    f"inconsistent detuning/frequency pair: {delta_key} = "
                    f"{raw[delta_key]} but {omega_key} - omega_0_hz = "
                    f"{delta_hz!r}")
        fields.setdefault(delta_field, fields["omega_p"])

    return SystemParams(**fields)


def _preimage_hz(x_angular: float) -> float:
    """Hz value whose 2*pi multiple reproduces ``x_angular`` bit-exactly.

    Division followed by multiplication can be off by one ulp; searching
    the few neighbouring doubles restores exact round-tripping whenever a
    preimage exists (always the case for values that came from a config).
    """
    if x_angular == 0.0:
        return 0.0
    v = x_angular / TWO_PI
    if v * TWO_PI == x_angular:
        return v
    up = down = v
    for _ in range(3):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        if up * TWO_PI == x_angular:
            return up
        if down * TWO_PI == x_angular:
            return down
    return v


def _fmt(x: float) -> str:
    return format(x, ".17g")


def serialize_config(p: SystemParams) -> str:
    """Render params back into the config format; parse(serialize(p)) == p."""
    lines = [f"coupling_mode = {p.coupling_mode}"]
    for key, field in _HZ_KEYS.items():
        lines.append(f"{key} = {_fmt(_preimage_hz(getattr(p, field)))}")
    if p.G_np_direct is not None:
        g = complex(p.G_np_direct)
        re = _preimage_hz(g.real)
        if g.imag == 0.0:
            lines.append(f"{_COMPLEX_HZ_KEY} = {_fmt(re)}")
        else:
            im = _preimage_hz(g.imag)
            lines.append(f"{_COMPLEX_HZ_KEY} = {_fmt(re)}{im:+.17g}j")
    for key, field in _PLAIN_KEYS.items():
        lines.append(f"{key} = {_fmt(getattr(p, field))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# overrides (sweeps, presets, CLI)
# ---------------------------------------------------------------------------

# Hz keys that may be replaced after parsing; the phonon frequency and the
# drive frame set the units of every sweep and stay fixed
_SIMPLE_OVERRIDES = frozenset(_HZ_KEYS) - {"omega_p_hz", "omega_0_hz"}


def apply_override(p: SystemParams, key: str, value) -> SystemParams:
    """Return params with one config-keyed quantity replaced (file units).

    omega_p, omega_0 and the absolute mode frequencies are not
    overridable: change the config instead.
    """
    if key == "coupling_mode":
        return replace(p, coupling_mode=str(value))
    if key == _COMPLEX_HZ_KEY:
        return replace(p, G_np_direct=TWO_PI * complex(value))
    if key in _SIMPLE_OVERRIDES:
        return replace(p, **{_HZ_KEYS[key]: TWO_PI * float(value)})
    if key in _PLAIN_KEYS:
        return replace(p, **{_PLAIN_KEYS[key]: float(value)})
    raise ConfigError(f"key {key!r} is not overridable")


# ---------------------------------------------------------------------------
# magnon drive
# ---------------------------------------------------------------------------

def rabi_frequency(B, sphere_diameter: float, spin_density: float,
                   gyro: float):
    """Collective Rabi rate of the magnon drive, (sqrt(5)/4) gyro sqrt(N) B,
    for a scalar field or elementwise over an array of fields.

    N = spin_density * (pi/6) * diameter^3 is the number of spins in the
    sphere; the result is linear in B and in sqrt(spin_density).
    """
    if sphere_diameter <= 0.0:
        raise ConfigError("sphere_diameter must be positive")
    if spin_density <= 0.0 or gyro <= 0.0:
        raise ConfigError("spin_density and gyromagnetic ratio must be positive")
    if np.less(B, 0.0).any():
        raise ConfigError("B must be non-negative")
    volume = (math.pi / 6.0) * sphere_diameter ** 3
    n_spins = spin_density * volume
    return (math.sqrt(5.0) / 4.0) * gyro * math.sqrt(n_spins) * B
