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

One table maps each config key to its record field and its factor to the
internal unit; parsing, serializing and overrides all go through it.
Every rule about a record lives in ``SystemParams``, whatever path built
it: a config file, ``apply_override`` (``--mode``, ``--set``, presets),
``dataclasses.replace`` or direct construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

EFFECTIVE = "effective"
MICROSCOPIC = "microscopic"

# config key -> (SystemParams field, factor to the internal unit), in the
# order the serializer writes them
_KEYS = {
    "omega_p_hz": ("omega_p", TWO_PI),
    "omega_0_hz": ("omega_0", TWO_PI),
    "kappa_a_hz": ("kappa_a", TWO_PI),
    "kappa_p_hz": ("kappa_p", TWO_PI),
    "kappa_n1_hz": ("kappa_n1", TWO_PI),
    "kappa_n2_hz": ("kappa_n2", TWO_PI),
    "gamma_u_hz": ("gamma_u", TWO_PI),
    "g1_hz": ("g1", TWO_PI),
    "g2_hz": ("g2", TWO_PI),
    "f_hz": ("f", TWO_PI),
    "G_au_hz": ("G_au", TWO_PI),
    "g_np_hz": ("g_np", TWO_PI),
    "delta_1_hz": ("delta_1", TWO_PI),
    "delta_2_hz": ("delta_2", TWO_PI),
    "delta_u_hz": ("delta_u", TWO_PI),
    "delta_n1_hz": ("delta_n1", TWO_PI),
    "delta_n2_hz": ("delta_n2", TWO_PI),
    "gyro_hz_per_tesla": ("gyromagnetic_ratio", TWO_PI),
    "G_np_hz": ("G_np_direct", TWO_PI),  # may be complex, e.g. 3.5e6+1e5j
    "B_tesla": ("B_field", 1.0),
    "sphere_diameter_m": ("sphere_diameter", 1.0),
    "spin_density_per_m3": ("spin_density", 1.0),
}

# keys that only one coupling mode reads; the other mode never does
_MODE_KEYS = {
    EFFECTIVE: ("G_np_hz",),
    MICROSCOPIC: ("g_np_hz", "B_tesla", "sphere_diameter_m",
                  "spin_density_per_m3", "gyro_hz_per_tesla"),
}

_RATE_FIELDS = ("kappa_a", "kappa_p", "kappa_n1", "kappa_n2", "gamma_u")
_COUPLING_FIELDS = ("g1", "g2", "f", "G_au", "g_np")


@dataclass(frozen=True)
class SystemParams:
    """Validated parameter record, all frequencies angular (rad/s).

    Immutable after construction.  Every rule about a record lives here,
    so a record is checked alike whether a config file, an override or
    direct construction built it.  ``None`` means "not given".
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
    B_field: float | None = None
    sphere_diameter: float | None = None
    spin_density: float = 4.22e27                 # 1/m^3, YIG
    gyromagnetic_ratio: float = TWO_PI * 28.0e9   # from 28e9 Hz/T

    def __post_init__(self):
        for key, (name, _) in _KEYS.items():
            value = getattr(self, name)
            if value is not None and not cmath.isfinite(value):
                raise ConfigError(f"non-finite value for {key!r}")
        for name in _RATE_FIELDS:
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"negative or zero rate: {name} must be strictly positive")
        for name in _COUPLING_FIELDS:
            if getattr(self, name) < 0.0:
                raise ConfigError(f"coupling {name} must be non-negative")
        for name in ("omega_p", "omega_0", "sphere_diameter",
                     "spin_density", "gyromagnetic_ratio"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.B_field is not None and self.B_field < 0.0:
            raise ConfigError("B_field must be non-negative")
        if self.coupling_mode not in _MODE_KEYS:
            raise ConfigError(
                f"coupling_mode must be '{EFFECTIVE}' or '{MICROSCOPIC}', "
                f"got {self.coupling_mode!r}")
        if self.coupling_mode == MICROSCOPIC and not self.g_np > 0.0:
            raise ConfigError("microscopic mode requires g_np_hz > 0")
        missing = [key for key in _MODE_KEYS[self.coupling_mode]
                   if getattr(self, _KEYS[key][0]) is None]
        if missing:
            raise ConfigError(f"{self.coupling_mode} mode requires "
                              f"{', '.join(missing)}")


# ---------------------------------------------------------------------------
# config document handling
# ---------------------------------------------------------------------------

# absolute mode frequency (input only) -> the detuning key it stands for
_DELTA_OF_OMEGA = {
    "omega_cav_1_hz": "delta_1_hz",
    "omega_cav_2_hz": "delta_2_hz",
    "omega_u_hz": "delta_u_hz",
    "omega_n1_hz": "delta_n1_hz",
    "omega_n2_hz": "delta_n2_hz",
}

KNOWN_KEYS = frozenset(_KEYS) | frozenset(_DELTA_OF_OMEGA) | {"coupling_mode"}

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


def _number(key: str, value) -> float | complex:
    """``value`` of config ``key`` (text or a number) in file units: a
    complex for ``G_np_hz``, else a float."""
    try:
        return (complex if key == "G_np_hz" else float)(value)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid number for {key!r}: {value!r}") from None


def parse_config(text: str) -> SystemParams:
    """Parse a flat ``key = value`` document into a validated SystemParams.

    Each key's value is multiplied by its factor to the internal unit
    (2*pi for the frequency-like keys).  An absolute mode frequency
    becomes the detuning ``omega_hz - omega_0_hz`` in Hz before that
    multiplication, so every detuning has an exact Hz value and serializes
    without loss.  Unspecified detunings default to the resonant operating
    point delta = omega_p.
    """
    raw = _split_lines(text)

    missing = [k for k in MANDATORY_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing mandatory key(s): {', '.join(missing)}")

    fields: dict[str, object] = {"coupling_mode": raw["coupling_mode"]}
    for key, (field, factor) in _KEYS.items():
        if key in raw:
            fields[field] = factor * _number(key, raw[key])

    omega_0_hz = _number("omega_0_hz", raw["omega_0_hz"])
    for omega_key, delta_key in _DELTA_OF_OMEGA.items():
        delta_field = _KEYS[delta_key][0]
        if omega_key in raw:
            omega_hz = _number(omega_key, raw[omega_key])
            if not math.isfinite(omega_hz):
                raise ConfigError(f"non-finite value for {omega_key!r}")
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


def _preimage(x: float, factor: float) -> float:
    """File value whose ``factor`` multiple reproduces ``x`` bit-exactly.

    Division followed by multiplication can be off by one ulp; searching
    the few neighbouring doubles restores exact round-tripping whenever a
    preimage exists (always the case for values that came from a config).
    """
    v = x / factor
    up = down = v
    for _ in range(4):      # v itself, then up to 3 ulps either side
        if up * factor == x:
            return up
        if down * factor == x:
            return down
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
    return v


def serialize_config(p: SystemParams) -> str:
    """Render params back into the config format; parse(serialize(p)) == p.

    A field that is not given (``None``) is left out."""
    lines = [f"coupling_mode = {p.coupling_mode}"]
    for key, (field, factor) in _KEYS.items():
        value = getattr(p, field)
        if value is None:
            continue
        z = complex(value)
        text = f"{_preimage(z.real, factor):.17g}"
        if z.imag:
            text += f"{_preimage(z.imag, factor):+.17g}j"
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# overrides (sweeps, presets, CLI)
# ---------------------------------------------------------------------------

def apply_override(p: SystemParams, key: str, value) -> SystemParams:
    """Return params with one config-keyed quantity replaced (file units).

    omega_p, omega_0 and the absolute mode frequencies are not
    overridable: change the config instead.  Nor is a key that the
    record's coupling mode never reads.
    """
    if key == "coupling_mode":
        return replace(p, coupling_mode=str(value))
    # the phonon frequency and the drive frame set every sweep's units
    if key not in _KEYS or key in ("omega_p_hz", "omega_0_hz"):
        raise ConfigError(f"key {key!r} is not overridable")
    if any(key in keys for mode, keys in _MODE_KEYS.items()
           if mode != p.coupling_mode):
        raise ConfigError(f"{p.coupling_mode} mode never reads {key!r}")
    field, factor = _KEYS[key]
    return replace(p, **{field: factor * _number(key, value)})


# ---------------------------------------------------------------------------
# magnon drive
# ---------------------------------------------------------------------------

def rabi_frequency(B, sphere_diameter: float, spin_density: float,
                   gyro: float):
    """Collective Rabi rate of the magnon drive, (sqrt(5)/4) gyro sqrt(N) B,
    for a scalar field or elementwise over an array of fields.

    N = spin_density * (pi/6) * diameter^3 is the number of spins in the
    sphere; the result is linear in B and in sqrt(spin_density).
    Only ``B`` is checked, as a ``--brange`` grid comes from outside.  The
    other arguments are assumed positive: pass the fields of a validated
    ``SystemParams``, whose ``__post_init__`` checks them.
    """
    if np.less(B, 0.0).any():
        raise ConfigError("B must be non-negative")
    volume = (math.pi / 6.0) * sphere_diameter ** 3
    n_spins = spin_density * volume
    return (math.sqrt(5.0) / 4.0) * gyro * math.sqrt(n_spins) * B
