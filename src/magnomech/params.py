"""Physical parameters of the two-cavity magnomechanical system.

Unit conventions
----------------
Config files quote every frequency-like quantity as an ordinary frequency
``nu = omega / 2pi`` in hertz (keys end in ``_hz``).  Every internal value
is angular (rad/s).  The gyromagnetic ratio follows the same rule: the
conventional YIG number is entered as ``gyro_hz_per_tesla = 28e9`` and used
internally as ``2*pi*28e9`` rad/s/T.  Published "GHz/T" values that omit
the 2*pi are deliberately read this way; see README.

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

from .errors import ConfigError

TWO_PI = 2.0 * math.pi
HBAR = 1.054571817e-34  # J s

EFFECTIVE = "effective"
MICROSCOPIC = "microscopic"

DEFAULT_SPIN_DENSITY = 4.22e27          # 1/m^3, YIG
DEFAULT_GYRO_HZ_PER_TESLA = 28.0e9      # Hz/T
DEFAULT_SPHERE_DIAMETER = 250e-6        # m, typical YIG sphere

_RATE_FIELDS = ("kappa_a", "kappa_p", "kappa_n1", "kappa_n2", "gamma_u")
_COUPLING_FIELDS = ("g1", "g2", "f", "G_au", "g_np")

# (mode frequency, matching detuning) pairs that must satisfy
# delta = omega - omega_0 to 1e-9 relative.
_PAIRS = (
    ("omega_cav_1", "delta_1"),
    ("omega_cav_2", "delta_2"),
    ("omega_u", "delta_u"),
    ("omega_n1", "delta_n1"),
    ("omega_n2", "delta_n2"),
)


@dataclass(frozen=True)
class SystemParams:
    """Validated parameter record, all frequencies angular (rad/s).

    Immutable after construction; safe to share across workers.
    """

    # mode frequencies and the drive (rotating) frame
    omega_cav_1: float
    omega_cav_2: float
    omega_u: float
    omega_n1: float
    omega_n2: float
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
    # probe drive
    P_d: float = 0.0
    omega_d: float | None = None

    def __post_init__(self):
        if self.omega_d is None:
            object.__setattr__(self, "omega_d", self.omega_0)
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
        for name in ("omega_p", "omega_0", "omega_d", "sphere_diameter",
                     "spin_density", "gyromagnetic_ratio"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("P_d", "B_field"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")
        if self.coupling_mode not in (EFFECTIVE, MICROSCOPIC):
            raise ConfigError(
                f"coupling_mode must be '{EFFECTIVE}' or '{MICROSCOPIC}', "
                f"got {self.coupling_mode!r}")
        if self.coupling_mode == EFFECTIVE and self.G_np_direct is None:
            raise ConfigError("coupling_mode=effective requires G_np_direct")
        if self.coupling_mode == MICROSCOPIC and not self.g_np > 0.0:
            raise ConfigError("microscopic mode requires g_np_hz > 0")
        for omega_name, delta_name in _PAIRS:
            omega = getattr(self, omega_name)
            delta = getattr(self, delta_name)
            mismatch = (omega - self.omega_0) - delta
            tol = 1e-9 * max(abs(omega), abs(self.omega_0), 1.0)
            if abs(mismatch) > tol:
                raise ConfigError(
                    f"inconsistent detuning/frequency pair: {delta_name} = "
                    f"{delta!r} but {omega_name} - omega_0 = {omega - self.omega_0!r}")


# ---------------------------------------------------------------------------
# config document handling
# ---------------------------------------------------------------------------

# config key -> SystemParams field, for keys that are nu-values in Hz
_HZ_KEYS = {
    "omega_cav_1_hz": "omega_cav_1",
    "omega_cav_2_hz": "omega_cav_2",
    "omega_u_hz": "omega_u",
    "omega_n1_hz": "omega_n1",
    "omega_n2_hz": "omega_n2",
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
    "omega_d_hz": "omega_d",
    "gyro_hz_per_tesla": "gyromagnetic_ratio",
}

# keys taken verbatim (SI units already)
_PLAIN_KEYS = {
    "B_tesla": "B_field",
    "sphere_diameter_m": "sphere_diameter",
    "spin_density_per_m3": "spin_density",
    "P_d_watt": "P_d",
}

_COMPLEX_HZ_KEY = "G_np_hz"  # may carry a complex value, e.g. 3.5e6+1e5j

KNOWN_KEYS = frozenset(_HZ_KEYS) | frozenset(_PLAIN_KEYS) | {
    _COMPLEX_HZ_KEY, "coupling_mode"}

MANDATORY_KEYS = (
    "omega_p_hz", "omega_0_hz",
    "kappa_a_hz", "kappa_p_hz", "kappa_n1_hz", "kappa_n2_hz", "gamma_u_hz",
    "g1_hz", "g2_hz", "f_hz", "G_au_hz",
    "coupling_mode",
)

_OMEGA_OF_DELTA = {d: o for o, d in
                   (("omega_cav_1_hz", "delta_1_hz"),
                    ("omega_cav_2_hz", "delta_2_hz"),
                    ("omega_u_hz", "delta_u_hz"),
                    ("omega_n1_hz", "delta_n1_hz"),
                    ("omega_n2_hz", "delta_n2_hz"))}


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
    Unspecified detunings default to the resonant operating point
    delta = omega_p; mode frequencies omitted alongside them are placed at
    omega_0 + delta.
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

    omega_0 = fields["omega_0"]
    omega_p = fields["omega_p"]
    for delta_key, omega_key in _OMEGA_OF_DELTA.items():
        omega_field = _HZ_KEYS[omega_key]
        delta_field = _HZ_KEYS[delta_key]
        have_omega = omega_field in fields
        have_delta = delta_field in fields
        if have_omega and not have_delta:
            fields[delta_field] = fields[omega_field] - omega_0
        elif have_delta and not have_omega:
            fields[omega_field] = omega_0 + fields[delta_field]
        elif not have_omega and not have_delta:
            fields[delta_field] = omega_p
            fields[omega_field] = omega_0 + omega_p
        # both present: SystemParams enforces consistency

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


# serialized form: detunings only, never the derived mode frequencies.
# Reparsing rebuilds each frequency as omega_0 + delta, which reproduces the
# original bit-exactly whenever the frequency sits within a factor two of
# the drive frame (every physical configuration).
_SERIAL_HZ_KEYS = (
    "omega_p_hz", "omega_0_hz",
    "kappa_a_hz", "kappa_p_hz", "kappa_n1_hz", "kappa_n2_hz", "gamma_u_hz",
    "g1_hz", "g2_hz", "f_hz", "G_au_hz", "g_np_hz",
    "delta_1_hz", "delta_2_hz", "delta_u_hz", "delta_n1_hz", "delta_n2_hz",
    "omega_d_hz", "gyro_hz_per_tesla",
)


def serialize_config(p: SystemParams) -> str:
    """Render params back into the config format; parse(serialize(p)) == p."""
    lines = [f"coupling_mode = {p.coupling_mode}"]
    for key in _SERIAL_HZ_KEYS:
        value = getattr(p, _HZ_KEYS[key])
        lines.append(f"{key} = {_fmt(_preimage_hz(value))}")
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

# config keys that may be replaced after parsing without re-deriving
# anything else
_SIMPLE_OVERRIDES = {
    "kappa_a_hz", "kappa_p_hz", "kappa_n1_hz", "kappa_n2_hz", "gamma_u_hz",
    "g1_hz", "g2_hz", "f_hz", "G_au_hz", "g_np_hz", "omega_d_hz",
    "gyro_hz_per_tesla",
}


def apply_override(p: SystemParams, key: str, value) -> SystemParams:
    """Return params with one config-keyed quantity replaced (file units).

    Detuning overrides move the matching mode frequency along with them so
    the delta = omega - omega_0 invariant keeps holding.  Mode frequencies,
    omega_p and omega_0 are not overridable: change the config instead.
    """
    if key == "coupling_mode":
        return replace(p, coupling_mode=str(value))
    if key == _COMPLEX_HZ_KEY:
        return replace(p, G_np_direct=TWO_PI * complex(value))
    if key in _SIMPLE_OVERRIDES:
        return replace(p, **{_HZ_KEYS[key]: TWO_PI * float(value)})
    if key in _PLAIN_KEYS:
        return replace(p, **{_PLAIN_KEYS[key]: float(value)})
    if key in _OMEGA_OF_DELTA:
        delta = TWO_PI * float(value)
        omega_key = _OMEGA_OF_DELTA[key]
        return replace(p, **{_HZ_KEYS[key]: delta,
                             _HZ_KEYS[omega_key]: p.omega_0 + delta})
    raise ConfigError(f"key {key!r} is not overridable")


# ---------------------------------------------------------------------------
# drive amplitudes
# ---------------------------------------------------------------------------

def drive_amplitude(P_d: float, omega_d: float, kappa_a: float) -> float:
    """Probe amplitude sqrt(2 kappa_a P_d / (hbar omega_d))."""
    if P_d < 0.0:
        raise ConfigError("P_d must be non-negative")
    if omega_d <= 0.0:
        raise ConfigError("omega_d must be positive")
    return math.sqrt(2.0 * kappa_a * P_d / (HBAR * omega_d))


def rabi_frequency(B: float, sphere_diameter: float, spin_density: float,
                   gyro: float) -> float:
    """Collective Rabi rate of the magnon drive, (sqrt(5)/4) gyro sqrt(N) B.

    N = spin_density * (pi/6) * diameter^3 is the number of spins in the
    sphere; the result is linear in B and in sqrt(spin_density).
    """
    if sphere_diameter <= 0.0:
        raise ConfigError("sphere_diameter must be positive")
    if spin_density <= 0.0 or gyro <= 0.0:
        raise ConfigError("spin_density and gyromagnetic ratio must be positive")
    if B < 0.0:
        raise ConfigError("B must be non-negative")
    volume = (math.pi / 6.0) * sphere_diameter ** 3
    n_spins = spin_density * volume
    return (math.sqrt(5.0) / 4.0) * gyro * math.sqrt(n_spins) * B
