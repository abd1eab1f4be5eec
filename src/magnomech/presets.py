"""Figure presets: baseline operating point plus per-figure overrides.

Every preset resolves to a valid parameter set plus a sweep definition
without user input.  Multi-curve figures become one CSV with a leading
tag column identifying the curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .params import SystemParams, apply_override, parse_config

#: Operating point used throughout: resonant detunings (all at the phonon
#: frequency), effective magnon-phonon coupling given directly.
BASELINE_CONFIG = """\
# baseline operating point, effective coupling mode
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

#: Same operating point with the magnon-phonon coupling built up from the
#: single-magnon coupling and the drive field.
MICROSCOPIC_CONFIG = """\
# baseline operating point, microscopic coupling mode
coupling_mode = microscopic
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
g_np_hz = 1e-3
B_tesla = 3.3e-5
sphere_diameter_m = 250e-6
"""


#: Default sweep axis (lo, hi, points) per run kind, shared by the
#: subcommands and the presets: the probe detuning and the delay coupling
#: in omega_p units, the drive field in tesla.
AXES = {"spectrum": (0.0, 2.0, 2001),
        "steady": (0.0, 5e-5, 51),
        "delay": (0.0, 0.3, 121)}


def baseline_params() -> SystemParams:
    return parse_config(BASELINE_CONFIG)


def microscopic_params() -> SystemParams:
    return parse_config(MICROSCOPIC_CONFIG)


@dataclass(frozen=True)
class Preset:
    name: str
    kind: str                       # "spectrum" | "steady" | "delay"
    description: str
    microscopic: bool = False
    overrides: tuple = ()           # (config key, value) pairs, file units
    curve_key: str = "f_hz"         # config key varied across curves
    curve_values: tuple = ()        # file units (Hz)
    axis: tuple | None = None       # (lo, hi, points); None: AXES[kind]
    # delay sweeps: swept coupling, at a fixed probe detuning
    sweep_param: str = "f"
    fixed_delta: float = 1.0        # omega_p units

    def resolve(self) -> SystemParams:
        """Base parameters with this preset's overrides applied."""
        p = microscopic_params() if self.microscopic else baseline_params()
        for key, value in self.overrides:
            p = apply_override(p, key, value)
        return p


_F_CURVES = (0.0, 1.0e6, 1.5e6, 2.0e6)            # 0, 0.1, 0.15, 0.2 omega_p
_GAU_CURVES = (0.0, 3.0e6, 4.0e6, 6.0e6)

# coupling combinations of the transparency-window figures (file units)
_ONE_WINDOW = (("g1_hz", 0.0), ("G_np_hz", 0.0), ("g2_hz", 1.2e6))
_TWO_WINDOWS = (("g1_hz", 0.0), ("G_np_hz", 1.2e6), ("g2_hz", 1.2e6))
_THREE_WINDOWS = (("g1_hz", 1.2e6), ("G_np_hz", 1.2e6), ("g2_hz", 1.2e6))
_FANO_DETUNED = (("delta_n1_hz", 8e6), ("delta_n2_hz", 8e6))
_DELAY_COUPLINGS = (("g1_hz", 0.0), ("g2_hz", 1.2e6), ("G_np_hz", 1.2e6))


def _spectrum(name, desc, combo, *, gau_curves=False, extra=(), values=()):
    """Baseline spectrum: f curves at G_au = 0, or G_au ones at f = 1.5 MHz."""
    key, default, held = (("G_au_hz", _GAU_CURVES, ("f_hz", 1.5e6))
                          if gau_curves else
                          ("f_hz", _F_CURVES, ("G_au_hz", 0.0)))
    return Preset(name=name, kind="spectrum", description=desc,
                  overrides=combo + (held,) + extra, curve_key=key,
                  curve_values=values or default)


def _build_presets() -> dict[str, Preset]:
    presets = {}

    presets["fig2a"] = Preset(
        name="fig2a", kind="steady", microscopic=True,
        description="steady magnon number vs drive field, one curve per "
                    "tunnelling coupling",
        overrides=(("g1_hz", 1.2e6), ("g2_hz", 1.2e6)),
        curve_key="f_hz", curve_values=_F_CURVES)
    presets["fig2b"] = Preset(
        name="fig2b", kind="steady", microscopic=True,
        description="steady magnon number vs drive field, one curve per "
                    "atom-photon coupling",
        overrides=(("g1_hz", 1.2e6), ("g2_hz", 1.2e6), ("f_hz", 1.5e6)),
        curve_key="G_au_hz", curve_values=_GAU_CURVES)

    presets["fig3a"] = _spectrum(
        "fig3a", "single transparency window vs tunnelling", _ONE_WINDOW)
    presets["fig3b"] = _spectrum(
        "fig3b", "double transparency window vs tunnelling", _TWO_WINDOWS)
    presets["fig3c"] = _spectrum(
        "fig3c", "triple transparency window vs tunnelling", _THREE_WINDOWS)

    presets["fig4a"] = _spectrum(
        "fig4a", "single window vs atom-photon coupling", _ONE_WINDOW,
        gau_curves=True)
    presets["fig4b"] = _spectrum(
        "fig4b", "double window vs atom-photon coupling", _TWO_WINDOWS,
        gau_curves=True)
    presets["fig4c"] = _spectrum(
        "fig4c", "triple window vs atom-photon coupling", _THREE_WINDOWS,
        gau_curves=True)

    for name, b in (("fig5a", 2e-5), ("fig5b", 3.3e-5), ("fig5c", 5e-5)):
        presets[name] = Preset(
            name=name, kind="spectrum", microscopic=True,
            description=f"absorption vs tunnelling at B = {b * 1e3:g} mT "
                        "(drive-built coupling)",
            overrides=(("B_tesla", b),),
            curve_key="f_hz", curve_values=_F_CURVES,
            axis=(0.0, 2.0, 4001))

    presets["fig6a"] = _spectrum(
        "fig6a", "Fano lineshapes vs tunnelling (magnons detuned from the "
        "phonon)", _THREE_WINDOWS, extra=_FANO_DETUNED)
    presets["fig6b"] = _spectrum(
        "fig6b", "Fano lineshapes vs atom-photon coupling (magnons detuned "
        "from the phonon)", _THREE_WINDOWS, gau_curves=True,
        extra=_FANO_DETUNED)

    presets["fig7a"] = _spectrum(
        "fig7a", "transmission vs tunnelling", _THREE_WINDOWS,
        values=(2.0e6, 2.5e6, 3.0e6, 3.5e6))
    presets["fig7b"] = _spectrum(
        "fig7b", "transmission vs atom-photon coupling", _THREE_WINDOWS,
        gau_curves=True, values=(0.0, 1.5e6, 3.0e6, 6.0e6))

    presets["fig8a"] = Preset(
        name="fig8a", kind="delay",
        description="group delay vs tunnelling at the phonon-resonant probe",
        overrides=_DELAY_COUPLINGS,
        curve_key="G_au_hz", curve_values=(0.0, 3.0e6, 6.0e6))
    presets["fig8b"] = Preset(
        name="fig8b", kind="delay",
        description="group delay vs atom-photon coupling at the "
                    "phonon-resonant probe",
        overrides=_DELAY_COUPLINGS + (("G_au_hz", 0.0),),
        curve_key="f_hz", curve_values=(0.0, 3.0e6),
        sweep_param="G_au", axis=(0.0, 0.6, 121))

    # dispersion panels share their absorption siblings' data: the CSV
    # carries both the real and imaginary output-field columns
    for alias, target in (("fig3d", "fig3a"), ("fig3e", "fig3b"),
                          ("fig3f", "fig3c"), ("fig4d", "fig4a"),
                          ("fig4e", "fig4b"), ("fig4f", "fig4c")):
        presets[alias] = presets[target]
    return presets


PRESETS = _build_presets()


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: "
            f"{', '.join(sorted(PRESETS))}") from None
