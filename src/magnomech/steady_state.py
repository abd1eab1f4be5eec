"""Self-consistent steady state of the driven magnon mode.

The driven magnon amplitude obeys a closed form once its effective
detuning is known, and the detuning carries the static phonon
displacement, which is linear in the magnon population m.  Closing that
loop gives the real cubic

    |c1|^2 m^3 + 2 Re(conj(D0) c1) m^2 + |D0|^2 m - |B Omega|^2 = 0,

with D0 and c1 built from the chain products A, B.  Only the constant
term depends on the drive, so every drive value of a sweep is solved at
once, in closed form.  The reported population is the lowest positive
root, the branch an ascending drive reaches from zero; where the cubic
has three positive roots the point is bistable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, ConvergenceError
from .params import EFFECTIVE, MICROSCOPIC, SystemParams, rabi_frequency

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SteadyState:
    """Steady amplitudes of all six modes plus derived response inputs:
    scalars at one drive field, parallel 1-D arrays over a drive grid."""

    a1s: np.ndarray
    a2s: np.ndarray
    n1s: np.ndarray
    n2s: np.ndarray
    us: np.ndarray
    ps: np.ndarray
    delta_n2_eff: np.ndarray  # magnomechanically shifted magnon detuning
    G_np_eff: np.ndarray      # i*sqrt(2)*g_np*n2s (or the direct input)
    magnon_number: np.ndarray  # |n2s|^2
    roots: np.ndarray         # positive roots of the cubic: 1, 3 if bistable
    residual: np.ndarray      # max relative residual of the steady equations


def _chain_coefficients(p: SystemParams) -> tuple[complex, complex]:
    """The two products that close the magnon amplitude equation."""
    cu = p.gamma_u + 1j * p.delta_u
    c2 = p.kappa_a + 1j * p.delta_2
    cn1 = p.kappa_n1 + 1j * p.delta_n1
    c1 = p.kappa_a + 1j * p.delta_1
    A = c2 * cu + p.G_au ** 2
    B = A * c1 * cn1 + p.g1 ** 2 * A + p.f ** 2 * cu * cn1
    return A, B


def _phonon_shift(p: SystemParams, magnon_number: float) -> float:
    # 2 g_np Re(ps) with ps = -i g_np m / (kappa_p + i omega_p)
    return -2.0 * p.g_np ** 2 * p.omega_p * magnon_number / (
        p.kappa_p ** 2 + p.omega_p ** 2)


def _populations(p: SystemParams, A: complex, B: complex,
                 Omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest positive root of the steady cubic and the root count, per drive.

    With m_lin = |B Omega / D0|^2, the population without the phonon shift,
    and m = m_lin / y, the cubic becomes the monic
    y^3 - y^2 - 2 Re(u) y - |u|^2 = 0 with u = c1 m_lin / D0, which stays
    finite however weak the coupling.  The lowest m is its largest real
    root.  The cubic has three distinct positive roots exactly where its
    discriminant is positive; elsewhere the count is 1, also on a fold,
    where two roots coincide.
    """
    cn1 = p.kappa_n1 + 1j * p.delta_n1
    D0 = B * (p.kappa_n2 + 1j * p.delta_n2) + A * p.g2 ** 2 * cn1
    m_lin = (abs(B / D0) * Omega) ** 2
    u = 1j * B * _phonon_shift(p, 1.0) / D0 * m_lin
    ur, ui = u.real, u.imag
    e2, e3 = 2.0 * ur, ur * ur + ui * ui
    # the discriminant, written in u so that it does not cancel at small u
    disc = (-4.0 * ui * ui - 4.0 * ur ** 3 - 36.0 * ur * ui * ui
            - 27.0 * e3 * e3)
    # depressed cubic t^3 + P t + Q = 0 with y = t + 1/3
    P = -e2 - 1.0 / 3.0
    Q = -2.0 / 27.0 - e2 / 3.0 - e3
    # each branch is evaluated everywhere, its warnings silenced by the
    # caller, and selected below
    r = np.sqrt(-P / 3.0)
    z = np.minimum(np.maximum(-Q / (2.0 * r ** 3), -1.0), 1.0)
    three = 2.0 * r * np.cos(np.arccos(z) / 3.0)
    w = np.cbrt(-Q / 2.0 - np.copysign(np.sqrt(-disc / 108.0), Q))
    one = w - P / (3.0 * w)
    y = np.where(disc > 0.0, three, one) + 1.0 / 3.0
    # one Newton step on the cubic polishes the closed form
    y = y - (((y - 1.0) * y - e2) * y - e3) / ((3.0 * y - 2.0) * y - e2)
    return m_lin / y, 1 + 2 * (disc > 0.0)


def equations_residual(p: SystemParams, s: SteadyState, Omega) -> np.ndarray:
    """Max relative residual of the six steady-state equations, per drive;
    inf where any of them is not finite.  ``s`` needs only the amplitudes
    and ``delta_n2_eff`` of a ``SteadyState``."""
    equations = (
        ((p.kappa_a + 1j * p.delta_1) * s.a1s,
         1j * p.g1 * s.n1s, 1j * p.g2 * s.n2s, 1j * p.f * s.a2s),
        ((p.kappa_a + 1j * p.delta_2) * s.a2s,
         1j * p.f * s.a1s, 1j * p.G_au * s.us),
        ((p.kappa_p + 1j * p.omega_p) * s.ps, 1j * p.g_np * abs(s.n2s) ** 2),
        ((p.gamma_u + 1j * p.delta_u) * s.us, 1j * p.G_au * s.a2s),
        ((p.kappa_n1 + 1j * p.delta_n1) * s.n1s, 1j * p.g1 * s.a1s),
        ((p.kappa_n2 + 1j * s.delta_n2_eff) * s.n2s,
         1j * p.g2 * s.a1s, -Omega),
    )
    # each equation's |sum| over its scale, the largest of |lhs| and every
    # |term|; np.maximum broadcasts a scalar drive against array couplings
    # and keeps a NaN, which fmin turns into inf
    worst = 0.0
    for lhs, *terms in equations:
        scale = abs(lhs)
        for term in terms:
            scale = np.maximum(scale, abs(term))
        worst = np.maximum(worst, abs(lhs + sum(terms))
                           / np.maximum(scale, 1e-300))
    return np.fmin(worst, np.inf)


def _back_substitute(p: SystemParams, A: complex, B: complex, Omega,
                     m, roots) -> SteadyState:
    """Every amplitude from the population ``m``, and its steady residual."""
    cn1 = p.kappa_n1 + 1j * p.delta_n1
    delta_eff = p.delta_n2 + _phonon_shift(p, m)
    n2s = B * Omega / (B * (p.kappa_n2 + 1j * delta_eff) + A * p.g2 ** 2 * cn1)
    m = abs(n2s) ** 2
    ps = -1j * p.g_np * m / (p.kappa_p + 1j * p.omega_p)
    a1s = -1j * p.g2 * A * cn1 * n2s / B
    n1s = -1j * p.g1 * a1s / cn1
    a2s = -1j * p.f * (p.gamma_u + 1j * p.delta_u) * a1s / A
    us = -1j * p.G_au * a2s / (p.gamma_u + 1j * p.delta_u)

    fields = dict(a1s=a1s, a2s=a2s, n1s=n1s, n2s=n2s, us=us, ps=ps,
                  delta_n2_eff=p.delta_n2 + _phonon_shift(p, m),
                  G_np_eff=1j * _SQRT2 * p.g_np * n2s,
                  magnon_number=m, roots=roots)
    residual = equations_residual(p, SimpleNamespace(**fields), Omega)
    return SteadyState(**fields, residual=residual)


def _at(value, k: int) -> float:
    return float(np.ravel(value)[k]) if np.ndim(value) else float(value)


def _solve(p: SystemParams, B_field) -> SteadyState:
    """The steady state at a numpy scalar drive field or over a 1-D grid,
    with every point's residual held to the sanity bound.  ``p`` may hold
    ``f`` or ``G_au`` as a 1-D array instead (a coupling view); the fields
    are then arrays over the couplings, at a scalar drive."""
    Omega = rabi_frequency(B_field, p.sphere_diameter, p.spin_density,
                           p.gyromagnetic_ratio)
    A, B = _chain_coefficients(p)
    # an overflowing population or amplitude is caught by the residual check
    with np.errstate(all="ignore"):
        m, roots = _populations(p, A, B, Omega)
        state = _back_substitute(p, A, B, Omega, m, roots)
    failing = np.ravel(state.residual > 1e-8)
    if failing.any():
        k = failing.argmax()
        swept = "".join(f"{name} = {_at(getattr(p, name), k)!r} rad/s, "
                        for name in ("f", "G_au") if np.ndim(getattr(p, name)))
        raise ConvergenceError(
            f"{swept}B = {_at(B_field, k)!r} T: steady-state "
            f"back-substitution residual {np.ravel(state.residual)[k]:.3e} "
            "exceeds sanity bound")
    return state


def solve_steady_state(p: SystemParams) -> SteadyState:
    """Solve the coupled steady equations self-consistently.

    The drive is the Rabi rate of the configured drive field.  The
    population is the lowest positive root of the steady cubic; ``roots``
    tells whether the point is bistable.  The fields are scalars.  In
    effective mode there is nothing to solve and the direct coupling is
    embedded as-is.
    """
    if p.coupling_mode == EFFECTIVE:
        # no drive is specified: the amplitudes are not meaningful, no
        # cubic is solved (roots = 0) and only G_np_eff / delta_n2_eff feed
        # the response
        return SteadyState(a1s=0j, a2s=0j, n1s=0j, n2s=0j, us=0j, ps=0j,
                           delta_n2_eff=p.delta_n2, G_np_eff=p.G_np_direct,
                           magnon_number=0.0, roots=0, residual=0.0)
    return _solve(p, np.float64(p.B_field))


def magnon_number_sweep(p: SystemParams, B_grid) -> SteadyState:
    """The steady state at every field value of an ascending 1-D grid, from
    one batched solve; the fields are parallel arrays over the grid.

    Each point reports the lowest positive population, so an ascending
    sweep jumps where its branch ends, on the first point past a bistable
    run (``roots`` back to 1).
    """
    if p.coupling_mode != MICROSCOPIC:
        raise ConfigError("a drive-field sweep requires coupling_mode = "
                          "microscopic")
    b = np.asarray(B_grid, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ConfigError("B_grid must be a non-empty 1-D grid")
    if np.any(b[1:] <= b[:-1]):
        raise ConfigError("B_grid must be sorted strictly ascending")
    return _solve(p, b)
