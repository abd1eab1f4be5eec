"""Self-consistent steady state of the driven magnon mode.

The driven magnon amplitude obeys a closed form once its effective
detuning is known, but the detuning itself carries the static phonon
displacement, which depends on the magnon population.  A damped
fixed-point iteration on the population closes the loop; at realistic
single-magnon couplings the shift is tiny and convergence takes a few
iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError, ConvergenceError
from .params import EFFECTIVE, MICROSCOPIC, SystemParams, rabi_frequency

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SteadyState:
    """Steady amplitudes of all six modes plus derived response inputs."""

    a1s: complex
    a2s: complex
    n1s: complex
    n2s: complex
    us: complex
    ps: complex
    delta_n2_eff: float      # magnomechanically shifted magnon detuning
    G_np_eff: complex        # i*sqrt(2)*g_np*n2s (or the direct input)
    magnon_number: float     # |n2s|^2
    iterations: int
    residual: float          # max relative residual of the steady equations


@dataclass(frozen=True)
class KerrDiagnostic:
    ratio: float
    ok: bool
    threshold: float


@dataclass(frozen=True)
class SweepPoint:
    B: float
    state: SteadyState


@dataclass(frozen=True)
class SweepResult:
    points: list[SweepPoint]
    strictly_increasing: bool
    jump_indices: list[int]


def _chain_coefficients(p: SystemParams) -> tuple[complex, complex]:
    """The two products that close the magnon amplitude equation."""
    cu = p.gamma_u + 1j * p.delta_u
    c2 = p.kappa_a + 1j * p.delta_2
    cn1 = p.kappa_n1 + 1j * p.delta_n1
    c1 = p.kappa_a + 1j * p.delta_1
    A = c2 * cu + p.G_au ** 2
    B = A * c1 * cn1 + p.g1 ** 2 * A + p.f ** 2 * cu * cn1
    return A, B


def _n2s_of(p: SystemParams, A: complex, B: complex, Omega: float,
            delta_eff: float) -> complex:
    cn1 = p.kappa_n1 + 1j * p.delta_n1
    denom = B * (p.kappa_n2 + 1j * delta_eff) + A * p.g2 ** 2 * cn1
    return B * Omega / denom


def _shifted_detuning(p: SystemParams, magnon_number: float) -> float:
    # delta_n2 + 2 g_np Re(ps) with ps = -i g_np m / (kappa_p + i omega_p)
    shift = -2.0 * p.g_np ** 2 * p.omega_p * magnon_number / (
        p.kappa_p ** 2 + p.omega_p ** 2)
    return p.delta_n2 + shift


def equations_residual(p: SystemParams, s: SteadyState, Omega: float) -> float:
    """Max relative residual of the six steady-state equations."""
    c1 = (p.kappa_a + 1j * p.delta_1) * s.a1s
    t1 = (1j * p.g1 * s.n1s, 1j * p.g2 * s.n2s, 1j * p.f * s.a2s)
    c2 = (p.kappa_a + 1j * p.delta_2) * s.a2s
    t2 = (1j * p.f * s.a1s, 1j * p.G_au * s.us)
    c3 = (p.kappa_p + 1j * p.omega_p) * s.ps
    t3 = (1j * p.g_np * abs(s.n2s) ** 2,)
    c4 = (p.gamma_u + 1j * p.delta_u) * s.us
    t4 = (1j * p.G_au * s.a2s,)
    c5 = (p.kappa_n1 + 1j * p.delta_n1) * s.n1s
    t5 = (1j * p.g1 * s.a1s,)
    c6 = (p.kappa_n2 + 1j * s.delta_n2_eff) * s.n2s
    t6 = (1j * p.g2 * s.a1s, -Omega)

    worst = 0.0
    for lhs, terms in ((c1, t1), (c2, t2), (c3, t3), (c4, t4), (c5, t5), (c6, t6)):
        total = lhs + sum(terms)
        scale = max(abs(lhs), *(abs(t) for t in terms), 1e-300)
        worst = max(worst, abs(total) / scale)
    return worst


def _effective_embedding(p: SystemParams) -> SteadyState:
    # No drive is specified in effective mode; the amplitudes are not
    # meaningful and only G_np_eff / delta_n2_eff feed the response.
    return SteadyState(a1s=0j, a2s=0j, n1s=0j, n2s=0j, us=0j, ps=0j,
                       delta_n2_eff=p.delta_n2, G_np_eff=p.G_np_direct,
                       magnon_number=0.0, iterations=0, residual=0.0)


def solve_steady_state(p: SystemParams, Omega: float | None = None,
                       tol: float = 1e-12, max_iter: int = 10000,
                       warm_start: float | None = None) -> SteadyState:
    """Solve the coupled steady equations self-consistently.

    ``Omega`` defaults to the Rabi rate implied by the configured drive
    field.  ``warm_start`` seeds the magnon-population iteration (used by
    sweeps to follow a branch continuously).  In effective mode there is
    nothing to iterate and the direct coupling is embedded as-is.
    """
    if p.coupling_mode == EFFECTIVE:
        return _effective_embedding(p)

    if Omega is None:
        Omega = 0.0 if p.B_field == 0.0 else rabi_frequency(
            p.B_field, p.sphere_diameter, p.spin_density, p.gyromagnetic_ratio)
    if Omega < 0.0:
        raise ConfigError("Omega must be non-negative")

    A, B = _chain_coefficients(p)
    m = 0.0 if warm_start is None else float(warm_start)
    damp = 1.0
    prev_step = 0.0
    rel = math.inf
    n2s = 0j
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        delta_eff = _shifted_detuning(p, m)
        n2s = _n2s_of(p, A, B, Omega, delta_eff)
        step = abs(n2s) ** 2 - m
        if step * prev_step < 0.0:
            damp = 0.5  # oscillating update: damp the remainder of the run
        m_next = m + damp * step
        rel = abs(m_next - m) / max(abs(m_next), 1e-300)
        m = m_next
        prev_step = step
        if rel <= tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"steady state did not converge in {max_iter} iterations "
            f"(last relative residual {rel:.3e})")

    # one closing pass so every stored quantity derives from the final m
    delta_eff = _shifted_detuning(p, m)
    n2s = _n2s_of(p, A, B, Omega, delta_eff)
    m = abs(n2s) ** 2
    cn1 = p.kappa_n1 + 1j * p.delta_n1
    ps = -1j * p.g_np * m / (p.kappa_p + 1j * p.omega_p)
    a1s = -1j * p.g2 * A * cn1 * n2s / B
    n1s = -1j * p.g1 * a1s / cn1
    a2s = -1j * p.f * (p.gamma_u + 1j * p.delta_u) * a1s / A
    us = -1j * p.G_au * a2s / (p.gamma_u + 1j * p.delta_u)

    state = SteadyState(a1s=a1s, a2s=a2s, n1s=n1s, n2s=n2s, us=us, ps=ps,
                        delta_n2_eff=_shifted_detuning(p, m),
                        G_np_eff=1j * _SQRT2 * p.g_np * n2s,
                        magnon_number=m, iterations=iterations,
                        residual=0.0)
    residual = equations_residual(p, state, Omega)
    if residual > 1e-8:
        raise ConvergenceError(
            f"steady-state back-substitution residual {residual:.3e} "
            "exceeds sanity bound")
    return replace(state, residual=residual)


def magnon_number_sweep(p: SystemParams, B_grid, warm_start: bool = True,
                        tol: float = 1e-12,
                        max_iter: int = 10000) -> SweepResult:
    """One converged solve per field value, warm-started along the grid.

    Warm starting follows the solution branch continuously; disabling it
    solves each point independently from a zero population.
    """
    if p.coupling_mode != MICROSCOPIC:
        raise ConfigError("magnon_number_sweep requires microscopic mode")
    B_grid = list(B_grid)
    if any(b2 <= b1 for b1, b2 in zip(B_grid, B_grid[1:])):
        raise ConfigError("B_grid must be sorted strictly ascending")

    def solve_at(B: float, seed: float | None) -> SweepPoint:
        Omega = 0.0 if B == 0.0 else rabi_frequency(
            B, p.sphere_diameter, p.spin_density, p.gyromagnetic_ratio)
        try:
            state = solve_steady_state(p, Omega, tol=tol, max_iter=max_iter,
                                       warm_start=seed)
        except ConvergenceError as exc:
            raise ConvergenceError(f"B = {B!r} T: {exc}") from exc
        return SweepPoint(B=B, state=state)

    if warm_start:
        # sequential by construction: each point seeds the next
        points: list[SweepPoint] = []
        seed: float | None = None
        for B in B_grid:
            pt = solve_at(B, seed)
            points.append(pt)
            seed = pt.state.magnon_number
    else:
        points = [solve_at(B, None) for B in B_grid]

    numbers = [pt.state.magnon_number for pt in points]
    diffs = [b - a for a, b in zip(numbers, numbers[1:])]
    strictly_increasing = bool(diffs) and all(d > 0.0 for d in diffs)
    jump_indices: list[int] = []
    if len(diffs) >= 10:
        magnitudes = sorted(abs(d) for d in diffs)
        median = magnitudes[len(magnitudes) // 2]
        if median > 0.0:
            jump_indices = [i + 1 for i, d in enumerate(diffs)
                            if abs(d) > 5.0 * median]
    return SweepResult(points=points, strictly_increasing=strictly_increasing,
                       jump_indices=jump_indices)


def kerr_validity(state: SteadyState, K: float, Omega: float,
                  threshold: float = 0.01) -> KerrDiagnostic:
    """Ratio K |n2s|^3 / Omega that must stay small for the linear model."""
    if K < 0.0:
        raise ConfigError("K must be non-negative")
    numerator = K * abs(state.n2s) ** 3
    if Omega > 0.0:
        ratio = numerator / Omega
    else:
        ratio = 0.0 if numerator == 0.0 else math.inf
    return KerrDiagnostic(ratio=ratio, ok=ratio < threshold, threshold=threshold)
