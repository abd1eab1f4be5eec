"""Brute-force linear response: direct solve of the fluctuation system.

Independent cross-check for the closed-form ladder.  Each mode operator is
expanded around its steady value into a pair of sideband amplitudes,

    <R> = R_s + R_- exp(-i delta t) + R_+ exp(+i delta t),

and the linearised equations of motion are collected at the two sideband
frequencies.  The unknown vector interleaves every lower-sideband
amplitude R_- with the conjugated upper-sideband amplitude (R_+)* of the
same mode, giving a dense 12x12 complex system with a unit probe drive as
the only source term.

The probe detuning enters only the diagonal, M(delta) = M0 - i*delta*I.
M0 is decomposed once, M0 = V diag(lam) V^-1, so every detuning of a grid
is solved by two 12-vector passes,

    x(delta) = V [(V^-1 b) / (lam - i*delta)],

followed by one step of iterative refinement against the exact matrix,
x += V [(V^-1 r) / (lam - i*delta)] with r = b - M(delta) x.  The step
makes the solve backward stable even where V is ill-conditioned, as near
an exceptional point (Skeel, Math. Comp. 35, 817 (1980)).  Residuals are
formed with M0's diagonal shifted exactly, offdiag(M0) x + (diag(M0) -
i*delta) x, never as M0 x - i*delta x, which cancels near delta = omega_p.
Every point is held to a relative residual of 1e-12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleError
from .params import SystemParams
from .steady_state import SteadyState

_SQRT2 = math.sqrt(2.0)

#: Unknown ordering: R_- then conjugated R_+ for each mode.
ORDERING = (
    "a1_minus", "a1_plus_conj",
    "a2_minus", "a2_plus_conj",
    "n1_minus", "n1_plus_conj",
    "n2_minus", "n2_plus_conj",
    "p_minus", "p_plus_conj",
    "u_minus", "u_plus_conj",
)

_IDX = {name: i for i, name in enumerate(ORDERING)}

#: Relative residual every solved point must meet.
RESIDUAL_BOUND = 1e-12

#: Grid points per pass in cross_validate: bounds the (n, 12) work arrays
#: and the closed form's ladder temporaries.
CHUNK = 1024


@dataclass(frozen=True)
class FluctuationSystem:
    """M0, the sideband matrix at zero probe detuning, and the probe drive;
    the matrix at detuning delta is M0 - i*delta*I."""

    matrix: np.ndarray     # (12, 12) complex
    rhs: np.ndarray        # (12,) complex; unit probe drive, a1_minus row

    @functools.cached_property
    def _modes(self):
        """(lam, V^T, V^-T, V^-1 b, off-diagonal of M0 transposed, diagonal
        of M0), from the one eigendecomposition of this system."""
        try:
            lam, v = np.linalg.eig(self.matrix)
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError as exc:
            raise OracleError(
                f"no eigendecomposition of the fluctuation matrix: {exc}"
            ) from exc
        diag = np.diagonal(self.matrix)
        return (lam, v.T, v_inv.T, v_inv @ self.rhs,
                (self.matrix - np.diag(diag)).T, diag)


@dataclass(frozen=True)
class OracleSolution:
    amplitudes: np.ndarray  # (12,) or (n, 12) complex, keyed by ORDERING
    a1m: complex | np.ndarray  # a1_minus per unit probe drive; (n,) on a grid
    residual: float         # worst relative residual
    residuals: np.ndarray   # relative residual at each detuning


def build_fluctuation_matrix(p: SystemParams,
                             state: SteadyState) -> FluctuationSystem:
    """Assemble M0 and the unit probe drive of the linearised sideband system.

    The lower-sideband equations couple the R_- amplitudes through A and
    the conjugated R_+ amplitudes through B; the conjugated upper-sideband
    equations are their complex conjugates, so M0 = [[A, B], [B*, A*]] with
    the two sidebands of each mode interleaved.  B holds the
    counter-rotating magnon-phonon terms, proportional to g_np * n2s
    (written below as mu); without the magnon-phonon drive the system
    splits into two independent 6x6 blocks.
    """
    # mu = g_np * n2s reconstructed from the enhanced coupling, so the
    # assembly works identically in effective and microscopic modes.
    mu = -1j * state.G_np_eff / _SQRT2
    a1, a2, n1, n2, ph, u = range(6)     # the modes in ORDERING's order
    A = np.diag([p.kappa_a + 1j * p.delta_1, p.kappa_a + 1j * p.delta_2,
                 p.kappa_n1 + 1j * p.delta_n1,
                 p.kappa_n2 + 1j * state.delta_n2_eff,
                 p.kappa_p + 1j * p.omega_p, p.gamma_u + 1j * p.delta_u])
    for j, k, g in ((a1, n1, p.g1), (a1, n2, p.g2), (a1, a2, p.f),
                    (a2, u, p.G_au)):
        A[j, k] = A[k, j] = 1j * g
    A[n2, ph], A[ph, n2] = 1j * mu, 1j * np.conj(mu)
    B = np.zeros((6, 6), dtype=complex)
    B[n2, ph] = B[ph, n2] = 1j * mu

    M = np.empty((12, 12), dtype=complex)
    M[0::2, 0::2], M[0::2, 1::2] = A, B
    M[1::2, 0::2], M[1::2, 1::2] = B.conj(), A.conj()
    b = np.zeros(12, dtype=complex)
    b[_IDX["a1_minus"]] = 1.0
    return FluctuationSystem(matrix=M, rhs=b)


def _solve(system: FluctuationSystem, d: np.ndarray):
    """x with M(d) x = b at each detuning of ``d`` (0-d or 1-D), and each
    point's residual |b - M(d) x| / |b|: a modal solve, one refinement step
    against the exact matrix, and the residual of the refined x."""
    lam, v_t, v_inv_t, c, off_t, diag = system._modes
    b = system.rhs
    shift = lam - 1j * d[..., None]
    diag_d = diag - 1j * d[..., None]
    # a detuning on an undamped mode divides by zero; its residual is NaN
    # and breaks the bound
    with np.errstate(all="ignore"):
        x = (c / shift) @ v_t
        r = b - (x @ off_t + diag_d * x)
        x += ((r @ v_inv_t) / shift) @ v_t
        r = b - (x @ off_t + diag_d * x)
        residual = np.linalg.norm(r, axis=-1) / np.linalg.norm(b)
    return x, residual


def _cond(system: FluctuationSystem, delta: float) -> float:
    """2-norm condition number of M(delta), from one 12x12 SVD."""
    try:
        return float(np.linalg.cond(
            system.matrix - 1j * delta * np.eye(len(ORDERING))))
    except np.linalg.LinAlgError:   # no SVD of a non-finite matrix
        return math.nan


def _over_bound(system: FluctuationSystem, delta: float, residual: float,
                bound: float) -> str:
    """The message for one point whose residual breaks the bound."""
    return (f"solve residual {residual:.3e} exceeds {bound:.0e} at "
            f"delta = {delta!r} (condition estimate "
            f"{_cond(system, delta):.3e})")


def solve_fluctuations(system: FluctuationSystem, delta,
                       residual_bound: float | None = RESIDUAL_BOUND
                       ) -> OracleSolution:
    """Solve M(delta) x = b at a scalar detuning or over a 1-D grid.

    The bound applies to every point, and the first point that breaks it
    is named in the error.  With ``residual_bound=None`` nothing is raised
    and the caller reads ``residuals`` (cross_validate does).
    """
    d = np.asarray(delta, dtype=float)
    if d.ndim > 1 or d.size == 0:
        raise OracleError(
            f"delta must be a scalar or a non-empty 1-D array, got {d.shape}")
    x, residual = _solve(system, d)
    if residual_bound is not None:
        # "not within" also catches a NaN residual
        bad = np.flatnonzero(~(residual <= residual_bound))
        if bad.size:
            k = bad[0]
            raise OracleError(_over_bound(
                system, float(d.reshape(-1)[k]), float(residual.flat[k]),
                residual_bound))
    a1m = x[..., _IDX["a1_minus"]]
    return OracleSolution(amplitudes=x,
                          a1m=complex(a1m) if a1m.ndim == 0 else a1m,
                          residual=float(residual.max()), residuals=residual)


@dataclass(frozen=True)
class ValidationReport:
    deltas: np.ndarray                     # solved detunings, grid order
    rel_dev: np.ndarray                    # relative deviation at each
    failures: list[tuple[float, str]]
    max_rel_dev: float
    argmax_delta: float
    max_residual: float                    # worst direct-solve residual
    argmax_cond: float                     # 2-norm cond of M at argmax_delta


def cross_validate(p: SystemParams, state: SteadyState,
                   delta_grid) -> ValidationReport:
    """Compare closed-form a1m against the direct solve over a grid.

    M0 is built and decomposed once; the grid is solved and compared in
    passes of CHUNK points.  Every point over RESIDUAL_BOUND is recorded in
    ``failures`` and left out of the comparison, and the grid continues.
    The closed form comes from evaluate_spectrum, the one response entry
    point.
    """
    from .response import evaluate_spectrum  # local import: modules stay independent

    grid = np.asarray(delta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise OracleError("delta grid must be a non-empty 1-D array")

    system = build_fluctuation_matrix(p, state)
    failures: list[tuple[float, str]] = []
    deltas, devs = [], []
    max_residual = 0.0
    for start in range(0, grid.size, CHUNK):
        chunk = grid[start:start + CHUNK]
        sol = solve_fluctuations(system, chunk, residual_bound=None)
        solved = sol.residuals <= RESIDUAL_BOUND
        failures += [(d, _over_bound(system, d, r, RESIDUAL_BOUND))
                     for d, r in zip(chunk[~solved].tolist(),
                                     sol.residuals[~solved].tolist())]
        if not solved.any():
            continue
        a1m = sol.a1m[solved]
        diff = evaluate_spectrum(p, state, chunk[solved]).a1m - a1m
        # np.hypot is the C library's hypot, as abs() of one complex is;
        # np.abs can differ from it in the last place
        devs.append(np.hypot(diff.real, diff.imag)
                    / np.hypot(a1m.real, a1m.imag))
        deltas.append(chunk[solved])
        max_residual = max(max_residual, float(sol.residuals[solved].max()))
    if not devs:
        raise OracleError("every grid point failed to solve")
    solved_deltas = np.concatenate(deltas)
    rel = np.concatenate(devs)
    k = int(np.argmax(rel))
    argmax_delta = float(solved_deltas[k])
    return ValidationReport(
        deltas=solved_deltas, rel_dev=rel, failures=failures,
        max_rel_dev=float(rel[k]), argmax_delta=argmax_delta,
        max_residual=max_residual, argmax_cond=_cond(system, argmax_delta))
