"""Brute-force linear response: direct solve of the fluctuation system.

Independent cross-check for the closed-form ladder.  Each mode operator is
expanded around its steady value into a pair of sideband amplitudes,

    <R> = R_s + R_- exp(-i delta t) + R_+ exp(+i delta t),

and the linearised equations of motion are collected at the two sideband
frequencies.  The unknown vector interleaves every lower-sideband
amplitude R_- with the conjugated upper-sideband amplitude (R_+)* of the
same mode, giving a dense 12x12 complex system with the probe amplitude as
the only source term.

The probe detuning enters only the diagonal, M(delta) = M0 - i*delta*I, so
a detuning grid is one stack of matrices built from one M0 and solved in
one batched call.
"""

from __future__ import annotations

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
_DIAG = np.arange(len(ORDERING))

#: Grid points per stacked solve in cross_validate.  A stack takes about
#: 2.4 MB; the whole of a 20001-point grid at once would take about 46 MB.
CHUNK = 1024


@dataclass(frozen=True)
class FluctuationSystem:
    matrix: np.ndarray     # (12, 12), or (n, 12, 12) for n detunings; complex
    rhs: np.ndarray        # (12,) complex; probe drive in the a1_minus row
    ordering: tuple[str, ...]
    delta: float | np.ndarray   # scalar, or (n,); kept for error reporting
    eps_d: float


@dataclass(frozen=True)
class OracleSolution:
    amplitudes: np.ndarray  # (12,) or (n, 12) complex, keyed by ORDERING
    a1m: complex | np.ndarray  # a1_minus normalised by eps_d; (n,) if stacked
    residual: float         # worst relative residual over the stack


def build_fluctuation_matrix(p: SystemParams, state: SteadyState, delta,
                             eps_d: float = 1.0) -> FluctuationSystem:
    """Assemble the linearised sideband system at probe detuning delta.

    A scalar delta gives one (12, 12) matrix.  A 1-D array of n detunings
    gives the (n, 12, 12) stack M0 - i*delta*I, with M0 built once.

    The counter-rotating blocks are proportional to g_np * n2s (written
    below as mu); they vanish when the magnon-phonon drive is off and the
    system splits into two independent 6x6 blocks.
    """
    d = np.asarray(delta, dtype=float)
    if d.ndim > 1 or d.size == 0:
        raise OracleError(
            f"delta must be a scalar or a non-empty 1-D array, got {d.shape}")
    # mu = g_np * n2s reconstructed from the enhanced coupling, so the
    # assembly works identically in effective and microscopic modes.
    mu = -1j * state.G_np_eff / _SQRT2
    mu_c = np.conj(mu)
    dn2 = state.delta_n2_eff

    # M0, the matrix at zero probe detuning; delta is subtracted from its
    # diagonal below
    M = np.zeros((12, 12), dtype=complex)
    b = np.zeros(12, dtype=complex)
    i = _IDX

    # cavity A
    M[i["a1_minus"], i["a1_minus"]] = p.kappa_a + 1j * p.delta_1
    M[i["a1_minus"], i["n1_minus"]] = 1j * p.g1
    M[i["a1_minus"], i["n2_minus"]] = 1j * p.g2
    M[i["a1_minus"], i["a2_minus"]] = 1j * p.f
    b[i["a1_minus"]] = eps_d

    M[i["a1_plus_conj"], i["a1_plus_conj"]] = p.kappa_a - 1j * p.delta_1
    M[i["a1_plus_conj"], i["n1_plus_conj"]] = -1j * p.g1
    M[i["a1_plus_conj"], i["n2_plus_conj"]] = -1j * p.g2
    M[i["a1_plus_conj"], i["a2_plus_conj"]] = -1j * p.f

    # cavity B
    M[i["a2_minus"], i["a2_minus"]] = p.kappa_a + 1j * p.delta_2
    M[i["a2_minus"], i["a1_minus"]] = 1j * p.f
    M[i["a2_minus"], i["u_minus"]] = 1j * p.G_au

    M[i["a2_plus_conj"], i["a2_plus_conj"]] = p.kappa_a - 1j * p.delta_2
    M[i["a2_plus_conj"], i["a1_plus_conj"]] = -1j * p.f
    M[i["a2_plus_conj"], i["u_plus_conj"]] = -1j * p.G_au

    # passive magnon
    M[i["n1_minus"], i["n1_minus"]] = p.kappa_n1 + 1j * p.delta_n1
    M[i["n1_minus"], i["a1_minus"]] = 1j * p.g1

    M[i["n1_plus_conj"], i["n1_plus_conj"]] = p.kappa_n1 - 1j * p.delta_n1
    M[i["n1_plus_conj"], i["a1_plus_conj"]] = -1j * p.g1

    # driven magnon, coupled to both phonon sidebands
    M[i["n2_minus"], i["n2_minus"]] = p.kappa_n2 + 1j * dn2
    M[i["n2_minus"], i["a1_minus"]] = 1j * p.g2
    M[i["n2_minus"], i["p_minus"]] = 1j * mu
    M[i["n2_minus"], i["p_plus_conj"]] = 1j * mu

    M[i["n2_plus_conj"], i["n2_plus_conj"]] = p.kappa_n2 - 1j * dn2
    M[i["n2_plus_conj"], i["a1_plus_conj"]] = -1j * p.g2
    M[i["n2_plus_conj"], i["p_minus"]] = -1j * mu_c
    M[i["n2_plus_conj"], i["p_plus_conj"]] = -1j * mu_c

    # phonon, driven by both magnon sidebands
    M[i["p_minus"], i["p_minus"]] = p.kappa_p + 1j * p.omega_p
    M[i["p_minus"], i["n2_minus"]] = 1j * mu_c
    M[i["p_minus"], i["n2_plus_conj"]] = 1j * mu

    M[i["p_plus_conj"], i["p_plus_conj"]] = p.kappa_p - 1j * p.omega_p
    M[i["p_plus_conj"], i["n2_minus"]] = -1j * mu_c
    M[i["p_plus_conj"], i["n2_plus_conj"]] = -1j * mu

    # atomic ensemble
    M[i["u_minus"], i["u_minus"]] = p.gamma_u + 1j * p.delta_u
    M[i["u_minus"], i["a2_minus"]] = 1j * p.G_au

    M[i["u_plus_conj"], i["u_plus_conj"]] = p.gamma_u - 1j * p.delta_u
    M[i["u_plus_conj"], i["a2_plus_conj"]] = -1j * p.G_au

    stack = np.broadcast_to(M, d.shape + M.shape).copy()
    stack[..., _DIAG, _DIAG] -= 1j * d[..., None]
    return FluctuationSystem(matrix=stack, rhs=b, ordering=ORDERING,
                             delta=float(d) if d.ndim == 0 else d,
                             eps_d=float(eps_d))


def solve_fluctuations(system: FluctuationSystem,
                       residual_bound: float = 1e-12) -> OracleSolution:
    """Dense partial-pivoting solve with a hard residual bound.

    A stacked system is solved in one batched call.  The bound applies to
    every point, and the first point that breaks it is named in the error.
    """
    M, b = system.matrix, system.rhs
    try:
        x = np.linalg.solve(
            M, np.broadcast_to(b[:, None], M.shape[:-1] + (1,)))[..., 0]
    except np.linalg.LinAlgError as exc:
        deltas = system.delta
        where = (f"delta = {deltas!r}" if np.ndim(deltas) == 0 else
                 f"one of {deltas.size} detunings in "
                 f"[{float(deltas[0])!r}, {float(deltas[-1])!r}]")
        raise OracleError(f"singular fluctuation matrix at {where}") from exc

    rhs_norm = float(np.linalg.norm(b))
    if rhs_norm == 0.0:
        residual = np.zeros(M.shape[:-2])
    else:
        residual = np.linalg.norm((M @ x[..., None])[..., 0] - b,
                                  axis=-1) / rhs_norm
    # "not within" also catches a NaN residual
    bad = np.flatnonzero(~(residual <= residual_bound))
    if bad.size:
        k = bad[0]
        try:
            cond = float(np.linalg.cond(M.reshape(-1, 12, 12)[k]))
        except np.linalg.LinAlgError:   # no SVD of a non-finite matrix
            cond = math.nan
        raise OracleError(
            f"solve residual {residual.flat[k]:.3e} exceeds "
            f"{residual_bound:.0e} at delta = "
            f"{float(np.atleast_1d(system.delta)[k])!r} "
            f"(condition estimate {cond:.3e})")

    if system.eps_d == 0.0:
        raise OracleError("eps_d = 0 leaves no probe source to normalise by")
    a1m = x[..., _IDX["a1_minus"]] / system.eps_d
    return OracleSolution(amplitudes=x,
                          a1m=complex(a1m) if a1m.ndim == 0 else a1m,
                          residual=float(residual.max()))


@dataclass(frozen=True)
class ValidationReport:
    deltas: np.ndarray                     # solved detunings, grid order
    rel_dev: np.ndarray                    # relative deviation at each
    failures: list[tuple[float, str]]
    max_rel_dev: float
    argmax_delta: float
    max_residual: float                    # worst direct-solve residual


def _solve_chunk(p: SystemParams, state: SteadyState, chunk: np.ndarray,
                 failures: list[tuple[float, str]]):
    """a1m over one chunk of the grid, the mask of solved points and the
    worst residual.  A failed stacked solve is redone point by point, so
    each failing detuning is recorded in ``failures`` with its own message.
    """
    try:
        sol = solve_fluctuations(build_fluctuation_matrix(p, state, chunk))
        return sol.a1m, np.ones(chunk.size, dtype=bool), sol.residual
    except OracleError:
        pass
    a1m = np.zeros(chunk.size, dtype=complex)
    solved = np.zeros(chunk.size, dtype=bool)
    worst = 0.0
    for k, d in enumerate(chunk.tolist()):
        try:
            sol = solve_fluctuations(build_fluctuation_matrix(p, state, d))
        except OracleError as exc:
            failures.append((d, str(exc)))
            continue
        a1m[k], solved[k] = sol.a1m, True
        worst = max(worst, sol.residual)
    return a1m, solved, worst


def cross_validate(p: SystemParams, state: SteadyState,
                   delta_grid) -> ValidationReport:
    """Compare closed-form a1m against the direct solve over a grid.

    The grid is evaluated and solved in stacks of CHUNK points.  Solver
    failures are recorded per point and the grid continues.  The closed
    form comes from evaluate_spectrum, the one response entry point; the
    output and delay fields it also builds cost about 1 % of a chunk's
    direct solve.
    """
    from .response import evaluate_spectrum  # local import: modules stay independent

    grid = np.asarray(delta_grid, dtype=float).ravel()
    if grid.size == 0:
        raise OracleError("delta grid must be non-empty")

    failures: list[tuple[float, str]] = []
    deltas, devs = [], []
    max_residual = 0.0
    for start in range(0, grid.size, CHUNK):
        chunk = grid[start:start + CHUNK]
        a1m, solved, residual = _solve_chunk(p, state, chunk, failures)
        a1m = a1m[solved]
        diff = evaluate_spectrum(p, state, chunk).a1m[solved] - a1m
        # np.hypot is the C library's hypot, as abs() of one complex is;
        # np.abs can differ from it in the last place
        devs.append(np.hypot(diff.real, diff.imag)
                    / np.hypot(a1m.real, a1m.imag))
        deltas.append(chunk[solved])
        max_residual = max(max_residual, residual)
    solved_deltas = np.concatenate(deltas)
    rel = np.concatenate(devs)
    if rel.size == 0:
        raise OracleError("every grid point failed to solve")
    k = int(np.argmax(rel))
    return ValidationReport(deltas=solved_deltas, rel_dev=rel,
                            failures=failures, max_rel_dev=float(rel[k]),
                            argmax_delta=float(solved_deltas[k]),
                            max_residual=max_residual)
