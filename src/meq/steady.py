"""Steady states and spectra of Lindblad generators.

Every valid generator annihilates some density matrix; the routines here
recover it either from the eigenvector of the (largest-real-part, i.e. zero)
eigenvalue -- densely or by shift-inverted Arnoldi iteration targeting 0 --
by replacing one row of the generator with the trace-normalization
condition and solving the resulting linear system by LU factorization, or
by preconditioned GMRES on the generator augmented with the trace condition.

Everything but the GMRES route works in real arithmetic: the eigenvector
and LU steady routes, :func:`spectrum` and :func:`check_uniqueness` here,
and propagation in :mod:`meq.dynamics`.  A Lindblad generator maps
Hermitian operators to Hermitian operators, so in an orthonormal basis of
Hermitian operators -- E_ll for each diagonal element, (E_nm + E_mn)/sqrt(2)
and i(E_nm - E_mn)/sqrt(2) for each pair n < m -- it is a real matrix
R = T^dag L T with the spectrum of L, because T is unitary.  The basis
element that carries rho_nm sits at the superindex of rho_nm, so the trace
condition replaces the same row of R as of L and touches the same d
columns.  Real LU factors take half the bytes per entry, and on the cascade
they also have about a quarter fewer entries and take 40% of the complex
factorization time; real ARPACK takes about half the time of complex.

The iterative route factors nothing of size d^2.  It splits the generator
into the no-jump part S(rho) = -i (H_eff rho - rho H_eff^dag), with
H_eff = H - i sum Gamma J^dag J, and the jumps.  S is a Sylvester operator,
inverted in O(d^3) from one complex Schur form of H_eff (Bartels-Stewart),
and it preconditions GMRES on L + s vec(I) vec(I)^T.  It needs the model,
because H_eff cannot be recovered from the assembled L; it stays complex,
because the preconditioner is complex either way and dominates the cost.

All routes share one normalization pipeline: the solver's vector is mapped
back to rho (rho = T x on the real routes), divided by its trace (which also
fixes the arbitrary eigenvector phase, forcing the trace to the real value
1), the anti-Hermitian rounding noise is projected out, and the trace is
renormalized.  The residual is measured against the complex L, and a state
with an eigenvalue below -1e-8 is refused.
"""

from __future__ import annotations

import contextlib
import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hilbert import LayoutMismatchError, Operator
from .superspace import (
    CapacityError,
    LindbladModel,
    RouteChoice,
    SuperOperator,
    _effective_hamiltonian,
    check_dense_capacity,
    choose_route,
)

__all__ = [
    "CapacityError",
    "ConvergenceError",
    "DegeneracyError",
    "SteadyStateResult",
    "SpectrumResult",
    "GapReport",
    "steady_dense",
    "steady_sparse",
    "steady_linsolve",
    "steady_iterative",
    "spectrum",
    "check_uniqueness",
]

# Real parts closer than this times ||L||_inf are treated as ties when sorting
# eigenvalues.
_TIE_TOL = 1e-12
# Eigenvalues within this times ||L||_inf of zero (or of each other) count as a
# degenerate kernel; ||L||_inf sets the scale of the spectrum.
_GAP_TOL = 1e-8
# Row-replaced systems with a condition estimate above this are degenerate.
_COND_LIMIT = 1e14
# Imaginary parts of T^dag L T up to this times max(1, ||L||_inf) are rounding;
# LindbladModel admits Hamiltonians with Hermiticity defects of 1e-12 relative.
_HERMITIAN_TOL = 1e-10
# Returned states may have eigenvalues down to minus this (their trace is 1).
_POSITIVITY_TOL = 1e-8
# Seed of numpy's global random state while scipy's onenormest draws from it.
_ONENORMEST_SEED = 0
# GMRES of the iterative route: Krylov dimension between restarts, restart
# cycles, and the tolerance on the true residual ||b - A x|| / ||b||.  The
# cascade needs 15-40 iterations, a 60-level damped mode about 70; restarting
# at 50 there stagnated above 1e-12.  Basis vectors are touched only as they
# are used, so the restart length costs no memory on short solves.
_GMRES_RESTART = 100
_GMRES_CYCLES = 5
_GMRES_RTOL = 1e-12
# The no-jump operator S counts as singular when its smallest eigenvalue,
# 2 min |Im eig(H_eff)|, is below this times ||L||_inf; it is then shifted to
# S - sigma with sigma this times ||L||_inf.
_SYLVESTER_GAP = 1e-8
_SYLVESTER_SHIFT = 0.1
# Iterative states (trace 1) from two augmentation vectors that differ by
# more than this in any element are two different steady states.
_STATE_GAP_TOL = 1e-6
# An iterative solution x (trace 1) with ||L x||_inf above this times
# ||L||_inf is refused.
_RESIDUAL_TOL = 1e-10


class DegeneracyError(RuntimeError):
    """The steady state is not unique (or numerically indistinguishable from it)."""


class ConvergenceError(RuntimeError):
    """An iterative eigensolver or propagator failed to converge."""


@dataclass(frozen=True)
class SteadyStateResult:
    """A steady density matrix plus solver diagnostics.

    ``residual`` is the infinity norm of L applied to the normalized state;
    ``trace_before_normalization`` is the raw trace of the solver output
    (close to 1 for the linear-solve route, arbitrary for eigenvector routes);
    ``min_eigenvalue`` is the smallest eigenvalue of the returned state;
    ``hermiticity_defect`` is the largest element of the anti-Hermitian part
    that normalization drops from the solver output (divided by its trace),
    exactly 0 on the routes that solve in the real Hermitian basis;
    ``eigenvalue`` is the computed leading eigenvalue where the route
    provides one; ``policy`` is the route choice, where the LU route or a
    caller's route policy made one; ``diagnostics`` holds the deterministic
    counters of the iterative route (see :func:`steady_iterative`).
    """

    rho: Operator
    residual: float
    method: str
    trace_before_normalization: complex
    min_eigenvalue: float
    hermiticity_defect: float
    eigenvalue: complex | None = None
    policy: RouteChoice | None = None
    diagnostics: dict | None = None


@dataclass(frozen=True)
class SpectrumResult:
    """Leading eigenvalues sorted by descending real part, and the route used."""

    eigenvalues: np.ndarray
    count_requested: int
    policy: RouteChoice


@dataclass(frozen=True)
class GapReport:
    """The two largest-real-part eigenvalues and the uniqueness verdict."""

    lambda0: complex
    lambda1: complex | None
    unique: bool


def _descending_order(values: np.ndarray, scale: float) -> np.ndarray:
    """Indices sorting by descending real part; ties (real parts within
    _TIE_TOL * scale of their neighbour) are broken by descending imaginary
    part, then input order."""
    order = np.argsort(-values.real, kind="stable")
    ties = np.diff(values.real[order]) < -_TIE_TOL * scale
    group = np.concatenate(([0], np.cumsum(ties)))
    return order[np.lexsort((-values.imag[order], group))]


@contextlib.contextmanager
def _seeded_global_random_state():
    """Run the block on numpy's global random state seeded with
    _ONENORMEST_SEED, then give the caller's state back.

    ``scipy.sparse.linalg.onenormest`` draws its start vectors from the
    global state, so without this its estimates would depend on what else
    drew from it, and every estimate would advance the caller's stream.
    """
    saved = np.random.get_state()
    np.random.seed(_ONENORMEST_SEED)
    try:
        yield
    finally:
        np.random.set_state(saved)


@functools.lru_cache(maxsize=4)
def _hermitian_basis(d: int) -> tuple[sp.csr_array, sp.csr_array]:
    """The unitary T of the Hermitian operator basis for dimension d, and T^dag.

    Column j = n + m d of T is E_nn if n = m, (E_nm + E_mn)/sqrt(2) if n < m
    and i(E_mn - E_nm)/sqrt(2) if n > m, so T has at most two nonzeros per
    column and the real coordinates x of a Hermitian rho satisfy
    vec(rho) = T x.  Cached, because it depends on d alone; callers must not
    modify the arrays.
    """
    j = np.arange(d * d)
    row, col = j % d, j // d
    off = row != col
    h = np.sqrt(0.5)
    self_data = np.where(off, np.where(row < col, h, -1j * h), 1.0)
    partner_data = np.where(row[off] < col[off], h, 1j * h)
    basis = sp.csr_array(
        (
            np.concatenate((self_data, partner_data)),
            (np.concatenate((j, col[off] + row[off] * d)), np.concatenate((j, j[off]))),
        ),
        shape=(d * d, d * d),
    )
    return basis, basis.conj().T.tocsr()


def _real_generator(liouv: SuperOperator) -> tuple[sp.csc_array, sp.csr_array]:
    """The generator in the Hermitian operator basis: real CSC R = T^dag L T, and T.

    T is :func:`_hermitian_basis`.  Raises ``ValueError`` if L does not
    preserve Hermiticity.
    """
    basis, adjoint = _hermitian_basis(liouv.layout.total_dim)
    product = adjoint @ liouv.matrix @ basis
    defect = float(np.abs(product.data.imag).max()) if product.nnz else 0.0
    if defect > _HERMITIAN_TOL:  # the bound is relative to max(1, ||L||_inf)
        tol = _HERMITIAN_TOL * max(1.0, liouv.norm_inf())
        if defect > tol:
            raise ValueError(
                f"generator does not preserve Hermiticity: imaginary part {defect:.2e} "
                f"in the Hermitian basis exceeds {tol:.2e}"
            )
    real = sp.csr_array((product.data.real, product.indices, product.indptr), shape=product.shape)
    real.eliminate_zeros()
    return real.tocsc(), basis


def _finalize(
    liouv: SuperOperator,
    basis: sp.csr_array | None,
    raw: np.ndarray,
    method: str,
    eigenvalue: complex | None,
) -> SteadyStateResult:
    """Normalize a solver's vector into a checked density matrix.

    ``raw`` holds real-basis coordinates (vec(rho) = basis @ raw), or vec(rho)
    itself when ``basis`` is None.
    """
    layout = liouv.layout
    d = layout.total_dim
    rho = (raw if basis is None else basis @ raw).reshape((d, d), order="F")
    trace_raw = complex(np.trace(rho))
    scale = np.linalg.norm(raw)
    if abs(trace_raw) < 1e-8 * max(scale, np.finfo(float).tiny):
        raise DegeneracyError(
            "solver returned a (numerically) traceless kernel vector; "
            "the steady state is not unique"
        )
    rho = rho / trace_raw
    hermiticity_defect = float(np.abs(rho - rho.conj().T).max()) / 2.0
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    residual = float(np.abs(liouv.apply(rho.ravel(order="F"))).max())
    min_eigenvalue = float(np.linalg.eigvalsh(rho).min())
    if min_eigenvalue < -_POSITIVITY_TOL:
        raise ConvergenceError(
            f"{method} returned a state with eigenvalue {min_eigenvalue:.3e}, "
            f"below -{_POSITIVITY_TOL:g}; it is not a density matrix"
        )
    return SteadyStateResult(
        rho=Operator(layout, rho),
        residual=residual,
        method=method,
        trace_before_normalization=trace_raw,
        min_eigenvalue=min_eigenvalue,
        hermiticity_defect=hermiticity_defect,
        eigenvalue=eigenvalue,
    )


def steady_dense(liouv: SuperOperator) -> SteadyStateResult:
    """Steady state from the full eigendecomposition of the generator.

    The real generator R is diagonalized; eigenvalues are sorted by
    descending real part and the leading eigenvector is normalized into a
    density matrix.  Above the dense capacity this raises
    :class:`CapacityError`.
    """
    n = liouv.dim
    check_dense_capacity(n)
    real, basis = _real_generator(liouv)
    values, vectors = np.linalg.eig(real.toarray())
    scale = liouv.norm_inf() or 1.0
    order = _descending_order(values, scale)
    lam0 = complex(values[order[0]])
    if n > 1:
        lam1 = complex(values[order[1]])
        tol = _GAP_TOL * scale
        if lam0.real - lam1.real < tol:
            raise DegeneracyError(
                f"leading eigenvalues {lam0:.3e} and {lam1:.3e} are degenerate "
                f"within gap tolerance {tol:.3g}"
            )
    return _finalize(liouv, basis, vectors[:, order[0]], "dense-eig", lam0)


def _arpack_params(n: int, k: int) -> dict:
    # deterministic start vector; restart dimension 40, or 3k for k > 13, at most n
    return {
        "v0": np.ones(n) / np.sqrt(n),
        "tol": 1e-12,
        "maxiter": 10 * n,
        "ncv": min(n, max(3 * k, 40)),
    }


def steady_sparse(liouv: SuperOperator) -> SteadyStateResult:
    """Steady state from a shift-inverted Arnoldi iteration targeting 0.

    The iteration runs on the real generator R with a real shift.  The
    target eigenvalue of a valid generator is exactly 0, the largest real
    part in the spectrum, so inverting around a tiny shift converges to the
    same eigenvector as a largest-real-part iteration but much faster.
    Two eigenvalues are requested; a second one inside the gap tolerance
    means the kernel is degenerate.
    """
    n = liouv.dim
    if n < 5:  # too small for ARPACK; the dense route is exact here
        return replace(steady_dense(liouv), method="sparse-eig")
    matrix, basis = _real_generator(liouv)
    scale = liouv.norm_inf() or 1.0
    params = _arpack_params(n, 2)
    last_error: Exception | None = None
    for sigma in (1e-10 * scale, 1e-7 * scale, 1e-4 * scale):
        try:
            values, vectors = spla.eigs(matrix, k=2, sigma=sigma, which="LM", **params)
            break
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"shift-inverted Arnoldi did not converge within {params['maxiter']} "
                f"iterations: {exc}"
            ) from exc
        except RuntimeError as exc:
            if str(exc).startswith("ARPACK error 3:"):
                # "no shifts could be applied": the shifted inverse has a
                # multiple dominant eigenvalue, i.e. a many-dimensional kernel
                raise DegeneracyError(
                    f"shift-inverted Arnoldi found a multiple eigenvalue at 0 ({exc}); "
                    "degenerate kernel"
                ) from exc
            last_error = exc  # singular shifted factorization; nudge sigma
    else:
        raise ConvergenceError(
            f"could not factorize the shifted generator: {last_error}"
        ) from last_error

    order = np.argsort(np.abs(values))
    if abs(values[order[1]]) < _GAP_TOL * scale:
        raise DegeneracyError(
            f"two eigenvalues within {_GAP_TOL * scale:.3g} of zero "
            f"({values[order[0]]:.3e}, {values[order[1]]:.3e}); degenerate kernel"
        )
    vec = vectors[:, order[0]]
    # Rayleigh quotient: more accurate than the back-transformed ARPACK value
    lam0 = complex((vec.conj() @ (matrix @ vec)) / (vec.conj() @ vec))
    return _finalize(liouv, basis, vec, "sparse-eig", lam0)


def _replace_row(matrix: sp.csr_array, s: int, cols: np.ndarray, value: float) -> sp.csr_array:
    """Copy of a CSR matrix whose row ``s`` holds ``value`` at ``cols`` only."""
    start, stop = matrix.indptr[s], matrix.indptr[s + 1]
    indptr = matrix.indptr.copy()
    indptr[s + 1:] += cols.size - (stop - start)
    indices = np.concatenate((matrix.indices[:start], cols.astype(indptr.dtype), matrix.indices[stop:]))
    data = np.concatenate((matrix.data[:start], np.full(cols.size, value, matrix.dtype), matrix.data[stop:]))
    return sp.csr_array((data, indices, indptr), shape=matrix.shape)


def steady_linsolve(liouv: SuperOperator, l: int = 1, gamma: float = 1.0) -> SteadyStateResult:
    """Steady state from the row-replacement linear system.

    Row l+(l-1)d of the generator (the evolution equation of the diagonal
    element rho_ll) is overwritten with gamma times the vectorized identity,
    turning the normalization condition into one equation of the system; the
    right-hand side is gamma at that row and zero elsewhere.  The edit is
    made on the real generator R, where it is the same row and the same d
    columns, and equals T^dag L' T for the edited complex L'.  The solve uses
    a real LU factorization (dense LAPACK or SuperLU, as :func:`choose_route`
    decides by size), so the trace of the solution is 1 by construction.
    A condition estimate above 1e14 signals a degenerate steady state, for
    which the replaced system is singular.  ``l`` must lie in [1, d] and
    ``gamma`` must be finite and > 0, or ``ValueError`` is raised.
    """
    layout = liouv.layout
    d = layout.total_dim
    if not 1 <= l <= d:
        raise ValueError(f"row selector l={l} out of range [1, {d}]")
    gamma = float(gamma)
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    n = d * d
    s = (l - 1) * (d + 1)  # 0-based superindex of rho_ll
    diag_cols = np.arange(d) * (d + 1)
    rhs = np.zeros(n)
    rhs[s] = gamma
    policy = choose_route("linsolve", n)
    real, basis = _real_generator(liouv)

    if policy.route == "sparse":
        replaced = _replace_row(real.tocsr(), s, diag_cols, gamma).tocsc()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", spla.MatrixRankWarning)
                # the row-replaced R is nearly structurally symmetric: an
                # A + A^T ordering with diagonal pivots halves the fill.  Without
                # relaxed supernodes (relax=1) the fill is the same and the
                # factorization took 45% less time at n = 7056, 67% at 18225
                lu = spla.splu(
                    replaced, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                    relax=1, options={"SymmetricMode": True},
                )
        except RuntimeError as exc:
            raise DegeneracyError(
                f"replaced generator is singular ({exc}); degenerate steady states"
            ) from exc
        # ||A||_1 ||A^-1||_1 as dgecon estimates it on the dense branch, with
        # the Higham-Tisseur block estimate of ||A^-1||_1 from LU solves
        inverse = spla.LinearOperator(
            replaced.shape, matvec=lu.solve, rmatvec=lambda b: lu.solve(b, trans="T"),
            dtype=replaced.dtype,
        )
        anorm = float(abs(replaced).sum(axis=0).max())
        with _seeded_global_random_state():
            rcond = 1.0 / (anorm * spla.onenormest(inverse))
        solve = lu.solve
        diagnostics = {"lu_nnz": lu.L.nnz + lu.U.nnz}
    else:
        replaced = real.toarray()
        replaced[s, :] = 0.0
        replaced[s, diag_cols] = gamma
        anorm = float(np.abs(replaced).sum(axis=0).max())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            factors = scipy.linalg.lu_factor(replaced)
        rcond, info = scipy.linalg.lapack.dgecon(factors[0], anorm)
        rcond = rcond if info == 0 else 0.0
        solve = lambda b: scipy.linalg.lu_solve(factors, b)
        diagnostics = None
    if not rcond >= 1.0 / _COND_LIMIT:  # also catches NaN
        raise DegeneracyError(
            f"replaced generator is ill-conditioned (rcond {rcond:.2e}); "
            "degenerate steady states"
        )
    solution = solve(rhs)

    result = _finalize(liouv, basis, solution, "linsolve", None)
    return replace(result, policy=policy, diagnostics=diagnostics)


def _no_jump_inverse(model: LindbladModel, norm: float):
    """The inverse of the no-jump part of the generator, and the shift it needed.

    S(X) = -i (H_eff X - X H_eff^dag) with H_eff = H - i sum Gamma J^dag J.
    With the complex Schur form H_eff = Q U Q^dag, computed once, S(X) = Y
    becomes U Z - Z U^dag = i Q^dag Y Q for Z = Q^dag X Q, one ``ztrsyl``
    (Bartels-Stewart) solve per application.  The eigenvalues of S are
    -i (lambda_j - conj(lambda_k)); the smallest in modulus is
    2 min |Im lambda_j|, so an undamped no-jump state (a real eigenvalue of
    H_eff) makes S singular.  Then H_eff is shifted by -i sigma / 2, which
    inverts S - sigma instead, with sigma relative to ||L||_inf.
    """
    d = model.layout.total_dim
    upper, unitary = scipy.linalg.schur(_effective_hamiltonian(model), output="complex")
    shift = 0.0
    if 2.0 * np.abs(upper.diagonal().imag).min() < _SYLVESTER_GAP * norm:
        shift = _SYLVESTER_SHIFT * norm
        upper[np.diag_indices(d)] -= 0.5j * shift
    adjoint = unitary.conj().T

    def apply(vec: np.ndarray) -> np.ndarray:
        rhs = 1j * (adjoint @ vec.reshape((d, d), order="F") @ unitary)
        solution, scale, _ = scipy.linalg.lapack.ztrsyl(
            upper, upper, rhs, trana="N", tranb="C", isgn=-1
        )
        return (unitary @ solution @ adjoint).ravel(order="F") / scale

    return apply, shift


def _augmented_gmres(liouv: SuperOperator, precondition, weights: np.ndarray, norm: float):
    """Solve (L + u vec(I)^T) x = u with u = (||L||_inf / d) vec(diag(weights)).

    vec(I)^T L = 0, so the trace of the equation gives tr(x) = 1 and then
    L x = 0: x is the steady state with trace 1, whatever the positive
    weights.  Scaling u with ||L||_inf keeps the system, and so the
    iteration, the same under L -> cL.  Returns x, the iteration count and
    the true relative residual.
    """
    d = liouv.layout.total_dim
    n = d * d
    diagonal = np.arange(d) * (d + 1)
    augment = np.zeros(n, dtype=complex)
    augment[diagonal] = weights * (norm / d)
    matrix = liouv.matrix

    def matvec(x):
        return matrix @ x + augment * x[diagonal].sum()

    system = spla.LinearOperator((n, n), matvec=matvec, dtype=complex)
    preconditioner = spla.LinearOperator((n, n), matvec=precondition, dtype=complex)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = spla.gmres(
        system, augment, rtol=_GMRES_RTOL, atol=0.0, restart=min(_GMRES_RESTART, n),
        maxiter=_GMRES_CYCLES, M=preconditioner, callback=count, callback_type="pr_norm",
    )
    relative = float(np.linalg.norm(augment - matvec(x)) / np.linalg.norm(augment))
    if info != 0:
        raise ConvergenceError(
            f"GMRES stagnated at relative residual {relative:.2e} after {iterations} "
            f"iterations (tolerance {_GMRES_RTOL:g})"
        )
    return x, iterations, relative


def steady_iterative(liouv: SuperOperator, model: LindbladModel) -> SteadyStateResult:
    """Steady state by GMRES preconditioned with the inverse no-jump operator.

    Solves (L + u vec(I)^T) x = u with ``scipy.sparse.linalg.gmres``.  The
    range of L is traceless, so the system is nonsingular exactly when the
    kernel is one-dimensional, and its solution has trace 1.  ``model``
    supplies H_eff for the preconditioner (see :func:`_no_jump_inverse`); it
    must have ``liouv``'s layout.  The preconditioner changes the iteration
    count, never the answer: GMRES solves the system built from ``liouv``.

    A degenerate kernel makes the system singular but still consistent, and
    GMRES may return any member of the steady manifold.  So a second solve
    uses other weights in u; two states that differ by more than 1e-6 raise
    :class:`DegeneracyError`.  GMRES stagnation, or ||L x||_inf of either
    solution (trace 1) above 1e-10 times ||L||_inf, raises
    :class:`ConvergenceError`.  ``diagnostics`` records both iteration
    counts, the true relative residual of the first solve, the Sylvester
    shift (0 when none was needed) and the largest element difference
    between the two solutions.
    """
    if model.layout != liouv.layout:
        raise LayoutMismatchError("model and generator live on different layouts")
    d = liouv.layout.total_dim
    norm = liouv.norm_inf() or 1.0
    precondition, shift = _no_jump_inverse(model, norm)
    first, iterations, relative = _augmented_gmres(liouv, precondition, np.ones(d), norm)
    check, check_iterations, _ = _augmented_gmres(
        liouv, precondition, np.arange(1.0, d + 1.0), norm
    )
    residual = max(float(np.abs(liouv.apply(x)).max()) for x in (first, check))
    if residual > _RESIDUAL_TOL * norm:
        raise ConvergenceError(
            f"GMRES solution has residual {residual:.2e}, above "
            f"{_RESIDUAL_TOL:g} times ||L||_inf = {norm:.3e}"
        )
    difference = float(np.abs(first - check).max())
    if difference > _STATE_GAP_TOL:
        raise DegeneracyError(
            f"two augmentations gave steady states {difference:.2e} apart "
            f"(tolerance {_STATE_GAP_TOL:g}); degenerate kernel"
        )
    result = _finalize(liouv, None, first, "iterative", None)
    diagnostics = {
        "gmres_iterations": iterations,
        "check_iterations": check_iterations,
        "gmres_relative_residual": relative,
        "sylvester_shift": shift,
        "state_difference": difference,
    }
    return replace(result, diagnostics=diagnostics)


def spectrum(liouv: SuperOperator, k: int, method: str | None = None) -> SpectrumResult:
    """The k eigenvalues of largest real part, sorted descending.

    Ties in the real part (within 1e-12 times ||L||_inf, so that the order
    does not change when L is scaled) are broken by descending imaginary
    part, then by input order.  Both routes work on the real generator R,
    whose spectrum is L's and closed under conjugation, so when the k-th
    value's partner is not among the first k the pair is split at the cut,
    and its +imag member is returned (ARPACK may have converged to either).
    The sparse route uses an Arnoldi largest-real-part iteration; the dense
    route diagonalizes fully and truncates.  Without ``method``
    :func:`choose_route` picks; ARPACK needs k < n - 1.
    """
    n = liouv.dim
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    policy = choose_route("spectrum", n, k, method)

    real, _ = _real_generator(liouv)
    if policy.route == "dense":
        check_dense_capacity(n)
        values = np.linalg.eigvals(real.toarray())
    else:
        params = _arpack_params(n, k)
        try:
            values = spla.eigs(real, k=k, which="LR", return_eigenvectors=False, **params)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"Arnoldi largest-real-part iteration did not converge: {exc}"
            ) from exc

    # eigvals returns a real array when every eigenvalue of R is real
    scale = liouv.norm_inf() or 1.0
    values = values[_descending_order(values, scale)[:k]].astype(complex)
    last = values[-1]
    tol = _GAP_TOL * scale
    if abs(last.imag) > tol and not (np.abs(values[:-1] - last.conjugate()) <= tol).any():
        values[-1] = complex(last.real, abs(last.imag))
    return SpectrumResult(eigenvalues=values, count_requested=k, policy=policy)


def check_uniqueness(liouv: SuperOperator, method: str | None = None) -> GapReport:
    """Verify the kernel is one-dimensional via the two leading eigenvalues.

    Unique means the largest real part vanishes within the gap tolerance
    1e-8 times ||L||_inf while the second-largest stays below minus that
    tolerance.
    """
    tol = _GAP_TOL * (liouv.norm_inf() or 1.0)
    if liouv.dim == 1:
        lam0 = complex(liouv.to_dense()[0, 0])
        return GapReport(lam0, None, abs(lam0.real) < tol)
    lead = spectrum(liouv, 2, method=method).eigenvalues
    lam0, lam1 = complex(lead[0]), complex(lead[1])
    unique = abs(lam0.real) < tol and lam1.real < -tol
    return GapReport(lam0, lam1, unique)
