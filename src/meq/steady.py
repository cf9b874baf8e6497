"""Steady states of Lindblad generators by three independent routes.

Every valid generator annihilates some density matrix; the routines here
recover it either from the eigenvector of the (largest-real-part, i.e. zero)
eigenvalue -- densely or by shift-inverted Arnoldi iteration targeting 0 --
or by replacing one row of the generator with the trace-normalization
condition and solving the resulting linear system by LU factorization.

All three routes work in real arithmetic.  A Lindblad generator maps
Hermitian operators to Hermitian operators, so in an orthonormal basis of
Hermitian operators -- E_ll for each diagonal element, (E_nm + E_mn)/sqrt(2)
and i(E_nm - E_mn)/sqrt(2) for each pair n < m -- it is a real matrix
R = T^dag L T with the spectrum of L.  The basis element that carries rho_nm
sits at the superindex of rho_nm, so the trace condition replaces the same
row of R as of L and touches the same d columns.  Real LU factors take half
the bytes per entry, and on the cascade they also have about a quarter fewer
entries and take 40% of the complex factorization time.

All routes share one normalization pipeline: the real-basis vector is mapped
back to rho = T x, divided by its trace (which also fixes the arbitrary
eigenvector phase, forcing the trace to the real value 1), the anti-Hermitian
rounding noise is projected out, and the trace is renormalized.  The residual
is measured against the complex L, and a state with an eigenvalue below
-1e-8 is refused.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hilbert import Operator
from .superspace import (
    CapacityError,
    RouteChoice,
    SuperOperator,
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
    "spectrum",
    "check_uniqueness",
]

# Real parts closer than this are treated as ties when sorting eigenvalues.
_TIE_TOL = 1e-12
# Eigenvalues within this of zero (or of each other) count as a degenerate kernel.
_GAP_TOL = 1e-8
# Row-replaced systems with a condition estimate above this are degenerate.
_COND_LIMIT = 1e14
# Imaginary parts of T^dag L T up to this times max(1, ||L||_inf) are rounding;
# LindbladModel admits Hamiltonians with Hermiticity defects of 1e-12 relative.
_HERMITIAN_TOL = 1e-10
# Returned states may have eigenvalues down to minus this (their trace is 1).
_POSITIVITY_TOL = 1e-8


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
    ``eigenvalue`` is the computed leading eigenvalue where the route
    provides one; ``policy`` is the route choice, where the LU route or a
    caller's route policy made one.
    """

    rho: Operator
    residual: float
    method: str
    trace_before_normalization: complex
    min_eigenvalue: float
    eigenvalue: complex | None = None
    policy: RouteChoice | None = None


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


def _descending_order(values: np.ndarray) -> list[int]:
    """Indices sorting by descending real part; ties (real parts within
    _TIE_TOL of their neighbour) are broken by descending imaginary part,
    then input order."""
    order = sorted(range(len(values)), key=lambda i: -values[i].real)
    out: list[int] = []
    i = 0
    while i < len(order):
        j = i + 1
        while (
            j < len(order)
            and values[order[j - 1]].real - values[order[j]].real <= _TIE_TOL
        ):
            j += 1
        out.extend(sorted(order[i:j], key=lambda idx: -values[idx].imag))
        i = j
    return out


def _real_generator(liouv: SuperOperator) -> tuple[sp.csc_array, sp.csc_array]:
    """The generator in the Hermitian operator basis: real CSC R = T^dag L T, and T.

    Column j = n + m d of the unitary T is E_nn if n = m, (E_nm + E_mn)/sqrt(2)
    if n < m and i(E_mn - E_nm)/sqrt(2) if n > m, so T has at most two
    nonzeros per column and the real coordinates x of a Hermitian rho satisfy
    vec(rho) = T x.  Raises ``ValueError`` if L does not preserve Hermiticity.
    """
    d = liouv.layout.total_dim
    j = np.arange(d * d)
    row, col = j % d, j // d
    off = row != col
    h = np.sqrt(0.5)
    self_data = np.where(off, np.where(row < col, h, -1j * h), 1.0)
    partner_data = np.where(row[off] < col[off], h, 1j * h)
    basis = sp.csc_array(
        (
            np.concatenate((self_data, partner_data)),
            (np.concatenate((j, col[off] + row[off] * d)), np.concatenate((j, j[off]))),
        ),
        shape=(d * d, d * d),
    )
    product = (basis.conj().T @ liouv.matrix @ basis).tocsc()
    defect = float(np.abs(product.data.imag).max()) if product.nnz else 0.0
    tol = _HERMITIAN_TOL * max(1.0, liouv.norm_inf())
    if defect > tol:
        raise ValueError(
            f"generator does not preserve Hermiticity: imaginary part {defect:.2e} "
            f"in the Hermitian basis exceeds {tol:.2e}"
        )
    real = sp.csc_array(
        (product.data.real.copy(), product.indices, product.indptr), shape=product.shape
    )
    real.eliminate_zeros()
    return real, basis


def _finalize(
    liouv: SuperOperator,
    basis: sp.csc_array,
    raw: np.ndarray,
    method: str,
    eigenvalue: complex | None,
) -> SteadyStateResult:
    layout = liouv.layout
    d = layout.total_dim
    rho = (basis @ raw).reshape((d, d), order="F")
    trace_raw = complex(np.trace(rho))
    scale = np.linalg.norm(raw)
    if abs(trace_raw) < 1e-8 * max(scale, np.finfo(float).tiny):
        raise DegeneracyError(
            "solver returned a (numerically) traceless kernel vector; "
            "the steady state is not unique"
        )
    rho = rho / trace_raw
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
    order = _descending_order(values)
    lam0 = complex(values[order[0]])
    if n > 1:
        lam1 = complex(values[order[1]])
        if lam0.real - lam1.real < _GAP_TOL:
            raise DegeneracyError(
                f"leading eigenvalues {lam0:.3e} and {lam1:.3e} are degenerate "
                f"within gap tolerance {_GAP_TOL:g}"
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
    matrix, basis = _real_generator(liouv)
    if n < 5:
        # too small for ARPACK; the dense route is exact here
        values, vectors = np.linalg.eig(matrix.toarray())
        order = np.argsort(np.abs(values))
        if n > 1 and abs(values[order[1]]) < _GAP_TOL:
            raise DegeneracyError("second eigenvalue lies within the gap tolerance of 0")
        lam0 = complex(values[order[0]])
        return _finalize(liouv, basis, vectors[:, order[0]], "sparse-eig", lam0)

    scale = max(1.0, liouv.norm_inf())
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
        except RuntimeError as exc:  # singular shifted factorization; nudge sigma
            last_error = exc
    else:
        raise ConvergenceError(
            f"could not factorize the shifted generator: {last_error}"
        ) from last_error

    order = np.argsort(np.abs(values))
    if abs(values[order[1]]) < _GAP_TOL:
        raise DegeneracyError(
            f"two eigenvalues within {_GAP_TOL:g} of zero "
            f"({values[order[0]]:.3e}, {values[order[1]]:.3e}); degenerate kernel"
        )
    vec = vectors[:, order[0]]
    # Rayleigh quotient: more accurate than the back-transformed ARPACK value
    lam0 = complex((vec.conj() @ (matrix @ vec)) / (vec.conj() @ vec))
    return _finalize(liouv, basis, vec, "sparse-eig", lam0)


def _sparse_condition_estimate(lu, matrix) -> float:
    """Rough infinity-norm condition estimate from the LU factors."""
    n = matrix.shape[0]
    x = np.ones(n, dtype=matrix.dtype) / np.sqrt(n)
    est = 0.0
    for _ in range(6):
        y = lu.solve(x)
        z = lu.solve(y, trans="H")
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return np.inf
        est = np.sqrt(nz)
        x = z / nz
    norm_a = float(np.max(np.abs(matrix).sum(axis=1)))
    return norm_a * est


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
    which the replaced system is singular.
    """
    layout = liouv.layout
    d = layout.total_dim
    if not 1 <= l <= d:
        raise ValueError(f"row selector l={l} out of range [1, {d}]")
    gamma = float(gamma)
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
                lu = spla.splu(replaced)
        except RuntimeError as exc:
            raise DegeneracyError(
                f"replaced generator is singular ({exc}); degenerate steady states"
            ) from exc
        rcond = 1.0 / _sparse_condition_estimate(lu, replaced)
        solve = lu.solve
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
    if not rcond >= 1.0 / _COND_LIMIT:  # also catches NaN
        raise DegeneracyError(
            f"replaced generator is ill-conditioned (rcond {rcond:.2e}); "
            "degenerate steady states"
        )
    solution = solve(rhs)

    return replace(_finalize(liouv, basis, solution, "linsolve", None), policy=policy)


def spectrum(liouv: SuperOperator, k: int, method: str | None = None) -> SpectrumResult:
    """The k eigenvalues of largest real part, sorted descending.

    Ties in the real part are broken by descending imaginary part, then by
    input order.  The sparse route uses an Arnoldi largest-real-part
    iteration; the dense route diagonalizes fully and truncates.  Without
    ``method`` :func:`choose_route` picks; ARPACK needs k < n - 1.
    """
    n = liouv.dim
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    if method not in (None, "dense", "sparse"):
        raise ValueError(f"method must be 'dense' or 'sparse', got {method!r}")
    policy = choose_route("spectrum", n, k)
    if method and not (method == "sparse" and k >= n - 1):
        policy = RouteChoice(method, "requested")

    if policy.route == "dense":
        values = np.linalg.eigvals(liouv.to_dense())
    else:
        params = _arpack_params(n, k)
        try:
            values = spla.eigs(
                liouv.matrix, k=k, which="LR", return_eigenvectors=False, **params
            )
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"Arnoldi largest-real-part iteration did not converge: {exc}"
            ) from exc

    order = _descending_order(values)[:k]
    return SpectrumResult(eigenvalues=values[order], count_requested=k, policy=policy)


def check_uniqueness(liouv: SuperOperator, method: str | None = None) -> GapReport:
    """Verify the kernel is one-dimensional via the two leading eigenvalues.

    Unique means the largest real part vanishes within the gap tolerance
    1e-8 while the second-largest stays below minus that tolerance.
    """
    if liouv.dim == 1:
        lam0 = complex(liouv.to_dense()[0, 0])
        return GapReport(lam0, None, abs(lam0.real) < _GAP_TOL)
    lead = spectrum(liouv, 2, method=method).eigenvalues
    lam0, lam1 = complex(lead[0]), complex(lead[1])
    unique = abs(lam0.real) < _GAP_TOL and lam1.real < -_GAP_TOL
    return GapReport(lam0, lam1, unique)
