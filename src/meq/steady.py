"""Steady states and spectra of Lindblad generators.

Every valid generator annihilates some density matrix; the routines here
recover it either from the eigenvector of the (largest-real-part, i.e. zero)
eigenvalue -- densely or by shift-inverted Arnoldi iteration targeting 0 --
or, by default, the paper's way: one row of the generator is replaced with
the trace-normalization condition and the resulting linear system solved,
by LU factorization below superspace dimension 1024 and by preconditioned
GMRES from it on (:func:`steady_linsolve`).

Everything but GMRES works on the real generator R = T^dag L T in the
Hermitian operator basis T that :mod:`meq.superspace` describes: the
eigenvector routes, the LU solves, :func:`spectrum` and
:func:`check_uniqueness`.  The two sparse factorizations, of the
row-replaced R and of the shifted R - sigma I, share one SuperLU setup
(:func:`_superlu`).  Real LU factors take half the bytes per entry,
and on the cascade they also have about a quarter fewer entries and take
40% of the complex factorization time; real ARPACK takes about half the
time of complex.

Spectra deflate the steady eigenvalue.  A trace-preserving generator has
e^T R = 0 for the vector e that marks R's diagonal coordinates, so its
spectrum is an exact 0 plus the spectrum of R restricted to the trace-zero
coordinates W = {x : e^T x = 0}.  :func:`spectrum` returns that 0 and
diagonalizes R|W, or runs ARPACK on it for the other k - 1 eigenvalues; on
the cascade ARPACK then needs about half the products with R that it needed
when it also had to converge to the 0.  :func:`check_uniqueness` needs one
eigenvalue of R|W.

GMRES factors nothing of size d^2.  It is preconditioned with the inverse
of the no-jump part S(rho) = K rho + rho K^dag of the generator, with the
K = -i H_eff, H_eff = H - i sum Gamma J^dag J, that the generator keeps.
S is a Sylvester operator, inverted in O(d^3) per application from one
eigendecomposition of H_eff (four d x d products and a division), or, when
its eigenvectors are too ill-conditioned, from one complex Schur form
(Bartels-Stewart, a triangular ``ztrsyl`` solve).  The eigendecomposition
also says which row to replace.  GMRES stays complex: the preconditioner is
complex either way and dominates the cost.

All routes share one normalization pipeline: the solver's vector is mapped
back to rho (rho = T x on the real routes), divided by its trace (which also
fixes the arbitrary eigenvector phase, forcing the trace to the real value
1), the anti-Hermitian rounding noise is projected out, and the trace is
renormalized.  The residual is measured against the complex L, and a state
with an eigenvalue below -1e-8 is refused.
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
    _ARPACK_MIN_RESTART,
    CapacityError,
    RouteChoice,
    SuperOperator,
    _lowest_eigenvalue,
    _real_generator,
    _to_operator,
    _trace_zero_generator,
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
    "steady_state",
    "steady_dense",
    "steady_sparse",
    "steady_linsolve",
    "spectrum",
    "check_uniqueness",
]

# Real parts closer than this times ||L||_inf are treated as ties when sorting
# eigenvalues.
_TIE_TOL = 1e-12
# Eigenvalues within this times ||L||_inf of zero (or of each other) count as a
# degenerate kernel; ||L||_inf sets the scale of the spectrum.
_GAP_TOL = 1e-8
# spectrum's sparse route asks ARPACK for at least this many eigenvalues of
# R|W (n - 3 at most, one when it wants one) and keeps the leading k - 1.
# Implicit restarts converge at a rate set by the gap between the wanted and
# the unwanted Ritz values, so a request that ends inside a cluster converges
# slowly: the cascade's k = 5 ended inside two conjugate pairs 4e-3 apart.
# Of the minimums that cut its products by 15%, 7 took the fewest summed over
# k = 2-10 on the models of ROADMAP item 16.  At k = 2 the 7 made half of
# those models dearer, so one value is asked for.
_ARPACK_MIN_REQUEST = 7
# Row-replaced systems with a condition estimate above this are degenerate.
_COND_LIMIT = 1e14
# GMRES of the steady solve: Krylov dimension between restarts, restart
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
# Above this kappa_1(V) = ||V||_1 ||V^-1||_1 of the eigenvectors V of H_eff, S is
# inverted through the Schur form instead of the eigendecomposition.  Near the
# exceptional point of a decaying, driven qubit GMRES with the eigendecomposition
# form took 1+2 iterations up to kappa_1 = 1e2, 4+6 at 1e3 and 5+7 at 1e4 and 1e5
# (the Schur form 1+2 throughout), and stagnated from 1e7; the cascade reaches
# 148 at n = 99225 and 565 at n = 321489.
_EIG_COND_LIMIT = 1e4
# GMRES states (trace 1) from two replaced rows that differ by more than this
# in any element are two different steady states.
_STATE_GAP_TOL = 1e-6
# A GMRES solution x (trace 1) with ||L x||_inf above this times
# ||L||_inf is refused.
_RESIDUAL_TOL = 1e-10
# The steady routes a caller may request, and the function that runs each.
_ROUTES = {"dense": "steady_dense", "sparse": "steady_sparse", "solve": "steady_linsolve"}


class DegeneracyError(RuntimeError):
    """The steady state is not unique (or numerically indistinguishable from it)."""


class ConvergenceError(RuntimeError):
    """An iterative solver or propagator failed to converge."""


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
    provides one; ``policy`` is :func:`steady_state`'s route choice, the one
    name of the route that ran (None on a direct route call);
    ``diagnostics`` holds what the row-replacement solve
    (:func:`steady_linsolve`) and the shift-inverted iteration
    (:func:`steady_sparse`) record, deterministic at a fixed BLAS thread
    count: ``gmres_relative_residual`` and ``state_difference`` can change
    with that count.
    """

    rho: Operator
    residual: float
    trace_before_normalization: complex
    min_eigenvalue: float
    hermiticity_defect: float
    eigenvalue: complex | None = None
    policy: RouteChoice | None = None
    diagnostics: dict | None = None


@dataclass(frozen=True)
class SpectrumResult:
    """Leading eigenvalues sorted by descending real part, and the route used.

    ``eigenvalues`` holds exactly the k values requested; the sparse route's
    extra ARPACK values past them (see :func:`spectrum`) are dropped.
    ``diagnostics["arpack_matvecs"]`` is the sparse route's count of products
    with R|W (0 for k = 1); the dense route records none.
    """

    eigenvalues: np.ndarray
    policy: RouteChoice
    diagnostics: dict | None = None


@dataclass(frozen=True)
class GapReport:
    """The two largest-real-part eigenvalues and the uniqueness verdict."""

    lambda0: complex
    lambda1: complex | None
    unique: bool


def _descending_order(values: np.ndarray, scale: float) -> np.ndarray:
    """Indices sorting by descending real part; ties (real parts within
    _TIE_TOL * scale of their neighbour) are broken by descending imaginary
    part, then descending real part, then input order."""
    order = np.argsort(-values.real, kind="stable")
    ties = np.diff(values.real[order]) < -_TIE_TOL * scale
    group = np.concatenate(([0], np.cumsum(ties)))
    return order[np.lexsort((-values.imag[order], group))]


def _finalize(liouv: SuperOperator, rho: np.ndarray, eigenvalue: complex | None,
              diagnostics: dict | None = None) -> SteadyStateResult:
    """Normalize a solver's d x d operator into a checked density matrix,
    a route's result with its ``diagnostics``."""
    trace_raw = complex(np.trace(rho))
    scale = np.linalg.norm(rho)
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
    return SteadyStateResult(
        rho=Operator(liouv.layout, rho),
        residual=residual,
        trace_before_normalization=trace_raw,
        min_eigenvalue=_lowest_eigenvalue(rho, "the steady state", ConvergenceError),
        hermiticity_defect=hermiticity_defect,
        eigenvalue=eigenvalue,
        diagnostics=diagnostics,
    )


def steady_dense(liouv: SuperOperator) -> SteadyStateResult:
    """Steady state from the full eigendecomposition of the generator.

    The real generator R is diagonalized; eigenvalues are sorted by
    descending real part and the leading eigenvector is normalized into a
    density matrix.  Above the dense capacity this raises
    :class:`CapacityError`.
    """
    return _eigenvector_state(liouv)


def _eigenvector_state(liouv: SuperOperator) -> SteadyStateResult:
    """:func:`steady_dense`'s state, and :func:`steady_sparse`'s below n = 5."""
    n = liouv.dim
    check_dense_capacity(n)
    values, vectors = np.linalg.eig(_real_generator(liouv).toarray())
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
    return _finalize(liouv, _to_operator(vectors[:, order[0]], liouv.layout.total_dim), lam0)


def _arpack_params(n: int, k: int) -> dict:
    # deterministic start vector; restart dimension max(3k, 40), at most n
    return {
        "v0": np.ones(n) / np.sqrt(n),
        "tol": 1e-12,
        "maxiter": 10 * n,
        "ncv": min(n, max(3 * k, _ARPACK_MIN_RESTART)),
    }


def steady_sparse(liouv: SuperOperator) -> SteadyStateResult:
    """Steady state from a shift-inverted Arnoldi iteration targeting 0.

    The iteration runs on the real generator R with a real shift sigma, and
    ARPACK applies (R - sigma I)^-1 by solves with :func:`_superlu`'s
    factors, the ordering of :func:`steady_linsolve`'s SuperLU branch.  The
    target eigenvalue of a valid generator is exactly 0, the largest real
    part in the spectrum, so inverting around a tiny shift converges to the
    same eigenvector as a largest-real-part iteration but much faster.  The
    shift is 1e-10 ||L||_inf, and 1e-7 or 1e-4 ||L||_inf when the factor is
    singular.  Two eigenvalues are requested; a second one inside the gap
    tolerance means the kernel is degenerate.  ``diagnostics`` records the
    factors' fill ``lu_nnz``, the relative ``shift`` that ran and the count
    of solves ``arpack_solves``; below n = 5 the dense route runs and
    records none.
    """
    n = liouv.dim
    if n < 5:  # too small for ARPACK; the dense route is exact here
        return _eigenvector_state(liouv)
    matrix = _real_generator(liouv)
    scale = liouv.norm_inf() or 1.0
    params = _arpack_params(n, 2)
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    inverse = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    last_error: Exception | None = None
    for shift in (1e-10, 1e-7, 1e-4):
        sigma = shift * scale
        try:
            lu = _superlu(matrix - sigma * sp.eye_array(n, format="csr"))
            values, vectors = spla.eigs(
                matrix, k=2, sigma=sigma, which="LM", OPinv=inverse, **params
            )
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
    diagnostics = {"lu_nnz": lu.L.nnz + lu.U.nnz, "shift": shift, "arpack_solves": solves}
    return _finalize(liouv, _to_operator(vec, liouv.layout.total_dim), lam0, diagnostics)


def _superlu(matrix) -> spla.SuperLU:
    """SuperLU factors of a sparse R - sigma I or row-replaced R, the one
    SuperLU setup of the steady routes; an exactly singular factor raises
    ``RuntimeError``.

    Both matrices are nearly structurally symmetric: an A + A^T ordering
    with diagonal pivots halves the fill of the default column ordering
    (2.13M and 2.20M entries against about 4.4M for the cascade at
    n = 7056).  Without relaxed supernodes (relax=1) the fill is the same
    and the row-replaced factorization took 45% less time at n = 7056, 67%
    at 18225.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        return spla.splu(
            sp.csc_array(matrix), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
            relax=1, options={"SymmetricMode": True},
        )


def steady_linsolve(liouv: SuperOperator) -> SteadyStateResult:
    """Steady state from the row-replacement linear system, the paper's method.

    The population equation of one level, row s = l (d + 1) of the
    generator, is overwritten with gamma vec(I)^T, gamma = ||L||_inf / d
    (1 / d when L = 0), turning the normalization condition into one
    equation of the system with right-hand side gamma e_s.  The range of L
    is traceless, so the system is nonsingular exactly when the kernel is
    one-dimensional, and its solution has trace 1.  Under L -> cL the system
    becomes c times itself, so neither the state nor the condition estimate
    nor the iteration depends on the unit of time.

    :func:`choose_route` picks the solver by size, recorded as
    ``diagnostics["linsolve_policy"]``.  Dense LAPACK or sparse SuperLU
    factors the system in the real Hermitian basis, with the row of rho_11;
    there the edit is the same row and the same d columns of R, and equals
    T^dag L' T for the edited complex L'.  A condition estimate above 1e14
    signals a degenerate steady state, for which the replaced system is
    singular; SuperLU records its fill as ``lu_nnz``.  "gmres" solves the
    complex system by preconditioned GMRES (:func:`_gmres_state`).
    """
    d = liouv.layout.total_dim
    norm = liouv.norm_inf() or 1.0
    gamma = norm / d
    policy = choose_route("linsolve", liouv.dim)
    diagnostics = {"linsolve_policy": policy._asdict()}
    if policy.route == "gmres":
        rho = _gmres_state(liouv, norm, diagnostics)
        return _finalize(liouv, rho, None, diagnostics)
    rhs = np.zeros(liouv.dim)
    rhs[0] = gamma
    real = _real_generator(liouv)
    trace_row = np.zeros((1, liouv.dim))
    trace_row[0, :: d + 1] = gamma  # the d diagonal coordinates l (d + 1)

    if policy.route == "sparse":
        replaced = sp.vstack((sp.csr_array(trace_row), real[1:]), format="csc")
        try:
            lu = _superlu(replaced)
        except RuntimeError as exc:
            raise DegeneracyError(
                f"replaced generator is singular ({exc}); degenerate steady states"
            ) from exc
        # ||A||_1 ||A^-1||_1 as dgecon estimates it on the dense branch, with
        # the Higham-Tisseur estimate of ||A^-1||_1 from LU solves; with one
        # column (t = 1) it draws nothing at random
        inverse = spla.LinearOperator(
            replaced.shape, matvec=lu.solve, rmatvec=lambda b: lu.solve(b, trans="T"),
            dtype=replaced.dtype,
        )
        anorm = float(abs(replaced).sum(axis=0).max())
        rcond = 1.0 / (anorm * spla.onenormest(inverse, t=1))
        solve = lu.solve
        diagnostics["lu_nnz"] = lu.L.nnz + lu.U.nnz
    else:
        replaced = real.toarray()
        replaced[0] = trace_row[0]
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

    return _finalize(liouv, _to_operator(solution, d), None, diagnostics)


def _no_jump_inverse(liouv: SuperOperator, norm: float):
    """The inverse of the no-jump part of the generator, how it was formed,
    and the level whose row the first GMRES solve replaces.

    S(X) = K X + X K^dag = -i (H_eff X - X H_eff^dag), with the
    generator's K = -i H_eff.  With H_eff = V diag(lambda) V^-1, computed
    once, X = V Z V^dag turns S(X) = Y into D * Z = V^-1 Y V^-dag
    elementwise, with D_jk = -i (lambda_j - conj(lambda_k)): four d x d
    products and one division per application, the eigendecomposition form
    of the Sylvester solve (Golub and Van Loan, Matrix Computations,
    7.6.3).  The smallest |D_jk| is 2 min |Im lambda_j|, so an undamped
    no-jump state (a real eigenvalue of H_eff) makes S singular.  Then
    lambda is shifted by -i sigma / 2, which inverts S - sigma instead, with
    sigma relative to ||L||_inf.

    The rounding of the eigendecomposition form grows with
    kappa_1(V) = ||V||_1 ||V^-1||_1, which diverges at an exceptional point
    of H_eff.  Above _EIG_COND_LIMIT the inverse comes from the complex
    Schur form H_eff = Q U Q^dag instead: U Z - Z U^dag = i Q^dag Y Q for
    Z = Q^dag X Q, one ``ztrsyl`` (Bartels-Stewart) solve per application.

    The level is the largest entry of the eigenvector of the least-damped
    eigenvalue (largest Im lambda): where the no-jump evolution leaves
    weight longest.  Returns the inverse, the shift, ``"eig"`` or
    ``"schur"``, and the 0-based level.
    """
    d = liouv.layout.total_dim
    h_eff = 1j * liouv.no_jump
    values, vectors = np.linalg.eig(h_eff)
    level = int(np.abs(vectors[:, np.argmax(values.imag)]).argmax())
    shift = 0.0
    if 2.0 * np.abs(values.imag).min() < _SYLVESTER_GAP * norm:
        shift = _SYLVESTER_SHIFT * norm
        values = values - 0.5j * shift
    try:
        inverse = np.linalg.inv(vectors)
        kappa = np.abs(vectors).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max()
    except np.linalg.LinAlgError:  # V is exactly singular: H_eff is defective
        kappa = np.inf
    if kappa <= _EIG_COND_LIMIT:
        vectors_adjoint, inverse_adjoint = vectors.conj().T, inverse.conj().T
        denominator = -1j * (values[:, None] - values.conj()[None, :])

        def apply(vec: np.ndarray) -> np.ndarray:
            z = inverse @ vec.reshape((d, d), order="F") @ inverse_adjoint / denominator
            return (vectors @ z @ vectors_adjoint).ravel(order="F")

        return apply, shift, "eig", level

    upper, unitary = scipy.linalg.schur(h_eff, output="complex")
    upper[np.diag_indices(d)] -= 0.5j * shift
    adjoint = unitary.conj().T

    def apply(vec: np.ndarray) -> np.ndarray:
        rhs = 1j * (adjoint @ vec.reshape((d, d), order="F") @ unitary)
        solution, scale, _ = scipy.linalg.lapack.ztrsyl(
            upper, upper, rhs, trana="N", tranb="C", isgn=-1
        )
        return (unitary @ solution @ adjoint).ravel(order="F") / scale

    return apply, shift, "schur", level


def _replaced_gmres(liouv: SuperOperator, precondition, level: int, gamma: float):
    """Solve the row-replaced system A x = gamma e_s, s = level (d + 1), by GMRES.

    A x is L x with its entry s overwritten by gamma tr(x).  Returns x, the
    iteration count and the true relative residual ||b - A x|| / ||b||.
    """
    d = liouv.layout.total_dim
    n = d * d
    s = level * (d + 1)
    diagonal = np.arange(d) * (d + 1)
    matrix = liouv.matrix
    rhs = np.zeros(n, dtype=complex)
    rhs[s] = gamma

    def matvec(x):
        y = matrix @ x
        y[s] = gamma * x[diagonal].sum()
        return y

    system = spla.LinearOperator((n, n), matvec=matvec, dtype=complex)
    preconditioner = spla.LinearOperator((n, n), matvec=precondition, dtype=complex)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = spla.gmres(
        system, rhs, rtol=_GMRES_RTOL, atol=0.0, restart=min(_GMRES_RESTART, n),
        maxiter=_GMRES_CYCLES, M=preconditioner, callback=count, callback_type="pr_norm",
    )
    relative = float(np.linalg.norm(rhs - matvec(x)) / gamma)
    if info != 0:
        raise ConvergenceError(
            f"GMRES stagnated at relative residual {relative:.2e} after {iterations} "
            f"iterations (tolerance {_GMRES_RTOL:g})"
        )
    return x, iterations, relative


def _gmres_state(liouv: SuperOperator, norm: float, diagnostics: dict) -> np.ndarray:
    """The d x d steady state of :func:`steady_linsolve`'s GMRES branch.

    GMRES solves the complex row-replaced system, preconditioned with the
    inverse no-jump operator of :func:`_no_jump_inverse`; the preconditioner
    changes the iteration count, never the answer.  The first solve replaces
    the row of the level that function picks, where the least-damped no-jump
    state lives: with the row of rho_11, a cascade relabelled so that level 0
    is empty needed twice the iterations.

    A degenerate kernel makes the system singular but consistent, and GMRES
    may return any member of the steady manifold.  So a check solve replaces
    the row of the first state's least-populated other level (the same row
    gives the same state); states more than 1e-6 apart raise
    :class:`DegeneracyError`.  Stagnation, or ||L x||_inf of either solution
    (trace 1) above 1e-10 ||L||_inf, raises :class:`ConvergenceError`.
    ``diagnostics`` records both iteration counts and levels, the first
    solve's true relative residual, the Sylvester shift (0 if none), the
    preconditioner's form and the largest element difference of the two
    solutions.
    """
    d = liouv.layout.total_dim
    gamma = norm / d
    precondition, shift, form, level = _no_jump_inverse(liouv, norm)
    first, iterations, relative = _replaced_gmres(liouv, precondition, level, gamma)
    populations = first[np.arange(d) * (d + 1)].real
    populations[level] = np.inf
    check_level = int(populations.argmin())
    check, check_iterations, _ = _replaced_gmres(liouv, precondition, check_level, gamma)
    residual = max(float(np.abs(liouv.apply(x)).max()) for x in (first, check))
    if not residual <= _RESIDUAL_TOL * norm:  # also catches NaN
        raise ConvergenceError(
            f"GMRES solution has residual {residual:.2e}, above "
            f"{_RESIDUAL_TOL:g} times ||L||_inf = {norm:.3e}"
        )
    difference = float(np.abs(first - check).max())
    if not difference <= _STATE_GAP_TOL:
        raise DegeneracyError(
            f"two replaced rows gave steady states {difference:.2e} apart "
            f"(tolerance {_STATE_GAP_TOL:g}); degenerate kernel"
        )
    diagnostics.update({
        "gmres_iterations": iterations,
        "check_iterations": check_iterations,
        "gmres_relative_residual": relative,
        "sylvester_shift": shift,
        "preconditioner": form,
        "replaced_level": level,
        "check_level": check_level,
        "state_difference": difference,
    })
    return first.reshape((d, d), order="F")


def steady_state(liouv: SuperOperator, method: str | None = None) -> SteadyStateResult:
    """The steady state by the paper's row-replacement solve, or on the route
    ``method`` requests ("dense", "sparse" or "solve"); the result's
    ``policy`` records the choice."""
    if method is None:
        policy = RouteChoice("solve", "steady: the row-replacement solve at every n")
    elif method in _ROUTES:
        policy = RouteChoice(method, "requested")
    else:
        raise ValueError(f"method must be {' or '.join(map(repr, _ROUTES))}, got {method!r}")
    # routes are looked up at call time, so wrappers set on this module see the call
    result = globals()[_ROUTES[policy.route]](liouv)
    return replace(result, policy=policy)


def spectrum(liouv: SuperOperator, k: int) -> SpectrumResult:
    """The k eigenvalues of largest real part, sorted descending.

    A trace-preserving generator has the eigenvalue 0 exactly, and the rest
    of its spectrum is that of R restricted to the trace-zero coordinates
    (``superspace._trace_zero_generator``).  So both routes return an exact
    0 plus the k - 1 leading eigenvalues of R|W: the dense route
    diagonalizes R|W fully and truncates, the sparse route runs an Arnoldi
    largest-real-part iteration, and its ``diagnostics["arpack_matvecs"]``
    counts the products with R|W.  The iteration is asked for max(k - 1, 7)
    values, at most n - 3 (one for k = 2, none for k = 1), because a request
    that ends past the leading cluster converges in fewer products; the
    values past the leading k - 1 by the order below are dropped.  A
    generator with e^T R above 1e-10 times max(1, ||L||_inf) raises
    ``ValueError``.

    The k values are sorted together.  Ties in the real part (within 1e-12
    times ||L||_inf, so that the order does not change when L is scaled) are
    broken by descending imaginary part, then by descending real part, and
    the exact 0 comes before any other 0.  So the 0 is first unless the
    kernel is degenerate or an undamped eigenvalue (real part within the tie
    tolerance of 0) has a positive imaginary part.  The spectrum of the real
    R|W is closed under conjugation, so when the k-th value's partner is not
    among the first k the pair is split at the cut, and its +imag member is
    returned.  When the sparse route asked for more than k - 1 values the
    partner is among them and the order above puts the +imag member first;
    when it asked for exactly k - 1 (k = 2, k >= 8, or the n - 3 cap), ARPACK
    may have converged to either member and the -imag one is conjugated.
    :func:`choose_route` picks the route.
    """
    n = liouv.dim
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    policy = choose_route("spectrum", n, k)

    restricted = _trace_zero_generator(liouv, dense=policy.route == "dense")
    scale = liouv.norm_inf() or 1.0
    values, diagnostics = np.zeros(0), None  # k = 1 needs no solve
    if policy.route == "dense":
        if k > 1:
            values = np.linalg.eigvals(restricted)
    else:
        # ARPACK accepts a Ritz value theta once its residual estimate is below
        # tol * max(eps^(2/3), |theta|).  R|W has the eigenvalue 0 when the
        # kernel of L is degenerate, and on dephasing models from d = 8 ARPACK
        # returned the next eigenvalues instead of it.  Shifted by the gap
        # tolerance, a zero eigenvalue is tested relative to that, and the
        # test of any eigenvalue outside the tolerance loosens at most 2-fold.
        shift = _GAP_TOL * scale
        matvecs = 0
        if k > 1:
            # sorted CSR, like R|W, so each Arnoldi step is one product
            shifted = restricted + shift * sp.eye_array(n - 1, format="csr")

            def matvec(x):
                nonlocal matvecs
                matvecs += 1
                return shifted @ x

            operator = spla.LinearOperator(shifted.shape, matvec=matvec, dtype=float)
            # eigs on the (n - 1)-dimensional R|W takes at most n - 3 values
            nev = 1 if k == 2 else max(k - 1, min(_ARPACK_MIN_REQUEST, n - 3))
            try:
                values = spla.eigs(operator, k=nev, which="LR", return_eigenvectors=False,
                                   **_arpack_params(n - 1, nev)) - shift
            except spla.ArpackNoConvergence as exc:
                raise ConvergenceError(
                    f"Arnoldi largest-real-part iteration did not converge: {exc}"
                ) from exc
        diagnostics = {"arpack_matvecs": matvecs}

    # eigvals returns a real array when every eigenvalue of R|W is real
    values = np.concatenate(([0.0], values))
    values = values[_descending_order(values, scale)[:k]].astype(complex)
    last = values[-1]
    tol = _GAP_TOL * scale
    if abs(last.imag) > tol and not (np.abs(values[:-1] - last.conjugate()) <= tol).any():
        values[-1] = complex(last.real, abs(last.imag))
    return SpectrumResult(eigenvalues=values, policy=policy, diagnostics=diagnostics)


def check_uniqueness(liouv: SuperOperator) -> GapReport:
    """Verify the kernel is one-dimensional from the two leading eigenvalues.

    These are :func:`spectrum`'s exact 0 and the leading eigenvalue of R on
    the trace-zero coordinates, one ARPACK value on the sparse route.
    Unique means the largest real part vanishes within the gap tolerance
    1e-8 times ||L||_inf while the second-largest stays below minus that
    tolerance: for a trace-preserving L, R|W's leading real part is below
    minus the tolerance.  A one-level model has no second eigenvalue.
    """
    tol = _GAP_TOL * (liouv.norm_inf() or 1.0)
    lead = spectrum(liouv, min(2, liouv.dim)).eigenvalues
    lam0 = complex(lead[0])
    lam1 = complex(lead[1]) if lead.size > 1 else None
    unique = abs(lam0.real) < tol and (lam1 is None or lam1.real < -tol)
    return GapReport(lam0, lam1, unique)
