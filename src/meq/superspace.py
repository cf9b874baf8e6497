"""Superoperators, Liouvillian assembly, and the dense/sparse route policy.

An operator O on a d-dimensional space becomes a d^2 vector by stacking its
columns: component n + (m-1)d holds O_{nm}.  In that representation the map
X -> A X B is the matrix kron(B^T, A), the "sandwich" superoperator, and the
Lindblad generator

    d rho/dt = -i [H, rho] + sum_j Gamma_j (2 J_j rho J_j^dag
               - J_j^dag J_j rho - rho J_j^dag J_j)

assembles from Kronecker products.  :func:`build_liouvillian` uses the
no-jump form

    L = kron(I, K) + kron(conj(K), I) + sum_j 2 Gamma_j kron(conj(J_j), J_j),
    K = -i H_eff = -i H - sum_j Gamma_j J_j^dag J_j,

with K formed once at the d x d level: the entries of every product come
from index arithmetic on the nonzeros of its dense factors, and all of them
are converted to CSR in one step that sums the duplicates.
:func:`liouvillian_oracle` rebuilds the same matrix from the elementwise
formula with explicit loops and shares no code with
:func:`build_liouvillian`; it exists so the two can be checked against each
other.

Every solver but the steady solve's GMRES works in the real Hermitian basis
defined here.  A Lindblad generator maps Hermitian operators to Hermitian
ones, so in the orthonormal basis T of E_ll, (E_nm + E_mn)/sqrt(2) and
i(E_nm - E_mn)/sqrt(2) (n < m) it is the real matrix R = T^dag L T with the
spectrum of L.  The element carrying rho_nm sits at its superindex, so the
trace condition replaces the same row of R as of L, on the same d columns,
and a Hermitian rho has real coordinates x with vec(rho) = T x.  Spectra
use R restricted to the trace-zero coordinates,
:func:`_trace_zero_generator`.  Every state a solver returns passes one
positivity check, :func:`_lowest_eigenvalue`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .hilbert import LayoutMismatchError, Operator, SpaceLayout

__all__ = [
    "CapacityError",
    "check_dense_capacity",
    "RouteChoice",
    "choose_route",
    "SuperOperator",
    "LindbladModel",
    "build_liouvillian",
    "liouvillian_oracle",
]

# Largest superspace dimension for which a dense d^2 x d^2 array is built
# (1.6 GB of complex entries, before any LAPACK workspace).
_DENSE_CAPACITY = 10_000

# Route policy crossovers: the superspace dimension n from which the sparse
# LU and the Krylov propagation beat their dense routes (medians at one BLAS
# thread; the README lists the measurements).  Below _DENSE_EXPM_BELOW
# propagation stays dense while L has n^2 / 4 nonzeros or more: there dense
# expm beat the Krylov route from density 0.31, and from n = 256 the Krylov
# route won on every generator below full density.  ARPACK spectra run from
# _ARPACK_MARGIN times their restart dimension max(3(k - 1), 40) on the
# deflated problem (steady._arpack_params), n = 200 for every k <= 14.
_SPARSE_FROM = {"linsolve": 400, "evolve": 121}
_DENSE_EXPM_BELOW = 256
_ARPACK_MARGIN = 5
_ARPACK_MIN_RESTART = 40
# The row-replaced system is solved by GMRES from this n on, by LU below it:
# the LU solve beat GMRES up to n = 576 and lost to it from n = 1296 (README
# lists medians).
_GMRES_FROM = 1024
# Imaginary parts of T^dag L T up to this times max(1, ||L||_inf) are rounding;
# LindbladModel admits Hamiltonians with Hermiticity defects of 1e-12 relative.
_HERMITIAN_TOL = 1e-10
# States may have eigenvalues down to minus this (their trace is 1).
_POSITIVITY_TOL = 1e-8


class CapacityError(RuntimeError):
    """Problem too large for the requested dense method."""


def check_dense_capacity(n: int) -> None:
    """Refuse a dense n x n superspace array above the dense capacity."""
    if n > _DENSE_CAPACITY:
        raise CapacityError(
            f"superspace dimension {n} exceeds the dense capacity "
            f"{_DENSE_CAPACITY} ({16e-9 * n ** 2:.1f} GB); use a sparse route"
        )


class RouteChoice(NamedTuple):
    """A dense/sparse route and the deterministic reason it was chosen."""

    route: str
    reason: str


def choose_route(task: str, n: int, k: int | None = None, nnz: int | None = None) -> RouteChoice:
    """The one dense-versus-sparse size policy for superspace computations.

    ``task`` is "spectrum" (``k`` leading eigenvalues), "linsolve" (the
    steady solve's dense or sparse LU, or "gmres" from :data:`_GMRES_FROM`)
    or "evolve" (propagation of a generator with ``nnz`` nonzeros); ``n`` is
    the superspace dimension.  Spectra run ARPACK from n = 5 max(3(k - 1), 40),
    and above the dense capacity whenever it can (k < n - 1).  Propagation is
    sparse from n = 121, except below n = 256 while L has n^2 / 4 nonzeros
    or more.  The reason names the input that decided.
    """
    if task == "linsolve" and n >= _GMRES_FROM:
        return RouteChoice("gmres", f"linsolve: n={n} >= {_GMRES_FROM}")
    if task == "spectrum":
        restart = 3 * (k - 1)
        cut = _ARPACK_MARGIN * max(restart, _ARPACK_MIN_RESTART)
        suffix = f" for k={k}" if restart > _ARPACK_MIN_RESTART else ""
        if cut > n > _DENSE_CAPACITY and k < n - 1:  # ARPACK is the route that fits
            return RouteChoice("sparse", f"spectrum: n={n} > dense capacity {_DENSE_CAPACITY}")
    else:
        cut, suffix = _SPARSE_FROM[task], ""
        if task == "evolve" and 4 * nnz >= n * n and cut <= n < _DENSE_EXPM_BELOW:
            return RouteChoice("dense", f"evolve: nnz={nnz} >= n^2/4, n={n}")
    if n >= cut:
        return RouteChoice("sparse", f"{task}: n={n} >= {cut}{suffix}")
    return RouteChoice("dense", f"{task}: n={n} < {cut}{suffix}")


@dataclass(frozen=True, eq=False, slots=True)
class SuperOperator:
    """A d^2 x d^2 matrix acting on vectorized operators, stored as CSR, and
    the d x d no-jump generator K = -i H_eff it was built with: L cannot give
    K back, and the GMRES of the steady solve preconditions with it.  Frozen
    slots, as :class:`meq.hilbert.Operator` says."""

    layout: SpaceLayout
    matrix: sp.csr_array
    no_jump: np.ndarray

    __array_ufunc__ = None

    def __post_init__(self):
        d = self.layout.total_dim
        matrix = sp.csr_array(self.matrix, dtype=complex)
        if matrix.shape != (d * d, d * d):
            raise ValueError(f"superoperator shape {matrix.shape} does not match d^2 = {d * d}")
        no_jump = np.array(self.no_jump, dtype=complex)
        if no_jump.shape != (d, d):
            raise ValueError(f"no-jump generator shape {no_jump.shape} does not match d = {d}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "no_jump", no_jump)

    @property
    def dim(self) -> int:
        """Superspace dimension d^2."""
        return self.layout.total_dim ** 2

    def to_dense(self) -> np.ndarray:
        """Dense copy, refused with :class:`CapacityError` above the dense capacity."""
        check_dense_capacity(self.dim)
        return self.matrix.toarray()

    def apply(self, vec) -> np.ndarray:
        """Matrix-vector product on a column-stacked operator of length d^2."""
        return self.matrix @ np.asarray(vec, dtype=complex)

    def norm_inf(self) -> float:
        """Matrix infinity norm (max absolute row sum)."""
        return float(np.abs(self.matrix).sum(axis=1).max()) if self.dim else 0.0

    def __mul__(self, other):
        if np.isscalar(other):
            other = complex(other)
            return SuperOperator(self.layout, self.matrix * other, self.no_jump * other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SuperOperator({self.layout!r}, dim={self.dim}, nnz={self.matrix.nnz})"


@dataclass(frozen=True, eq=False, slots=True)
class LindbladModel:
    """A Hamiltonian plus a list of (rate, jump operator) dissipation channels.

    All operators must share one layout; the Hamiltonian must be Hermitian
    (defect below 1e-12 relative to its largest element) and every rate
    finite and strictly positive.  The dissipator list may be empty (purely
    coherent evolution).  Frozen slots, as :class:`meq.hilbert.Operator` says.
    """

    hamiltonian: Operator
    dissipators: Iterable[tuple[float, Operator]] = ()

    def __post_init__(self):
        dissipators = tuple((float(rate), jump) for rate, jump in self.dissipators)
        if not self.hamiltonian.is_hermitian(tol=1e-12):
            raise ValueError("hamiltonian is not Hermitian (defect above 1e-12)")
        layout = self.hamiltonian.layout
        for rate, jump in dissipators:
            if not np.isfinite(rate):
                raise ValueError(f"dissipation rate must be finite, got {rate}")
            if rate <= 0:
                raise ValueError(f"dissipation rate must be > 0, got {rate}")
            if jump.layout != layout:
                raise LayoutMismatchError("jump operator layout differs from hamiltonian")
        object.__setattr__(self, "dissipators", dissipators)

    @property
    def layout(self) -> SpaceLayout:
        return self.hamiltonian.layout

    def __repr__(self) -> str:
        return (
            f"LindbladModel({self.layout!r}, dissipators={len(self.dissipators)})"
        )


def _nonzeros(matrix: np.ndarray, index: type):
    """Row indices, column indices (of integer type ``index``) and values of
    the nonzeros of a dense matrix."""
    row, col = np.nonzero(matrix)
    return row.astype(index), col.astype(index), matrix[row, col]


def _kron_entries(pairs, d: int, index: type):
    """COO entries (values, (rows, cols)) of sum_k kron(P_k, Q_k), duplicates kept.

    Entry (a, b) x (c, e) of kron(P, Q) sits at row a d + c, column b d + e,
    so each product's entries are outer sums and products of the nonzeros
    of its dense d x d factors, written into one set of arrays.
    """
    factors = [(_nonzeros(p, index), _nonzeros(q, index)) for p, q in pairs]
    total = sum(left[2].size * right[2].size for left, right in factors)
    rows, cols = np.empty(total, index), np.empty(total, index)
    values = np.empty(total, complex)
    start = 0
    for (lrow, lcol, lval), (rrow, rcol, rval) in factors:
        shape = (lval.size, rval.size)
        block = slice(start, start + lval.size * rval.size)
        np.add((lrow * d)[:, None], rrow, out=rows[block].reshape(shape))
        np.add((lcol * d)[:, None], rcol, out=cols[block].reshape(shape))
        np.multiply(lval[:, None], rval, out=values[block].reshape(shape))
        start = block.stop
    return values, (rows, cols)


def build_liouvillian(model: LindbladModel) -> SuperOperator:
    """Assemble the full Lindblad generator of a model in superspace.

    L = kron(I, K) + kron(conj(K), I) + sum_j 2 Gamma_j kron(conj(J_j), J_j)
    with K = -i H_eff: the no-jump part rho -> K rho + rho K^dag plus the
    jumps.  Entries that cancel exactly in the one CSR conversion are dropped.
    The result keeps K.
    """
    d = model.layout.total_dim
    eye = np.eye(d)
    h_eff = model.hamiltonian.matrix.copy()
    for rate, jump in model.dissipators:
        h_eff -= 1j * rate * (jump.matrix.conj().T @ jump.matrix)
    k = -1j * h_eff
    pairs = [(eye, k), (k.conj(), eye)]
    pairs += [(2.0 * rate * jump.matrix.conj(), jump.matrix) for rate, jump in model.dissipators]
    index = np.int32 if d * d < 2 ** 31 else np.int64
    matrix = sp.csr_array(_kron_entries(pairs, d, index), shape=(d * d, d * d))
    matrix.eliminate_zeros()
    # its arrays are views of the longer entry list: copy them to size
    return SuperOperator(model.layout, matrix.copy(), k)


def liouvillian_oracle(model: LindbladModel) -> SuperOperator:
    """Reference Liouvillian from the elementwise formula, by explicit loops.

    Row n+(m-1)d, column k+(l-1)d holds

        -i H_{nk} delta_{ml} + i H_{lm} delta_{kn}
        + sum_j Gamma_j [ 2 J_{nk} J*_{ml} - (J^dag J)_{nk} delta_{ml}
                          - delta_{kn} (J^dag J)_{lm} ]

    and K = -i H - sum_j Gamma_j J^dag J.  Dense loops, quadratically slower
    than :func:`build_liouvillian`; meant for small dimensions as an
    independent cross-check.
    """
    d = model.layout.total_dim
    h = model.hamiltonian.to_dense()
    channels = [
        (rate, jump.to_dense(), jump.to_dense().conj().T @ jump.to_dense())
        for rate, jump in model.dissipators
    ]
    out = np.zeros((d * d, d * d), dtype=complex)
    for n in range(1, d + 1):
        for m in range(1, d + 1):
            row = (n - 1) + (m - 1) * d
            for k in range(1, d + 1):
                for l in range(1, d + 1):
                    col = (k - 1) + (l - 1) * d
                    val = 0.0 + 0.0j
                    if m == l:
                        val += -1j * h[n - 1, k - 1]
                    if k == n:
                        val += 1j * h[l - 1, m - 1]
                    for rate, jmat, jdj in channels:
                        val += 2.0 * rate * jmat[n - 1, k - 1] * np.conj(jmat[m - 1, l - 1])
                        if m == l:
                            val -= rate * jdj[n - 1, k - 1]
                        if k == n:
                            val -= rate * jdj[l - 1, m - 1]
                    out[row, col] = val
    no_jump = -1j * h - sum(rate * jdj for rate, _, jdj in channels)
    return SuperOperator(model.layout, out, no_jump)


@functools.lru_cache(maxsize=4)
def _hermitian_basis(d: int) -> tuple[sp.csr_array, sp.csr_array]:
    """The unitary T of the Hermitian operator basis for dimension d, and T^dag.

    Column j = n + m d of T is E_nn if n = m, (E_nm + E_mn)/sqrt(2) if n < m
    and i(E_mn - E_nm)/sqrt(2) if n > m.  Cached, because it depends on d
    alone; callers must not modify the arrays.
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


def _real_generator(liouv: SuperOperator) -> sp.csr_array:
    """The generator in the Hermitian operator basis: real R = T^dag L T,
    stored like L (CSR with sorted indices).

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
    # a contiguous copy: scipy copies a strided view of the complex data on
    # every product R x, which nearly doubled its time at n = 7056
    data = np.ascontiguousarray(product.data.real)
    real = sp.csr_array((data, product.indices, product.indptr), shape=product.shape)
    real.eliminate_zeros()
    # the product leaves its indices unsorted; sorted, each row of a product
    # R x sums in column order, as L x does
    real.sort_indices()
    return real


def _trace_zero_generator(liouv: SuperOperator, dense: bool):
    """R restricted to the trace-zero coordinates W = {x : e^T x = 0}, where
    e marks the d diagonal coordinates, in an orthonormal basis of W; a
    dense array if ``dense``, else CSR with sorted indices.

    A trace-preserving L has e^T R = 0, so W is invariant and
    spec R = {0} + spec R|W.  The Householder reflection H = I - 2 w w^T,
    w a unit vector along e / sqrt(d) + e_0, maps e / sqrt(d) to -e_0 and
    touches only the diagonal coordinates; row 0 of H R H is then 0, and
    R|W = (H R H)[1:, 1:], orthogonally similar to R on W.  So a normal R
    (unitary dynamics) gives a normal R|W, which ARPACK needs there: with W
    parametrized by all coordinates but rho_11's it did not converge on
    Hamiltonian-only models from d = 12.  Raises ``ValueError`` if L does
    not preserve Hermiticity (see :func:`_real_generator`) or the trace
    (e^T R above _HERMITIAN_TOL times max(1, ||L||_inf)), and
    :class:`CapacityError` for a dense array above the dense capacity.
    """
    real = _real_generator(liouv)
    n, d = liouv.dim, liouv.layout.total_dim
    diagonal = np.arange(d) * (d + 1)
    marks = np.zeros(n)
    marks[diagonal] = 1.0
    defect = float(np.abs(real.T @ marks).max())
    tol = _HERMITIAN_TOL * max(1.0, liouv.norm_inf())
    if defect > tol:
        raise ValueError(f"generator does not preserve the trace: e^T R has an element "
                         f"{defect:.2e}, above {tol:.2e}")
    w = np.full(d, d ** -0.5)
    w[0] += 1.0
    w /= np.linalg.norm(w)
    if dense:
        check_dense_capacity(n)
        full = real.toarray()
        full[diagonal] -= np.outer(2.0 * w, w @ full[diagonal])
        full[:, diagonal] -= np.outer(full[:, diagonal] @ w, 2.0 * w)
        return full[1:, 1:]
    block = np.outer(2.0 * w, w).ravel()
    reflection = sp.eye_array(n, format="csr") - sp.csr_array(
        (block, (np.repeat(diagonal, d), np.tile(diagonal, d))), shape=(n, n))
    restricted = (reflection @ real @ reflection)[1:, 1:]
    restricted.sort_indices()
    return restricted


def _to_operator(x: np.ndarray, d: int) -> np.ndarray:
    """The d x d operator rho with vec(rho) = T x."""
    return (_hermitian_basis(d)[0] @ x).reshape((d, d), order="F")


def _to_coordinates(rho: np.ndarray) -> np.ndarray:
    """The real coordinates x of a Hermitian d x d rho, vec(rho) = T x."""
    return (_hermitian_basis(rho.shape[0])[1] @ rho.ravel(order="F")).real


def _lowest_eigenvalue(rho: np.ndarray, what: str, error: type[Exception]) -> float:
    """The smallest eigenvalue of a Hermitian rho; below -_POSITIVITY_TOL, or
    for a rho with a non-finite entry, it raises ``error``, naming the state
    ``what``."""
    if not np.isfinite(rho).all():
        raise error(f"{what} has a non-finite entry; it is not a density matrix")
    lowest = float(np.linalg.eigvalsh(rho).min())
    if lowest < -_POSITIVITY_TOL:
        raise error(f"{what} has eigenvalue {lowest:.3e}, below -{_POSITIVITY_TOL:g}; "
                    "it is not a density matrix")
    return lowest
