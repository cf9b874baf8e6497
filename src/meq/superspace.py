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
"""

from __future__ import annotations

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

# Route policy crossovers: the superspace dimension n from which each task's
# sparse route beats its dense one (medians at one BLAS thread; the README
# lists the measurements).  Spectra with k above _SPARSE_SPECTRUM_MAX_K stay
# dense while they fit: ARPACK's largest-real-part iteration took 0.1-0.3 s
# on the cascade for k <= 12 (n = 900, 2025) and failed to converge at k = 20
# with a restart dimension of 41 (k = 20 now gets 60).
_SPARSE_FROM = {"steady": 64, "spectrum": 200, "linsolve": 400, "evolve": 150}
_SPARSE_SPECTRUM_MAX_K = 10
# From here on steady states take the factorization-free iterative route
# (GMRES preconditioned by the no-jump part) instead of shift-inverted ARPACK:
# it won on the cascade and on two-mode models from n of about 1000, and
# lost by about 2x on a single long damped mode (README lists the medians).
_ITERATIVE_FROM = 1024
# The routes a caller may request per task; the LU route picks its own by n.
_REQUESTABLE = {
    "steady": ("dense", "sparse", "solve", "iterative"),
    "spectrum": ("dense", "sparse"),
    "evolve": ("dense", "sparse"),
}


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


def choose_route(
    task: str, n: int, k: int | None = None, method: str | None = None
) -> RouteChoice:
    """The one dense-versus-sparse policy for superspace computations.

    ``task`` is "steady" (the dense and sparse eigenvector routes, and from
    :data:`_ITERATIVE_FROM` on the "iterative" route), "spectrum" (``k``
    leading eigenvalues), "linsolve" (row-replaced LU) or "evolve"
    (propagation); ``n`` is the superspace dimension.  A caller's ``method``
    (steady: "dense", "sparse", "solve" or "iterative"; spectrum and evolve:
    "dense" or "sparse") is checked and returned as requested, except that a
    sparse spectrum with k >= n - 1, which ARPACK cannot compute, runs dense.
    """
    threshold = _SPARSE_FROM[task]
    if method is not None:
        allowed = _REQUESTABLE[task]
        if method not in allowed:
            raise ValueError(f"method must be {' or '.join(map(repr, allowed))}, got {method!r}")
        if not (task == "spectrum" and method == "sparse" and k >= n - 1):
            return RouteChoice(method, "requested")
    if task == "steady" and n >= _ITERATIVE_FROM:
        return RouteChoice("iterative", f"steady: n={n} >= {_ITERATIVE_FROM}")
    if task == "spectrum":
        if k >= n - 1:
            return RouteChoice("dense", f"spectrum: k={k} >= n-1={n - 1}, ARPACK needs k < n-1")
        if k > _SPARSE_SPECTRUM_MAX_K and n <= _DENSE_CAPACITY:
            return RouteChoice("dense", f"spectrum: k={k} > {_SPARSE_SPECTRUM_MAX_K}")
    if n >= threshold:
        return RouteChoice("sparse", f"{task}: n={n} >= {threshold}")
    return RouteChoice("dense", f"{task}: n={n} < {threshold}")


class SuperOperator:
    """A d^2 x d^2 matrix acting on vectorized operators, stored as CSR."""

    __slots__ = ("layout", "_matrix")

    __array_ufunc__ = None

    def __init__(self, layout: SpaceLayout, matrix):
        n = layout.total_dim ** 2
        matrix = sp.csr_array(matrix, dtype=complex)
        if matrix.shape != (n, n):
            raise ValueError(f"superoperator shape {matrix.shape} does not match d^2 = {n}")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("SuperOperator is immutable")

    @property
    def matrix(self) -> sp.csr_array:
        return self._matrix

    @property
    def dim(self) -> int:
        """Superspace dimension d^2."""
        return self.layout.total_dim ** 2

    def to_dense(self) -> np.ndarray:
        """Dense copy, refused with :class:`CapacityError` above the dense capacity."""
        check_dense_capacity(self.dim)
        return self._matrix.toarray()

    def apply(self, vec) -> np.ndarray:
        """Matrix-vector product on a column-stacked operator of length d^2."""
        return self._matrix @ np.asarray(vec, dtype=complex)

    def norm_inf(self) -> float:
        """Matrix infinity norm (max absolute row sum)."""
        return float(np.abs(self._matrix).sum(axis=1).max()) if self.dim else 0.0

    def _binary(self, other: "SuperOperator", combine):
        if not isinstance(other, SuperOperator):
            return NotImplemented
        if self.layout != other.layout:
            raise LayoutMismatchError("superoperators live on different layouts")
        return SuperOperator(self.layout, combine(self._matrix, other._matrix))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        if np.isscalar(other):
            return SuperOperator(self.layout, self._matrix * complex(other))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return SuperOperator(self.layout, -self._matrix)

    def __repr__(self) -> str:
        return f"SuperOperator({self.layout!r}, dim={self.dim}, nnz={self._matrix.nnz})"


class LindbladModel:
    """A Hamiltonian plus a list of (rate, jump operator) dissipation channels.

    All operators must share one layout; the Hamiltonian must be Hermitian
    (defect below 1e-12 relative to its largest element) and every rate
    finite and strictly positive.  The dissipator list may be empty (purely
    coherent evolution).
    """

    __slots__ = ("hamiltonian", "dissipators")

    def __init__(
        self,
        hamiltonian: Operator,
        dissipators: Iterable[tuple[float, Operator]] = (),
    ):
        dissipators = tuple((float(rate), jump) for rate, jump in dissipators)
        if not hamiltonian.is_hermitian(tol=1e-12):
            raise ValueError("hamiltonian is not Hermitian (defect above 1e-12)")
        layout = hamiltonian.layout
        for rate, jump in dissipators:
            if not np.isfinite(rate):
                raise ValueError(f"dissipation rate must be finite, got {rate}")
            if rate <= 0:
                raise ValueError(f"dissipation rate must be > 0, got {rate}")
            if jump.layout != layout:
                raise LayoutMismatchError("jump operator layout differs from hamiltonian")
        object.__setattr__(self, "hamiltonian", hamiltonian)
        object.__setattr__(self, "dissipators", dissipators)

    def __setattr__(self, name, value):
        raise AttributeError("LindbladModel is immutable")

    @property
    def layout(self) -> SpaceLayout:
        return self.hamiltonian.layout

    def __repr__(self) -> str:
        return (
            f"LindbladModel({self.layout!r}, dissipators={len(self.dissipators)})"
        )


def _effective_hamiltonian(model: LindbladModel) -> np.ndarray:
    """H_eff = H - i sum_j Gamma_j J_j^dag J_j, the generator of the no-jump evolution."""
    h_eff = model.hamiltonian.matrix.copy()
    for rate, jump in model.dissipators:
        h_eff -= 1j * rate * (jump.matrix.conj().T @ jump.matrix)
    return h_eff


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
    """
    d = model.layout.total_dim
    eye = np.eye(d)
    k = -1j * _effective_hamiltonian(model)
    pairs = [(eye, k), (k.conj(), eye)]
    pairs += [(2.0 * rate * jump.matrix.conj(), jump.matrix) for rate, jump in model.dissipators]
    index = np.int32 if d * d < 2 ** 31 else np.int64
    matrix = sp.csr_array(_kron_entries(pairs, d, index), shape=(d * d, d * d))
    matrix.eliminate_zeros()
    # its arrays are views of the longer entry list: copy them to size
    return SuperOperator(model.layout, matrix.copy())


def liouvillian_oracle(model: LindbladModel) -> SuperOperator:
    """Reference Liouvillian from the elementwise formula, by explicit loops.

    Row n+(m-1)d, column k+(l-1)d holds

        -i H_{nk} delta_{ml} + i H_{lm} delta_{kn}
        + sum_j Gamma_j [ 2 J_{nk} J*_{ml} - (J^dag J)_{nk} delta_{ml}
                          - delta_{kn} (J^dag J)_{lm} ]

    Dense loops, quadratically slower than :func:`build_liouvillian`; meant
    for small dimensions as an independent cross-check.
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
    return SuperOperator(model.layout, out)
