"""Composite Hilbert-space layouts, index arithmetic, and operator algebra.

The basis of a composite space is ordered so that the index of the *first*
subsystem varies fastest: a multi-index (n_1, ..., n_N), with 1 <= n_j <= d_j,
maps to the flat (1-based) index

    n = n_1 + (n_2 - 1) d_1 + (n_3 - 1) d_1 d_2 + ... + (n_N - 1) d_1 ... d_{N-1}.

Equivalently, tensor products are represented by Kronecker products taken in
reversed subsystem order, ``kron(O_N, ..., kron(O_2, O_1))``.  This convention
is fixed and not configurable; all index arithmetic in the package relies on
it.  Externally everything is 1-based; 0-based translation is confined to this
module.

Operators on these d-dimensional spaces are always dense complex ndarrays:
they are small, every solver returns a full density matrix, and sparsity pays
off only for the d^2 x d^2 superoperators that :mod:`meq.superspace` assembles
from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LayoutMismatchError",
    "SpaceLayout",
    "Operator",
    "StateVector",
    "index_to_flat",
    "flat_to_index",
    "basis_state",
    "annihilation",
    "transition",
    "embed",
    "tensor_all",
    "identity_operator",
    "partial_trace",
    "partial_transpose",
]

class LayoutMismatchError(ValueError):
    """Raised when operands live on different space layouts."""


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered collection of named subsystems making up a composite space.

    Parameters
    ----------
    subsystems : sequence of (name, dim) pairs
        Subsystem names must be unique and nonempty; every dimension must be
        a positive integer.  The declaration order fixes the index convention
        (first subsystem fastest).
    """

    subsystems: tuple[tuple[str, int], ...]

    def __init__(self, subsystems: Iterable[tuple[str, int]]):
        subs = tuple((str(name), int(dim)) for name, dim in subsystems)
        if not subs:
            raise ValueError("a layout needs at least one subsystem")
        seen = set()
        for name, dim in subs:
            if not name:
                raise ValueError("subsystem names must be nonempty")
            if name in seen:
                raise ValueError(f"duplicate subsystem name {name!r}")
            seen.add(name)
            if dim < 1:
                raise ValueError(f"subsystem {name!r} has dimension {dim} < 1")
        object.__setattr__(self, "subsystems", subs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.subsystems)

    def axis(self, name: str) -> int:
        """0-based position of a subsystem in the declaration order."""
        for j, (sub, _) in enumerate(self.subsystems):
            if sub == name:
                return j
        raise KeyError(f"unknown subsystem {name!r}; layout has {self.names}")

    def dim_of(self, name: str) -> int:
        return self.subsystems[self.axis(name)][1]

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{d}" for n, d in self.subsystems)
        return f"SpaceLayout({inner})"


def index_to_flat(layout: SpaceLayout, multi: Sequence[int]) -> int:
    """Map a 1-based multi-index to the 1-based flat basis index.

    The first subsystem's index varies fastest:
    ``n = n_1 + (n_2-1) d_1 + ... + (n_N-1) d_1...d_{N-1}``.
    """
    dims = layout.dims
    if len(multi) != len(dims):
        raise IndexError(
            f"multi-index has {len(multi)} components, layout has {len(dims)} subsystems"
        )
    flat = 0
    stride = 1
    for (name, dim), component in zip(layout.subsystems, multi):
        if not 1 <= component <= dim:
            raise IndexError(
                f"index {component} out of range [1, {dim}] for subsystem {name!r}"
            )
        flat += (component - 1) * stride
        stride *= dim
    return flat + 1


def flat_to_index(layout: SpaceLayout, flat: int) -> tuple[int, ...]:
    """Inverse of :func:`index_to_flat`."""
    d = layout.total_dim
    if not 1 <= flat <= d:
        raise IndexError(f"flat index {flat} out of range [1, {d}]")
    rest = flat - 1
    multi = []
    for dim in layout.dims:
        multi.append(rest % dim + 1)
        rest //= dim
    return tuple(multi)


@dataclass(frozen=True, eq=False)
class StateVector:
    """A pure state on a composite space (column of amplitudes)."""

    layout: SpaceLayout
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.shape != (self.layout.total_dim,):
            raise ValueError(
                f"state has {amps.size} amplitudes, layout dimension is {self.layout.total_dim}"
            )
        object.__setattr__(self, "amplitudes", amps)


def basis_state(layout: SpaceLayout, multi: Sequence[int]) -> StateVector:
    """Unit vector for the basis element labelled by a 1-based multi-index."""
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[index_to_flat(layout, multi) - 1] = 1.0
    return StateVector(layout, amps)


def annihilation(dim: int) -> np.ndarray:
    """Bosonic annihilation operator on a Fock space truncated at dim - 1 photons.

    Entries are sqrt(1), ..., sqrt(dim-1) on the first superdiagonal (rows and
    columns correspond to Fock states |0>, ..., |dim-1>).
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def transition(dim: int, j: int, k: int) -> np.ndarray:
    """Transition operator |j><k| on a dim-level system (1-based levels)."""
    if not 1 <= j <= dim:
        raise ValueError(f"level j={j} out of range [1, {dim}]")
    if not 1 <= k <= dim:
        raise ValueError(f"level k={k} out of range [1, {dim}]")
    mat = np.zeros((dim, dim), dtype=complex)
    mat[j - 1, k - 1] = 1.0
    return mat


class Operator:
    """A linear operator on a composite space, tied to its :class:`SpaceLayout`.

    The matrix is always a dense complex ndarray (the module docstring says
    why), and sparse input raises ``TypeError``.

    Instances are immutable; arithmetic returns new operators.  ``*`` is the
    operator product (or scaling when one side is a scalar).
    """

    __slots__ = ("layout", "_matrix")

    # keep numpy from coercing us in mixed scalar products; defer to __rmul__
    __array_ufunc__ = None

    def __init__(self, layout: SpaceLayout, matrix):
        d = layout.total_dim
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (d, d):
            raise ValueError(
                f"matrix shape {mat.shape} does not match layout dimension {d}"
            )
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @property
    def matrix(self) -> np.ndarray:
        """The underlying dense matrix."""
        return self._matrix

    def to_dense(self) -> np.ndarray:
        return self._matrix.copy()

    def dag(self) -> "Operator":
        """Hermitian conjugate."""
        return Operator(self.layout, self._matrix.conj().T)

    def trace(self) -> complex:
        return complex(self._matrix.trace())

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """True if the defect max|M - M^dag| is below tol * max(1, max|M|)."""
        mat = self._matrix
        defect = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
        scale = max(1.0, np.abs(mat).max()) if mat.size else 1.0
        return defect <= tol * scale

    def _check_layout(self, other: "Operator"):
        if self.layout != other.layout:
            raise LayoutMismatchError(
                f"operands live on different layouts: {self.layout} vs {other.layout}"
            )

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_layout(other)
        return Operator(self.layout, self._matrix + other._matrix)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_layout(other)
        return Operator(self.layout, self._matrix - other._matrix)

    def __mul__(self, other):
        if isinstance(other, Operator):
            self._check_layout(other)
            return Operator(self.layout, self._matrix @ other._matrix)
        if np.isscalar(other):
            return Operator(self.layout, self._matrix * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if np.isscalar(other):
            return Operator(self.layout, self._matrix * complex(other))
        return NotImplemented

    def __truediv__(self, other):
        if np.isscalar(other):
            return Operator(self.layout, self._matrix / complex(other))
        return NotImplemented

    def __neg__(self):
        return Operator(self.layout, -self._matrix)

    def __repr__(self) -> str:
        return f"Operator({self.layout!r})"


def identity_operator(layout: SpaceLayout) -> Operator:
    return Operator(layout, np.eye(layout.total_dim, dtype=complex))


def embed(layout: SpaceLayout, subsystem: str, local) -> Operator:
    """Lift a local matrix into the full space, acting as identity elsewhere.

    The full matrix is the reversed-order Kronecker chain
    ``kron(I_N, ..., local, ..., I_1)``, so that the first subsystem's index
    varies fastest, matching :func:`index_to_flat`.
    """
    locals_ = [None] * len(layout)
    locals_[layout.axis(subsystem)] = np.asarray(local, dtype=complex)
    return tensor_all(layout, locals_)


def tensor_all(layout: SpaceLayout, locals_: Sequence) -> Operator:
    """Tensor product of one local matrix per subsystem (None means identity).

    The result has elements ``O_{n;m} = prod_j (O_j)_{n_j m_j}`` under the
    flat-index map, and equals the product of the individual embeddings.
    """
    dims = layout.dims
    if len(locals_) != len(dims):
        raise ValueError(
            f"expected {len(dims)} local matrices, got {len(locals_)}"
        )
    factors = []
    for j, (loc, dim) in enumerate(zip(locals_, dims)):
        loc = np.eye(dim, dtype=complex) if loc is None else np.asarray(loc, dtype=complex)
        if loc.shape != (dim, dim):
            name = layout.names[j]
            raise ValueError(
                f"local matrix shape {loc.shape} does not match subsystem "
                f"{name!r} of dimension {dim}"
            )
        factors.append(loc)
    acc = factors[0]
    for factor in factors[1:]:
        # reversed-order chain: each further subsystem wraps from the left
        acc = np.kron(factor, acc)
    return Operator(layout, acc)


def _as_multiarray(op: Operator) -> np.ndarray:
    """Reshape the matrix to one axis per row index then per column index.

    Fortran-order reshape matches the fastest-first flat-index convention:
    axis j < N carries n_j, axis N + j carries m_j.
    """
    dims = op.layout.dims
    return op.matrix.reshape(dims + dims, order="F")


def _resolve_subset(layout: SpaceLayout, names: Iterable[str], what: str) -> list[int]:
    subset = list(names)
    if not subset:
        raise ValueError(f"no subsystems given to {what}")
    axes = sorted(layout.axis(name) for name in subset)
    if len(set(axes)) != len(subset):
        raise ValueError(f"duplicate subsystem names in {what} set")
    return axes


def partial_trace(op: Operator, traced: Iterable[str]) -> Operator:
    """Trace out the named subsystems, returning an operator on the rest.

    Implemented by the permute-and-reshape scheme: kept row and column axes
    are moved to the front, the traced (row, column) axis pairs to the back,
    and the contraction is a product with the vectorized identity.
    """
    layout = op.layout
    n_sub = len(layout)
    traced_axes = _resolve_subset(layout, traced, "trace")
    if len(traced_axes) == n_sub:
        raise ValueError("tracing every subsystem yields a scalar; use trace() instead")
    kept_axes = [j for j in range(n_sub) if j not in traced_axes]
    dims = layout.dims
    arr = _as_multiarray(op)
    perm = (
        kept_axes
        + [n_sub + j for j in kept_axes]
        + traced_axes
        + [n_sub + j for j in traced_axes]
    )
    arr = arr.transpose(perm)
    d_keep = math.prod(dims[j] for j in kept_axes)
    d_traced = math.prod(dims[j] for j in traced_axes)
    flat = arr.reshape((d_keep * d_keep, d_traced * d_traced), order="F")
    contracted = flat @ np.eye(d_traced).ravel(order="F")
    reduced = contracted.reshape((d_keep, d_keep), order="F")
    new_layout = SpaceLayout([layout.subsystems[j] for j in kept_axes])
    return Operator(new_layout, reduced)


def partial_transpose(op: Operator, transposed: Iterable[str]) -> Operator:
    """Swap row and column indices of the named subsystems.

    Transposing every subsystem gives the full matrix transpose; applying the
    operation twice gives back the input.
    """
    layout = op.layout
    n_sub = len(layout)
    axes = _resolve_subset(layout, transposed, "transpose")
    arr = _as_multiarray(op)
    perm = list(range(2 * n_sub))
    for j in axes:
        perm[j], perm[n_sub + j] = perm[n_sub + j], perm[j]
    d = layout.total_dim
    mat = arr.transpose(perm).reshape((d, d), order="F")
    return Operator(layout, mat)
