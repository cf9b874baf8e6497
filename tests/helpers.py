"""Shared test utilities: random models and reference oracles.

The loop oracles deliberately avoid the library's permute/reshape and
Kronecker code paths; they enumerate indices explicitly so the two
implementations can be checked against each other.  The record-text oracle
writes a record through the standard library's encoder, element by element,
where the CLI fills one template per array.
"""

import itertools
import json

import numpy as np
import pytest

from meq.hilbert import Operator, SpaceLayout
from meq.steady import _ROUTES as STEADY_ROUTES  # each steady route and its function
from meq.superspace import LindbladModel, RouteChoice, choose_route


def _encode(value):
    """``value`` with complex numbers as [re, im] lists, numpy scalars as Python
    numbers (a bool as an int) and arrays as nested lists."""
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
        return [value.real, value.imag]
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _encode(value.tolist())
    return value


def record_text_oracle(value):
    """The text of a record by the standard library's encoder, element by element:
    the CLI's record writer must produce exactly these bytes."""
    return json.dumps(_encode(value), indent=2)


def random_hermitian(rng, d):
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (mat + mat.conj().T) / 2


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_density(rng, d):
    """Random full-rank density matrix."""
    mat = random_matrix(rng, d)
    rho = mat @ mat.conj().T + 1e-3 * np.eye(d)
    return rho / np.trace(rho)


def force_route(monkeypatch, task, route):
    """Make :mod:`meq.steady` and :mod:`meq.dynamics` take ``route`` for ``task``
    ("linsolve", "spectrum" or "evolve") at any size, with the policy reason
    "forced"; every other task keeps the size policy."""
    def forced(this_task, n, k=None, nnz=None):
        if this_task == task:
            return RouteChoice(route, "forced")
        return choose_route(this_task, n, k, nnz)

    for module in ("meq.steady", "meq.dynamics"):
        monkeypatch.setattr(f"{module}.choose_route", forced)


def steady_gmres(liouv):
    """:func:`meq.steady.steady_linsolve` on its GMRES branch, whatever the size."""
    from meq import steady

    with pytest.MonkeyPatch.context() as monkeypatch:
        force_route(monkeypatch, "linsolve", "gmres")
        return steady.steady_linsolve(liouv)


def count_route_calls(monkeypatch):
    """Replace each steady route function of ``meq.steady`` with a wrapper that
    counts its calls, as the benchmark's tracer replaces them; returns the
    counts by route, updated as the wrappers run."""
    from meq import steady

    counts = dict.fromkeys(STEADY_ROUTES, 0)
    for route, name in STEADY_ROUTES.items():
        def counted(*args, _route=route, _original=getattr(steady, name), **kwargs):
            counts[_route] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(steady, name, counted)
    return counts


def single_space(d, name="s"):
    return SpaceLayout([(name, d)])


def random_model(rng, d, n_dissipators=1, layout=None):
    layout = layout if layout is not None else single_space(d)
    hamiltonian = Operator(layout, random_hermitian(rng, layout.total_dim))
    dissipators = [
        (float(rng.uniform(0.2, 2.0)), Operator(layout, random_matrix(rng, layout.total_dim)))
        for _ in range(n_dissipators)
    ]
    return LindbladModel(hamiltonian, dissipators)


def random_corpus():
    """The 50 random models of the acceptance gate: d in {2, 3, 4, 6}, 1 to 3 channels."""
    rng = np.random.default_rng(20240)
    return [random_model(rng, (2, 3, 4, 6)[i % 4], 1 + i % 3) for i in range(50)]


def _flat(dims, multi):
    """0-based flat index, first component fastest."""
    flat, stride = 0, 1
    for index, dim in zip(multi, dims):
        flat += index * stride
        stride *= dim
    return flat


def ptrace_oracle(mat, dims, traced_axes):
    """Partial trace by explicit summation over every index combination."""
    traced_axes = sorted(traced_axes)
    kept_axes = [j for j in range(len(dims)) if j not in traced_axes]
    kept_dims = [dims[j] for j in kept_axes]
    traced_dims = [dims[j] for j in traced_axes]
    d_keep = int(np.prod(kept_dims)) if kept_dims else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for row_kept in itertools.product(*(range(dim) for dim in kept_dims)):
        for col_kept in itertools.product(*(range(dim) for dim in kept_dims)):
            total = 0.0 + 0.0j
            for tr in itertools.product(*(range(dim) for dim in traced_dims)):
                full_row = [0] * len(dims)
                full_col = [0] * len(dims)
                for axis, value in zip(kept_axes, row_kept):
                    full_row[axis] = value
                for axis, value in zip(kept_axes, col_kept):
                    full_col[axis] = value
                for axis, value in zip(traced_axes, tr):
                    full_row[axis] = value
                    full_col[axis] = value
                total += mat[_flat(dims, full_row), _flat(dims, full_col)]
            out[_flat(kept_dims, row_kept), _flat(kept_dims, col_kept)] = total
    return out


def ptranspose_oracle(mat, dims, axes):
    """Partial transpose by explicit index swapping."""
    d = int(np.prod(dims))
    out = np.zeros((d, d), dtype=complex)
    for row in itertools.product(*(range(dim) for dim in dims)):
        for col in itertools.product(*(range(dim) for dim in dims)):
            src_row, src_col = list(row), list(col)
            for axis in axes:
                src_row[axis], src_col[axis] = src_col[axis], src_row[axis]
            out[_flat(dims, row), _flat(dims, col)] = mat[
                _flat(dims, src_row), _flat(dims, src_col)
            ]
    return out


def bell_projector():
    """Projector onto (|11> + |22>)/sqrt(2) of two qubits."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    return np.outer(vec, vec.conj())
