"""Property tests over random layouts and Lindblad models with d <= 8.

Hypothesis draws the layout (one to three subsystems), the number and the
rates of the dissipation channels, the Hamiltonian scale and a seed for the
matrix entries; the profile in ``conftest.py`` makes the draws reproducible.
The partial trace and transpose are checked on the same layouts, with
random subsystem sets, against the loop oracles of ``helpers``.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from helpers import (
    force_route,
    ptrace_oracle,
    ptranspose_oracle,
    random_density,
    random_hermitian,
    random_matrix,
    steady_gmres,
)
from meq.dynamics import evolve_trajectory
from meq.hilbert import Operator, SpaceLayout, embed, partial_trace, partial_transpose
from meq.steady import (
    spectrum,
    steady_dense,
    steady_linsolve,
    steady_sparse,
)
from meq.superspace import (
    LindbladModel,
    _real_generator,
    build_liouvillian,
    liouvillian_oracle,
)

dims_strategy = st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
    lambda dims: 2 <= math.prod(dims) <= 8
)


@st.composite
def operators_and_subsets(draw):
    """A random complex matrix on a random layout, and a nonempty subsystem set."""
    dims = draw(dims_strategy)
    layout = SpaceLayout([(f"s{j}", dim) for j, dim in enumerate(dims)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subset = draw(st.lists(st.sampled_from(layout.names), min_size=1, unique=True))
    return Operator(layout, random_matrix(rng, layout.total_dim)), subset


@st.composite
def models(draw):
    """A generic model: random H, one global jump and up to two local jumps."""
    dims = draw(dims_strategy)
    layout = SpaceLayout([(f"s{j}", dim) for j, dim in enumerate(dims)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = layout.total_dim
    scale = draw(st.floats(0.0, 5.0))
    hamiltonian = Operator(layout, scale * random_hermitian(rng, d))
    rates = draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3))
    jumps = [Operator(layout, random_matrix(rng, d))]
    for _ in rates[1:]:
        name, dim = layout.subsystems[int(rng.integers(len(dims)))]
        jumps.append(embed(layout, name, random_matrix(rng, dim)))
    return LindbladModel(hamiltonian, list(zip(rates, jumps)))


@settings(max_examples=400)  # about 2 ms each; reaches two traced subsystems of three
@given(operators_and_subsets())
def test_partial_trace_identities(case):
    op, traced = case
    layout, mat = op.layout, op.to_dense()
    if len(traced) == len(layout):
        with pytest.raises(ValueError, match="scalar"):
            partial_trace(op, traced)
        return
    reduced = partial_trace(op, traced)
    assert reduced.layout.names == tuple(n for n in layout.names if n not in traced)
    assert abs(reduced.trace() - np.trace(mat)) < 1e-12 * np.abs(mat).sum()
    axes = [layout.axis(name) for name in traced]
    assert np.abs(reduced.to_dense() - ptrace_oracle(mat, layout.dims, axes)).max() < 1e-12


@settings(max_examples=400)
@given(operators_and_subsets())
def test_partial_transpose_identities(case):
    op, transposed = case
    layout, mat = op.layout, op.to_dense()
    once = partial_transpose(op, transposed)
    axes = [layout.axis(name) for name in transposed]
    # an index permutation: every comparison is exact
    assert np.array_equal(once.to_dense(), ptranspose_oracle(mat, layout.dims, axes))
    assert np.array_equal(partial_transpose(once, transposed).to_dense(), mat)
    assert np.array_equal(partial_transpose(op, layout.names).to_dense(), mat.T)


@given(models())
def test_assembly_matches_oracle_and_stores_no_zeros(model):
    liouv = build_liouvillian(model)
    tol = 1e-12 * max(1.0, liouv.norm_inf())
    oracle = liouvillian_oracle(model)
    assert np.abs(liouv.to_dense() - oracle.to_dense()).max() < tol
    assert np.abs(liouv.no_jump - oracle.no_jump).max() < tol
    assert np.all(liouv.matrix.data != 0)


@given(models())
def test_trace_preservation(model):
    liouv = build_liouvillian(model)
    d = model.layout.total_dim
    trace_row = np.eye(d).ravel(order="F") @ liouv.to_dense()
    assert np.abs(trace_row).max() < 1e-12 * max(1.0, liouv.norm_inf())


@given(models())
def test_real_generator_has_the_spectrum_of_l(model):
    liouv = build_liouvillian(model)
    real = _real_generator(liouv)
    assert real.dtype == np.float64
    complex_values = np.linalg.eigvals(liouv.to_dense())
    real_values = np.linalg.eigvals(real.toarray())
    distance = np.abs(complex_values[:, None] - real_values[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert distance[rows, cols].max() < 1e-10 * liouv.norm_inf()
    with pytest.raises(ValueError, match="Hermiticity"):
        _real_generator(1j * liouv)


@given(models())
def test_steady_routes_agree(model):
    liouv = build_liouvillian(model)
    results = [route(liouv) for route in (steady_dense, steady_sparse, steady_linsolve, steady_gmres)]
    reference = results[0].rho.to_dense()
    for result in results:
        assert np.abs(result.rho.to_dense() - reference).max() < 1e-10
        assert result.residual < 1e-10 * liouv.norm_inf()
        assert result.min_eigenvalue > -1e-10


@given(models(), st.integers(1, 6))
def test_spectrum_routes_match_complex_eigenvalues(model, k):
    liouv = build_liouvillian(model)
    k = min(k, liouv.dim - 2)  # ARPACK needs k < n - 1
    tol = 1e-10 * liouv.norm_inf()
    complex_values = np.linalg.eigvals(liouv.to_dense())
    top_real = np.sort(complex_values.real)[::-1][:k]
    for route in ("dense", "sparse"):
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_route(monkeypatch, "spectrum", route)
            values = spectrum(liouv, k).eigenvalues
        assert np.abs(values.real - top_real).max() < tol  # the k largest real parts
        distance = np.abs(values[:, None] - complex_values[None, :])
        rows, cols = linear_sum_assignment(distance)
        assert distance[rows, cols].max() < tol  # each one an eigenvalue of L


@given(models(), st.integers(0, 2**32 - 1), st.floats(0.01, 2.0))
def test_propagation_routes_match_complex_expm(model, seed, t):
    liouv = build_liouvillian(model)
    d = model.layout.total_dim
    rho0 = random_density(np.random.default_rng(seed), d)
    times = [t / 3, t]
    expected = [
        scipy.linalg.expm(liouv.to_dense() * time) @ rho0.ravel(order="F") for time in times
    ]
    for route in ("dense", "sparse"):
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_route(monkeypatch, "evolve", route)
            trajectory = evolve_trajectory(liouv, Operator(model.layout, rho0), times)
        for state, direct in zip(trajectory.states, expected):
            assert np.abs(state.to_dense().ravel(order="F") - direct).max() < 1e-10
