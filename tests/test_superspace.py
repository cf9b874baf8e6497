import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (
    random_density,
    random_hermitian,
    random_matrix,
    random_model,
    single_space,
)
from meq.hilbert import LayoutMismatchError, Operator, SpaceLayout, identity_operator, transition
from meq.superspace import (
    CapacityError,
    LindbladModel,
    SuperOperator,
    build_liouvillian,
    choose_route,
    liouvillian_oracle,
)


def coherent(h):
    """The Liouvillian of a Hamiltonian-only model: rho -> -i [H, rho]."""
    return build_liouvillian(LindbladModel(h))


def dissipator(jump, rate):
    """The Liouvillian of one jump and no Hamiltonian:
    rho -> Gamma (2 J rho J^dag - J^dag J rho - rho J^dag J)."""
    zero = Operator(jump.layout, np.zeros_like(jump.matrix))
    return build_liouvillian(LindbladModel(zero, [(rate, jump)]))


class TestVectorize:
    """Column stacking as the Liouvillian sees it: component n+(m-1)d is X_nm."""

    def test_column_stacking(self):
        # -i [H, X] with H = diag(0, 1) scales X_21 by -i and X_12 by +i:
        # X = [[1, 3], [2, 4]] is stacked as [1, 2, 3, 4]
        liouv = coherent(Operator(single_space(2), np.diag([0.0, 1.0])))
        out = liouv.apply(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(out, [0, -2j, 3j, 0])

    def test_superindex_convention(self):
        # column k+(l-1)d of L is the right side of the master equation at
        # X = E_kl, computed by matrix products and stacked by columns
        rng = np.random.default_rng(12)
        for d in (2, 3, 6):
            model = random_model(rng, d, 2)
            liouv = build_liouvillian(model)
            dense, tol = liouv.to_dense(), 1e-12 * max(1.0, liouv.norm_inf())
            h = model.hamiltonian.matrix
            for k, l in itertools.product(range(1, d + 1), repeat=2):
                x = transition(d, k, l)
                rhs = -1j * (h @ x - x @ h)
                for rate, jump in model.dissipators:
                    j = jump.matrix
                    jdj = j.conj().T @ j
                    rhs += rate * (2.0 * j @ x @ j.conj().T - jdj @ x - x @ jdj)
                column = dense[:, (k - 1) + (l - 1) * d]
                assert np.abs(column - rhs.ravel(order="F")).max() < tol


class TestHamiltonianSuper:
    """The coherent part of the Liouvillian, built from Hamiltonian-only models."""

    def test_identity_gives_zero(self):
        eye = identity_operator(single_space(3))
        assert np.abs(coherent(eye).to_dense()).max() < 1e-14

    def test_commuting_diagonal_pair(self):
        layout = single_space(3)
        h = Operator(layout, np.diag([0.0, 1.0, 2.5]))
        x = np.diag([0.5, 0.25, 0.25])
        out = coherent(h).apply(x.ravel(order="F"))
        assert np.abs(out).max() < 1e-14

    def test_qubit_coherence_rotation(self):
        layout = single_space(2)
        omega = 1.7
        h = Operator(layout, np.diag([0.0, omega]))
        x = transition(2, 1, 2)
        out = coherent(h).apply(x.ravel(order="F"))
        assert np.allclose(out.reshape(2, 2, order="F"), 1j * omega * x, atol=1e-12)

    def test_rejects_non_hermitian(self):
        layout = single_space(2)
        with pytest.raises(ValueError, match="not Hermitian"):
            coherent(Operator(layout, np.array([[0.0, 1.0], [0.0, 0.0]])))
        # the defect is measured against 1e-12 times the largest element
        with pytest.raises(ValueError, match="not Hermitian"):
            coherent(Operator(layout, np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]])))
        assert coherent(Operator(layout, np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]]))).dim == 4

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(5)
        layout = single_space(3)
        h = Operator(layout, random_hermitian(rng, 3))
        rho = random_density(rng, 3)
        out = coherent(h).apply(rho.ravel(order="F")).reshape(3, 3, order="F")
        assert np.abs(out - out.conj().T).max() < 1e-12


class TestDissipatorSuper:
    """The jump part of the Liouvillian, built from one-jump models with H = 0."""

    def test_identity_jump_gives_zero(self):
        eye = identity_operator(single_space(3))
        assert np.abs(dissipator(eye, 1.0).to_dense()).max() < 1e-14

    def test_qubit_decay_action(self):
        layout = single_space(2)
        jump = Operator(layout, transition(2, 1, 2))
        rho = transition(2, 2, 2)
        out = dissipator(jump, 1.0).apply(rho.ravel(order="F"))
        expected = 2.0 * transition(2, 1, 1) - 2.0 * transition(2, 2, 2)
        assert np.allclose(out.reshape(2, 2, order="F"), expected, atol=1e-13)

    def test_trace_annihilation(self):
        rng = np.random.default_rng(6)
        layout = single_space(3)
        jump = Operator(layout, random_matrix(rng, 3))
        superop = dissipator(jump, 0.7)
        trace_row = np.eye(3).ravel(order="F") @ superop.to_dense()
        assert np.abs(trace_row).max() < 1e-12
        for _ in range(100):
            rho = random_density(rng, 3)
            out = superop.apply(rho.ravel(order="F")).reshape(3, 3, order="F")
            assert abs(np.trace(out)) < 1e-12

    def test_rejects_nonpositive_rate(self):
        jump = identity_operator(single_space(2))
        for rate in (0.0, -1.0):
            with pytest.raises(ValueError, match="rate must be > 0"):
                dissipator(jump, rate)


class TestLindbladModel:
    def test_validation(self):
        layout = single_space(2)
        flat = Operator(layout, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            LindbladModel(flat)
        eye = identity_operator(layout)
        with pytest.raises(ValueError):
            LindbladModel(eye, [(0.0, eye)])
        other = identity_operator(SpaceLayout([("other", 2)]))
        with pytest.raises(LayoutMismatchError):
            LindbladModel(eye, [(1.0, other)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_rate(self, rate):
        eye = identity_operator(single_space(2))
        with pytest.raises(ValueError, match=f"^dissipation rate must be finite, got {rate}$"):
            LindbladModel(eye, [(rate, eye)])

    def test_empty_dissipators_allowed(self):
        model = LindbladModel(identity_operator(single_space(2)))
        assert model.dissipators == ()


class TestBuildLiouvillian:
    def test_trivial_model_is_zero(self):
        layout = single_space(3)
        zero = Operator(layout, np.zeros((3, 3)))
        liouv = build_liouvillian(LindbladModel(zero))
        assert np.abs(liouv.to_dense()).max() == 0.0

    def test_oracle_entry_sign(self):
        # single qubit, H = diag(0, 1), no dissipation: the coherence
        # rho_12 evolves as +i rho_12
        layout = single_space(2)
        model = LindbladModel(Operator(layout, np.diag([0.0, 1.0])))
        oracle = liouvillian_oracle(model).to_dense()
        row = col = 0 + (2 - 1) * 2  # superindex of rho_{12}, 0-based
        assert oracle[row, col] == pytest.approx(1j)

    def test_oracle_zero_model(self):
        layout = single_space(2)
        model = LindbladModel(Operator(layout, np.zeros((2, 2))))
        assert np.abs(liouvillian_oracle(model).to_dense()).max() == 0.0

    def test_exact_cancellation_stores_no_entries(self):
        # H = c 1 and J = 1 generate nothing: every summed entry cancels exactly
        eye = identity_operator(SpaceLayout([("a", 2), ("b", 3)]))
        assert build_liouvillian(LindbladModel(1.3 * eye, [(0.7, eye)])).matrix.nnz == 0

    @pytest.mark.parametrize("d,channels", [(2, 1), (3, 2), (4, 3)])
    def test_matches_oracle(self, d, channels):
        rng = np.random.default_rng(100 + d + channels)
        for _ in range(10):
            model = random_model(rng, d, channels)
            built = build_liouvillian(model).to_dense()
            reference = liouvillian_oracle(model).to_dense()
            assert np.abs(built - reference).max() < 1e-12

    def test_structural_trace_preservation(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4):
            model = random_model(rng, d, 2)
            liouv = build_liouvillian(model).to_dense()
            trace_row = np.eye(d).ravel(order="F") @ liouv
            assert np.abs(trace_row).max() < 1e-12

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 4, 2)
        liouv = build_liouvillian(model)
        rho = random_density(rng, 4)
        out = liouv.apply(rho.ravel(order="F")).reshape(4, 4, order="F")
        assert np.abs(out - out.conj().T).max() < 1e-12

    def test_singularity_witness(self):
        rng = np.random.default_rng(9)
        for d in (2, 3, 5):
            model = random_model(rng, d, 1)
            liouv = build_liouvillian(model)
            smallest = np.linalg.svd(liouv.to_dense(), compute_uv=False)[-1]
            assert smallest < 1e-10 * liouv.norm_inf()

    def test_multiple_dissipators_sum(self):
        rng = np.random.default_rng(10)
        layout = single_space(3)
        h = Operator(layout, random_hermitian(rng, 3))
        j1 = Operator(layout, random_matrix(rng, 3))
        j2 = Operator(layout, random_matrix(rng, 3))
        combined = build_liouvillian(LindbladModel(h, [(0.5, j1), (1.5, j2)]))
        reference = liouvillian_oracle(LindbladModel(h, [(0.5, j1), (1.5, j2)]))
        assert np.abs(combined.to_dense() - reference.to_dense()).max() < 1e-13


class TestSuperOperatorStorage:
    def test_threshold(self):
        # storage is CSR on both sides of any size; the size only picks routes
        small = coherent(identity_operator(single_space(64)))  # d^2 = 4096
        large = coherent(identity_operator(single_space(65)))
        for superop in (small, large):
            assert isinstance(superop.matrix, sp.csr_array)
            assert superop.matrix.nnz == 0  # [I, rho] = 0 stores no entries
        crossovers = {"spectrum": 200, "linsolve": 400, "evolve": 150}
        for task, n in crossovers.items():
            assert choose_route(task, n - 1, k=5) == ("dense", f"{task}: n={n - 1} < {n}")
            assert choose_route(task, n, k=5) == ("sparse", f"{task}: n={n} >= {n}")
        # steady states: the row-replacement solve at every n, by LU and then
        # GMRES; no eigenvector route by default
        for n in (1, 1023, 1024, 321_489):
            assert choose_route("steady", n) == ("solve", "steady: the row-replacement solve at every n")
        assert choose_route("linsolve", 1023) == ("sparse", "linsolve: n=1023 >= 400")
        assert choose_route("linsolve", 1024) == ("gmres", "linsolve: n=1024 >= 1024")
        assert choose_route("linsolve", 321_489).route == "gmres"
        assert choose_route("spectrum", 2025, k=11).route == "dense"
        assert choose_route("spectrum", 10_001, k=11).route == "sparse"
        assert choose_route("spectrum", 4, k=3).route == "dense"  # ARPACK: k < n-1
        with pytest.raises(TypeError):
            choose_route("spectrum", 400)  # the spectrum policy needs k
        with pytest.raises(KeyError):
            choose_route("bogus", 400)

    def test_requested_routes(self):
        requestable = {
            "steady": ("dense", "sparse", "solve"),
            "spectrum": ("dense", "sparse"),
            "evolve": ("dense", "sparse"),
        }
        for task, methods in requestable.items():
            for n in (4, 2025, 321_489):
                for method in methods:
                    assert choose_route(task, n, k=2, method=method) == (method, "requested")
            with pytest.raises(ValueError, match="method must be 'dense' or 'sparse'"):
                choose_route(task, 400, k=2, method="bogus")
        for task, method in (("spectrum", "solve"), ("evolve", "gmres"), ("steady", "iterative")):
            with pytest.raises(ValueError):
                choose_route(task, 400, k=2, method=method)
        # the LU route picks dense or sparse by n alone
        with pytest.raises(KeyError):
            choose_route("linsolve", 400, method="dense")

    def test_requested_sparse_spectrum_needs_k_below_n_minus_1(self):
        assert choose_route("spectrum", 4, k=2, method="sparse") == ("sparse", "requested")
        for k in (3, 4):
            assert choose_route("spectrum", 4, k=k, method="sparse") == (
                "dense", f"spectrum: k={k} >= n-1=3, ARPACK needs k < n-1"
            )
            assert choose_route("spectrum", 4, k=k, method="dense") == ("dense", "requested")

    def test_conversion_exact(self):
        rng = np.random.default_rng(11)
        layout = single_space(3)
        superop = dissipator(Operator(layout, random_matrix(rng, 3)), 1.0)
        dense = superop.to_dense()
        rebuilt = SuperOperator(layout, dense, superop.no_jump)
        assert isinstance(rebuilt.matrix, sp.csr_array)
        assert np.array_equal(rebuilt.to_dense(), dense)
        assert np.array_equal(rebuilt.matrix.toarray(), dense)
        assert np.array_equal((2 * rebuilt).to_dense(), 2 * dense)
        assert np.array_equal((rebuilt * -1).matrix.toarray(), -dense)
        # c * L scales the no-jump generator K it keeps, which must be d x d
        assert np.array_equal((2 * rebuilt).no_jump, 2 * superop.no_jump)
        with pytest.raises(ValueError, match="no-jump generator shape"):
            SuperOperator(layout, dense, np.eye(2))
        assert rebuilt.norm_inf() == pytest.approx(np.abs(dense).sum(axis=1).max(), abs=1e-12)

    def test_dense_capacity_guard(self):
        # superspace 77841: a dense copy would need 97 GB
        layout = SpaceLayout([("a", 279)])
        superop = coherent(identity_operator(layout))
        with pytest.raises(CapacityError, match="exceeds the dense capacity 10000"):
            superop.to_dense()
        # every dense route builds its array through to_dense
        from meq.dynamics import evolve_trajectory
        from meq.steady import spectrum, steady_dense

        with pytest.raises(CapacityError):
            spectrum(superop, 5, method="dense")
        with pytest.raises(CapacityError, match="exceeds the dense capacity 10000"):
            steady_dense(superop)
        rho0 = identity_operator(layout) / 279
        with pytest.raises(CapacityError):
            evolve_trajectory(superop, rho0, [1.0], "dense")

    def test_apply_checks_layout(self):
        # a column-stacked operator of another dimension is refused
        liouv = coherent(identity_operator(single_space(2)))
        with pytest.raises(ValueError):
            liouv.apply(np.eye(3).ravel(order="F"))
