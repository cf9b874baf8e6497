import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (
    bell_projector,
    ptrace_oracle,
    ptranspose_oracle,
    random_density,
    random_matrix,
)
from meq.hilbert import (
    LayoutMismatchError,
    Operator,
    SpaceLayout,
    annihilation,
    basis_state,
    embed,
    flat_to_index,
    identity_operator,
    index_to_flat,
    partial_trace,
    partial_transpose,
    tensor_all,
    transition,
)

LAYOUT_353 = SpaceLayout([("xi", 3), ("a", 5), ("b", 3)])


class TestSpaceLayout:
    def test_total_dim_is_product(self):
        assert LAYOUT_353.total_dim == 45
        assert SpaceLayout([("q", 2)]).total_dim == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceLayout([])
        with pytest.raises(ValueError):
            SpaceLayout([("a", 2), ("a", 3)])
        with pytest.raises(ValueError):
            SpaceLayout([("a", 0)])
        with pytest.raises(ValueError):
            SpaceLayout([("", 2)])

    def test_lookup(self):
        assert LAYOUT_353.axis("a") == 1
        assert LAYOUT_353.dim_of("b") == 3
        with pytest.raises(KeyError):
            LAYOUT_353.axis("nope")


class TestIndexMaps:
    def test_flat_examples(self):
        assert index_to_flat(LAYOUT_353, (1, 1, 1)) == 1
        assert index_to_flat(LAYOUT_353, (2, 1, 1)) == 2
        assert index_to_flat(LAYOUT_353, (1, 2, 1)) == 4
        assert index_to_flat(LAYOUT_353, (3, 5, 3)) == 45

    def test_inverse_examples(self):
        assert flat_to_index(LAYOUT_353, 1) == (1, 1, 1)
        assert flat_to_index(LAYOUT_353, 4) == (1, 2, 1)
        assert flat_to_index(SpaceLayout([("p", 2), ("q", 2)]), 3) == (1, 2)

    @pytest.mark.parametrize(
        "dims", [(2,), (2, 2), (3, 5, 3), (2, 5, 2, 5), (7, 11)]
    )
    def test_bijection_exhaustive(self, dims):
        layout = SpaceLayout([(f"s{i}", d) for i, d in enumerate(dims)])
        seen = set()
        for flat in range(1, layout.total_dim + 1):
            multi = flat_to_index(layout, flat)
            assert index_to_flat(layout, multi) == flat
            seen.add(multi)
        assert len(seen) == layout.total_dim

    def test_errors_name_the_subsystem(self):
        with pytest.raises(IndexError, match="'a'"):
            index_to_flat(LAYOUT_353, (1, 6, 1))
        with pytest.raises(IndexError):
            index_to_flat(LAYOUT_353, (1, 1))
        with pytest.raises(IndexError):
            flat_to_index(LAYOUT_353, 0)
        with pytest.raises(IndexError):
            flat_to_index(LAYOUT_353, 46)


class TestBasisState:
    def test_single_space(self):
        vec = basis_state(SpaceLayout([("s", 3)]), (2,))
        assert np.array_equal(vec.amplitudes, [0, 1, 0])

    def test_position_matches_flat_index(self):
        layout = SpaceLayout([("p", 3), ("q", 3)])
        vec = basis_state(layout, (1, 2))
        expected = np.zeros(9)
        expected[3] = 1  # flat index 4
        assert np.array_equal(vec.amplitudes, expected)

    def test_reversed_kron_oracle(self):
        layout = SpaceLayout([("p", 2), ("q", 3)])
        local_p = np.zeros(2)
        local_p[1] = 1
        local_q = np.zeros(3)
        local_q[2] = 1
        vec = basis_state(layout, (2, 3))
        assert np.array_equal(vec.amplitudes, np.kron(local_q, local_p))
        assert vec.amplitudes[5] == 1

    def test_single_nonzero_everywhere(self):
        layout = SpaceLayout([("p", 2), ("q", 2), ("r", 3)])
        for flat in range(1, 13):
            multi = flat_to_index(layout, flat)
            amps = basis_state(layout, multi).amplitudes
            assert np.count_nonzero(amps) == 1
            assert amps[flat - 1] == 1


class TestLocalOperators:
    def test_annihilation_qubit(self):
        assert np.array_equal(annihilation(2), [[0, 1], [0, 0]])

    def test_annihilation_qutrit(self):
        mat = annihilation(3)
        assert mat[0, 1] == 1
        assert mat[1, 2] == pytest.approx(np.sqrt(2))
        assert np.count_nonzero(mat) == 2

    def test_number_operator(self):
        a = annihilation(5)
        number = a.conj().T @ a
        assert np.allclose(number, np.diag([0, 1, 2, 3, 4]))

    def test_annihilation_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            annihilation(0)

    def test_transition_examples(self):
        mat = transition(3, 1, 2)
        assert mat[0, 1] == 1 and np.count_nonzero(mat) == 1
        proj = transition(3, 2, 2)
        assert proj[1, 1] == 1 and np.count_nonzero(proj) == 1

    def test_transition_product(self):
        assert np.array_equal(
            transition(3, 1, 2) @ transition(3, 2, 3), transition(3, 1, 3)
        )

    def test_transition_range(self):
        with pytest.raises(ValueError):
            transition(3, 0, 1)
        with pytest.raises(ValueError):
            transition(3, 1, 4)


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        for name in LAYOUT_353.names:
            dim = LAYOUT_353.dim_of(name)
            op = embed(LAYOUT_353, name, np.eye(dim))
            assert np.allclose(op.to_dense(), np.eye(45))

    def test_matches_reversed_kron_chain(self):
        op = embed(LAYOUT_353, "a", annihilation(5))
        chain = np.kron(np.eye(3), np.kron(annihilation(5), np.eye(3)))
        assert np.allclose(op.to_dense(), chain)

    def test_disjoint_embeddings_commute(self):
        rng = np.random.default_rng(7)
        layout = SpaceLayout([("p", 2), ("q", 3)])
        mat_p, mat_q = random_matrix(rng, 2), random_matrix(rng, 3)
        a = embed(layout, "p", mat_p)
        b = embed(layout, "q", mat_q)
        # dense BLAS accumulates zeros in either order: equal to the last ulp
        assert np.allclose((a * b).to_dense(), (b * a).to_dense(), atol=1e-15)

    def test_algebra_homomorphism(self):
        rng = np.random.default_rng(8)
        layout = SpaceLayout([("p", 3), ("q", 2)])
        mat_a, mat_b = random_matrix(rng, 3), random_matrix(rng, 3)
        lifted = embed(layout, "p", mat_a @ mat_b)
        assert np.allclose(
            lifted.to_dense(),
            (embed(layout, "p", mat_a) * embed(layout, "p", mat_b)).to_dense(),
            atol=1e-12,
        )
        lifted_sum = embed(layout, "p", mat_a + mat_b)
        assert np.allclose(
            lifted_sum.to_dense(),
            (embed(layout, "p", mat_a) + embed(layout, "p", mat_b)).to_dense(),
            atol=1e-12,
        )

    def test_errors(self):
        with pytest.raises(KeyError):
            embed(LAYOUT_353, "nope", np.eye(3))
        with pytest.raises(ValueError):
            embed(LAYOUT_353, "a", np.eye(3))


class TestTensorAll:
    def test_all_identities(self):
        op = tensor_all(LAYOUT_353, [np.eye(3), np.eye(5), np.eye(3)])
        assert np.allclose(op.to_dense(), np.eye(45))

    def test_elementwise_product_formula(self):
        layout = SpaceLayout([("p", 2), ("q", 2)])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        dg = np.diag([1.0, 2.0])
        op = tensor_all(layout, [sx, dg]).to_dense()
        # element at row multi (1,1), column multi (2,1): sx[0,1] * dg[0,0]
        row = index_to_flat(layout, (1, 1)) - 1
        col = index_to_flat(layout, (2, 1)) - 1
        assert op[row, col] == 1
        for row_multi in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            for col_multi in [(1, 1), (2, 1), (1, 2), (2, 2)]:
                expected = (
                    sx[row_multi[0] - 1, col_multi[0] - 1]
                    * dg[row_multi[1] - 1, col_multi[1] - 1]
                )
                r = index_to_flat(layout, row_multi) - 1
                c = index_to_flat(layout, col_multi) - 1
                assert op[r, c] == expected

    def test_equals_product_of_embeddings(self):
        rng = np.random.default_rng(9)
        layout = SpaceLayout([("p", 2), ("q", 3)])
        mat_p, mat_q = random_matrix(rng, 2), random_matrix(rng, 3)
        combined = tensor_all(layout, [mat_p, mat_q])
        product = embed(layout, "p", mat_p) * embed(layout, "q", mat_q)
        assert np.allclose(combined.to_dense(), product.to_dense(), atol=1e-12)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            tensor_all(LAYOUT_353, [np.eye(3), np.eye(5)])


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(10)
        layout = SpaceLayout([("p", 2), ("q", 3)])
        rho_p = random_density(rng, 2)
        rho_q = random_density(rng, 3)
        joint = Operator(layout, np.kron(rho_q, rho_p))
        reduced = partial_trace(joint, ["q"])
        assert reduced.layout.names == ("p",)
        assert np.allclose(reduced.to_dense(), rho_p, atol=1e-12)

    def test_scaled_product(self):
        rng = np.random.default_rng(11)
        layout = SpaceLayout([("p", 2), ("q", 3)])
        mat_p = random_matrix(rng, 2)
        mat_q = random_matrix(rng, 3)
        joint = tensor_all(layout, [mat_p, mat_q])
        reduced = partial_trace(joint, ["q"])
        assert np.allclose(reduced.to_dense(), np.trace(mat_q) * mat_p, atol=1e-12)

    def test_bell_marginals(self):
        layout = SpaceLayout([("p", 2), ("q", 2)])
        bell = Operator(layout, bell_projector())
        for traced in (["p"], ["q"]):
            reduced = partial_trace(bell, traced)
            assert np.allclose(reduced.to_dense(), np.eye(2) / 2, atol=1e-12)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(12)
        layout = SpaceLayout([("p", 2), ("q", 3)])
        mat = random_matrix(rng, 6)
        op = Operator(layout, mat)
        assert np.allclose(
            partial_trace(op, ["p"]).to_dense(), ptrace_oracle(mat, (2, 3), [0]),
            atol=1e-13,
        )
        assert np.allclose(
            partial_trace(op, ["q"]).to_dense(), ptrace_oracle(mat, (2, 3), [1]),
            atol=1e-13,
        )

    def test_multi_subsystem_trace_against_oracle(self):
        rng = np.random.default_rng(13)
        layout = SpaceLayout([("p", 2), ("q", 2), ("r", 3)])
        mat = random_matrix(rng, 12)
        op = Operator(layout, mat)
        reduced = partial_trace(op, ["p", "r"])
        assert reduced.layout.names == ("q",)
        assert np.allclose(
            reduced.to_dense(), ptrace_oracle(mat, (2, 2, 3), [0, 2]), atol=1e-13
        )

    def test_trace_preserved(self):
        rng = np.random.default_rng(14)
        layout = SpaceLayout([("p", 3), ("q", 4)])
        op = Operator(layout, random_matrix(rng, 12))
        reduced = partial_trace(op, ["p"])
        assert reduced.trace() == pytest.approx(op.trace(), abs=1e-12)

    def test_errors(self):
        layout = SpaceLayout([("p", 2), ("q", 2)])
        op = identity_operator(layout)
        with pytest.raises(ValueError):
            partial_trace(op, ["p", "q"])
        with pytest.raises(KeyError):
            partial_trace(op, ["z"])
        with pytest.raises(ValueError):
            partial_trace(op, [])


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(15)
        layout = SpaceLayout([("p", 2), ("q", 3)])
        op = Operator(layout, random_matrix(rng, 6))
        twice = partial_transpose(partial_transpose(op, ["p"]), ["p"])
        assert np.array_equal(twice.to_dense(), op.to_dense())

    def test_bell_spectrum(self):
        layout = SpaceLayout([("p", 2), ("q", 2)])
        swapped = partial_transpose(Operator(layout, bell_projector()), ["p"])
        values = np.sort(np.linalg.eigvalsh(swapped.to_dense()))
        assert np.allclose(values, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(16)
        layout = SpaceLayout([("p", 2), ("q", 2)])
        mat = random_matrix(rng, 4)
        op = Operator(layout, mat)
        assert np.array_equal(
            partial_transpose(op, ["q"]).to_dense(), ptranspose_oracle(mat, (2, 2), [1])
        )

    def test_all_subsystems_is_full_transpose(self):
        rng = np.random.default_rng(17)
        layout = SpaceLayout([("p", 2), ("q", 3), ("r", 2)])
        mat = random_matrix(rng, 12)
        op = Operator(layout, mat)
        assert np.array_equal(
            partial_transpose(op, ["p", "q", "r"]).to_dense(), mat.T
        )

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(18)
        layout = SpaceLayout([("p", 2), ("q", 3)])
        rho = Operator(layout, random_density(rng, 6))
        swapped = partial_transpose(rho, ["q"])
        assert swapped.trace() == pytest.approx(rho.trace(), abs=1e-14)
        assert swapped.is_hermitian()

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            partial_transpose(identity_operator(LAYOUT_353), ["z"])

    def test_sparse_storage_matches_dense_path(self):
        rng = np.random.default_rng(21)
        layout = SpaceLayout([("p", 2), ("q", 3)])
        mat = random_matrix(rng, 6)
        dense = Operator(layout, mat)
        sparse = Operator(layout, sp.csr_array(mat))
        assert np.array_equal(
            partial_transpose(sparse, ["q"]).to_dense(),
            partial_transpose(dense, ["q"]).to_dense(),
        )
        assert np.array_equal(
            partial_trace(sparse, ["p"]).to_dense(),
            partial_trace(dense, ["p"]).to_dense(),
        )


class TestOperatorStorage:
    def test_conversion_is_exact(self):
        rng = np.random.default_rng(19)
        layout = SpaceLayout([("p", 3), ("q", 3)])
        mat = random_matrix(rng, 9)
        op = Operator(layout, sp.csr_array(mat))
        assert type(op.matrix) is np.ndarray
        assert np.array_equal(op.to_dense(), mat)

    def test_default_threshold(self):
        # one storage form at every size: d = 64 and 65 straddle the former
        # sparse threshold, d = 279 is the cascade at (n_a, n_b) = (30, 2)
        for d in (64, 65, 279):
            layout = SpaceLayout([("p", d)])
            for op in (identity_operator(layout), embed(layout, "p", annihilation(d))):
                assert type(op.matrix) is np.ndarray
                assert op.matrix.dtype == complex

    def test_layout_mismatch_raises(self):
        a = identity_operator(SpaceLayout([("p", 2)]))
        b = identity_operator(SpaceLayout([("q", 2)]))
        with pytest.raises(LayoutMismatchError):
            a + b
        with pytest.raises(LayoutMismatchError):
            a * b

    def test_scalar_algebra(self):
        layout = SpaceLayout([("p", 2)])
        eye = identity_operator(layout)
        doubled = 2 * eye
        assert np.allclose(doubled.to_dense(), 2 * np.eye(2))
        assert np.allclose((doubled / 2).to_dense(), np.eye(2))
        assert np.allclose((eye - eye).to_dense(), 0)
        assert np.allclose((-eye).to_dense(), -np.eye(2))

    def test_dag_and_trace(self):
        rng = np.random.default_rng(20)
        layout = SpaceLayout([("p", 3)])
        mat = random_matrix(rng, 3)
        op = Operator(layout, mat)
        assert np.array_equal(op.dag().to_dense(), mat.conj().T)
        assert op.trace() == pytest.approx(np.trace(mat))

    def test_immutability(self):
        op = identity_operator(SpaceLayout([("p", 2)]))
        with pytest.raises(AttributeError):
            op.layout = SpaceLayout([("q", 2)])
