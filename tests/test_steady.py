import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

from helpers import (
    STEADY_ROUTES,
    count_route_calls,
    force_route,
    random_corpus,
    random_hermitian,
    random_model,
    single_space,
    steady_gmres,
)
from meq import steady
from meq.dynamics import evolve_trajectory
from meq.hilbert import Operator, identity_operator, transition
from meq.modelspec import CascadeParams, cascade_model
from meq.steady import (
    ConvergenceError,
    DegeneracyError,
    GapReport,
    check_uniqueness,
    spectrum,
    steady_dense,
    steady_linsolve,
    steady_sparse,
    steady_state,
)
from meq.superspace import (
    LindbladModel,
    SuperOperator,
    _hermitian_basis,
    _real_generator,
    _trace_zero_generator,
    build_liouvillian,
    choose_route,
    liouvillian_oracle,
)
from test_superspace import benchmark_models


def qubit_decay_model(rate=1.0):
    layout = single_space(2, "q")
    hamiltonian = Operator(layout, np.zeros((2, 2)))
    jump = Operator(layout, transition(2, 1, 2))
    return LindbladModel(hamiltonian, [(rate, jump)])


def driven_qubit_model(omega, rate):
    layout = single_space(2, "q")
    hamiltonian = Operator(layout, omega * (transition(2, 1, 2) + transition(2, 2, 1)))
    jump = Operator(layout, transition(2, 1, 2))
    return LindbladModel(hamiltonian, [(rate, jump)])


def degenerate_model():
    # no dissipation, diagonal H: every diagonal state is steady
    layout = single_space(2, "q")
    return LindbladModel(Operator(layout, np.diag([0.0, 1.0])))


def decoupled_driven_qubits():
    # two driven, damped qubits in one 4-level space: a steady state per block
    layout = single_space(4, "q")
    drive = transition(4, 1, 2) + transition(4, 2, 1)
    drive += 0.5 * (transition(4, 3, 4) + transition(4, 4, 3))
    return LindbladModel(
        Operator(layout, drive),
        [(1.0, Operator(layout, transition(4, 1, 2))),
         (1.0, Operator(layout, transition(4, 3, 4)))],
    )


ALL_METHODS = [steady_dense, steady_sparse, steady_linsolve]


class TestQubitDecay:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_decays_to_ground(self, method):
        liouv = build_liouvillian(qubit_decay_model())
        result = method(liouv)
        assert np.allclose(result.rho.to_dense(), np.diag([1.0, 0.0]), atol=1e-10)
        assert result.rho.trace() == pytest.approx(1.0, abs=1e-14)
        assert result.residual < 1e-10

    def test_linsolve_trace_by_construction(self):
        liouv = build_liouvillian(qubit_decay_model())
        result = steady_linsolve(liouv)
        assert result.trace_before_normalization == pytest.approx(1.0, abs=1e-14)
        assert result.rho.trace() == 1.0

    def test_methods_report_provenance(self):
        # a route's one name is its policy's route; a direct route call records none
        liouv = build_liouvillian(qubit_decay_model())
        for route, name in STEADY_ROUTES.items():
            assert steady_state(liouv, route).policy.route == route
            assert getattr(steady, name)(liouv).policy is None


class TestDrivenQubit:
    @pytest.mark.parametrize("omega,rate", [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)])
    def test_analytic_excited_population(self, omega, rate):
        model = driven_qubit_model(omega, rate)
        liouv = build_liouvillian(model)
        expected = omega**2 / (rate**2 + 2 * omega**2)
        for method in [*ALL_METHODS, steady_gmres]:
            rho = method(liouv).rho.to_dense()
            assert rho[1, 1].real == pytest.approx(expected, abs=1e-10)

    def test_nullspace_oracle(self):
        # independent route: elementwise-formula generator + SVD kernel
        model = driven_qubit_model(1.0, 1.0)
        oracle = liouvillian_oracle(model).to_dense()
        kernel = scipy.linalg.null_space(oracle)
        assert kernel.shape[1] == 1
        rho = kernel[:, 0].reshape(2, 2, order="F")
        rho = rho / np.trace(rho)
        assert rho[1, 1].real == pytest.approx(1.0 / 3.0, abs=1e-10)
        result = steady_dense(build_liouvillian(model))
        assert np.abs(result.rho.to_dense() - rho).max() < 1e-10


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_result_is_a_density_matrix(self, seed):
        rng = np.random.default_rng(30 + seed)
        model = random_model(rng, int(rng.integers(2, 6)), int(rng.integers(1, 3)))
        liouv = build_liouvillian(model)
        for method in ALL_METHODS:
            result = method(liouv)
            rho = result.rho.to_dense()
            assert result.residual < 1e-8 * liouv.norm_inf()
            assert abs(np.trace(rho) - 1) < 1e-12
            assert np.abs(rho - rho.conj().T).max() < 1e-10
            eigenvalues = np.linalg.eigvalsh(rho)
            assert eigenvalues.min() > -1e-10 * np.abs(eigenvalues).max()

    @pytest.mark.parametrize("seed", range(5))
    def test_cross_method_agreement(self, seed):
        rng = np.random.default_rng(40 + seed)
        model = random_model(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
        liouv = build_liouvillian(model)
        assert check_uniqueness(liouv).unique
        dense = steady_dense(liouv).rho.to_dense()
        sparse = steady_sparse(liouv).rho.to_dense()
        solve = steady_linsolve(liouv).rho.to_dense()
        assert np.abs(dense - sparse).max() < 1e-8
        assert np.abs(dense - solve).max() < 1e-8

    # gamma = ||L||_inf / d: with gamma = 1 the cascade at c = 1e-16, 1e12 and 1e16
    # and every corpus model at c = 1e+-16 raised a false DegeneracyError
    @pytest.mark.parametrize("c", [1e-16, 1e-12, 1.0, 1e12, 1e16])
    def test_linsolve_is_scale_free(self, c):
        cascade = build_liouvillian(cascade_model(CascadeParams(n_a=3, n_b=1)))  # n = 576
        liouvs = [cascade, *(build_liouvillian(model) for model in random_corpus())]
        assert choose_route("linsolve", cascade.dim).route == "sparse"
        assert choose_route("linsolve", liouvs[-1].dim).route == "dense"
        for liouv in liouvs:
            result = steady_linsolve(c * liouv)
            reference = steady_dense(liouv).rho.to_dense()
            assert np.abs(result.rho.to_dense() - reference).max() < 1e-12
        h_only = LindbladModel(Operator(single_space(20, "q"), np.diag(np.arange(20.0))))
        for model in (dephasing_model(12), degenerate_model(), h_only):  # n = 144, 4, 400
            with pytest.raises(DegeneracyError):
                steady_linsolve(c * build_liouvillian(model))


class TestDegeneracy:
    def test_dense_detects_degenerate_kernel(self):
        liouv = build_liouvillian(degenerate_model())
        with pytest.raises(DegeneracyError):
            steady_dense(liouv)

    def test_sparse_detects_degenerate_kernel(self):
        liouv = build_liouvillian(degenerate_model())
        with pytest.raises(DegeneracyError):
            steady_sparse(liouv)

    def test_linsolve_detects_degenerate_kernel(self):
        liouv = build_liouvillian(degenerate_model())
        with pytest.raises(DegeneracyError):
            steady_linsolve(liouv)

    def test_traceless_kernel_vector_is_refused(self):
        liouv = build_liouvillian(driven_qubit_model(1.0, 1.0))
        with pytest.raises(DegeneracyError, match="traceless kernel vector"):
            steady._finalize(liouv, np.diag([1.0, -1.0]), None)

    def test_linsolve_sparse_storage_degenerate(self):
        # d = 20 puts the LU route on SuperLU (n = 400), the 2x2 model on LAPACK
        layout = single_space(20, "q")
        liouv = build_liouvillian(LindbladModel(Operator(layout, np.diag(np.arange(20.0)))))
        assert choose_route("linsolve", liouv.dim).route == "sparse"
        with pytest.raises(DegeneracyError):
            steady_linsolve(liouv)


class TestSpectrum:
    def test_qubit_decay_rates(self):
        liouv = build_liouvillian(qubit_decay_model())
        values = spectrum(liouv, 4).eigenvalues
        assert np.allclose(sorted(values.real), [-2, -1, -1, 0], atol=1e-12)
        assert np.abs(values.imag).max() < 1e-12

    def test_sorted_descending(self):
        rng = np.random.default_rng(50)
        liouv = build_liouvillian(random_model(rng, 4, 2))
        values = spectrum(liouv, 16).eigenvalues
        assert all(a.real >= b.real - 1e-12 for a, b in zip(values, values[1:]))

    def test_conjugate_pair_closure(self):
        rng = np.random.default_rng(51)
        liouv = build_liouvillian(random_model(rng, 3, 1))
        values = spectrum(liouv, 9).eigenvalues
        # the full spectrum must be closed under conjugation
        for value in values:
            assert any(abs(np.conj(value) - other) < 1e-8 for other in values)

    def test_tie_break_descending_imaginary(self):
        layout = single_space(2, "q")
        # H = sigma_z rotation: eigenvalues 0, 0, +2i, -2i, all real parts 0
        model = LindbladModel(Operator(layout, np.diag([-1.0, 1.0])))
        values = spectrum(build_liouvillian(model), 4).eigenvalues
        assert np.allclose(values.imag, [2.0, 0.0, 0.0, -2.0], atol=1e-12)

    def test_sparse_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(52)
        liouv = build_liouvillian(random_model(rng, 4, 2))
        dense = spectrum(liouv, 4).eigenvalues
        force_route(monkeypatch, "spectrum", "sparse")
        sparse = spectrum(liouv, 4).eigenvalues
        assert np.allclose(dense, sparse, atol=1e-8)

    def test_order_matches_loop_reference(self):
        def loop_order(values):  # the grouping loop the numpy ordering replaced
            order = sorted(range(len(values)), key=lambda i: -values[i].real)
            out, i = [], 0
            while i < len(order):
                j = i + 1
                while (
                    j < len(order)
                    and values[order[j - 1]].real - values[order[j]].real <= steady._TIE_TOL
                ):
                    j += 1
                out.extend(sorted(order[i:j], key=lambda idx: -values[idx].imag))
                i = j
            return out

        rng = np.random.default_rng(53)
        for _ in range(2000):
            size = int(rng.integers(1, 12))
            # few distinct parts, nudged by amounts on both sides of the tie tolerance
            real = rng.integers(-2, 2, size) + rng.choice([0.0, 4e-13, 9e-13, 3e-12], size)
            imag = rng.integers(-2, 3, size) * rng.choice([1.0, 0.5], size)
            values = real + 1j * imag
            assert list(steady._descending_order(values, 1.0)) == loop_order(values)
            assert list(steady._descending_order(real, 1.0)) == loop_order(real)

    # the tie tolerance scales with ||L||_inf; unscaled, c = 1e-9 split the
    # -1.5594 +/- 20.62i pair on both routes and promoted -1.5596 + 20.617i
    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_order_is_scale_invariant(self, cascade_liouvillian, method, monkeypatch):
        force_route(monkeypatch, "spectrum", method)
        reference = spectrum(cascade_liouvillian, 5).eigenvalues
        for c in (1e-9, 1e3):
            values = spectrum(c * cascade_liouvillian, 5).eigenvalues
            assert np.abs(values / c - reference).max() < 1e-9

    def test_k_range(self):
        liouv = build_liouvillian(qubit_decay_model())
        with pytest.raises(ValueError):
            spectrum(liouv, 0)
        with pytest.raises(ValueError):
            spectrum(liouv, 5)


def driven_emitter_model(d, rng):
    """Driven d-level ladder with decay: unique steady state for any d."""
    layout = single_space(d, "q")
    ladder = np.diag(np.ones(d - 1), 1)
    hamiltonian = Operator(layout, ladder + ladder.T + np.diag(rng.uniform(-1, 1, d)))
    return LindbladModel(hamiltonian, [(1.0, Operator(layout, ladder))])


class TestSparseStorage:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_methods_accept_sparse_generators(self, method):
        liouv = build_liouvillian(driven_qubit_model(1.0, 1.0))
        assert isinstance(liouv.matrix, sp.csr_array)
        rho = method(liouv).rho.to_dense()
        assert rho[1, 1].real == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_cascade_sparse_reports_zero_eigenvalue(self, cascade_sparse):
        result, _ = cascade_sparse
        assert abs(result.eigenvalue) < 1e-10

    def test_cascade_sparse_lr_spectrum(self, cascade_liouvillian):
        # Arnoldi largest-real-part iteration at full size, against the
        # dense-route values
        result = spectrum(cascade_liouvillian, 5)
        assert result.policy.route == "sparse"
        values = result.eigenvalues
        assert np.allclose(
            values.real, [0.0, -1.0631, -1.5594, -1.5594, -1.5596], atol=5e-3
        )
        assert abs(values[0]) < 1e-10
        assert sorted(np.round(np.abs(values.imag), 2)) == pytest.approx(
            [0.0, 0.0, 20.62, 20.62, 20.62], abs=0.01
        )


class TestArpackFailures:
    """The ARPACK failure paths, reached by stand-ins for ``scipy.sparse.linalg.eigs``
    and ``steady._superlu``."""

    @staticmethod
    def liouvillian():
        return build_liouvillian(driven_emitter_model(3, np.random.default_rng(3)))  # n = 9

    @staticmethod
    def shifted(liouv, shift):
        """R - shift ||L||_inf I, computed as steady_sparse computes it."""
        n = liouv.dim
        return _real_generator(liouv) - shift * liouv.norm_inf() * sp.eye_array(n, format="csr")

    def test_sparse_retries_at_the_next_shift(self, monkeypatch):
        liouv = self.liouvillian()
        reference = steady_sparse(liouv)
        assert reference.diagnostics["shift"] == 1e-10
        real_superlu, real_eigs = steady._superlu, spla.eigs
        factored, sigmas = [], []

        def singular_once(matrix):
            factored.append(matrix.toarray())
            if len(factored) == 1:
                raise RuntimeError("Factor is exactly singular")
            return real_superlu(matrix)

        def record_sigma(matrix, **kwargs):
            sigmas.append(kwargs["sigma"])
            return real_eigs(matrix, **kwargs)

        monkeypatch.setattr(steady, "_superlu", singular_once)
        monkeypatch.setattr(steady.spla, "eigs", record_sigma)
        result = steady_sparse(liouv)
        assert len(factored) == 2
        for matrix, shift in zip(factored, (1e-10, 1e-7)):
            assert np.array_equal(matrix, self.shifted(liouv, shift).toarray())
        # ARPACK runs at the shift whose factors it applies
        assert sigmas == [1e-7 * liouv.norm_inf()]
        assert result.diagnostics["shift"] == 1e-7
        assert np.abs(result.rho.to_dense() - reference.rho.to_dense()).max() < 1e-10

    def test_sparse_gives_up_after_three_shifts(self, monkeypatch):
        liouv = self.liouvillian()
        factored = []

        def always_singular(matrix):
            factored.append(matrix.toarray())
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(steady, "_superlu", always_singular)
        with pytest.raises(ConvergenceError, match="could not factorize the shifted generator: "
                           "Factor is exactly singular"):
            steady_sparse(liouv)
        assert len(factored) == 3
        for matrix, shift in zip(factored, (1e-10, 1e-7, 1e-4)):
            assert np.array_equal(matrix, self.shifted(liouv, shift).toarray())

    @pytest.mark.parametrize("solve,message", [
        (steady_sparse, "shift-inverted Arnoldi did not converge"),
        (lambda liouv: spectrum(liouv, 3), "Arnoldi largest-real-part iteration did not converge"),
    ])
    def test_no_convergence_is_a_convergence_error(self, monkeypatch, solve, message):
        def never_converges(matrix, **kwargs):
            raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(steady.spla, "eigs", never_converges)
        force_route(monkeypatch, "spectrum", "sparse")
        with pytest.raises(ConvergenceError, match=message):
            solve(self.liouvillian())


class TestUniqueness:
    def test_qubit_decay_unique(self):
        report = check_uniqueness(build_liouvillian(qubit_decay_model()))
        assert report.unique
        assert abs(report.lambda0) < 1e-12
        assert report.lambda1.real == pytest.approx(-1.0, abs=1e-10)

    def test_cascade_benchmark_unique(self, cascade_liouvillian):
        report = check_uniqueness(cascade_liouvillian)  # ARPACK by size
        assert report.unique
        assert abs(report.lambda0) < 1e-10
        assert report.lambda1.real == pytest.approx(-1.0631, abs=5e-3)

    def test_one_level_model_has_no_second_eigenvalue(self):
        layout = single_space(1, "q")
        model = LindbladModel(Operator(layout, np.zeros((1, 1))))
        assert check_uniqueness(build_liouvillian(model)) == GapReport(0j, None, True)

    def test_hamiltonian_only_never_unique(self):
        rng = np.random.default_rng(53)
        layout = single_space(3, "q")
        model = LindbladModel(Operator(layout, random_hermitian(rng, 3)))
        report = check_uniqueness(build_liouvillian(model))
        assert not report.unique

    # the gap tolerance scales with ||L||_inf; unscaled, c = 1e-8 made both
    # eigenvector routes refuse the emitter and c = 1e8 reported it not unique
    @pytest.mark.parametrize("c", [1e-8, 1e-3, 1e3, 1e8])
    def test_gap_tolerance_scales_with_the_generator(self, c, monkeypatch):
        liouv = c * build_liouvillian(driven_emitter_model(6, np.random.default_rng(6)))
        dense = steady_dense(liouv).rho.to_dense()
        assert np.abs(steady_sparse(liouv).rho.to_dense() - dense).max() < 1e-10
        for method in ("dense", "sparse"):
            force_route(monkeypatch, "spectrum", method)
            assert check_uniqueness(liouv).unique
        degenerate = c * build_liouvillian(dephasing_model(3))
        for route in (steady_dense, steady_sparse):
            with pytest.raises(DegeneracyError):
                route(degenerate)
        for method in ("dense", "sparse"):
            force_route(monkeypatch, "spectrum", method)
            assert not check_uniqueness(degenerate).unique


class TestRoutePolicy:
    """Each branch of the route policy, driven by problem size alone."""

    @pytest.mark.parametrize("d,route", [(14, "dense"), (15, "sparse")])  # n = 196, 225
    def test_spectrum_route_by_size(self, d, route, monkeypatch):
        liouv = build_liouvillian(driven_emitter_model(d, np.random.default_rng(d)))
        result = spectrum(liouv, 4)
        assert result.policy.route == route
        assert result.policy == choose_route("spectrum", liouv.dim, 4)
        force_route(monkeypatch, "spectrum", "dense" if route == "sparse" else "sparse")
        reference = spectrum(liouv, 4)
        assert np.allclose(result.eigenvalues, reference.eigenvalues, atol=1e-8)

    # n = 225: the cut 5 max(3(k - 1), 40) is 210 for k = 15 and 285 for k = 20
    @pytest.mark.parametrize("k,route", [(15, "sparse"), (20, "dense")])
    def test_spectrum_route_by_count(self, k, route, monkeypatch):
        liouv = build_liouvillian(driven_emitter_model(15, np.random.default_rng(15)))
        result = spectrum(liouv, k)
        assert result.policy == choose_route("spectrum", liouv.dim, k)
        assert result.policy.route == route
        force_route(monkeypatch, "spectrum", "dense" if route == "sparse" else "sparse")
        reference = spectrum(liouv, k)
        assert np.allclose(result.eigenvalues, reference.eigenvalues, atol=1e-8)

    @pytest.mark.parametrize("d,route", [(19, "dense"), (20, "sparse"), (32, "gmres")])
    def test_linsolve_route_by_size(self, d, route):  # n = 361, 400, 1024
        liouv = build_liouvillian(driven_emitter_model(d, np.random.default_rng(d)))
        result = steady_linsolve(liouv)
        assert result.diagnostics["linsolve_policy"]["route"] == route
        assert result.diagnostics["linsolve_policy"] == choose_route("linsolve", liouv.dim)._asdict()
        assert ("lu_nnz" in result.diagnostics) == (route == "sparse")
        assert result.policy is None  # steady_state records the steady choice
        assert result.residual < 1e-10
        reference = steady_sparse(liouv).rho.to_dense()
        assert np.abs(result.rho.to_dense() - reference).max() < 1e-9

    def test_sparse_condition_estimate_within_factor_three(self, monkeypatch):
        # cascade n_a = 3, n_b = 1: n = 576, on the SuperLU branch
        liouv = build_liouvillian(cascade_model(CascadeParams(n_a=3, n_b=1)))
        assert choose_route("linsolve", liouv.dim).route == "sparse"
        d = liouv.layout.total_dim
        replaced = _real_generator(liouv).toarray()
        replaced[0] = 0.0
        replaced[0, np.arange(d) * (d + 1)] = 1.0
        exact = np.linalg.cond(replaced, 1)
        # the route refuses an estimate above the limit: it passes at cond_1 and
        # fails at cond_1 / 3; onenormest with one column (t = 1) draws nothing
        # at random, so the seeds here do not change the estimate
        monkeypatch.setattr(steady, "_COND_LIMIT", exact * (1 + 1e-9))
        np.random.seed(576)
        steady_linsolve(liouv)
        monkeypatch.setattr(steady, "_COND_LIMIT", exact / 3)
        np.random.seed(576)
        with pytest.raises(DegeneracyError, match="ill-conditioned"):
            steady_linsolve(liouv)

    def test_sparse_condition_estimate_leaves_global_random_state(self):
        # onenormest draws its start vectors from numpy's global random state
        liouv = build_liouvillian(cascade_model(CascadeParams(n_a=3, n_b=1)))
        np.random.seed(576)
        expected = np.random.random(3)
        np.random.seed(576)
        assert steady_linsolve(liouv).diagnostics["lu_nnz"] > 0  # the SuperLU branch
        assert np.array_equal(np.random.random(3), expected)

    def test_both_sparse_routes_factor_through_one_superlu_setup(self, monkeypatch):
        # the solve's SuperLU branch (n = 576) and the shift-inverted ARPACK
        # (n = 144) factor through steady._superlu, with the same options
        factored, options = [], []
        real_superlu, real_splu = steady._superlu, spla.splu

        def record_superlu(matrix):
            factored.append(matrix.shape[0])
            return real_superlu(matrix)

        def record_splu(matrix, **kwargs):
            options.append((matrix.format, kwargs))
            return real_splu(matrix, **kwargs)

        monkeypatch.setattr(steady, "_superlu", record_superlu)
        monkeypatch.setattr(steady.spla, "splu", record_splu)
        solve = steady_linsolve(build_liouvillian(cascade_model(CascadeParams(n_a=3, n_b=1))))
        sparse = steady_sparse(build_liouvillian(cascade_model(CascadeParams(n_a=1, n_b=1))))
        assert factored == [576, 144]
        assert len(options) == 2 and options[0] == options[1]
        assert options[0] == ("csc", {
            "permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.1, "relax": 1,
            "options": {"SymmetricMode": True},
        })
        assert solve.diagnostics["lu_nnz"] > 0
        assert set(sparse.diagnostics) == {"lu_nnz", "shift", "arpack_solves"}
        assert sparse.diagnostics["lu_nnz"] > 0 and sparse.diagnostics["arpack_solves"] > 0
        assert sparse.diagnostics["shift"] == 1e-10

    def test_sparse_lu_matches_dense_lu_on_corpus(self, monkeypatch):
        liouvs = [build_liouvillian(model) for model in random_corpus()]
        dense = [steady_linsolve(liouv) for liouv in liouvs]
        force_route(monkeypatch, "linsolve", "sparse")
        for liouv, reference in zip(liouvs, dense):
            assert reference.diagnostics["linsolve_policy"]["route"] == "dense"
            result = steady_linsolve(liouv)
            assert result.diagnostics["linsolve_policy"] == {"route": "sparse", "reason": "forced"}
            gap = np.abs(result.rho.to_dense() - reference.rho.to_dense()).max()
            assert gap < 1e-12

    def test_default_cascade_top5_matches_dense(self, cascade_liouvillian, cascade_top5):
        assert cascade_top5.policy == ("dense", "forced")
        default = spectrum(cascade_liouvillian, 5)
        assert default.policy == ("sparse", "spectrum: n=2025 >= 200")
        assert np.allclose(default.eigenvalues, cascade_top5.eigenvalues, rtol=0, atol=1e-8)


def _normalized(vec, d):
    rho = vec.reshape((d, d), order="F")
    rho = rho / np.trace(rho)
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def complex_dense_reference(liouv):
    """Leading eigenvector of the complex generator, by full ``eig``."""
    values, vectors = np.linalg.eig(liouv.to_dense())
    return _normalized(vectors[:, np.argmax(values.real)], liouv.layout.total_dim)


def complex_sparse_reference(liouv):
    """Shift-inverted ARPACK on the complex generator, with the library's settings."""
    n = liouv.dim
    sigma = 1e-10 * max(1.0, liouv.norm_inf())
    values, vectors = spla.eigs(
        liouv.matrix.tocsc(), k=2, sigma=sigma, which="LM",
        v0=np.ones(n) / np.sqrt(n), tol=1e-12, maxiter=10 * n, ncv=min(n, 40),
    )
    return _normalized(vectors[:, np.argmin(np.abs(values))], liouv.layout.total_dim)


def complex_linsolve_reference(liouv):
    """Complex row-replaced system: row of rho_11 set to gamma vec(I)^T, gamma = ||L||_inf / d."""
    d = liouv.layout.total_dim
    gamma = (liouv.norm_inf() or 1.0) / d
    replaced = liouv.to_dense()
    replaced[0, :] = 0.0
    replaced[0, np.arange(d) * (d + 1)] = gamma
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = gamma
    return _normalized(np.linalg.solve(replaced, rhs), d)


def dephasing_model(d):
    # diagonal H and a diagonal jump: every diagonal state is steady
    layout = single_space(d, "q")
    levels = np.diag(np.arange(float(d)))
    return LindbladModel(Operator(layout, levels), [(0.5, Operator(layout, levels))])


class TestRealBasis:
    """The routes factor the Hermitian-basis generator R = T^dag L T."""

    def test_basis_is_unitary_and_generator_real(self):
        rng = np.random.default_rng(80)
        liouv = build_liouvillian(random_model(rng, 4, 2))
        real, basis = _real_generator(liouv), _hermitian_basis(4)[0]
        assert real.format == "csr" and real.has_sorted_indices and real.dtype == np.float64
        assert real.data.flags.c_contiguous
        assert np.diff(basis.indptr).max() == 2
        assert np.abs((basis.conj().T @ basis).toarray() - np.eye(16)).max() < 1e-15
        reference = basis.conj().T.toarray() @ liouv.to_dense() @ basis.toarray()
        assert np.abs(real.toarray() - reference).max() < 1e-13 * liouv.norm_inf()

    def test_rejects_generator_that_breaks_hermiticity(self, monkeypatch):
        liouv = build_liouvillian(driven_qubit_model(1.0, 1.0))
        with pytest.raises(ValueError, match="Hermiticity"):
            _real_generator(1j * liouv)
        for method in ALL_METHODS:
            with pytest.raises(ValueError, match="Hermiticity"):
                method(1j * liouv)
        for route in ("dense", "sparse"):
            force_route(monkeypatch, "spectrum", route)
            with pytest.raises(ValueError, match="Hermiticity"):
                spectrum(1j * liouv, 1)
            with pytest.raises(ValueError, match="Hermiticity"):
                check_uniqueness(1j * liouv)
            force_route(monkeypatch, "evolve", route)
            with pytest.raises(ValueError, match="Hermiticity"):
                evolve_trajectory(1j * liouv, Operator(liouv.layout, np.eye(2) / 2), [1.0])

    def test_routes_match_complex_formulas_on_corpus(self):
        worst = 0.0
        for model in random_corpus():
            liouv = build_liouvillian(model)
            # steady_sparse runs dense eig below n = 5, too small for ARPACK
            sparse_reference = complex_sparse_reference if liouv.dim >= 5 else complex_dense_reference
            for method, reference in (
                (steady_dense, complex_dense_reference),
                (steady_sparse, sparse_reference),
                (steady_linsolve, complex_linsolve_reference),
            ):
                gap = np.abs(method(liouv).rho.to_dense() - reference(liouv)).max()
                worst = max(worst, gap)
        assert worst < 1e-12

    # the row of rho_11 and gamma = ||L||_inf / d, which the route derives from L
    @pytest.mark.parametrize("route", ["dense", "sparse"])
    def test_linsolve_row_and_gamma_match_complex_system(self, route, monkeypatch):
        force_route(monkeypatch, "linsolve", route)
        rng = np.random.default_rng(81)
        liouv = build_liouvillian(random_model(rng, 5, 2))
        for c in (1e-3, 1.0, 250.0):
            result = steady_linsolve(c * liouv)
            assert result.diagnostics["linsolve_policy"]["route"] == route
            reference = complex_linsolve_reference(c * liouv)
            assert np.abs(result.rho.to_dense() - reference).max() < 1e-12

    # n = 4 (dense branch of steady_sparse), 9, 144, 400 (ARPACK error 3 on the sparse route)
    @pytest.mark.parametrize("d", [2, 3, 12, 20])
    @pytest.mark.parametrize(  # "iterative": the solve's GMRES branch
        "method", ["dense", "sparse", "linsolve-dense", "linsolve-sparse", "iterative"]
    )
    def test_degenerate_model_on_every_route(self, d, method, monkeypatch):
        liouv = build_liouvillian(dephasing_model(d))
        if method == "iterative":
            solver = steady_gmres
        elif method.startswith("linsolve"):
            force_route(monkeypatch, "linsolve", method.split("-")[1])
            solver = steady_linsolve
        else:
            solver = steady_dense if method == "dense" else steady_sparse
        with pytest.raises(DegeneracyError):
            solver(liouv)


DRIVEN_QUBIT_METHODS = [*ALL_METHODS, steady_gmres]


class TestPositivity:
    def test_state_records_its_smallest_eigenvalue(self):
        liouv = build_liouvillian(driven_qubit_model(1.0, 1.0))
        for method in DRIVEN_QUBIT_METHODS:
            result = method(liouv)
            expected = np.linalg.eigvalsh(result.rho.to_dense()).min()
            assert result.min_eigenvalue == expected
            assert result.min_eigenvalue > 0.0

    def test_hermiticity_defect_is_the_discarded_part(self):
        liouv = build_liouvillian(driven_qubit_model(1.0, 1.0))
        # rho = T x with real x is Hermitian to the last bit
        for method in ALL_METHODS:
            assert method(liouv).hermiticity_defect == 0.0
        assert steady_gmres(liouv).hermiticity_defect < 1e-12
        raw = np.array([[1.2, 0.2], [0.6, 0.8]], dtype=complex)  # trace 2
        result = steady._finalize(liouv, raw, None)
        assert result.hermiticity_defect == pytest.approx(0.1, abs=1e-15)
        assert np.allclose(result.rho.to_dense(), [[0.6, 0.2], [0.2, 0.4]], atol=1e-15)

    @pytest.mark.parametrize("method", DRIVEN_QUBIT_METHODS)
    def test_non_positive_state_is_refused(self, method, monkeypatch):
        # rho_22 = -rho_11 / 2 in the raw solver output: eigenvalue -1 after normalization
        finalize = steady._finalize

        def tampered(liouv, rho, *args):
            rho = rho.copy()
            rho[1, 1] = -0.5 * rho[0, 0]
            return finalize(liouv, rho, *args)

        monkeypatch.setattr(steady, "_finalize", tampered)
        liouv = build_liouvillian(driven_qubit_model(1.0, 1.0))
        with pytest.raises(ConvergenceError, match="not a density matrix"):
            method(liouv)


def relabelled(model, order):
    """The model on one space whose level j is level ``order[j]`` of ``model``."""
    layout = single_space(model.layout.total_dim)
    permuted = lambda op: Operator(layout, op.matrix[np.ix_(order, order)])
    return LindbladModel(permuted(model.hamiltonian),
                         [(rate, permuted(jump)) for rate, jump in model.dissipators])


class TestIterative:
    """The solve's GMRES branch, preconditioned by the inverse no-jump Sylvester operator."""

    def test_decaying_qubit_needs_the_shift(self):
        # H = 0: the ground state is an undamped no-jump state, S is singular
        liouv = build_liouvillian(qubit_decay_model())
        result = steady_gmres(liouv)
        assert np.allclose(result.rho.to_dense(), np.diag([1.0, 0.0]), atol=1e-12)
        assert result.eigenvalue is None
        assert result.diagnostics["linsolve_policy"] == {"route": "gmres", "reason": "forced"}
        shift = result.diagnostics["sylvester_shift"]
        assert shift == pytest.approx(steady._SYLVESTER_SHIFT * liouv.norm_inf())

    def test_driven_qubit_needs_no_shift(self):
        # the drive mixes the ground state into the damped one: no real eigenvalue
        result = steady_gmres(build_liouvillian(driven_qubit_model(1.0, 1.0)))
        assert result.diagnostics["sylvester_shift"] == 0.0

    def test_corpus_matches_linsolve(self):
        worst = 0.0
        for model in random_corpus():
            liouv = build_liouvillian(model)
            result = steady_gmres(liouv)
            reference = steady_linsolve(liouv).rho.to_dense()
            worst = max(worst, np.abs(result.rho.to_dense() - reference).max())
            assert result.residual < 1e-10 * liouv.norm_inf()
            assert result.trace_before_normalization == pytest.approx(1.0, abs=1e-10)
        assert worst < 1e-10

    def test_cascade_matches_sparse_route(self, cascade_liouvillian, cascade_sparse):
        # n = 2025: the solve runs GMRES by size
        result = steady_linsolve(cascade_liouvillian)
        reference = cascade_sparse[0].rho.to_dense()
        assert np.abs(result.rho.to_dense() - reference).max() < 1e-10
        assert result.residual < 1e-10
        diagnostics = result.diagnostics
        assert diagnostics["linsolve_policy"] == {"route": "gmres", "reason": "linsolve: n=2025 >= 1024"}
        assert diagnostics["sylvester_shift"] == 0.0
        assert diagnostics["preconditioner"] == "eig"
        assert 0 < diagnostics["gmres_iterations"] <= 40
        assert diagnostics["gmres_relative_residual"] <= steady._GMRES_RTOL
        assert diagnostics["state_difference"] < 1e-10
        assert steady_linsolve(cascade_liouvillian).diagnostics == diagnostics
        # relabelled so that level 0 is the least-populated (p ~ 2e-16): the
        # replaced row follows the level, and so do the iterations
        populations = np.diag(reference).real
        order = np.argsort(populations)
        assert populations[order[0]] < 1e-15
        model = relabelled(cascade_model(CascadeParams()), order)
        moved = steady_linsolve(build_liouvillian(model))
        assert moved.diagnostics["replaced_level"] == int(np.argsort(order)[diagnostics["replaced_level"]])
        assert moved.diagnostics["gmres_iterations"] == diagnostics["gmres_iterations"]
        assert np.abs(moved.rho.to_dense() - reference[np.ix_(order, order)]).max() < 1e-10

    @pytest.mark.parametrize("omega,form", [(0.5, "schur"), (0.51, "eig"), (1.0, "eig")])
    def test_exceptional_point_takes_the_schur_form(self, omega, form):
        # H_eff of the qubit driven at omega = rate / 2 is a Jordan block: kappa_1(V) = 8.5e7
        liouv = build_liouvillian(driven_qubit_model(omega, 1.0))
        result = steady_gmres(liouv)
        assert result.diagnostics["preconditioner"] == form
        reference = steady_linsolve(liouv).rho.to_dense()
        assert np.abs(result.rho.to_dense() - reference).max() < 1e-12

    def test_eig_form_stagnates_at_the_exceptional_point(self, monkeypatch):
        monkeypatch.setattr(steady, "_EIG_COND_LIMIT", np.inf)
        with pytest.raises(ConvergenceError, match="stagnated"):
            steady_gmres(build_liouvillian(driven_qubit_model(0.5, 1.0)))

    def test_singular_eigenvectors_take_the_schur_form(self, monkeypatch):
        def singular(_):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(steady.np.linalg, "inv", singular)
        result = steady_gmres(build_liouvillian(driven_qubit_model(1.0, 1.0)))
        assert result.diagnostics["preconditioner"] == "schur"

    def test_preconditioner_forms_agree_on_corpus(self, monkeypatch):
        states = {}
        for limit, form in ((np.inf, "eig"), (0.0, "schur")):
            monkeypatch.setattr(steady, "_EIG_COND_LIMIT", limit)
            states[form] = []
            for model in random_corpus():
                result = steady_gmres(build_liouvillian(model))
                assert result.diagnostics["preconditioner"] == form
                states[form].append(result.rho.to_dense())
        worst = max(np.abs(a - b).max() for a, b in zip(states["eig"], states["schur"]))
        assert worst < 1e-12

    def test_weight_sits_on_the_least_damped_level(self):
        # H_eff = diag(0, -i): the ground state is undamped, the excited one decays
        result = steady_gmres(build_liouvillian(qubit_decay_model()))
        assert (result.diagnostics["replaced_level"], result.diagnostics["check_level"]) == (0, 1)
        flipped = LindbladModel(
            Operator(single_space(2, "q"), np.zeros((2, 2))),
            [(1.0, Operator(single_space(2, "q"), transition(2, 2, 1)))],
        )
        result = steady_gmres(build_liouvillian(flipped))
        assert (result.diagnostics["replaced_level"], result.diagnostics["check_level"]) == (1, 0)
        assert np.allclose(result.rho.to_dense(), np.diag([0.0, 1.0]), atol=1e-12)

    def test_decoupled_driven_qubits_are_degenerate(self):
        with pytest.raises(DegeneracyError, match="replaced rows"):
            steady_gmres(build_liouvillian(decoupled_driven_qubits()))

    def test_degenerate_hamiltonian_only(self):
        with pytest.raises(DegeneracyError, match="replaced rows"):
            steady_gmres(build_liouvillian(degenerate_model()))

    # gamma scales with ||L||_inf and c * L scales K: c * L alone, with no rescaled
    # model, gives the same state, iterations, rows and verdict
    @pytest.mark.parametrize("c", [1e-8, 1e-3, 1e3, 1e8])
    def test_scale_invariance(self, c):
        for model in (driven_emitter_model(6, np.random.default_rng(6)), qubit_decay_model()):
            liouv = build_liouvillian(model)
            reference = steady_gmres(liouv)
            result = steady_gmres(c * liouv)
            assert np.abs(result.rho.to_dense() - reference.rho.to_dense()).max() < 1e-12
            counts = ("gmres_iterations", "check_iterations", "preconditioner",
                      "replaced_level", "check_level")
            assert [result.diagnostics[key] for key in counts] == [
                reference.diagnostics[key] for key in counts
            ]
        with pytest.raises(DegeneracyError):
            steady_gmres(c * build_liouvillian(dephasing_model(3)))

    def test_stagnation_raises(self, monkeypatch):
        monkeypatch.setattr(steady, "_GMRES_RESTART", 2)
        monkeypatch.setattr(steady, "_GMRES_CYCLES", 1)
        liouv = build_liouvillian(driven_emitter_model(6, np.random.default_rng(6)))
        with pytest.raises(ConvergenceError, match="stagnated"):
            steady_gmres(liouv)

    def test_loose_solution_is_refused(self, monkeypatch):
        # GMRES meets its own (loosened) tolerance; the true ||L x|| does not
        monkeypatch.setattr(steady, "_GMRES_RTOL", 1e-4)
        liouv = build_liouvillian(driven_emitter_model(6, np.random.default_rng(6)))
        with pytest.raises(ConvergenceError, match="solution has residual"):
            steady_gmres(liouv)


class TestSparseSpectrumManyEigenvalues:
    def test_top20_matches_dense(self, monkeypatch):
        # n = 900: with the old restart dimension 41 ARPACK returned a wrong top 20
        liouv = build_liouvillian(cascade_model(CascadeParams(n_a=4, n_b=1)))
        assert liouv.dim == 900
        sparse = spectrum(liouv, 20)
        assert sparse.policy == ("sparse", "spectrum: n=900 >= 285 for k=20")
        force_route(monkeypatch, "spectrum", "dense")
        dense = spectrum(liouv, 20)
        # the 20th is one member of a conjugate pair that k = 20 splits; both
        # routes keep the +imag member, whichever one ARPACK converged to
        assert np.abs(sparse.eigenvalues - dense.eigenvalues).max() < 1e-10
        assert sparse.eigenvalues[19].imag > 0

    # the pair test at the cut is relative to ||L||_inf; relative to
    # max(1, |lambda_k|) it kept ARPACK's -imag member at c = 1e-10
    @pytest.mark.parametrize("c", [1e-10, 1.0, 1e8])
    def test_split_pair_under_scaling(self, c, monkeypatch):
        liouv = build_liouvillian(cascade_model(CascadeParams(n_a=3, n_b=1)))
        force_route(monkeypatch, "spectrum", "dense")
        reference = spectrum(liouv, 4).eigenvalues
        assert reference[2] == pytest.approx(reference[3].conjugate(), abs=1e-10)
        assert reference[2].imag > 1.0
        for route in ("dense", "sparse"):
            force_route(monkeypatch, "spectrum", route)
            values = spectrum(c * liouv, 3).eigenvalues
            assert np.abs(values / c - reference[:3]).max() < 1e-8

    def test_split_pair_keeps_positive_member(self, monkeypatch):
        # ARPACK returning the -imag member of a pair its request splits, as it
        # did with two BLAS threads on the cascade above.  It sees R on the
        # trace-zero coordinates (shifted), so it returns the leading
        # eigenvalues of the operator it is given, the values after the 0
        liouv = build_liouvillian(driven_emitter_model(4, np.random.default_rng(4)))
        dense = spectrum(liouv, 16).eigenvalues  # n = 16: dense by size
        asked = []

        def arpack(operator, k, **kwargs):
            asked.append(k)
            values = np.linalg.eigvals(operator @ np.eye(operator.shape[0]))
            values = values[steady._descending_order(values, 1.0)[:k]]
            if not np.isclose(values[:-1], values[-1].conjugate()).any():
                values[-1] = values[-1].conjugate()
            return values[::-1]  # each complete pair -imag member first

        monkeypatch.setattr(steady.spla, "eigs", arpack)
        force_route(monkeypatch, "spectrum", "sparse")
        # the spectrum's values 3-4, 6-7, 8-9 and 13-14 are conjugate pairs, so
        # each cut keeps one member.  Up to k = 7 the request of 7 values
        # completes the pair; from k = 8 it asks for k - 1 and ends inside it
        for cut, requested in ((3, 7), (6, 7), (8, 7), (13, 12)):
            assert dense[cut - 1].imag > 1e-6 and dense[cut].imag < -1e-6
            asked.clear()
            values = spectrum(liouv, cut).eigenvalues
            assert asked == [requested]
            assert np.abs(values - dense[:cut]).max() < 1e-12, cut


def spy_eigs(monkeypatch):
    """Record the number of values each ``eigs`` call of :mod:`meq.steady` asks
    for; returns the list, updated as the calls run."""
    asked, eigs = [], spla.eigs

    def spy(operator, k, **kwargs):
        asked.append(k)
        return eigs(operator, k, **kwargs)

    monkeypatch.setattr(steady.spla, "eigs", spy)
    return asked


class TestSparseSpectrumRequest:
    """The sparse route asks ARPACK for max(k - 1, 7) values of R|W, at most
    n - 3 and one for k = 2, and keeps the leading k - 1."""

    # the benchmark's n = 324 cascade and its n = 225 sweep shape (3, (5,))
    @pytest.mark.parametrize("index,n", [(12, 324), (9, 225)])
    def test_matches_dense_for_k_2_to_10(self, index, n, monkeypatch):
        liouv = build_liouvillian(benchmark_models()[index])
        assert liouv.dim == n
        force_route(monkeypatch, "spectrum", "dense")
        dense = spectrum(liouv, 10).eigenvalues
        force_route(monkeypatch, "spectrum", "sparse")
        for k in range(2, 11):
            values = spectrum(liouv, k).eigenvalues
            assert np.abs(values - dense[:k]).max() < 1e-12 * liouv.norm_inf(), k

    # n = 9, 16: the n - 3 cap binds below the 7 at n = 9
    @pytest.mark.parametrize("d,asks", [
        (3, [1, 6, 6, 6, 6, 6]),
        (4, [1, 7, 7, 7, 7, 7, 7, 8, 9, 10, 11, 12, 13]),
    ])
    def test_forced_sparse_every_k_at_small_n(self, d, asks, monkeypatch):
        # up to k = n - 2, the most values of R|W that eigs accepts plus the 0
        liouv = build_liouvillian(driven_emitter_model(d, np.random.default_rng(4)))
        n = liouv.dim
        dense = spectrum(liouv, n).eigenvalues
        asked = spy_eigs(monkeypatch)
        force_route(monkeypatch, "spectrum", "sparse")
        for k in range(1, n - 1):
            values = spectrum(liouv, k).eigenvalues
            assert np.abs(values - dense[:k]).max() < 1e-12 * liouv.norm_inf(), k
        assert asked == asks

    def test_one_value_for_k_2(self, monkeypatch):
        liouv = build_liouvillian(cascade_model(CascadeParams(n_a=2, n_b=1)))  # n = 324
        asked = spy_eigs(monkeypatch)
        assert check_uniqueness(liouv).unique
        assert spectrum(liouv, 2).policy.route == "sparse"
        assert asked == [1, 1]

    def test_request_past_the_cluster_takes_fewer_products(self, monkeypatch):
        # counts compared within one run: another ARPACK build may count otherwise.
        # On the cascade the request of k - 1 = 2 or 4 values ends inside the
        # cluster of two conjugate pairs after -1.063
        liouv = build_liouvillian(cascade_model(CascadeParams(n_a=2, n_b=1)))  # n = 324
        counts = {k: spectrum(liouv, k).diagnostics["arpack_matvecs"] for k in range(3, 9)}
        assert len(set(counts.values())) == 1  # one request of 7 values
        monkeypatch.setattr(steady, "_ARPACK_MIN_REQUEST", 1)  # ask for k - 1 values
        for k in (3, 5):
            assert spectrum(liouv, k).diagnostics["arpack_matvecs"] > counts[k], k


def _route_result(liouv, route):
    """The result of the route function that ``route`` names, called directly."""
    return getattr(steady, STEADY_ROUTES[route])(liouv)


def _assert_same_result(result, direct, policy):
    """``result`` is ``direct`` to the last bit, with ``policy`` recorded."""
    assert result.policy == policy
    assert direct.policy is None
    assert np.array_equal(result.rho.matrix, direct.rho.matrix)
    for field in ("residual", "trace_before_normalization", "min_eigenvalue",
                  "hermiticity_defect", "eigenvalue", "diagnostics"):
        assert getattr(result, field) == getattr(direct, field), field


DEFAULT_STEADY = ("solve", "steady: the row-replacement solve at every n")


class TestSteadyState:
    """``steady_state`` runs the route the size policy or ``method`` picks, and
    records the choice in ``policy``."""

    @pytest.mark.parametrize("na,nb,route", [
        (None, None, "solve"), (2, 1, "solve"), (3, 1, "solve"), (3, 2, "solve"),
    ])  # n = 4, 324, 576 (SuperLU), 1296 (GMRES)
    def test_default_route_by_size(self, na, nb, route):
        model = (driven_qubit_model(1.0, 1.0) if na is None
                 else cascade_model(CascadeParams(n_a=na, n_b=nb)))
        liouv = build_liouvillian(model)
        _assert_same_result(steady_state(liouv), _route_result(liouv, route), DEFAULT_STEADY)

    @pytest.mark.parametrize("method", list(STEADY_ROUTES))
    @pytest.mark.parametrize("na,nb", [(None, None), (2, 1)])  # n = 4, 324
    def test_requested_route(self, method, na, nb):
        model = (driven_qubit_model(1.0, 1.0) if na is None
                 else cascade_model(CascadeParams(n_a=na, n_b=nb)))
        liouv = build_liouvillian(model)
        _assert_same_result(steady_state(liouv, method), _route_result(liouv, method),
                            (method, "requested"))

    def test_corpus(self):
        for model in random_corpus():
            liouv = build_liouvillian(model)
            _assert_same_result(steady_state(liouv), steady_linsolve(liouv), DEFAULT_STEADY)
            for method in STEADY_ROUTES:
                _assert_same_result(steady_state(liouv, method), _route_result(liouv, method),
                                    (method, "requested"))

    def test_bad_method(self):
        liouv = build_liouvillian(driven_qubit_model(1.0, 1.0))
        for method in ("linsolve", "iterative", "gmres"):
            with pytest.raises(ValueError, match="method must be"):
                steady_state(liouv, method)

    @pytest.mark.parametrize("na,nb,method,route", [
        (1, 1, None, "solve"), (1, 1, "dense", "dense"), (1, 1, "sparse", "sparse"),
        (1, 1, "solve", "solve"), (3, 2, None, "solve"),
    ])  # n = 144, 1296
    def test_each_route_function_runs_once(self, na, nb, method, route, monkeypatch):
        # the benchmark's tracer replaces these module attributes with wrappers
        counts = count_route_calls(monkeypatch)
        model = cascade_model(CascadeParams(n_a=na, n_b=nb))
        assert steady_state(build_liouvillian(model), method).policy.route == route
        assert counts == {name: int(name == route) for name in STEADY_ROUTES}

    def test_small_sparse_request_runs_only_the_sparse_route(self, monkeypatch):
        # n = 4 is too small for ARPACK: the sparse route takes the eigenvector
        # densely, but does not count as a call of the dense route
        counts = count_route_calls(monkeypatch)
        liouv = build_liouvillian(driven_qubit_model(1.0, 1.0))
        assert steady_state(liouv, "sparse").policy.route == "sparse"
        assert counts == {name: int(name == "sparse") for name in STEADY_ROUTES}


class TestTraceDeflation:
    """Spectra run on R restricted to the trace-zero coordinates W and add the exact 0."""

    @pytest.mark.parametrize("route", ["dense", "sparse"])
    def test_spectrum_is_zero_and_the_restricted_spectrum_on_corpus(self, route, monkeypatch):
        force_route(monkeypatch, "spectrum", route)
        for model in random_corpus():
            liouv = build_liouvillian(model)
            n, scale = liouv.dim, liouv.norm_inf()
            full = np.linalg.eigvals(_real_generator(liouv).toarray())
            restricted = _trace_zero_generator(liouv, dense=route == "dense")
            if route == "sparse":
                restricted = restricted.toarray()
            # spec R = {0} + spec R|W, with multiplicity
            both = np.concatenate(([0.0], np.linalg.eigvals(restricted)))
            distance = np.abs(both[:, None] - full[None, :])
            rows, cols = linear_sum_assignment(distance)
            assert distance[rows, cols].max() < 1e-13 * scale
            k = n if route == "dense" else min(6, n - 2)
            values = spectrum(liouv, k).eigenvalues
            assert values[0] == 0
            distance = np.abs(values[:, None] - full[None, :])
            rows, cols = linear_sum_assignment(distance)
            assert distance[rows, cols].max() < 1e-13 * scale
            top = np.sort(full.real)[::-1][:k]
            assert np.abs(values.real - top).max() < 1e-13 * scale

    def test_sparse_restriction_matches_dense(self):
        for model in (*random_corpus()[:8], cascade_model(CascadeParams(n_a=2, n_b=1))):
            liouv = build_liouvillian(model)
            restricted = _trace_zero_generator(liouv, dense=False)
            assert restricted.format == "csr" and restricted.has_sorted_indices
            dense = _trace_zero_generator(liouv, dense=True)
            assert np.abs(restricted.toarray() - dense).max() < 1e-14 * liouv.norm_inf()

    def test_restriction_of_unitary_dynamics_stays_skew_symmetric(self, monkeypatch):
        # the basis of W is orthonormal, so a normal R gives a normal R|W.
        # With W parametrized by all coordinates but rho_11's, R|W is not
        # normal, and ARPACK did not converge on it for this model
        layout = single_space(12, "q")
        liouv = build_liouvillian(
            LindbladModel(Operator(layout, random_hermitian(np.random.default_rng(12), 12))))
        real = _real_generator(liouv)
        assert abs(real + real.T).max() == 0
        for dense in (True, False):
            restricted = _trace_zero_generator(liouv, dense)
            assert abs(restricted + restricted.T).max() < 1e-14 * liouv.norm_inf()
        force_route(monkeypatch, "spectrum", "sparse")
        values = spectrum(liouv, 4).eigenvalues
        assert np.abs(values.real).max() < 1e-12 * liouv.norm_inf()

    @pytest.mark.parametrize("route", ["dense", "sparse"])
    def test_steady_eigenvalue_is_exact_at_a_loose_arpack_tolerance(
            self, cascade_liouvillian, cascade_top5, route, monkeypatch):
        # at tol 1e-8 ARPACK on the whole of R missed the 0 at n = 2025
        arpack_params = steady._arpack_params
        monkeypatch.setattr(steady, "_arpack_params",
                            lambda n, k: {**arpack_params(n, k), "tol": 1e-8})
        force_route(monkeypatch, "spectrum", route)
        values = spectrum(cascade_liouvillian, 5).eigenvalues
        assert values[0] == 0
        assert np.abs(values - cascade_top5.eigenvalues).max() < 1e-6
        assert check_uniqueness(cascade_liouvillian).lambda0 == 0

    def test_one_eigenvalue_needs_no_solve(self, cascade_liouvillian, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("no eigensolver should run for k = 1")

        monkeypatch.setattr(steady.spla, "eigs", no_solve)
        monkeypatch.setattr(steady.np.linalg, "eigvals", no_solve)
        result = spectrum(cascade_liouvillian, 1)
        assert result.policy.route == "sparse"
        assert list(result.eigenvalues) == [0]
        assert result.diagnostics == {"arpack_matvecs": 0}
        assert list(spectrum(build_liouvillian(qubit_decay_model()), 1).eigenvalues) == [0]

    def test_non_trace_preserving_generator_is_refused(self, monkeypatch):
        # d rho / dt = -rho preserves Hermiticity, not the trace
        layout = single_space(2, "q")
        decay = SuperOperator(layout, -sp.eye_array(4), -0.5 * np.eye(2))
        with pytest.raises(ValueError, match="does not preserve the trace"):
            _trace_zero_generator(decay, dense=False)
        for route in ("dense", "sparse"):
            force_route(monkeypatch, "spectrum", route)
            with pytest.raises(ValueError, match="does not preserve the trace"):
                spectrum(decay, 1)
            with pytest.raises(ValueError, match="does not preserve the trace"):
                check_uniqueness(decay)

    @pytest.mark.parametrize("route", ["dense", "sparse"])
    def test_uniqueness_fails_every_degenerate_model(self, route, monkeypatch):
        rng = np.random.default_rng(53)
        models = [
            degenerate_model(),
            *(dephasing_model(d) for d in (2, 3, 12, 20)),
            LindbladModel(Operator(single_space(20, "q"), np.diag(np.arange(20.0)))),
            LindbladModel(Operator(single_space(3, "q"), random_hermitian(rng, 3))),
            LindbladModel(Operator(single_space(12, "q"), random_hermitian(rng, 12))),
            decoupled_driven_qubits(),
        ]
        force_route(monkeypatch, "spectrum", route)
        for model in models:
            liouv = build_liouvillian(model)
            assert not check_uniqueness(liouv).unique, model
            with pytest.raises(DegeneracyError):  # the solve's GMRES branch
                steady_gmres(liouv)


def slow_channel_model(rate):
    """A driven, decaying qubit plus a third level that decays into it at
    ``rate``: the spectral gap is about rate / 2."""
    layout = single_space(3, "q")
    drive = 0.8 * (transition(3, 1, 2) + transition(3, 2, 1))
    return LindbladModel(
        Operator(layout, drive),
        [(1.0, Operator(layout, transition(3, 1, 2))),
         (rate, Operator(layout, transition(3, 2, 3)))],
    )


def shifted_generator(liouv, c):
    """L - c I, with the no-jump part that L - c I keeps."""
    d = liouv.layout.total_dim
    return SuperOperator(
        liouv.layout, liouv.matrix - c * sp.eye_array(liouv.dim, format="csr"),
        liouv.no_jump - 0.5 * c * np.eye(d),
    )


@pytest.fixture(scope="module")
def small_cascades():
    """The cascades (1, 1), (2, 1) and (3, 1): n = 144, 324, 576."""
    return [build_liouvillian(cascade_model(CascadeParams(n_a=a, n_b=b)))
            for a, b in ((1, 1), (2, 1), (3, 1))]


class TestDenseInverseIteration:
    """steady_dense: eigenvalues alone, then one LU and inverse iteration."""

    def test_matches_linsolve(self, small_cascades):
        for liouv in [*small_cascades, *(build_liouvillian(m) for m in random_corpus())]:
            result = steady_dense(liouv)
            reference = steady_linsolve(liouv).rho.to_dense()
            assert np.abs(result.rho.to_dense() - reference).max() < 1e-12
            assert result.trace_before_normalization.real > 0
            assert abs(result.eigenvalue) < 1e-12 * liouv.norm_inf()

    def test_runs_no_eigenvector_decomposition(self, small_cascades, monkeypatch):
        def refused(matrix):
            raise AssertionError("np.linalg.eig called")

        monkeypatch.setattr(steady.np.linalg, "eig", refused)
        steady_dense(small_cascades[0])
        steady_sparse(build_liouvillian(driven_qubit_model(1.0, 1.0)))  # n = 4

    def test_shifted_generator_gives_the_same_state(self, small_cascades):
        # nothing relies on lambda_0 = 0: L - cI has the same eigenvector at -c
        models = [*small_cascades[:2], *(build_liouvillian(m) for m in random_corpus()[:8])]
        for liouv in models:
            c = 0.3 * liouv.norm_inf()
            result = steady_dense(shifted_generator(liouv, c))
            assert result.eigenvalue.real == pytest.approx(-c, abs=1e-12 * liouv.norm_inf())
            assert result.eigenvalue.imag == 0.0
            reference = steady_linsolve(liouv).rho.to_dense()
            assert np.abs(result.rho.to_dense() - reference).max() < 1e-12

    @pytest.mark.parametrize("rate", [3e-7, 1e-6])
    def test_gap_near_the_tolerance_converges(self, rate):
        liouv = build_liouvillian(slow_channel_model(rate))
        values = np.sort(np.linalg.eigvals(liouv.to_dense()).real)
        gap = -values[-2] / (steady._GAP_TOL * liouv.norm_inf())
        assert 10 < gap < 100
        reference = steady_linsolve(liouv).rho.to_dense()
        assert np.abs(steady_dense(liouv).rho.to_dense() - reference).max() < 1e-12

    @pytest.mark.parametrize("c", [1e-16, 1.0, 1e16])
    def test_degenerate_models_raise_at_every_scale(self, c):
        h_only = LindbladModel(Operator(single_space(5, "q"), np.diag(np.arange(5.0))))
        for model in (degenerate_model(), dephasing_model(3), decoupled_driven_qubits(), h_only):
            liouv = c * build_liouvillian(model)
            with pytest.raises(DegeneracyError):
                steady_dense(liouv)
            if liouv.dim < 5:
                with pytest.raises(DegeneracyError):
                    steady_sparse(liouv)

    def test_small_sparse_matches_linsolve(self):
        one_level = LindbladModel(Operator(single_space(1, "q"), np.zeros((1, 1))))
        models = [
            one_level, qubit_decay_model(), qubit_decay_model(0.01),
            *(driven_qubit_model(omega, rate) for omega, rate in [(1.0, 1.0), (0.5, 3.0)]),
            *random_corpus()[::4],  # d = 2
        ]
        for model in models:
            liouv = build_liouvillian(model)
            assert liouv.dim < 5
            result = steady_sparse(liouv)
            assert result.diagnostics is None
            reference = steady_linsolve(liouv).rho.to_dense()
            assert np.abs(result.rho.to_dense() - reference).max() < 1e-12

    def test_two_calls_give_identical_bytes(self, small_cascades):
        for liouv in (small_cascades[1], build_liouvillian(random_corpus()[3])):
            first, second = steady_dense(liouv), steady_dense(liouv)
            assert first.rho.to_dense().tobytes() == second.rho.to_dense().tobytes()
            for field in ("residual", "trace_before_normalization", "min_eigenvalue",
                          "hermiticity_defect", "eigenvalue"):
                assert getattr(first, field) == getattr(second, field)

    @staticmethod
    def factored_shifts(monkeypatch, singular):
        """Stand in for LAPACK's LU: record each matrix, and report an exactly
        zero pivot on the calls ``singular`` names."""
        real_dgetrf, matrices = scipy.linalg.lapack.dgetrf, []

        def dgetrf(matrix, **kwargs):
            matrices.append(matrix.copy())
            lu, pivots, info = real_dgetrf(matrix, **kwargs)
            return lu, pivots, 2 if len(matrices) in singular else info

        monkeypatch.setattr(steady.scipy.linalg.lapack, "dgetrf", dgetrf)
        return matrices

    def shifted_real(self, liouv, shift):
        """R - (lambda_0 + shift ||L||_inf) I, lambda_0 from steady_dense."""
        lam0 = steady_dense(liouv).eigenvalue.real
        return _real_generator(liouv).toarray() - (lam0 + shift * liouv.norm_inf()) * np.eye(
            liouv.dim)

    def test_singular_factor_takes_the_next_shift(self, monkeypatch):
        liouv = build_liouvillian(driven_emitter_model(3, np.random.default_rng(3)))  # n = 9
        reference = steady_dense(liouv).rho.to_dense()
        expected = [self.shifted_real(liouv, shift) for shift in (1e-10, 1e-7)]
        matrices = self.factored_shifts(monkeypatch, singular={1})
        result = steady_dense(liouv)
        assert len(matrices) == 2
        for matrix, shifted in zip(matrices, expected):
            assert np.array_equal(matrix, shifted)
        assert np.abs(result.rho.to_dense() - reference).max() < 1e-12

    def test_gives_up_after_three_singular_factors(self, monkeypatch):
        liouv = build_liouvillian(driven_emitter_model(3, np.random.default_rng(3)))
        matrices = self.factored_shifts(monkeypatch, singular={1, 2, 3})
        with pytest.raises(ConvergenceError, match="exactly singular at each relative shift"):
            steady_dense(liouv)
        assert len(matrices) == 3

    def test_iteration_cap_is_a_convergence_error(self, monkeypatch):
        liouv = build_liouvillian(driven_emitter_model(3, np.random.default_rng(3)))
        monkeypatch.setattr(steady, "_INVERSE_SOLVES", 2)
        with pytest.raises(ConvergenceError, match="did not converge within 2 solves"):
            steady_dense(liouv)

    def test_peak_memory_is_two_real_arrays(self, small_cascades):
        # the eigenvector decomposition it replaced peaked at 3.0 8n^2 bytes
        liouv = small_cascades[2]
        n = liouv.dim
        steady_dense(liouv)  # caches the Hermitian basis
        tracemalloc.start()
        try:
            steady_dense(liouv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * n * n
