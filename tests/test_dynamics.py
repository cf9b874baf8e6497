import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helpers import force_route, random_density, random_hermitian, random_model, single_space
from meq import dynamics
from meq.dynamics import PropagationError, Trajectory, evolve_trajectory
from meq.hilbert import LayoutMismatchError, Operator, transition
from meq.modelspec import CascadeParams, cascade_model
from meq.steady import steady_dense
from meq.superspace import (
    LindbladModel,
    SuperOperator,
    _hermitian_basis,
    _real_generator,
    build_liouvillian,
    choose_route,
)


def qubit_decay_liouvillian(rate=1.0):
    layout = single_space(2, "q")
    hamiltonian = Operator(layout, np.zeros((2, 2)))
    jump = Operator(layout, transition(2, 1, 2))
    return build_liouvillian(LindbladModel(hamiltonian, [(rate, jump)]))


def excited_state():
    layout = single_space(2, "q")
    return Operator(layout, np.diag([0.0, 1.0]))


class TestEvolve:
    def test_zero_time_is_identity(self, monkeypatch):
        rho0 = excited_state()
        for method in ("dense", "sparse"):
            force_route(monkeypatch, "evolve", method)
            state = evolve_trajectory(qubit_decay_liouvillian(), rho0, [0.0]).states[0]
            assert np.array_equal(state.to_dense(), rho0.to_dense())

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_exponential_decay(self, monkeypatch, method, t):
        rate = 1.0
        liouv = qubit_decay_liouvillian(rate)
        force_route(monkeypatch, "evolve", method)
        rho_t = evolve_trajectory(liouv, excited_state(), [t]).states[0].to_dense()
        assert rho_t[1, 1].real == pytest.approx(np.exp(-2 * rate * t), abs=1e-9)
        assert rho_t[0, 0].real == pytest.approx(1 - np.exp(-2 * rate * t), abs=1e-9)

    def test_krylov_matches_dense_expm(self, monkeypatch):
        rng = np.random.default_rng(60)
        for seed in range(3):
            model = random_model(rng, 4, 2)
            liouv = build_liouvillian(model)
            rho0 = Operator(model.layout, random_density(rng, 4))
            t = 0.8
            direct = scipy.linalg.expm(liouv.to_dense() * t) @ rho0.to_dense().ravel(order="F")
            force_route(monkeypatch, "evolve", "sparse")
            state = evolve_trajectory(liouv, rho0, [t]).states[0]
            sparse = state.to_dense().ravel(order="F")
            assert np.abs(direct - sparse).max() < 1e-8

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_trajectory(qubit_decay_liouvillian(), excited_state(), [-1.0])

    def test_trace_and_hermiticity_preserved(self, monkeypatch):
        rng = np.random.default_rng(61)
        model = random_model(rng, 3, 1)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, 3))
        for method in ("dense", "sparse"):
            force_route(monkeypatch, "evolve", method)
            rho_t = evolve_trajectory(liouv, rho0, [2.0]).states[0].to_dense()
            assert abs(np.trace(rho_t) - 1) < 1e-10
            assert np.abs(rho_t - rho_t.conj().T).max() < 1e-10


class TestTrajectory:
    def test_single_zero_time(self):
        liouv = qubit_decay_liouvillian()
        rho0 = excited_state()
        trajectory = evolve_trajectory(liouv, rho0, [0.0])
        assert trajectory.times == (0.0,)
        assert np.array_equal(trajectory.states[0].to_dense(), rho0.to_dense())

    def test_analytic_decay_sequence(self):
        liouv = qubit_decay_liouvillian(1.0)
        trajectory = evolve_trajectory(liouv, excited_state(), [0.0, 1.0, 2.0])
        populations = [state.to_dense()[1, 1].real for state in trajectory.states]
        assert populations == pytest.approx([1.0, np.exp(-2), np.exp(-4)], abs=1e-9)

    def test_semigroup_property(self):
        rng = np.random.default_rng(62)
        model = random_model(rng, 3, 2)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, 3))
        t1, t2 = 0.7, 1.1
        middle = evolve_trajectory(liouv, rho0, [t1]).states[0]
        stepwise = evolve_trajectory(liouv, middle, [t2]).states[0].to_dense()
        direct = evolve_trajectory(liouv, rho0, [t1 + t2]).states[0].to_dense()
        assert np.abs(stepwise - direct).max() < 1e-9

    def test_trajectory_matches_pointwise_evolve(self):
        rng = np.random.default_rng(63)
        model = random_model(rng, 3, 1)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, 3))
        times = [0.2, 0.5, 1.3]
        trajectory = evolve_trajectory(liouv, rho0, times)
        for t, state in zip(times, trajectory.states):
            expected = evolve_trajectory(liouv, rho0, [t]).states[0].to_dense()
            assert np.abs(state.to_dense() - expected).max() < 1e-9

    def test_traces_preserved_along_trajectory(self):
        rng = np.random.default_rng(64)
        model = random_model(rng, 3, 2)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, 3))
        trajectory = evolve_trajectory(liouv, rho0, np.linspace(0.0, 5.0, 7))
        for state in trajectory.states:
            assert abs(state.trace() - 1) < 1e-10
            mat = state.to_dense()
            assert np.abs(mat - mat.conj().T).max() < 1e-10

    def test_long_time_limit_is_steady_state(self):
        rng = np.random.default_rng(65)
        model = random_model(rng, 3, 1)
        liouv = build_liouvillian(model)
        steady = steady_dense(liouv).rho.to_dense()
        rho0 = Operator(model.layout, np.eye(3) / 3)
        late = evolve_trajectory(liouv, rho0, [80.0]).states[0].to_dense()
        assert np.abs(late - steady).max() < 1e-8

    def test_rejects_unordered_times(self):
        liouv = qubit_decay_liouvillian()
        with pytest.raises(ValueError):
            evolve_trajectory(liouv, excited_state(), [1.0, 0.5])
        with pytest.raises(ValueError):
            evolve_trajectory(liouv, excited_state(), [-1.0, 0.5])
        with pytest.raises(ValueError):
            evolve_trajectory(liouv, excited_state(), [])

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    @pytest.mark.parametrize("times", [[np.nan], [1.0, np.nan], [np.inf], [0.5, np.inf]])
    def test_rejects_non_finite_times(self, monkeypatch, method, times):
        force_route(monkeypatch, "evolve", method)
        with pytest.raises(ValueError, match="times must be finite"):
            evolve_trajectory(qubit_decay_liouvillian(), excited_state(), times)

    def test_trajectory_type_checks_lengths(self):
        with pytest.raises(ValueError):
            Trajectory(times=(0.0, 1.0), states=(excited_state(),))


class TestCascadeRelaxation:
    def test_long_time_reaches_steady_populations(
        self, cascade_liouvillian, cascade_sparse, cascade_observables
    ):
        # ten inverse units of the slowest rate; the steady state is unique,
        # so the propagated populations must land on the steady ones (the
        # sparse and dense steady states agree to 1e-8, see acceptance)
        layout = cascade_liouvillian.layout
        rho0 = Operator(layout, np.eye(layout.total_dim) / layout.total_dim)
        evolved = evolve_trajectory(cascade_liouvillian, rho0, [10.0]).states[0]  # Krylov by size
        from meq.measures import expectation

        for label in ("s11", "s22", "s33", "n_a", "n_b"):
            observable = cascade_observables[label]
            propagated = expectation(observable, evolved).real
            steady = expectation(observable, cascade_sparse[0].rho).real
            assert propagated == pytest.approx(steady, abs=1e-6)


class TestKrylovStepping:
    def test_stiff_generator_substeps(self, monkeypatch):
        # fast decay plus slow drive: stiffness forces several substeps
        layout = single_space(2, "q")
        hamiltonian = Operator(layout, 0.1 * (transition(2, 1, 2) + transition(2, 2, 1)))
        jump = Operator(layout, transition(2, 1, 2))
        liouv = build_liouvillian(LindbladModel(hamiltonian, [(50.0, jump)]))
        force_route(monkeypatch, "evolve", "sparse")
        rho_t = evolve_trajectory(liouv, excited_state(), [3.0]).states[0].to_dense()
        direct = scipy.linalg.expm(liouv.to_dense() * 3.0) @ excited_state().to_dense().ravel(order="F")
        assert np.abs(rho_t.ravel(order="F") - direct).max() < 1e-8

    def test_stiff_random_generator_matches_complex_expm(self, monkeypatch):
        # rates of 20-200 against times up to 3: ||L t||_inf reaches the
        # thousands; at n = 16 the Krylov basis spans the whole space, so
        # each gap is one step
        rng = np.random.default_rng(66)
        model = random_model(rng, 4, 2)
        liouv = build_liouvillian(LindbladModel(
            model.hamiltonian, [(100.0 * rate, jump) for rate, jump in model.dissipators]
        ))
        assert liouv.norm_inf() > 500
        rho0 = Operator(model.layout, random_density(rng, 4))
        times = [0.001, 0.01, 0.5, 3.0]
        force_route(monkeypatch, "evolve", "sparse")
        trajectory = evolve_trajectory(liouv, rho0, times)
        for t, state in zip(times, trajectory.states):
            direct = scipy.linalg.expm(liouv.to_dense() * t) @ rho0.to_dense().ravel(order="F")
            assert np.abs(state.to_dense().ravel(order="F") - direct).max() < 1e-8

    def test_stiff_generator_takes_many_steps(self, monkeypatch):
        # n = 64, ||L||_inf about 6e4: dozens of Krylov steps a gap
        rng = np.random.default_rng(8)
        model = random_model(rng, 8, 2)
        liouv = build_liouvillian(LindbladModel(
            model.hamiltonian, [(100.0 * rate, jump) for rate, jump in model.dissipators]
        ))
        rho0 = Operator(model.layout, random_density(rng, 8))
        times = [0.001, 0.01, 0.5, 3.0]
        force_route(monkeypatch, "evolve", "sparse")
        trajectory = evolve_trajectory(liouv, rho0, times)
        assert max(entry["krylov_steps"] for entry in trajectory.diagnostics["gaps"]) > 10
        for t, state in zip(times, trajectory.states):
            direct = scipy.linalg.expm(liouv.to_dense() * t) @ rho0.to_dense().ravel(order="F")
            assert np.abs(state.to_dense().ravel(order="F") - direct).max() < 1e-12

    def test_long_gap_without_damping(self, monkeypatch):
        # n = 36, H only: nothing relaxes, so the steps stay about as short as
        # the first, and a gap of 2500 takes more than a thousand of them
        rng = np.random.default_rng(6)
        layout = single_space(6, "q")
        hamiltonian = random_hermitian(rng, 6)
        rho0 = Operator(layout, random_density(rng, 6))
        force_route(monkeypatch, "evolve", "sparse")
        liouv = build_liouvillian(LindbladModel(Operator(layout, hamiltonian)))
        trajectory = evolve_trajectory(liouv, rho0, [2500.0])
        assert trajectory.diagnostics["gaps"][0]["krylov_steps"] > 1000
        unitary = scipy.linalg.expm(-2500j * hamiltonian)
        expected = unitary @ rho0.to_dense() @ unitary.conj().T
        assert np.abs(trajectory.states[0].to_dense() - expected).max() < 1e-9
        assert abs(trajectory.traces[0] - 1) < 1e-12

    @pytest.mark.parametrize("gap", [1e14, 1e18])
    def test_huge_gap_after_relaxation_keeps_the_trace_or_raises(self, gap):
        # n = 324: a relaxed state spans an invariant space of dimension 1,
        # whose Rayleigh quotient, rounding noise, is exponentiated over the gap
        liouv = build_liouvillian(cascade_model(CascadeParams(n_a=2, n_b=1)))
        ground = np.zeros((liouv.layout.total_dim,) * 2)
        ground[0, 0] = 1.0
        assert choose_route("evolve", liouv.dim, nnz=liouv.matrix.nnz).route == "sparse"
        for times in ([gap], [400.0, 400.0 + gap]):
            try:
                trajectory = evolve_trajectory(liouv, Operator(liouv.layout, ground), times)
            except PropagationError as error:
                assert f"t = {times[-1]:g}" in str(error)
            else:
                assert max(abs(trace - 1) for trace in trajectory.traces) <= 1e-8

    def test_sparse_storage_generator(self, monkeypatch):
        layout = single_space(2, "q")
        jump = Operator(layout, transition(2, 1, 2))
        liouv = build_liouvillian(
            LindbladModel(Operator(layout, np.zeros((2, 2))), [(1.0, jump)])
        )
        assert isinstance(liouv.matrix, sp.csr_array)
        force_route(monkeypatch, "evolve", "sparse")
        rho_t = evolve_trajectory(liouv, excited_state(), [1.0]).states[0].to_dense()
        assert rho_t[1, 1].real == pytest.approx(np.exp(-2.0), abs=1e-9)


class TestStateChecks:
    """Propagation needs a Hermitian initial state and returns density matrices."""

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_rejects_non_hermitian_initial_state(self, monkeypatch, method):
        layout = single_space(2, "q")
        rho0 = Operator(layout, np.array([[0.5, 0.1], [0.0, 0.5]]))
        force_route(monkeypatch, "evolve", method)
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve_trajectory(qubit_decay_liouvillian(), rho0, [0.0, 1.0])

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_rejects_negative_initial_state(self, monkeypatch, method):
        layout = single_space(2, "q")
        rho0 = Operator(layout, np.diag([1.0 + 1e-7, -1e-7]))
        force_route(monkeypatch, "evolve", method)
        with pytest.raises(ValueError, match="not a density matrix"):
            evolve_trajectory(qubit_decay_liouvillian(), rho0, [1.0])
        # rounding-sized negative eigenvalues pass
        rho0 = Operator(layout, np.diag([1.0 + 1e-9, -1e-9]))
        evolve_trajectory(qubit_decay_liouvillian(), rho0, [1.0])

    def test_rejects_state_on_another_layout(self):
        rho0 = Operator(single_space(2, "p"), np.diag([1.0, 0.0]))
        with pytest.raises(LayoutMismatchError, match="state and generator live on different"):
            evolve_trajectory(qubit_decay_liouvillian(), rho0, [1.0])

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_min_eigenvalues_recorded(self, monkeypatch, method):
        rng = np.random.default_rng(67)
        model = random_model(rng, 3, 2)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, 3))
        force_route(monkeypatch, "evolve", method)
        trajectory = evolve_trajectory(liouv, rho0, [0.0, 0.5, 0.5, 2.0])
        assert len(trajectory.min_eigenvalues) == 4
        for state, lowest in zip(trajectory.states, trajectory.min_eigenvalues):
            assert lowest == np.linalg.eigvalsh(state.to_dense()).min()
        assert min(trajectory.min_eigenvalues) > -1e-12

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_traces_recorded(self, monkeypatch, method):
        rng = np.random.default_rng(69)
        model = random_model(rng, 3, 2)
        rho0 = Operator(model.layout, random_density(rng, 3))
        force_route(monkeypatch, "evolve", method)
        trajectory = evolve_trajectory(build_liouvillian(model), rho0, [0.0, 0.5, 0.5, 2.0])
        assert trajectory.traces == tuple(state.trace() for state in trajectory.states)
        assert max(abs(trace - 1) for trace in trajectory.traces) < 1e-12

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_trace_losing_generator_raises(self, monkeypatch, method):
        # L = -0.5: rho(t) = exp(-t / 2) rho(0) stays positive but loses its trace
        layout = single_space(2, "q")
        liouv = SuperOperator(layout, -0.5 * sp.identity(4, format="csr"), np.zeros((2, 2)))
        force_route(monkeypatch, "evolve", method)
        assert evolve_trajectory(liouv, excited_state(), [0.0, 1e-8]).traces[-1] != 1.0
        with pytest.raises(PropagationError, match="^state at t = 0.5 has trace 0.778800783071, "
                                                   "off the initial 1 by more than 1e-08$"):
            evolve_trajectory(liouv, excited_state(), [1e-8, 0.5])

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_negative_propagated_state_raises(self, monkeypatch, method):
        # -L pumps population into the excited state, so rho_11 turns negative
        liouv = -1.0 * qubit_decay_liouvillian()
        force_route(monkeypatch, "evolve", method)
        trajectory = evolve_trajectory(liouv, excited_state(), [0.0])
        assert trajectory.min_eigenvalues == (0.0,)
        with pytest.raises(PropagationError, match="t = 0.5 .*not a density matrix"):
            evolve_trajectory(liouv, excited_state(), [0.5, 1.0])


def driven_ladder_model(rng, d):
    """A driven, damped d-level ladder: L has about 7 n nonzeros, far below n^2 / 4."""
    layout = single_space(d, "q")
    ladder = np.diag(np.ones(d - 1), 1)
    hamiltonian = Operator(layout, ladder + ladder.T + np.diag(rng.uniform(-1, 1, d)))
    return LindbladModel(hamiltonian, [(1.0, Operator(layout, ladder))])


class TestRoutePolicy:
    @pytest.mark.parametrize("d,route", [(10, "dense"), (11, "sparse")])  # n = 100, 121
    def test_route_by_size(self, monkeypatch, d, route):
        self.check_route(monkeypatch, driven_ladder_model(np.random.default_rng(d), d), route)

    @pytest.mark.parametrize("d", [12, 13])
    def test_dense_generator_stays_dense(self, monkeypatch, d):
        # nnz(L) = n^2: dense expm was 2.2-3.6 times faster than Krylov at n = 121-169
        self.check_route(monkeypatch, random_model(np.random.default_rng(d), d, 1), "dense")

    @staticmethod
    def check_route(monkeypatch, model, route):
        """The policy's route for ``model``, and the other route's states."""
        d = model.layout.total_dim
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(np.random.default_rng(d), d))
        trajectory = evolve_trajectory(liouv, rho0, [0.0, 0.3, 0.6])
        assert trajectory.policy.route == route
        assert trajectory.policy == choose_route("evolve", liouv.dim, nnz=liouv.matrix.nnz)
        single = evolve_trajectory(liouv, rho0, [0.6]).states[0].to_dense()
        assert np.abs(single - trajectory.states[-1].to_dense()).max() < 1e-8
        other = "sparse" if route == "dense" else "dense"
        force_route(monkeypatch, "evolve", other)
        reference = evolve_trajectory(liouv, rho0, [0.0, 0.3, 0.6])
        assert reference.policy == (other, "forced")
        for state, expected in zip(trajectory.states, reference.states):
            assert np.abs(state.to_dense() - expected.to_dense()).max() < 1e-8


class TestTaylorPlan:
    """The sparse route's Krylov steps against one public ``expm_multiply(R
    gap, x)`` per gap, the Taylor method of Al-Mohy and Higham, and its
    per-gap counters."""

    @pytest.fixture(scope="class")
    def cascade_576(self):
        return build_liouvillian(cascade_model(CascadeParams(n_a=3, n_b=1)))

    @pytest.mark.parametrize("times", [
        [0.5, 1.0, 1.5, 2.0],  # one gap, repeated
        [0.01, 0.02, 0.1, 0.6],  # ||R gap||_1 below condition (3.13): no norm estimates
        [1.3, 200.0, 400.0],  # the state relaxes, and one step takes the rest of a gap
    ])
    def test_matches_public_expm_multiply_per_gap(self, monkeypatch, cascade_576, times):
        liouv = cascade_576
        d = liouv.layout.total_dim
        rho0 = Operator(liouv.layout, random_density(np.random.default_rng(68), d))
        real = _real_generator(liouv)
        basis, adjoint = _hermitian_basis(d)
        norm = spla.norm(real, 1)
        force_route(monkeypatch, "evolve", "sparse")
        trajectory = evolve_trajectory(liouv, rho0, times)
        previous, x = 0.0, (adjoint @ rho0.to_dense().ravel(order="F")).real
        for t, state in zip(times, trajectory.states):
            gap = t - previous
            expected = basis @ spla.expm_multiply(real * gap, x)
            # the two scale R by the gap at different points; over many
            # Taylor steps their rounding differs by up to about u ||R gap||_1
            tol = max(1e-14, 2.0**-53 * norm * gap) * np.linalg.norm(x)
            assert np.abs(state.to_dense().ravel(order="F") - expected).max() <= tol
            x = (adjoint @ state.to_dense().ravel(order="F")).real
            previous = t
        gaps = np.diff([0.0, *times])
        counts = trajectory.diagnostics["gaps"]
        assert [entry["gap"] for entry in counts] == list(dict.fromkeys(gaps))
        for entry in counts:
            assert set(entry) == {"gap", "krylov_steps", "rejected_steps"}
            assert entry["krylov_steps"] >= 1

    def test_step_budget_names_the_gap(self, monkeypatch, cascade_576):
        liouv = cascade_576
        rho0 = Operator(liouv.layout, np.eye(liouv.layout.total_dim) / liouv.layout.total_dim)
        force_route(monkeypatch, "evolve", "sparse")
        (entry,) = evolve_trajectory(liouv, rho0, [5.0]).diagnostics["gaps"]
        assert entry["krylov_steps"] + entry["rejected_steps"] > 2
        monkeypatch.setattr(dynamics, "_MAX_KRYLOV_STEPS", 2)
        with pytest.raises(PropagationError, match="^time gap 5 needs more than 2 Krylov steps$"):
            evolve_trajectory(liouv, rho0, [5.0])

    def test_whole_space_basis_is_one_exact_step(self, monkeypatch):
        # n = 4: the basis of R and the excited state spans the whole space
        force_route(monkeypatch, "evolve", "sparse")
        trajectory = evolve_trajectory(qubit_decay_liouvillian(), excited_state(), [1.0, 3.0])
        assert trajectory.diagnostics["gaps"] == [
            {"gap": 1.0, "krylov_steps": 1, "rejected_steps": 0},
            {"gap": 2.0, "krylov_steps": 1, "rejected_steps": 0},
        ]
        for t, state in zip(trajectory.times, trajectory.states):
            assert state.to_dense()[1, 1].real == pytest.approx(np.exp(-2 * t), abs=1e-15)

    def test_dense_route_records_one_expm_per_gap(self, monkeypatch):
        rng = np.random.default_rng(69)
        model = random_model(rng, 3, 1)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, 3))
        force_route(monkeypatch, "evolve", "dense")
        trajectory = evolve_trajectory(liouv, rho0, [0.0, 0.5, 1.0, 2.0])
        assert trajectory.diagnostics == {
            "gaps": [{"gap": 0.5, "expm_calls": 1}, {"gap": 1.0, "expm_calls": 1}]
        }

    def test_zero_generator(self, monkeypatch):
        # R = 0: no Krylov steps, the state stays put
        layout = single_space(2, "q")
        liouv = build_liouvillian(LindbladModel(Operator(layout, np.zeros((2, 2)))))
        force_route(monkeypatch, "evolve", "sparse")
        trajectory = evolve_trajectory(liouv, excited_state(), [1.0, 3.0])
        for state in trajectory.states:
            assert np.array_equal(state.to_dense(), excited_state().to_dense())
        assert trajectory.diagnostics["gaps"] == [
            {"gap": 1.0, "krylov_steps": 0, "rejected_steps": 0},
            {"gap": 2.0, "krylov_steps": 0, "rejected_steps": 0},
        ]


def test_dynamics_imports_nothing_from_steady():
    # the Hermitian basis, R and the density-matrix check live in meq.superspace
    tree = ast.parse(Path(dynamics.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not imported & {"steady", "meq.steady"}, imported
