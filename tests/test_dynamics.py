import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helpers import random_density, random_model, single_space
from meq.dynamics import PropagationError, Trajectory, evolve, evolve_trajectory
from meq.hilbert import LayoutMismatchError, Operator, transition
from meq.modelspec import CascadeParams, cascade_model
from meq.steady import _hermitian_basis, _real_generator, steady_dense
from meq.superspace import LindbladModel, build_liouvillian, choose_route


def qubit_decay_liouvillian(rate=1.0):
    layout = single_space(2, "q")
    hamiltonian = Operator(layout, np.zeros((2, 2)))
    jump = Operator(layout, transition(2, 1, 2))
    return build_liouvillian(LindbladModel(hamiltonian, [(rate, jump)]))


def excited_state():
    layout = single_space(2, "q")
    return Operator(layout, np.diag([0.0, 1.0]))


class TestEvolve:
    def test_zero_time_is_identity(self):
        liouv = qubit_decay_liouvillian()
        rho0 = excited_state()
        assert evolve(liouv, rho0, 0.0) is rho0

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_exponential_decay(self, method, t):
        rate = 1.0
        liouv = qubit_decay_liouvillian(rate)
        rho_t = evolve(liouv, excited_state(), t, method=method).to_dense()
        assert rho_t[1, 1].real == pytest.approx(np.exp(-2 * rate * t), abs=1e-9)
        assert rho_t[0, 0].real == pytest.approx(1 - np.exp(-2 * rate * t), abs=1e-9)

    def test_krylov_matches_dense_expm(self):
        rng = np.random.default_rng(60)
        for seed in range(3):
            model = random_model(rng, 4, 2)
            liouv = build_liouvillian(model)
            rho0 = Operator(model.layout, random_density(rng, 4))
            t = 0.8
            direct = scipy.linalg.expm(liouv.to_dense() * t) @ rho0.to_dense().ravel(order="F")
            sparse = evolve(liouv, rho0, t, method="sparse").to_dense().ravel(order="F")
            assert np.abs(direct - sparse).max() < 1e-8

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve(qubit_decay_liouvillian(), excited_state(), -1.0)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(61)
        model = random_model(rng, 3, 1)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, 3))
        for method in ("dense", "sparse"):
            rho_t = evolve(liouv, rho0, 2.0, method=method).to_dense()
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
        stepwise = evolve(liouv, evolve(liouv, rho0, t1), t2).to_dense()
        direct = evolve(liouv, rho0, t1 + t2).to_dense()
        assert np.abs(stepwise - direct).max() < 1e-9

    def test_trajectory_matches_pointwise_evolve(self):
        rng = np.random.default_rng(63)
        model = random_model(rng, 3, 1)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, 3))
        times = [0.2, 0.5, 1.3]
        trajectory = evolve_trajectory(liouv, rho0, times)
        for t, state in zip(times, trajectory.states):
            expected = evolve(liouv, rho0, t).to_dense()
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
        late = evolve(liouv, rho0, 80.0).to_dense()
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
    def test_rejects_non_finite_times(self, method, times):
        with pytest.raises(ValueError, match="times must be finite"):
            evolve_trajectory(qubit_decay_liouvillian(), excited_state(), times, method)

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
        evolved = evolve(cascade_liouvillian, rho0, 10.0, method="sparse")
        from meq.measures import expectation

        for label in ("s11", "s22", "s33", "n_a", "n_b"):
            observable = cascade_observables[label]
            propagated = expectation(observable, evolved).real
            steady = expectation(observable, cascade_sparse[0].rho).real
            assert propagated == pytest.approx(steady, abs=1e-6)


class TestKrylovStepping:
    def test_stiff_generator_substeps(self):
        # fast decay plus slow drive: stiffness forces several substeps
        layout = single_space(2, "q")
        hamiltonian = Operator(layout, 0.1 * (transition(2, 1, 2) + transition(2, 2, 1)))
        jump = Operator(layout, transition(2, 1, 2))
        liouv = build_liouvillian(LindbladModel(hamiltonian, [(50.0, jump)]))
        rho_t = evolve(liouv, excited_state(), 3.0, method="sparse").to_dense()
        direct = scipy.linalg.expm(liouv.to_dense() * 3.0) @ excited_state().to_dense().ravel(order="F")
        assert np.abs(rho_t.ravel(order="F") - direct).max() < 1e-8

    def test_stiff_random_generator_matches_complex_expm(self):
        # rates of 20-200 against times up to 3: ||L t||_inf reaches the
        # thousands, so expm_multiply needs many steps of its own
        rng = np.random.default_rng(66)
        model = random_model(rng, 4, 2)
        liouv = build_liouvillian(LindbladModel(
            model.hamiltonian, [(100.0 * rate, jump) for rate, jump in model.dissipators]
        ))
        assert liouv.norm_inf() > 500
        rho0 = Operator(model.layout, random_density(rng, 4))
        times = [0.001, 0.01, 0.5, 3.0]
        trajectory = evolve_trajectory(liouv, rho0, times, method="sparse")
        for t, state in zip(times, trajectory.states):
            direct = scipy.linalg.expm(liouv.to_dense() * t) @ rho0.to_dense().ravel(order="F")
            assert np.abs(state.to_dense().ravel(order="F") - direct).max() < 1e-8

    def test_sparse_storage_generator(self):
        layout = single_space(2, "q")
        jump = Operator(layout, transition(2, 1, 2))
        liouv = build_liouvillian(
            LindbladModel(Operator(layout, np.zeros((2, 2))), [(1.0, jump)])
        )
        assert isinstance(liouv.matrix, sp.csr_array)
        rho_t = evolve(liouv, excited_state(), 1.0, method="sparse").to_dense()
        assert rho_t[1, 1].real == pytest.approx(np.exp(-2.0), abs=1e-9)


class TestStateChecks:
    """Propagation needs a Hermitian initial state and returns density matrices."""

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_rejects_non_hermitian_initial_state(self, method):
        layout = single_space(2, "q")
        rho0 = Operator(layout, np.array([[0.5, 0.1], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve_trajectory(qubit_decay_liouvillian(), rho0, [0.0, 1.0], method=method)

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_rejects_negative_initial_state(self, method):
        layout = single_space(2, "q")
        rho0 = Operator(layout, np.diag([1.0 + 1e-7, -1e-7]))
        with pytest.raises(ValueError, match="not a density matrix"):
            evolve_trajectory(qubit_decay_liouvillian(), rho0, [1.0], method=method)
        # rounding-sized negative eigenvalues pass
        rho0 = Operator(layout, np.diag([1.0 + 1e-9, -1e-9]))
        evolve_trajectory(qubit_decay_liouvillian(), rho0, [1.0], method=method)

    def test_rejects_state_on_another_layout(self):
        rho0 = Operator(single_space(2, "p"), np.diag([1.0, 0.0]))
        with pytest.raises(LayoutMismatchError, match="state and generator live on different"):
            evolve_trajectory(qubit_decay_liouvillian(), rho0, [1.0])

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_min_eigenvalues_recorded(self, method):
        rng = np.random.default_rng(67)
        model = random_model(rng, 3, 2)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, 3))
        trajectory = evolve_trajectory(liouv, rho0, [0.0, 0.5, 0.5, 2.0], method=method)
        assert len(trajectory.min_eigenvalues) == 4
        for state, lowest in zip(trajectory.states, trajectory.min_eigenvalues):
            assert lowest == np.linalg.eigvalsh(state.to_dense()).min()
        assert min(trajectory.min_eigenvalues) > -1e-12

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_negative_propagated_state_raises(self, method):
        # -L pumps population into the excited state, so rho_11 turns negative
        liouv = -1.0 * qubit_decay_liouvillian()
        trajectory = evolve_trajectory(liouv, excited_state(), [0.0], method=method)
        assert trajectory.min_eigenvalues == (0.0,)
        with pytest.raises(PropagationError, match="t = 0.5 .*not a density matrix"):
            evolve_trajectory(liouv, excited_state(), [0.5, 1.0], method=method)


class TestRoutePolicy:
    @pytest.mark.parametrize("d,route", [(12, "dense"), (13, "sparse")])  # n = 144, 169
    def test_route_by_size(self, d, route):
        rng = np.random.default_rng(d)
        model = random_model(rng, d, 1)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, d))
        trajectory = evolve_trajectory(liouv, rho0, [0.0, 0.3, 0.6])
        assert trajectory.policy.route == route
        assert trajectory.policy == choose_route("evolve", liouv.dim)
        other = "sparse" if route == "dense" else "dense"
        reference = evolve_trajectory(liouv, rho0, [0.0, 0.3, 0.6], method=other)
        assert reference.policy == (other, "requested")
        for state, expected in zip(trajectory.states, reference.states):
            assert np.abs(state.to_dense() - expected.to_dense()).max() < 1e-8
        single = evolve(liouv, rho0, 0.6).to_dense()
        assert np.abs(single - trajectory.states[-1].to_dense()).max() < 1e-8

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            evolve_trajectory(qubit_decay_liouvillian(), excited_state(), [1.0], method="rk4")


class TestTaylorPlan:
    """The sparse route plans once per trajectory and takes the same steps
    as one public ``expm_multiply(R gap, x)`` per gap."""

    @pytest.fixture(scope="class")
    def cascade_576(self):
        return build_liouvillian(cascade_model(CascadeParams(n_a=3, n_b=1)))

    @pytest.mark.parametrize("times", [
        [0.5, 1.0, 1.5, 2.0],  # one gap, repeated
        [0.01, 0.02, 0.1, 0.6],  # ||R gap||_1 below condition (3.13): no norm estimates
        [1.3, 200.0, 400.0],  # 1300 steps a gap; exp(shift gap) underflows
    ])
    def test_matches_public_expm_multiply_per_gap(self, cascade_576, times):
        liouv = cascade_576
        d = liouv.layout.total_dim
        rho0 = Operator(liouv.layout, random_density(np.random.default_rng(68), d))
        real, basis = _real_generator(liouv)
        adjoint = _hermitian_basis(d)[1]
        norm = spla.norm(real, 1)
        trajectory = evolve_trajectory(liouv, rho0, times, method="sparse")
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
        plan = trajectory.diagnostics["gaps"]
        assert [entry["gap"] for entry in plan] == list(dict.fromkeys(gaps))
        for entry in plan:
            assert set(entry) == {"gap", "taylor_degree", "taylor_steps"}
            assert entry["taylor_steps"] >= 1

    def test_norm_estimates_leave_global_random_state(self, cascade_576):
        # gap 5 is above condition (3.13), so the plan estimates ||A^p||_1 with
        # onenormest, which draws from numpy's global random state
        liouv = cascade_576
        d = liouv.layout.total_dim
        rho0 = Operator(liouv.layout, random_density(np.random.default_rng(70), d))
        plans = []
        for prior_draws in (0, 7):
            np.random.seed(prior_draws)
            np.random.random(prior_draws)
            state = np.random.get_state()
            trajectory = evolve_trajectory(liouv, rho0, [0.5, 1.0, 6.0], method="sparse")
            after = np.random.random(3)
            np.random.set_state(state)
            assert np.array_equal(after, np.random.random(3))
            plans.append(trajectory.diagnostics["gaps"])
        assert [entry["gap"] for entry in plans[0]] == [0.5, 5.0]
        assert plans[0] == plans[1]

    def test_dense_route_records_one_expm_per_gap(self):
        rng = np.random.default_rng(69)
        model = random_model(rng, 3, 1)
        liouv = build_liouvillian(model)
        rho0 = Operator(model.layout, random_density(rng, 3))
        trajectory = evolve_trajectory(liouv, rho0, [0.0, 0.5, 1.0, 2.0], method="dense")
        assert trajectory.diagnostics == {
            "gaps": [{"gap": 0.5, "expm_calls": 1}, {"gap": 1.0, "expm_calls": 1}]
        }

    def test_zero_generator(self):
        # R = 0: no Taylor terms, the state stays put
        layout = single_space(2, "q")
        liouv = build_liouvillian(LindbladModel(Operator(layout, np.zeros((2, 2)))))
        trajectory = evolve_trajectory(liouv, excited_state(), [1.0, 3.0], method="sparse")
        for state in trajectory.states:
            assert np.array_equal(state.to_dense(), excited_state().to_dense())
        assert trajectory.diagnostics["gaps"] == [
            {"gap": 1.0, "taylor_degree": 0, "taylor_steps": 1},
            {"gap": 2.0, "taylor_degree": 0, "taylor_steps": 1},
        ]
