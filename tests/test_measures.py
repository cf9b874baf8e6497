import numpy as np
import pytest

from helpers import bell_projector, random_density, random_hermitian, random_matrix
from meq.hilbert import (
    LayoutMismatchError,
    Operator,
    SpaceLayout,
    annihilation,
    embed,
    identity_operator,
)
from meq.measures import (
    displaced_mode_population,
    expectation,
    log_negativity,
    population_report,
)


TWO_QUBITS = SpaceLayout([("p", 2), ("q", 2)])


class TestExpectation:
    def test_identity_on_density_matrix(self):
        rng = np.random.default_rng(70)
        layout = SpaceLayout([("s", 4)])
        rho = Operator(layout, random_density(rng, 4))
        assert expectation(identity_operator(layout), rho) == pytest.approx(1.0, abs=1e-13)

    def test_adjoint_symmetry(self):
        rng = np.random.default_rng(71)
        layout = SpaceLayout([("s", 3)])
        for _ in range(20):
            obs = Operator(layout, random_matrix(rng, 3))
            rho = Operator(layout, random_matrix(rng, 3))
            left = expectation(obs.dag(), rho)
            right = np.conj(expectation(obs, rho.dag()))
            assert abs(left - right) < 1e-12

    def test_hermitian_pairs_give_real_values(self):
        rng = np.random.default_rng(72)
        layout = SpaceLayout([("s", 4)])
        obs = Operator(layout, random_hermitian(rng, 4))
        rho = Operator(layout, random_density(rng, 4))
        assert abs(expectation(obs, rho).imag) < 1e-10

    def test_layout_mismatch(self):
        a = identity_operator(SpaceLayout([("s", 2)]))
        b = identity_operator(SpaceLayout([("t", 2)]))
        with pytest.raises(LayoutMismatchError):
            expectation(a, b)


class TestPopulationReport:
    def test_residuals_vanish_for_hermitian_pairs(self):
        rng = np.random.default_rng(74)
        layout = SpaceLayout([("s", 3)])
        rho = Operator(layout, random_density(rng, 3))
        observables = [
            (f"obs{i}", Operator(layout, random_hermitian(rng, 3))) for i in range(3)
        ]
        report = population_report(observables, rho)
        assert report.labels == ("obs0", "obs1", "obs2")
        assert all(abs(residual) < 1e-10 for residual in report.imaginary_residuals)
        for (_, obs), value in zip(observables, report.values):
            assert value == pytest.approx(expectation(obs, rho).real, abs=1e-13)


class TestDisplacedPopulation:
    def test_zero_displacement_reduces_to_number(self):
        rng = np.random.default_rng(75)
        layout = SpaceLayout([("m", 5)])
        mode = embed(layout, "m", annihilation(5))
        rho = Operator(layout, random_density(rng, 5))
        plain = expectation(mode.dag() * mode, rho).real
        assert displaced_mode_population(rho, mode, 0.0) == pytest.approx(plain, abs=1e-12)

    def test_vacuum_gives_displacement_squared(self):
        layout = SpaceLayout([("m", 4)])
        mode = embed(layout, "m", annihilation(4))
        vacuum = np.zeros((4, 4), dtype=complex)
        vacuum[0, 0] = 1.0
        rho = Operator(layout, vacuum)
        assert displaced_mode_population(rho, mode, 2.0 - 1.0j) == pytest.approx(5.0, abs=1e-12)

    def test_coherent_like_cross_term(self):
        # |1><1| with displacement alpha: population 1 + |alpha|^2 (no coherence)
        layout = SpaceLayout([("m", 4)])
        mode = embed(layout, "m", annihilation(4))
        one = np.zeros((4, 4), dtype=complex)
        one[1, 1] = 1.0
        rho = Operator(layout, one)
        assert displaced_mode_population(rho, mode, 3.0) == pytest.approx(10.0, abs=1e-12)


class TestLogNegativity:
    def test_product_states_are_ppt(self):
        rng = np.random.default_rng(76)
        for _ in range(5):
            rho_p = random_density(rng, 2)
            rho_q = random_density(rng, 3)
            layout = SpaceLayout([("p", 2), ("q", 3)])
            rho = Operator(layout, np.kron(rho_q, rho_p))
            assert log_negativity(rho, ["p"]) <= 1e-12

    def test_bell_state_log2(self):
        rho = Operator(TWO_QUBITS, bell_projector())
        assert log_negativity(rho, ["p"]) == pytest.approx(np.log(2), abs=1e-12)

    def test_invariant_under_side(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            noise = random_density(rng, 4)
            mixed = 0.6 * bell_projector() + 0.4 * noise
            mixed = mixed / np.trace(mixed)
            rho = Operator(TWO_QUBITS, mixed)
            left = log_negativity(rho, ["p"])
            right = log_negativity(rho, ["q"])
            assert abs(left - right) < 1e-10

    def test_never_negative(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            rho = Operator(TWO_QUBITS, random_density(rng, 4))
            assert log_negativity(rho, ["p"]) >= 0.0

    def test_werner_family_threshold(self):
        # Werner states are separable (hence PPT) up to p = 1/3
        for p, entangled in [(0.2, False), (0.9, True)]:
            mixed = p * bell_projector() + (1 - p) * np.eye(4) / 4
            rho = Operator(TWO_QUBITS, mixed)
            value = log_negativity(rho, ["q"])
            assert (value > 1e-6) == entangled
