"""Expectation values, displaced-frame populations, and entanglement.

Log negativity follows the eigenvalue form: for the partial transpose of a
state with eigenvalues lambda_n, E = log(1 + sum_n (|lambda_n| - lambda_n)),
natural logarithm.  A partially transposed Hermitian matrix is Hermitian, but
assembly noise can break exact symmetry, so the eigenvalues are computed with
a general solver and only their real parts are used (the imaginary parts,
rounding noise of that asymmetry, are dropped without a threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hilbert import LayoutMismatchError, Operator, partial_transpose

__all__ = [
    "PopulationReport",
    "expectation",
    "population_report",
    "displaced_mode_population",
    "log_negativity",
]


@dataclass(frozen=True)
class PopulationReport:
    """Named real expectation values plus their imaginary residuals.

    For Hermitian observables on Hermitian states the residuals are pure
    rounding noise; they are carried along rather than dropped so that a
    consumer can check they vanish.
    """

    labels: tuple[str, ...]
    values: tuple[float, ...]
    imaginary_residuals: tuple[float, ...]


def expectation(observable: Operator, rho: Operator) -> complex:
    """tr(observable * rho)."""
    if observable.layout != rho.layout:
        raise LayoutMismatchError("observable and state live on different layouts")
    return complex(np.einsum("ij,ji->", observable.matrix, rho.matrix))


def population_report(
    observables: Sequence[tuple[str, Operator]], rho: Operator
) -> PopulationReport:
    labels, values, residuals = [], [], []
    for label, obs in observables:
        value = expectation(obs, rho)
        labels.append(label)
        values.append(value.real)
        residuals.append(value.imag)
    return PopulationReport(tuple(labels), tuple(values), tuple(residuals))


def displaced_mode_population(
    rho: Operator, mode_annihilation: Operator, alpha: complex
) -> float:
    """Photon number of a mode in the undisplaced frame.

    For a state expressed in a picture displaced by alpha, the physical
    population is |alpha|^2 + tr(a^dag a rho) + 2 Re(alpha* tr(a rho)).
    """
    alpha = complex(alpha)
    number = expectation(mode_annihilation.dag() * mode_annihilation, rho)
    amplitude = expectation(mode_annihilation, rho)
    return float(abs(alpha) ** 2 + number.real + 2.0 * (np.conj(alpha) * amplitude).real)


def log_negativity(rho: Operator, transposed: Iterable[str]) -> float:
    """Entanglement across the bipartition defined by the transposed set.

    Zero for every state whose partial transpose stays positive
    semidefinite (all product states in particular); log 2 for a two-qubit
    Bell state.
    """
    swapped = partial_transpose(rho, transposed)
    values = np.linalg.eigvals(swapped.matrix).real
    total = float(np.sum(np.abs(values) - values))
    return max(0.0, float(np.log1p(total)))
