"""Time propagation of density matrices under a fixed generator.

The solution of the vectorized master equation is rho(t) = exp(L t) rho(0).
Small problems exponentiate the generator once (scaling and squaring) and
apply it; larger ones approximate the action of the exponential on the
vectorized state in a Krylov subspace (Arnoldi, since L is not normal),
sub-stepping adaptively so the per-step error estimate stays below a target.
The exponential itself is never formed on the large path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .hilbert import LayoutMismatchError, Operator
from .superspace import RouteChoice, SuperOperator, choose_route

__all__ = ["PropagationError", "Trajectory", "evolve", "evolve_trajectory"]

KRYLOV_DIM = 30
KRYLOV_STEP_TOL = 1e-10


class PropagationError(RuntimeError):
    """Time stepping failed (step size underflow or breakdown)."""


@dataclass(frozen=True)
class Trajectory:
    """States sampled along an evolution, one per requested time, and their route."""

    times: tuple[float, ...]
    states: tuple[Operator, ...]
    policy: RouteChoice | None = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states have different lengths")


def _arnoldi_apply(matvec, vec: np.ndarray, dt: float, m: int):
    """One Krylov approximation of exp(dt A) vec.

    Returns (result, error_estimate, exact) where ``exact`` flags a happy
    breakdown (the Krylov space is invariant, so the result carries no
    projection error).
    """
    beta = np.linalg.norm(vec)
    if beta == 0.0:
        return vec.copy(), 0.0, True
    n = vec.size
    m = min(m, n)
    basis = np.empty((n, m), dtype=complex)
    hess = np.zeros((m + 1, m), dtype=complex)
    basis[:, 0] = vec / beta
    for j in range(m):
        w = matvec(basis[:, j])
        for i in range(j + 1):  # modified Gram-Schmidt
            hess[i, j] = np.vdot(basis[:, i], w)
            w = w - hess[i, j] * basis[:, i]
        h_next = np.linalg.norm(w)
        hess[j + 1, j] = h_next
        if h_next <= 1e-14 * max(1.0, np.abs(hess[: j + 2, : j + 1]).max()):
            k = j + 1
            phases = scipy.linalg.expm(dt * hess[:k, :k])
            return beta * (basis[:, :k] @ phases[:, 0]), 0.0, True
        if j + 1 < m:
            basis[:, j + 1] = w / h_next
    phases = scipy.linalg.expm(dt * hess[:m, :m])
    result = beta * (basis @ phases[:, 0])
    # a-posteriori estimate: first neglected term of the expansion
    error = beta * abs(hess[m, m - 1]) * abs(phases[m - 1, 0])
    return result, float(error), False


def _expm_action(
    liouv: SuperOperator, vec: np.ndarray, t: float, m: int, tol: float
) -> np.ndarray:
    matvec = liouv.matrix.dot
    norm_scale = max(liouv.norm_inf(), 1e-30)
    remaining = float(t)
    # stay roughly within the Krylov convergence radius on the first attempt
    dt = min(remaining, m / (2.0 * norm_scale))
    current = vec
    while remaining > 0.0:
        dt = min(dt, remaining)
        while True:
            stepped, error, exact = _arnoldi_apply(matvec, current, dt, m)
            if exact or error <= tol * max(1.0, np.linalg.norm(stepped)):
                break
            dt *= 0.5
            if dt < 1e-15 * t:
                raise PropagationError(
                    f"time step underflow at t = {t - remaining:g} "
                    f"(remaining {remaining:g}); generator too stiff for the "
                    f"Krylov dimension {m}"
                )
        current = stepped
        remaining -= dt
        if not exact and error < 0.1 * tol:
            dt *= 2.0
    return current


def evolve(
    liouv: SuperOperator,
    rho0: Operator,
    t: float,
    method: str | None = None,
) -> Operator:
    """Propagate a state: returns devectorized exp(L t) vec(rho0).

    :func:`evolve_trajectory` at the single time t; t = 0 returns the input
    unchanged.
    """
    trajectory = evolve_trajectory(liouv, rho0, [t], method)
    return rho0 if trajectory.times[0] == 0.0 else trajectory.states[0]


def evolve_trajectory(
    liouv: SuperOperator,
    rho0: Operator,
    times: Sequence[float],
    method: str | None = None,
) -> Trajectory:
    """Propagate through an ascending list of times.

    ``method`` is "dense" (exponentiate L once per distinct gap), "krylov",
    or None for the choice of :func:`choose_route`.  Evolution proceeds
    incrementally from point to point (the semigroup property makes this
    equivalent to evolving each point from rho0, up to the stepping tolerance).
    """
    times = [float(t) for t in times]
    if not times:
        raise ValueError("need at least one time")
    if times[0] < 0:
        raise ValueError("times must be >= 0")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be ascending")
    if rho0.layout != liouv.layout:
        raise LayoutMismatchError("state and generator live on different layouts")
    if method not in (None, "dense", "krylov"):
        raise ValueError(f"method must be 'dense' or 'krylov', got {method!r}")
    policy = RouteChoice(method, "requested") if method else choose_route("evolve", liouv.dim)

    d = liouv.layout.total_dim
    dense = policy.route == "dense"
    dense_mat = liouv.to_dense() if dense and times[-1] > 0.0 else None
    propagators: dict[float, np.ndarray] = {}
    vec = rho0.to_dense().ravel(order="F")
    previous = 0.0
    states = []
    for t in times:
        gap = t - previous
        if gap > 0.0:
            if dense:
                if gap not in propagators:
                    propagators[gap] = scipy.linalg.expm(dense_mat * gap)
                vec = propagators[gap] @ vec
            else:
                vec = _expm_action(liouv, vec, gap, KRYLOV_DIM, KRYLOV_STEP_TOL)
        states.append(Operator(liouv.layout, vec.reshape((d, d), order="F")))
        previous = t
    return Trajectory(times=tuple(times), states=tuple(states), policy=policy)
