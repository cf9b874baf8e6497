"""Time propagation of density matrices under a fixed generator.

The solution of the vectorized master equation is rho(t) = exp(L t) rho(0).
Propagation runs in real arithmetic: in the Hermitian operator basis T of
:mod:`meq.steady` the generator is the real matrix R = T^dag L T, a Hermitian
rho(0) has real coordinates x(0) with vec(rho(0)) = T x(0), and
rho(t) = T exp(R t) x(0).  Small problems exponentiate R once per distinct
time gap (scaling and squaring) and apply it; larger ones compute the action
exp(R t) x by the truncated Taylor steps of Al-Mohy and Higham (SIAM J. Sci.
Comput. 33, 488 (2011), algorithm 3.2, the method of
``scipy.sparse.linalg.expm_multiply``) and never form the exponential.  That
route shifts R once per trajectory and estimates the norms of its powers
once, because they scale linearly with the time step; each distinct gap then
only picks its Taylor degree and step count.  Every state is checked to be a
density matrix up to its smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
# scipy's public expm_multiply redoes all of its planning on every call
from scipy.sparse.linalg._expm_multiply import (
    LazyOperatorNormInfo,
    _expm_multiply_simple_core,
    _fragment_3_1,
)

from .hilbert import LayoutMismatchError, Operator
from .steady import (
    _HERMITIAN_TOL,
    _POSITIVITY_TOL,
    _hermitian_basis,
    _real_generator,
    _seeded_global_random_state,
)
from .superspace import RouteChoice, SuperOperator, check_dense_capacity, choose_route

__all__ = ["PropagationError", "Trajectory", "evolve", "evolve_trajectory"]


class PropagationError(RuntimeError):
    """A propagated state is not a density matrix."""


@dataclass(frozen=True)
class Trajectory:
    """States sampled along an evolution, one per requested time, and their route.

    ``min_eigenvalues`` holds the smallest eigenvalue of each state.
    ``diagnostics["gaps"]`` lists each distinct time gap in order of first
    use with its propagator: ``expm_calls`` (1) on the dense route, the
    Taylor degree ``taylor_degree`` and step count ``taylor_steps`` on the
    sparse route.
    """

    times: tuple[float, ...]
    states: tuple[Operator, ...]
    min_eigenvalues: tuple[float, ...] = ()
    policy: RouteChoice | None = None
    diagnostics: dict | None = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states have different lengths")


class _TaylorPlan:
    """exp(R t) x for one sparse generator R by Al-Mohy and Higham's algorithm 3.2.

    ``scipy.sparse.linalg.expm_multiply(R t, x)`` shifts R t by its mean
    diagonal, takes the 1-norm of the result and, above the paper's condition
    (3.13), estimates ||(R t)^p||_1 for p <= 8, all on every call.  Each of
    these scales linearly with t, so the plan shifts R and keeps its norms
    once; each distinct time gap in ``gaps`` then only picks its Taylor
    degree m* and step count s (kept in ``schedules``, in the order given),
    and the steps are the public function's own.  The norm estimates are
    ``onenormest``'s, so all schedules are picked up front under one seeded
    global random state.
    """

    def __init__(self, real: sp.csc_array, gaps):
        n = real.shape[0]
        self.shift = real.trace() / n
        self.shifted = (real - self.shift * sp.eye_array(n, format="csc")).tocsr()
        self.norm = float(abs(self.shifted).sum(axis=0).max())
        norms = LazyOperatorNormInfo(self.shifted, A_1_norm=self.norm, ell=2)
        self.schedules: dict[float, tuple[int, int]] = {}
        with _seeded_global_random_state():
            for t in gaps:
                if self.norm == 0.0:
                    self.schedules[t] = (0, 1)
                else:
                    norms.set_scale(t)
                    self.schedules[t] = _fragment_3_1(norms, 1, 2.0**-53, ell=2)

    def apply(self, x: np.ndarray, t: float) -> np.ndarray:
        m_star, s = self.schedules[t]
        # the core applies the shift's factor exp(shift t / s) after each of
        # the s steps; over a whole long gap exp(shift t) underflows to 0 while
        # the steps on the shifted generator overflow
        return _expm_multiply_simple_core(self.shifted, x, t, self.shift, m_star, s)


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

    ``method`` is "dense" (real ``expm`` once per distinct gap), "sparse"
    (the Taylor steps of ``expm_multiply``, with one plan per trajectory and
    one schedule per distinct gap), or None for the choice of
    :func:`choose_route`.  The result's ``diagnostics`` record the propagator
    of each distinct gap (see :class:`Trajectory`).  Evolution proceeds
    incrementally from point to point (the semigroup property makes this
    equivalent to evolving each point from rho0, up to the propagator's
    tolerance).  The times must be finite.  ``rho0`` must be
    Hermitian, within 1e-10 of its largest element, with no eigenvalue below
    -1e-8, or ``ValueError`` is raised; a propagated state with an
    eigenvalue below -1e-8 raises :class:`PropagationError`.
    """
    times = [float(t) for t in times]
    if not times:
        raise ValueError("need at least one time")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times[0] < 0:
        raise ValueError("times must be >= 0")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be ascending")
    if rho0.layout != liouv.layout:
        raise LayoutMismatchError("state and generator live on different layouts")
    policy = choose_route("evolve", liouv.dim, method=method)

    rho = rho0.to_dense()
    defect = float(np.abs(rho - rho.conj().T).max())
    if defect > _HERMITIAN_TOL * max(1.0, float(np.abs(rho).max())):
        raise ValueError(f"initial state is not Hermitian: anti-Hermitian part {defect:.2e}")
    lowest = float(np.linalg.eigvalsh(rho).min())
    if lowest < -_POSITIVITY_TOL:
        raise ValueError(
            f"initial state has eigenvalue {lowest:.3e}, below -{_POSITIVITY_TOL:g}; "
            "it is not a density matrix"
        )
    real, basis = _real_generator(liouv)
    dense = policy.route == "dense"
    if dense:
        check_dense_capacity(liouv.dim)
        generator = real.toarray()
    else:
        intervals = [b - a for a, b in zip([0.0, *times], times) if b > a]
        plan = _TaylorPlan(real, dict.fromkeys(intervals))  # distinct, in order of use
    d = liouv.layout.total_dim
    coords = (_hermitian_basis(d)[1] @ rho.ravel(order="F")).real
    propagators: dict[float, np.ndarray] = {}
    previous = 0.0
    states, minima = [], []
    for t in times:
        gap = t - previous
        if gap > 0.0:
            if dense:
                if gap not in propagators:
                    propagators[gap] = scipy.linalg.expm(generator * gap)
                coords = propagators[gap] @ coords
            else:
                coords = plan.apply(coords, gap)
            rho = (basis @ coords).reshape((d, d), order="F")
            lowest = float(np.linalg.eigvalsh(rho).min())
            if lowest < -_POSITIVITY_TOL:
                raise PropagationError(
                    f"state at t = {t:g} has eigenvalue {lowest:.3e}, below "
                    f"-{_POSITIVITY_TOL:g}; it is not a density matrix"
                )
        states.append(Operator(liouv.layout, rho))
        minima.append(lowest)
        previous = t
    if dense:
        gaps = [{"gap": gap, "expm_calls": 1} for gap in propagators]
    else:
        gaps = [
            {"gap": gap, "taylor_degree": m_star, "taylor_steps": s}
            for gap, (m_star, s) in plan.schedules.items()
        ]
    return Trajectory(tuple(times), tuple(states), tuple(minima), policy, {"gaps": gaps})
