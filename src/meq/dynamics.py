"""Time propagation of density matrices under a fixed generator.

The solution of the vectorized master equation is rho(t) = exp(L t) rho(0).
Propagation runs in real arithmetic, in the Hermitian operator basis T of
:mod:`meq.superspace`: rho(t) = T exp(R t) x(0) with R = T^dag L T and the
real coordinates x(0) of rho(0).  Small problems exponentiate R once per distinct
time gap (scaling and squaring) and apply it; larger ones compute the action
exp(R t) x by the truncated Taylor steps of Al-Mohy and Higham (SIAM J. Sci.
Comput. 33, 488 (2011), algorithm 3.2, the method of
``scipy.sparse.linalg.expm_multiply``) and never form the exponential.  That
route shifts R once per trajectory and estimates the norms of its powers
once, because they scale linearly with the time step; each distinct gap then
only picks its Taylor degree and step count.  Each state's smallest
eigenvalue (checked) and trace are recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .hilbert import LayoutMismatchError, Operator
from .superspace import (
    _HERMITIAN_TOL,
    RouteChoice,
    SuperOperator,
    _lowest_eigenvalue,
    _real_generator,
    _seeded_global_random_state,
    _to_coordinates,
    _to_operator,
    check_dense_capacity,
    choose_route,
)

__all__ = ["PropagationError", "Trajectory", "evolve_trajectory"]


class PropagationError(RuntimeError):
    """A propagated state is not a density matrix."""


@dataclass(frozen=True)
class Trajectory:
    """States sampled along an evolution, one per requested time, and their route.

    ``min_eigenvalues`` and ``traces`` hold each state's smallest eigenvalue and trace.
    ``diagnostics["gaps"]`` lists each distinct time gap in order of first
    use with its propagator: ``expm_calls`` (1) on the dense route, the
    Taylor degree ``taylor_degree`` and step count ``taylor_steps`` on the
    sparse route.
    """

    times: tuple[float, ...]
    states: tuple[Operator, ...]
    min_eigenvalues: tuple[float, ...] = ()
    traces: tuple[complex, ...] = ()
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

    The plan uses private names of ``scipy.sparse.linalg._expm_multiply``
    (the public function redoes all of its planning on every call).  They
    are imported here, so a scipy that moves them breaks only the sparse
    propagation route.
    """

    def __init__(self, real: sp.csr_array, gaps):
        from scipy.sparse.linalg._expm_multiply import (
            LazyOperatorNormInfo,
            _expm_multiply_simple_core,
            _fragment_3_1,
        )

        self._core = _expm_multiply_simple_core
        n = real.shape[0]
        self.shift = real.trace() / n
        self.shifted = real - self.shift * sp.eye_array(n, format="csr")
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
        return self._core(self.shifted, x, t, self.shift, m_star, s)


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
    lowest = _lowest_eigenvalue(rho, "initial state", ValueError)
    real = _real_generator(liouv)
    gaps = dict.fromkeys(b - a for a, b in zip([0.0, *times], times) if b > a)  # in order of use
    if policy.route == "dense":
        check_dense_capacity(liouv.dim)
        generator = real.toarray()
        propagators = {gap: scipy.linalg.expm(generator * gap) for gap in gaps}
        step = lambda x, gap: propagators[gap] @ x
        diagnostics = [{"gap": gap, "expm_calls": 1} for gap in gaps]
    else:
        plan = _TaylorPlan(real, gaps)
        step = plan.apply
        diagnostics = [{"gap": gap, "taylor_degree": m_star, "taylor_steps": s}
                       for gap, (m_star, s) in plan.schedules.items()]
    d = liouv.layout.total_dim
    coords = _to_coordinates(rho)
    previous = 0.0
    states, minima, traces = [], [], []
    for t in times:
        if t > previous:
            coords = step(coords, t - previous)
            rho = _to_operator(coords, d)
            lowest = _lowest_eigenvalue(rho, f"state at t = {t:g}", PropagationError)
        states.append(Operator(liouv.layout, rho))
        minima.append(lowest)
        traces.append(states[-1].trace())
        previous = t
    return Trajectory(tuple(times), tuple(states), tuple(minima), tuple(traces), policy,
                      {"gaps": diagnostics})
