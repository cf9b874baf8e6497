"""Time propagation of density matrices under a fixed generator.

The solution of the vectorized master equation is rho(t) = exp(L t) rho(0).
Propagation runs in real arithmetic, in the Hermitian operator basis T of
:mod:`meq.superspace`: rho(t) = T exp(R t) x(0) with R = T^dag L T and the
real coordinates x(0) of rho(0).  Small problems, and below n = 256 the
generators whose L is a quarter full or more, exponentiate R once per
distinct time gap (scaling and squaring) and apply it.  Larger ones never
form the exponential: they compute the action exp(R t) x by real Arnoldi
steps with the step-size control of Expokit (Sidje, ACM Trans. Math. Softw.
24, 130 (1998)), whose convergence follows the spectrum of R rather than its
norm.  Each state's
smallest eigenvalue and trace are recorded and checked.
"""

from __future__ import annotations

import math
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
    _to_coordinates,
    _to_operator,
    check_dense_capacity,
    choose_route,
)

__all__ = ["PropagationError", "Trajectory", "evolve_trajectory"]

# The Krylov route: basis dimension, local error tolerance per unit time, and
# the most steps (rejected ones included) that one time gap may take.  A model
# that does not relax took one step per 9 to 28 units of ||R||_inf times the
# gap, as many as scipy's Taylor steps, so the budget refuses only gaps that
# took those a minute or more at n = 144 (the README lists the measurements).
_KRYLOV_DIM = 30
_KRYLOV_TOL = 1e-14
_MAX_KRYLOV_STEPS = 100_000
# Expokit's safety factors: the next step size is _GAMMA times the estimate,
# and a step is accepted up to _DELTA times the tolerance.
_GAMMA = 0.9
_DELTA = 1.2
# A second Gram-Schmidt pass runs when the first leaves less than this
# fraction of the new vector's norm.
_DGKS = 2 ** -0.5
# A propagated state whose trace is off the initial one by more than this
# (relative to max(1, |tr rho0|)) is refused: over a long gap the error per
# unit time of either route can add up to more than the positivity check sees.
_TRACE_TOL = 1e-8


class PropagationError(RuntimeError):
    """A propagated state is not a density matrix."""


@dataclass(frozen=True)
class Trajectory:
    """States sampled along an evolution, one per requested time, and their route.

    ``min_eigenvalues`` and ``traces`` hold each state's smallest eigenvalue and trace.
    ``diagnostics["gaps"]`` lists each distinct time gap in order of first
    use with its propagator: ``expm_calls`` (1) on the dense route, and on
    the sparse route the Krylov steps ``krylov_steps`` and the rejected
    steps ``rejected_steps``, summed over the gap's uses.
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


class _KrylovPropagator:
    """exp(R t) x for one sparse real generator R by Arnoldi steps with
    Expokit's step-size control (Sidje, ACM Trans. Math. Softw. 24, 130
    (1998), ``expv``).

    Each step builds an orthonormal basis v_1 ... v_{m+1} of the Krylov space
    of R and the current x (classical Gram-Schmidt, with a second pass where
    the test of Daniel, Gragg, Kaufman and Stewart asks for it) and the
    (m + 2) x (m + 2) Hessenberg matrix H of the corrected scheme, and takes
    x -> beta V exp(H tau) e_1.  Its error estimate rejects and shrinks a
    step above _KRYLOV_TOL per unit time and proposes the next step size,
    which carries over to the next gap.  A basis that stops growing, with
    residual beta h_{j+1,j} at most _KRYLOV_TOL, spans an invariant space,
    as does a basis of the whole space (m + 1 = n), and its step takes the
    rest of the gap.  The step control reads only R and x, so the counts
    are deterministic.  ``counts`` holds each gap's
    steps and rejected steps, summed over its uses.
    """

    def __init__(self, real: sp.csr_array, gaps):
        n = real.shape[0]
        self.real = real
        self.dim = min(_KRYLOV_DIM, n - 1)
        self.basis = np.empty((self.dim + 1, n))
        self.norm = float(abs(real).sum(axis=1).max()) if real.nnz else 0.0
        self.step_size = None
        self.counts = {gap: {"gap": gap, "krylov_steps": 0, "rejected_steps": 0} for gap in gaps}

    def _arnoldi(self, x: np.ndarray, beta: float):
        """The basis rows of the Krylov space of x / beta, its Hessenberg
        matrix H and Expokit's residual norm ||R v_{m+1}||; for an invariant
        space of dimension j, the j basis rows, the j x j H and None.  A basis
        of the whole space (m + 1 = n) is invariant."""
        m, basis = self.dim, self.basis
        whole = m + 1 == len(x)
        hessenberg = np.zeros((m + 2, m + 2))
        np.divide(x, beta, out=basis[0])
        for j in range(m + 1):
            p = self.real @ basis[j]
            if j == m and not whole:
                hessenberg[m + 1, m] = 1.0
                return basis, hessenberg, float(np.linalg.norm(p))
            first = np.linalg.norm(p)
            h = basis[: j + 1] @ p
            p -= h @ basis[: j + 1]
            norm = np.linalg.norm(p)
            if norm < first * _DGKS:
                again = basis[: j + 1] @ p
                p -= again @ basis[: j + 1]
                h += again
                norm = np.linalg.norm(p)
            hessenberg[: j + 1, j] = h
            if j == m or norm * beta <= _KRYLOV_TOL:
                return basis[: j + 1], hessenberg[: j + 1, : j + 1], None
            hessenberg[j + 1, j] = norm
            np.divide(p, norm, out=basis[j + 1])

    def apply(self, x: np.ndarray, gap: float) -> np.ndarray:
        """exp(R gap) x; raises :class:`PropagationError` naming the gap if it
        needs more than _MAX_KRYLOV_STEPS steps or a step's exponential or
        size is not finite."""
        beta = float(np.linalg.norm(x))
        if self.norm == 0.0 or beta == 0.0:
            return x
        m = self.dim
        if self.step_size is None:  # Expokit's first step size, from ||R||_inf
            fact = ((m + 1) / math.e) ** (m + 1) * math.sqrt(2 * math.pi * (m + 1))
            guess = (fact * _KRYLOV_TOL / (4 * beta * self.norm)) ** (1 / m) / self.norm
            self.step_size = _rounded_step(guess, gap)
        steps = rejected = 0
        remaining = gap
        while remaining > 0.0:
            basis, hessenberg, residual = self._arnoldi(x, beta)
            tau = remaining if residual is None else min(remaining, self.step_size)
            while True:
                if steps + rejected >= _MAX_KRYLOV_STEPS:
                    raise PropagationError(f"time gap {gap:g} needs more than "
                                           f"{_MAX_KRYLOV_STEPS} Krylov steps")
                with np.errstate(all="ignore"):  # a non-finite exponential is refused below
                    column = scipy.linalg.expm(tau * hessenberg)[:, 0]
                if not np.isfinite(column).all():
                    raise PropagationError(f"time gap {gap:g}: the exponential of a Krylov "
                                           f"step of {tau:g} is not finite")
                if residual is None:  # an invariant space: the step is exact
                    break
                phi1 = abs(beta * column[m])
                phi2 = abs(beta * column[m + 1] * residual)
                if phi1 > 10.0 * phi2:
                    error, order = phi2, 1 / m
                elif phi1 > phi2:
                    error, order = phi1 * phi2 / (phi1 - phi2), 1 / m
                else:
                    error, order = phi1, 1 / (m - 1)
                if error <= _DELTA * tau * _KRYLOV_TOL:
                    break
                rejected += 1
                tau = _rounded_step(_next_step(tau, error, order), gap)
            steps += 1
            x = basis.T @ (beta * column[: len(basis)])
            beta = float(np.linalg.norm(x))
            remaining = remaining - tau if tau < remaining else 0.0
            if residual is not None and error > 0.0:
                self.step_size = _rounded_step(_next_step(tau, error, order), gap)
        self.counts[gap]["krylov_steps"] += steps
        self.counts[gap]["rejected_steps"] += rejected
        return x


def _next_step(tau: float, error: float, order: float) -> float:
    """Expokit's next step size after a step of ``tau`` with local ``error``
    (> 0) and estimate ``order``, written so that a tiny error cannot overflow."""
    return _GAMMA * tau * (tau * _KRYLOV_TOL) ** order / error ** order


def _rounded_step(size: float, gap: float) -> float:
    """``size`` rounded up to two significant digits, as Expokit rounds its
    step sizes; one that is not finite and positive raises
    :class:`PropagationError` naming the gap."""
    if not 0.0 < size < math.inf:
        raise PropagationError(f"time gap {gap:g}: the Krylov step size {size:g} is not "
                               "finite and positive")
    scale = 10.0 ** (math.floor(math.log10(size)) - 1)
    return math.ceil(size / scale) * scale


def evolve_trajectory(liouv: SuperOperator, rho0: Operator, times: Sequence[float]) -> Trajectory:
    """Propagate through an ascending list of times.

    :func:`choose_route` picks the route: "dense" (real ``expm`` once per
    distinct gap) or "sparse" (Krylov steps, one basis per trajectory, the
    step size carried from gap to gap).  The result's
    ``diagnostics`` record the propagator of each distinct gap (see
    :class:`Trajectory`).  Evolution proceeds incrementally from point to
    point (the semigroup property makes this equivalent to evolving each
    point from rho0, up to the propagator's tolerance).  The times must be
    finite.  ``rho0`` must be Hermitian, within 1e-10 of its largest
    element, with no eigenvalue below -1e-8, or ``ValueError`` is raised; a
    propagated state with an eigenvalue below -1e-8, a non-finite entry or a
    trace off the initial trace by more than _TRACE_TOL, or a gap that needs
    more than _MAX_KRYLOV_STEPS Krylov steps or a step whose exponential or
    size is not finite, raises :class:`PropagationError`.
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
    policy = choose_route("evolve", liouv.dim, nnz=liouv.matrix.nnz)

    rho = rho0.to_dense()
    defect = float(np.abs(rho - rho.conj().T).max())
    if defect > _HERMITIAN_TOL * max(1.0, float(np.abs(rho).max())):
        raise ValueError(f"initial state is not Hermitian: anti-Hermitian part {defect:.2e}")
    lowest = _lowest_eigenvalue(rho, "initial state", ValueError)
    initial = np.trace(rho)
    trace_tol = _TRACE_TOL * max(1.0, abs(initial))
    real = _real_generator(liouv)
    gaps = dict.fromkeys(b - a for a, b in zip([0.0, *times], times) if b > a)  # in order of use
    if policy.route == "dense":
        check_dense_capacity(liouv.dim)
        generator = real.toarray()
        propagators = {gap: scipy.linalg.expm(generator * gap) for gap in gaps}
        step = lambda x, gap: propagators[gap] @ x
        diagnostics = [{"gap": gap, "expm_calls": 1} for gap in gaps]
    else:
        propagator = _KrylovPropagator(real, gaps)
        step = propagator.apply
        diagnostics = list(propagator.counts.values())
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
        if abs(traces[-1] - initial) > trace_tol:
            raise PropagationError(f"state at t = {t:g} has trace {traces[-1].real:.12g}, off the "
                                   f"initial {initial.real:.12g} by more than {trace_tol:g}")
        previous = t
    return Trajectory(tuple(times), tuple(states), tuple(minima), tuple(traces), policy,
                      {"gaps": diagnostics})
