"""Lindblad master equations in superspace for composite systems.

Build Liouvillians from Hamiltonians and jump operators, find steady states
by three independent routes (``steady_state`` runs the paper's
row-replacement solve unless a route is requested), propagate states, and
compute reduced states, partial transposes and log negativities.  Submodules:

- ``hilbert``: composite-space layouts, index maps, embeddings, partial
  trace and transpose
- ``superspace``: superoperators, Liouvillian assembly (plus an
  independent elementwise oracle), the route policy, the Hermitian basis T
  with the real generator R = T^dag L T, and the density-matrix check
- ``steady``: dense/sparse eigenvector steady states and the row-replacement
  solve (LU or preconditioned GMRES), spectra, uniqueness checks
- ``dynamics``: exp(L t) propagation, dense ``expm`` or Krylov steps
- ``measures``: expectation values, displaced-frame populations,
  logarithmic negativity
- ``modelspec``: text model format and the built-in cascade benchmark
- ``cli``: the ``meq`` command

Set MEQ_THREADS=N to cap the BLAS/LAPACK and OpenMP thread pools at N:
importing ``meq`` sets each of their environment variables that is unset to
N before it imports numpy, so the cap holds only where nothing in the
process has imported numpy yet.
"""

import os

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
if os.environ.get("MEQ_THREADS"):
    for _var in _THREAD_VARS:
        os.environ.setdefault(_var, os.environ["MEQ_THREADS"])

from . import cli, dynamics, hilbert, measures, modelspec, steady, superspace  # noqa: E402

__version__ = "0.1.0"

_SUBMODULES = (
    "hilbert",
    "superspace",
    "steady",
    "dynamics",
    "measures",
    "modelspec",
    "cli",
)

_EXPORTS = {
    "SpaceLayout": "hilbert",
    "Operator": "hilbert",
    "StateVector": "hilbert",
    "LayoutMismatchError": "hilbert",
    "index_to_flat": "hilbert",
    "flat_to_index": "hilbert",
    "basis_state": "hilbert",
    "annihilation": "hilbert",
    "transition": "hilbert",
    "embed": "hilbert",
    "tensor_all": "hilbert",
    "identity_operator": "hilbert",
    "partial_trace": "hilbert",
    "partial_transpose": "hilbert",
    "SuperOperator": "superspace",
    "LindbladModel": "superspace",
    "build_liouvillian": "superspace",
    "liouvillian_oracle": "superspace",
    "CapacityError": "superspace",
    "SteadyStateResult": "steady",
    "SpectrumResult": "steady",
    "GapReport": "steady",
    "DegeneracyError": "steady",
    "ConvergenceError": "steady",
    "steady_state": "steady",
    "steady_dense": "steady",
    "steady_sparse": "steady",
    "steady_linsolve": "steady",
    "spectrum": "steady",
    "check_uniqueness": "steady",
    "Trajectory": "dynamics",
    "PropagationError": "dynamics",
    "evolve_trajectory": "dynamics",
    "PopulationReport": "measures",
    "expectation": "measures",
    "population_report": "measures",
    "displaced_mode_population": "measures",
    "log_negativity": "measures",
    "ModelError": "modelspec",
    "ModelDocument": "modelspec",
    "parse_model": "modelspec",
    "build_model": "modelspec",
    "render_model": "modelspec",
    "CascadeParams": "modelspec",
    "cascade_model": "modelspec",
    "cascade_text": "modelspec",
    "cascade_document": "modelspec",
}

__all__ = ["__version__", *_SUBMODULES, *_EXPORTS]

for _name, _module in _EXPORTS.items():
    globals()[_name] = getattr(globals()[_module], _name)
del _name, _module
