"""Lindblad master equations in superspace for composite systems.

Build Liouvillians from Hamiltonians and jump operators, find steady states
by three independent routes (``steady_state`` picks one), propagate states, and
compute reduced states, partial transposes and log negativities.  Submodules:

- ``hilbert``: composite-space layouts, index maps, embeddings, partial
  trace and transpose
- ``superspace``: superoperators, Liouvillian assembly (plus an
  independent elementwise oracle), the route policy, the Hermitian basis T
  with the real generator R = T^dag L T, and the density-matrix check
- ``steady``: dense/sparse eigenvector steady states and the row-replacement
  solve (LU or preconditioned GMRES), spectra, uniqueness checks
- ``dynamics``: exp(L t) propagation, dense ``expm`` or ``expm_multiply``
- ``measures``: expectation values, displaced-frame populations,
  logarithmic negativity
- ``modelspec``: text model format and the built-in cascade benchmark
- ``cli``: the ``meq`` command

Submodules are imported lazily so the ``meq`` command can cap the linear
algebra thread pools (MEQ_THREADS) before numpy loads.
"""

from importlib import import_module

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


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
