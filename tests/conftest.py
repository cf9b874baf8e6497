import sys
import time
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and have no per-example
# deadline: a shared machine's timing noise must not fail them.
settings.register_profile("meq", derandomize=True, deadline=None)
settings.load_profile("meq")

from meq.modelspec import CascadeParams, cascade_document, cascade_model, document_environment
from meq.steady import spectrum, steady_dense, steady_linsolve, steady_sparse
from meq.superspace import build_liouvillian


@pytest.fixture(scope="session")
def cascade_liouvillian():
    return build_liouvillian(cascade_model(CascadeParams()))


@pytest.fixture(scope="session")
def cascade_observables():
    """Benchmark observables keyed by name, in the full 45-dim space."""
    layout, env = document_environment(cascade_document(CascadeParams()))
    return {
        "s11": env["s11"],
        "s22": env["s22"],
        "s33": env["s33"],
        "n_a": env["am"].dag() * env["am"],
        "n_b": env["bm"].dag() * env["bm"],
        "am": env["am"],
        "bm": env["bm"],
    }


def _timed(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def cascade_dense(cascade_liouvillian):
    return _timed(steady_dense, cascade_liouvillian)


@pytest.fixture(scope="session")
def cascade_sparse(cascade_liouvillian):
    return _timed(steady_sparse, cascade_liouvillian)


@pytest.fixture(scope="session")
def cascade_solve(cascade_liouvillian):
    return _timed(steady_linsolve, cascade_liouvillian)


@pytest.fixture(scope="session")
def cascade_top5(cascade_liouvillian):
    return spectrum(cascade_liouvillian, 5, method="dense")
