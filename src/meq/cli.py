"""Command-line front-end: model ingestion, solvers, and JSON records.

Every run writes a single JSON record to stdout (human diagnostics go to
stderr):

    {"command": ..., "model_hash": ..., "method": ...,
     "results": {...}, "timings": {...}}

Complex numbers appear as two-element [re, im] arrays, matrices as row-major
nested arrays; identical inputs give byte-identical records apart from the
timings block.  Exit codes: 0 success, 1 usage problems, 2 model file errors
(lexical/syntax/semantic), 3 numerical failures (non-convergence or
degenerate steady states).

Set MEQ_THREADS to cap the BLAS/LAPACK thread pools; it must take effect
before the numeric libraries load, which is why this module defers every
heavy import until after the environment is prepared.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time

__all__ = ["main", "run", "build_parser"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


def _apply_thread_cap():
    cap = os.environ.get("MEQ_THREADS")
    if not cap:
        return
    for var in _THREAD_VARS:
        os.environ.setdefault(var, cap)


def _parse_complex(text: str) -> complex:
    text = text.strip()
    if text.startswith("(") and text.endswith(")") and "," in text:
        re_part, im_part = text[1:-1].split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(text.replace("i", "j"))


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses."""
    parts, buf, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf).strip())
    return [p for p in parts if p]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meq",
        description="Lindblad master equations: steady states, spectra, "
        "dynamics, and entanglement measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_steady_flags(p, with_method=True):
        if with_method:
            p.add_argument(
                "--method", choices=("dense", "sparse", "solve", "iterative"), default=None,
                help="steady-state route (default: by problem size)",
            )
        p.add_argument("--row", type=int, default=1,
                       help="diagonal element whose equation the solve route replaces")
        p.add_argument("--gamma", type=float, default=1.0,
                       help="scale of the normalization row in the solve route")

    p_steady = sub.add_parser("steady", help="steady state and expectation values")
    p_steady.add_argument("model")
    add_steady_flags(p_steady)
    p_steady.add_argument("--observables", default=None,
                          help="comma-separated operator expressions")

    p_spec = sub.add_parser("spectrum", help="leading Liouvillian eigenvalues")
    p_spec.add_argument("model")
    p_spec.add_argument("-k", dest="count", type=int, required=True,
                        help="how many eigenvalues (largest real part)")

    p_evolve = sub.add_parser("evolve", help="propagate a state through a time list")
    p_evolve.add_argument("model")
    p_evolve.add_argument("--initial", default="ground",
                          help="'ground', 'maximally-mixed', or a density-matrix expression")
    p_evolve.add_argument("--times", required=True, help="comma-separated times")
    p_evolve.add_argument("--observables", default=None)

    p_neg = sub.add_parser("negativity", help="logarithmic negativity of the steady state")
    p_neg.add_argument("model")
    p_neg.add_argument("--transpose", required=True,
                       help="subsystems to partially transpose")
    p_neg.add_argument("--keep", default=None,
                       help="first reduce to these subsystems")
    add_steady_flags(p_neg)

    p_ptr = sub.add_parser("ptrace", help="reduced steady-state density matrix")
    p_ptr.add_argument("model")
    p_ptr.add_argument("--keep", required=True)
    add_steady_flags(p_ptr)

    p_casc = sub.add_parser("cascade", help="built-in cascade benchmark")
    for flag, default in (
        ("--delta-a", 0.0), ("--delta-b", 0.0),
        ("--g-a", 1.0), ("--g-b", 1.0),
        ("--gamma-12", 1.0), ("--gamma-23", 1.0),
        ("--gamma-a", 3.0), ("--gamma-b", 3.0),
    ):
        p_casc.add_argument(flag, type=float, default=default)
    p_casc.add_argument("--omega-a", type=_parse_complex, default=20.0 + 0j)
    p_casc.add_argument("--omega-b", type=_parse_complex, default=5.0 + 0j)
    p_casc.add_argument("--na", type=int, default=4, help="Fock truncation of mode a")
    p_casc.add_argument("--nb", type=int, default=2, help="Fock truncation of mode b")
    p_casc.add_argument("--emit-model", action="store_true",
                        help="print the canonical model document and exit")
    add_steady_flags(p_casc)
    p_casc.add_argument("--observables", default=None)
    p_casc.add_argument("-k", dest="count", type=int, default=None,
                        help="report the top-k spectrum instead")
    p_casc.add_argument("--negativity-all", action="store_true",
                        help="the four benchmark logarithmic negativities")
    p_casc.add_argument("--check-truncation", action="store_true",
                        help="rerun with one more photon per mode, report drift")
    p_casc.add_argument("--transpose", default=None)
    p_casc.add_argument("--keep", default=None)
    p_casc.add_argument("--times", default=None)
    p_casc.add_argument("--initial", default="ground")
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one serves every run() call
    return build_parser()


def _encode(value):
    import numpy as np

    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
        return [value.real, value.imag]
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _encode(value.tolist())
    return value


class _Runner:
    """One CLI invocation; numeric modules are imported lazily at creation."""

    def __init__(self, args, stdout, stderr):
        import numpy as np

        from . import dynamics, hilbert, measures, modelspec, steady, superspace

        self.args = args
        self.stdout = stdout
        self.stderr = stderr
        self.np = np
        self.hilbert = hilbert
        self.superspace = superspace
        self.steady = steady
        self.dynamics = dynamics
        self.measures = measures
        self.modelspec = modelspec
        self.timings: dict[str, float] = {}

    # -- plumbing ----------------------------------------------------------

    def _load_document(self):
        path = self.args.model
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise _UsageError(f"cannot read model file {path!r}: {exc}") from exc
        self.model_hash = hashlib.sha256(raw).hexdigest()
        return self.modelspec.parse_model(raw.decode("utf-8"))

    def _build(self, doc):
        start = time.perf_counter()
        layout, env = self.modelspec.document_environment(doc)
        model = self.modelspec.build_model(doc, (layout, env))
        liouv = self.superspace.build_liouvillian(model)
        self.timings["build"] = time.perf_counter() - start
        return layout, env, model, liouv

    def _steady(self, liouv, model):
        """Run the requested or policy-chosen route; the result's policy says which."""
        args = self.args
        policy = self.superspace.choose_route(
            "steady", liouv.dim, method=getattr(args, "method", None))
        start = time.perf_counter()
        if policy.route == "dense":
            result = self.steady.steady_dense(liouv)
        elif policy.route == "sparse":
            result = self.steady.steady_sparse(liouv)
        elif policy.route == "iterative":
            result = self.steady.steady_iterative(liouv, model)
        else:  # the LU route records its own dense/sparse choice
            result = self.steady.steady_linsolve(liouv, l=args.row, gamma=args.gamma)
        self.timings["solve"] = time.perf_counter() - start
        return result if result.policy else dataclasses.replace(result, policy=policy)

    def _observable_map(self, doc, env, text):
        pairs = []
        for expr_text in _split_top_level(text):
            op = self.modelspec.evaluate_observable(doc, expr_text, env=env)
            pairs.append((expr_text, op))
        return pairs

    def _steady_results(self, result):
        results = {
            "dimension": result.rho.layout.total_dim,
            "superspace_dimension": result.rho.layout.total_dim ** 2,
            "residual": result.residual,
            "trace_before_normalization": result.trace_before_normalization,
            "min_eigenvalue": result.min_eigenvalue,
            "hermiticity_defect": result.hermiticity_defect,
        }
        if result.eigenvalue is not None:
            results["eigenvalue"] = result.eigenvalue
        if result.diagnostics is not None:
            results["diagnostics"] = result.diagnostics
        return results

    def _record(self, method, results, policy):
        results["policy"] = policy._asdict()
        return {
            "command": self.args.command,
            "model_hash": self.model_hash,
            "method": method,
            "results": _encode(results),
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }

    # -- subcommands -------------------------------------------------------

    def cmd_steady(self, doc=None):
        doc = doc if doc is not None else self._load_document()
        layout, env, model, liouv = self._build(doc)
        result = self._steady(liouv, model)
        results = self._steady_results(result)
        results["rho"] = result.rho.to_dense()
        start = time.perf_counter()
        if self.args.observables:
            values = {}
            for label, op in self._observable_map(doc, env, self.args.observables):
                values[label] = self.measures.expectation(op, result.rho)
            results["observables"] = values
        self.timings["measure"] = time.perf_counter() - start
        return self._record(result.method, results, result.policy)

    def cmd_spectrum(self, doc=None):
        doc = doc if doc is not None else self._load_document()
        _, _, _, liouv = self._build(doc)
        k = self.args.count
        start = time.perf_counter()
        spec = self.steady.spectrum(liouv, k)
        self.timings["solve"] = time.perf_counter() - start
        results = {
            "count_requested": spec.count_requested,
            "eigenvalues": list(spec.eigenvalues),
        }
        return self._record(spec.policy.route, results, spec.policy)

    def _initial_state(self, doc, layout, env):
        text = self.args.initial
        if text == "ground":
            d = layout.total_dim
            mat = self.np.zeros((d, d), dtype=complex)
            mat[0, 0] = 1.0
            return self.hilbert.Operator(layout, mat), "ground"
        if text == "maximally-mixed":
            eye = self.hilbert.identity_operator(layout)
            return eye / layout.total_dim, "maximally-mixed"
        op = self.modelspec.evaluate_observable(doc, text, env=env)
        trace = op.trace()
        if abs(trace) < 1e-12:
            raise _UsageError(f"initial state expression {text!r} has zero trace")
        return op / trace, text

    def cmd_evolve(self, doc=None):
        doc = doc if doc is not None else self._load_document()
        layout, env, model, liouv = self._build(doc)
        times = [float(t) for t in self.args.times.split(",") if t.strip()]
        if not times:
            raise _UsageError("no times given")
        rho0, initial_label = self._initial_state(doc, layout, env)
        start = time.perf_counter()
        trajectory = self.dynamics.evolve_trajectory(liouv, rho0, times)
        self.timings["solve"] = time.perf_counter() - start
        start = time.perf_counter()
        observables = {}
        if self.args.observables:
            for label, op in self._observable_map(doc, env, self.args.observables):
                observables[label] = [
                    self.measures.expectation(op, state) for state in trajectory.states
                ]
        traces = [state.trace() for state in trajectory.states]
        self.timings["measure"] = time.perf_counter() - start
        results = {
            "initial": initial_label,
            "times": list(trajectory.times),
            "trace": traces,
            "min_eigenvalues": list(trajectory.min_eigenvalues),
            "diagnostics": trajectory.diagnostics,
        }
        if observables:
            results["observables"] = observables
        return self._record(trajectory.policy.route, results, trajectory.policy)

    def _names(self, text):
        return [name.strip() for name in text.split(",") if name.strip()]

    def _reduce_to(self, rho, keep):
        """Partial trace over every subsystem not in ``keep``; unknown names fail early."""
        for name in keep:
            rho.layout.axis(name)
        traced = [n for n in rho.layout.names if n not in keep]
        return self.hilbert.partial_trace(rho, traced) if traced else rho

    def cmd_negativity(self, doc=None):
        doc = doc if doc is not None else self._load_document()
        layout, env, model, liouv = self._build(doc)
        result = self._steady(liouv, model)
        start = time.perf_counter()
        keep = self._names(self.args.keep or "")
        rho = self._reduce_to(result.rho, keep) if keep else result.rho
        value = self.measures.log_negativity(rho, self._names(self.args.transpose))
        self.timings["measure"] = time.perf_counter() - start
        results = self._steady_results(result)
        results["transpose"] = self._names(self.args.transpose)
        if keep:
            results["keep"] = keep
        results["log_negativity"] = value
        return self._record(result.method, results, result.policy)

    def cmd_ptrace(self, doc=None):
        doc = doc if doc is not None else self._load_document()
        layout, env, model, liouv = self._build(doc)
        result = self._steady(liouv, model)
        start = time.perf_counter()
        keep = self._names(self.args.keep)
        reduced = self._reduce_to(result.rho, keep)
        self.timings["measure"] = time.perf_counter() - start
        results = self._steady_results(result)
        results["keep"] = keep
        results["rho_reduced"] = reduced.to_dense()
        return self._record(result.method, results, result.policy)

    # -- cascade -----------------------------------------------------------

    def _cascade_params(self, bump: int = 0):
        args = self.args
        return self.modelspec.CascadeParams(
            delta_a=args.delta_a, delta_b=args.delta_b,
            g_a=args.g_a, g_b=args.g_b,
            gamma_12=args.gamma_12, gamma_23=args.gamma_23,
            gamma_a=args.gamma_a, gamma_b=args.gamma_b,
            omega_a=args.omega_a, omega_b=args.omega_b,
            n_a=args.na + bump, n_b=args.nb + bump,
        )

    def _cascade_populations(self, doc, params):
        """Populations and displaced-frame photon numbers of the steady state,
        and the bindings of the document."""
        layout, env, model, liouv = self._build(doc)
        result = self._steady(liouv, model)
        start = time.perf_counter()
        observables = [
            ("sigma_11", env["s11"]),
            ("sigma_22", env["s22"]),
            ("sigma_33", env["s33"]),
            ("n_a", env["am"].dag() * env["am"]),
            ("n_b", env["bm"].dag() * env["bm"]),
        ]
        report = self.measures.population_report(observables, result.rho)
        displaced = None
        if params.g_a != 0 and params.g_b != 0:
            displaced = {
                "mode_a": self.measures.displaced_mode_population(
                    result.rho, env["am"], params.alpha),
                "mode_b": self.measures.displaced_mode_population(
                    result.rho, env["bm"], params.beta),
            }
        self.timings["measure"] = self.timings.get("measure", 0.0) \
            + time.perf_counter() - start
        return result, report, displaced, env

    def cmd_cascade(self):
        args = self.args
        params = self._cascade_params()
        doc = self.modelspec.cascade_document(params)
        text = self.modelspec.render_model(doc)
        if args.emit_model:
            self.stdout.write(text)
            return None
        self.model_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()

        if args.count is not None:
            return self.cmd_spectrum(doc)
        if args.negativity_all:
            return self._cascade_negativities(doc)
        if args.times:
            return self.cmd_evolve(doc)
        if args.transpose:
            return self.cmd_negativity(doc)
        if args.keep:
            return self.cmd_ptrace(doc)

        result, report, displaced, env = self._cascade_populations(doc, params)
        results = self._steady_results(result)
        results["populations"] = {
            "labels": list(report.labels),
            "values": list(report.values),
            "imaginary_residuals": list(report.imaginary_residuals),
        }
        if displaced is not None:
            results["displaced_populations"] = displaced
        if self.args.observables:
            extra = {}
            for label, op in self._observable_map(doc, env, self.args.observables):
                extra[label] = self.measures.expectation(op, result.rho)
            results["observables"] = extra
        if args.check_truncation:
            bumped = self._cascade_params(bump=1)
            bumped_doc = self.modelspec.cascade_document(bumped)
            _, bumped_report, bumped_displaced, _ = self._cascade_populations(
                bumped_doc, bumped)
            drift = max(
                abs(a - b) for a, b in zip(report.values, bumped_report.values)
            )
            if displaced is not None and bumped_displaced is not None:
                drift = max(
                    drift,
                    abs(displaced["mode_a"] - bumped_displaced["mode_a"]),
                    abs(displaced["mode_b"] - bumped_displaced["mode_b"]),
                )
            results["truncation_check"] = {
                "n_a": bumped.n_a,
                "n_b": bumped.n_b,
                "max_drift": drift,
            }
        return self._record(result.method, results, result.policy)

    # -- negativity benchmark ------------------------------------------------

    def _cascade_negativities(self, doc):
        layout, env, model, liouv = self._build(doc)
        result = self._steady(liouv, model)
        start = time.perf_counter()
        rho = result.rho
        partial_trace = self.hilbert.partial_trace
        log_negativity = self.measures.log_negativity
        values = {
            "cascade_vs_modes": log_negativity(rho, ["xi"]),
            "mode_a_vs_mode_b": log_negativity(partial_trace(rho, ["xi"]), ["a"]),
            "cascade_vs_mode_a": log_negativity(partial_trace(rho, ["b"]), ["xi"]),
            "cascade_vs_mode_b": log_negativity(partial_trace(rho, ["a"]), ["xi"]),
        }
        self.timings["measure"] = time.perf_counter() - start
        results = self._steady_results(result)
        results["log_negativities"] = values
        return self._record(result.method, results, result.policy)


def run(argv=None, stdout=None, stderr=None) -> int:
    """Parse arguments, execute, and write the result record.

    Returns the process exit code instead of raising SystemExit, so it can
    be called in-process.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    _apply_thread_cap()
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"meq: error: usage: {exc}", file=stderr)
        return 1

    from .dynamics import PropagationError
    from .modelspec import ModelError
    from .steady import CapacityError, ConvergenceError, DegeneracyError

    try:
        runner = _Runner(args, stdout, stderr)
        record = getattr(runner, f"cmd_{args.command}")()
        if record is not None:
            stdout.write(json.dumps(record, indent=2) + "\n")
        return 0
    except ModelError as exc:
        print(f"meq: error: model: {exc}", file=stderr)
        return 2
    except (DegeneracyError, ConvergenceError, CapacityError, PropagationError) as exc:
        print(f"meq: error: numerical: {exc}", file=stderr)
        return 3
    except _UsageError as exc:
        print(f"meq: error: usage: {exc}", file=stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"meq: error: usage: {exc}", file=stderr)
        return 1


def main(argv=None):
    sys.exit(run(argv))
