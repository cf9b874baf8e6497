"""Command-line front-end: model ingestion, solvers, and JSON records.

Every run writes a single JSON record to stdout (human diagnostics go to
stderr):

    {"command": ..., "model_hash": ..., "method": ...,
     "results": {...}, "timings": {...}}

Complex numbers appear as two-element [re, im] arrays, matrices as row-major
nested arrays; identical inputs give byte-identical records apart from the
timings block.  Exit codes: 0 success, 1 usage problems, 2 model file errors
(lexical/syntax/semantic), 3 numerical failures (non-convergence, degenerate
steady states, a dense route above the dense capacity, a propagated state
that is not a density matrix, or memory that ran out).

Each command hashes and parses its model text (the model file, or the
cascade's :func:`meq.modelspec.cascade_text`), then builds, solves and
measures.  The timings block holds the seconds of each stage that ran,
``parse``, ``operators`` (the model's operators), ``assemble`` (the
Liouvillian), ``solve`` and ``measure``, summed over repeats such as
the second solve of ``cascade --check-truncation``.  The cascade flags mirror
the fields and defaults of :class:`meq.modelspec.CascadeParams`, with
``--na``/``--nb`` for ``n_a``/``n_b``; a cascade mode takes the flags of the
command or report it runs, and any other flag is a usage error.

Set MEQ_THREADS to cap the BLAS/LAPACK thread pools; it must take effect
before the numeric libraries load, which is why this module defers every
heavy import until after the environment is prepared.
"""

from __future__ import annotations

import argparse
import contextlib
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
    """A complex flag value: ``3+2i``, ``2i``, ``3+2j`` or ``(3,2)``."""
    text = text.strip()
    try:
        if text.startswith("(") and text.endswith(")") and "," in text:
            re_part, im_part = text[1:-1].split(",", 1)
            return complex(float(re_part), float(im_part))
        # only a trailing i is the imaginary unit: inf and nan keep theirs
        return complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid complex number: {text!r}") from None


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


# every command flag: dest -> (spelling, add_argument keywords), in meq cascade's order
_FLAGS = {
    "emit_model": ("--emit-model", dict(
        action="store_true", help="print the canonical model document and exit")),
    "count": ("-k", dict(type=int, help="how many eigenvalues (largest real part)")),
    "negativity_all": ("--negativity-all", dict(
        action="store_true", help="the four benchmark logarithmic negativities")),
    "transpose": ("--transpose", dict(help="subsystems to partially transpose")),
    "times": ("--times", dict(help="comma-separated times")),
    "keep": ("--keep", dict(help="subsystems to keep (negativity: reduce to them first)")),
    "observables": ("--observables", dict(help="comma-separated operator expressions")),
    "initial": ("--initial", dict(help="'ground' (default), 'maximally-mixed', or a "
                                  "density-matrix expression")),
    "check_truncation": ("--check-truncation", dict(
        action="store_true", help="rerun with one more photon per mode, report drift")),
    "method": ("--method", dict(choices=("dense", "sparse", "solve"),
                                help="steady-state route (default: by problem size)")),
}

# the model commands: name -> (help, the flag it requires, the flags it may take)
_COMMANDS = {
    "steady": ("steady state and expectation values", None, ("method", "observables")),
    "spectrum": ("leading Liouvillian eigenvalues", "count", ()),
    "evolve": ("propagate a state through a time list", "times", ("initial", "observables")),
    "negativity": ("logarithmic negativity of the steady state", "transpose", ("keep", "method")),
    "ptrace": ("reduced steady-state density matrix", "keep", ("method",)),
}

# meq cascade's modes by the flag that picks each, first given first (None, the population
# report, runs without one): the command a mode runs, whose flags and --method it takes, or
# a report of the cascade's own and the flags it takes.  --emit-model prints the model text
# in place of a run (see _Runner.document) and takes only the parameter flags.
_CASCADE_MODES = {
    "emit_model": (None,),
    "count": "spectrum",
    "negativity_all": ("_cascade_negativities", "method"),
    "times": "evolve",
    "transpose": "negativity",
    "keep": "ptrace",
    None: ("_cascade_report", "observables", "check_truncation", "method"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meq",
        description="Lindblad master equations: steady states, spectra, "
        "dynamics, and entanglement measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, dests, required=None):
        for dest in dests:
            spelling, keywords = _FLAGS[dest]
            p.add_argument(spelling, dest=dest, required=dest == required, **keywords)

    for name, (help_text, required, optional) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model")
        add_flags(p, (required, *optional) if required else optional, required)

    p_casc = sub.add_parser("cascade", help="built-in cascade benchmark")
    # one flag per CascadeParams field; the Fock truncations keep short spellings
    from .modelspec import CascadeParams

    flag_types = {"float": float, "complex": _parse_complex, "int": int}
    spellings = {"n_a": ("--na", "Fock truncation of mode a"),
                 "n_b": ("--nb", "Fock truncation of mode b")}
    for field in dataclasses.fields(CascadeParams):
        flag, help_text = spellings.get(field.name, ("--" + field.name.replace("_", "-"), None))
        p_casc.add_argument(flag, dest=field.name, type=flag_types[field.type],
                            default=field.default, help=help_text)
    add_flags(p_casc, _FLAGS)
    return parser


def _given(args, dest):
    """Whether a flag was given: an unset one is None or False, but -k 0 and --times "" count."""
    return getattr(args, dest) is not None and getattr(args, dest) is not False


def _cascade_mode(args):
    """The flag that picks what ``meq cascade`` runs (None for the population
    report), the runner method that runs it, and the other flags it takes."""
    flag = next((dest for dest in _CASCADE_MODES if dest and _given(args, dest)), None)
    mode = _CASCADE_MODES[flag]
    if isinstance(mode, str):
        mode = (f"cmd_{mode}", "method", *_COMMANDS[mode][2])
    return flag, mode[0], mode[1:]


def _check_flags(args):
    """Usage errors the argument parser cannot see: an ``--observables``, ``--keep`` or
    ``--transpose`` list that names nothing, and a ``meq cascade`` flag its mode would
    ignore.  An unset ``--initial`` becomes ``ground``."""
    for dest, item in (("observables", "expression"), ("keep", "subsystem"),
                       ("transpose", "subsystem")):
        if getattr(args, dest, None) is not None and not _split_top_level(getattr(args, dest)):
            raise _UsageError(f"{_FLAGS[dest][0]} lists no {item}")
    if args.command == "cascade":
        flag, _, takes = _cascade_mode(args)
        # another mode flag is reported first, then the rest in declaration order
        for dest in (*filter(None, _CASCADE_MODES), *_FLAGS):
            if dest not in (flag, *takes) and _given(args, dest):
                spelling = _FLAGS[flag][0] if flag else "without a mode flag"
                raise _UsageError(f"cascade {spelling} does not use {_FLAGS[dest][0]}")
    if hasattr(args, "initial") and args.initial is None:
        args.initial = "ground"


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

    def __init__(self, args, stdout):
        from . import dynamics, hilbert, measures, modelspec, steady, superspace

        self.args = args
        self.stdout = stdout
        self.hilbert = hilbert
        self.superspace = superspace
        self.steady = steady
        self.dynamics = dynamics
        self.measures = measures
        self.modelspec = modelspec
        self.timings: dict[str, float] = {}

    # -- plumbing ----------------------------------------------------------

    @contextlib.contextmanager
    def _timed(self, stage):
        """Add the time spent in the block to ``timings[stage]``."""
        start = time.perf_counter()
        yield
        self.timings[stage] = self.timings.get(stage, 0.0) + time.perf_counter() - start

    def document(self):
        """The model file's or the cascade's text: hashed, printed in place of
        a run for ``--emit-model`` (None), and otherwise parsed."""
        args = self.args
        with self._timed("parse"):
            if args.command == "cascade":
                raw = self.modelspec.cascade_text(self._cascade_params()).encode("utf-8")
            else:
                try:
                    with open(args.model, "rb") as handle:
                        raw = handle.read()
                except OSError as exc:
                    raise _UsageError(f"cannot read model file {args.model!r}: {exc}") from exc
            self.model_hash = hashlib.sha256(raw).hexdigest()
            text = raw.decode("utf-8")
            if getattr(args, "emit_model", False):
                self.stdout.write(text)
                return None
            return self.modelspec.parse_model(text)

    def _build(self, doc):
        """The document's bindings and the generator of its model."""
        with self._timed("operators"):
            layout, env = self.modelspec.document_environment(doc)
            model = self.modelspec.build_model(doc, (layout, env))
        with self._timed("assemble"):
            liouv = self.superspace.build_liouvillian(model)
        return env, liouv

    def _steady(self, doc):
        """The document's bindings and :func:`meq.steady.steady_state` of its model."""
        env, liouv = self._build(doc)
        with self._timed("solve"):
            return env, self.steady.steady_state(liouv, self.args.method)

    def _observables(self, doc, env, states):
        """Each ``--observables`` expression, evaluated once, with its
        expectation value in each of ``states``."""
        values = {}
        for text in _split_top_level(self.args.observables):
            op = self.modelspec.evaluate_observable(doc, text, env=env)
            values[text] = [self.measures.expectation(op, state) for state in states]
        return values

    def _steady_observables(self, doc, env, rho):
        """The ``observables`` entry of a steady record, if there are any."""
        with self._timed("measure"):
            if not self.args.observables:
                return {}
            values = self._observables(doc, env, [rho])
        return {"observables": {label: value for label, (value,) in values.items()}}

    def _steady_record(self, result, **extra):
        """The record of a steady state: its checks and diagnostics, then ``extra``."""
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
        results.update(extra)
        return self._record(result.method, results, result.policy)

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

    def cmd_steady(self, doc):
        env, result = self._steady(doc)
        observables = self._steady_observables(doc, env, result.rho)
        return self._steady_record(result, rho=result.rho.to_dense(), **observables)

    def cmd_spectrum(self, doc):
        _, liouv = self._build(doc)
        with self._timed("solve"):
            spec = self.steady.spectrum(liouv, self.args.count)
        results = {
            "count_requested": spec.count_requested,
            "eigenvalues": list(spec.eigenvalues),
        }
        if spec.diagnostics is not None:
            results["diagnostics"] = spec.diagnostics
        return self._record(spec.policy.route, results, spec.policy)

    def _initial_state(self, doc, layout, env):
        text = self.args.initial
        if text == "ground":  # |1><1| on the whole space: the first basis state
            first = self.hilbert.transition(layout.total_dim, 1, 1)
            return self.hilbert.Operator(layout, first)
        if text == "maximally-mixed":
            return self.hilbert.identity_operator(layout) / layout.total_dim
        op = self.modelspec.evaluate_observable(doc, text, env=env)
        trace = op.trace()
        if abs(trace) <= 1e-12 * abs(op.matrix).max():  # <=: the zero operator too
            raise _UsageError(f"initial state expression {text!r} has zero trace")
        return op / trace

    def cmd_evolve(self, doc):
        env, liouv = self._build(doc)
        times = [float(t) for t in self.args.times.split(",") if t.strip()]
        if not times:
            raise _UsageError("no times given")
        rho0 = self._initial_state(doc, liouv.layout, env)
        with self._timed("solve"):
            trajectory = self.dynamics.evolve_trajectory(liouv, rho0, times)
        with self._timed("measure"):
            observables = (self._observables(doc, env, trajectory.states)
                           if self.args.observables else {})
        results = {
            "initial": self.args.initial,
            "times": list(trajectory.times),
            "trace": list(trajectory.traces),
            "min_eigenvalues": list(trajectory.min_eigenvalues),
            "diagnostics": trajectory.diagnostics,
        }
        if observables:
            results["observables"] = observables
        return self._record(trajectory.policy.route, results, trajectory.policy)

    def _subsystems(self, doc, dest):
        """The names a ``--keep`` or ``--transpose`` list gives, each a space of the
        model and none twice, checked before any solve."""
        names, spaces = _split_top_level(getattr(self.args, dest)), tuple(dict(doc.spaces))
        flag = _FLAGS[dest][0]
        for j, name in enumerate(names):
            if name not in spaces:
                raise _UsageError(f"{flag} names unknown subsystem {name!r}; "
                                  f"the model has {spaces}")
            if name in names[:j]:
                raise _UsageError(f"{flag} names subsystem {name!r} twice")
        return names

    def _reduce_to(self, rho, keep):
        """Partial trace over every subsystem not in ``keep``."""
        traced = [n for n in rho.layout.names if n not in keep]
        return self.hilbert.partial_trace(rho, traced) if traced else rho

    def cmd_negativity(self, doc):
        transpose = self._subsystems(doc, "transpose")
        keep = self._subsystems(doc, "keep") if self.args.keep is not None else []
        for name in transpose:
            if keep and name not in keep:
                raise _UsageError(f"--transpose names subsystem {name!r}, which --keep drops")
        _, result = self._steady(doc)
        with self._timed("measure"):
            rho = self._reduce_to(result.rho, keep) if keep else result.rho
            value = self.measures.log_negativity(rho, transpose)
        extra = {"transpose": transpose}
        if keep:
            extra["keep"] = keep
        return self._steady_record(result, **extra, log_negativity=value)

    def cmd_ptrace(self, doc):
        keep = self._subsystems(doc, "keep")
        _, result = self._steady(doc)
        with self._timed("measure"):
            reduced = self._reduce_to(result.rho, keep)
        return self._steady_record(result, keep=keep, rho_reduced=reduced.to_dense())

    # -- cascade -----------------------------------------------------------

    def _cascade_params(self):
        fields = dataclasses.fields(self.modelspec.CascadeParams)
        return self.modelspec.CascadeParams(**{f.name: getattr(self.args, f.name) for f in fields})

    def cmd_cascade(self, doc):
        """Run what the first mode flag given picks, or report the populations."""
        return getattr(self, _cascade_mode(self.args)[1])(doc)

    def _cascade_populations(self, doc, params):
        """The steady state, its bindings, the record entries of its populations and
        (unless a coupling is 0) displaced photon numbers, and those numbers."""
        env, result = self._steady(doc)
        with self._timed("measure"):
            observables = [
                ("sigma_11", env["s11"]),
                ("sigma_22", env["s22"]),
                ("sigma_33", env["s33"]),
                ("n_a", env["am"].dag() * env["am"]),
                ("n_b", env["bm"].dag() * env["bm"]),
            ]
            report = self.measures.population_report(observables, result.rho)
            entries = {"populations": dataclasses.asdict(report)}
            if params.g_a != 0 and params.g_b != 0:
                entries["displaced_populations"] = {
                    "mode_a": self.measures.displaced_mode_population(
                        result.rho, env["am"], params.alpha),
                    "mode_b": self.measures.displaced_mode_population(
                        result.rho, env["bm"], params.beta),
                }
        values = [*report.values, *entries.get("displaced_populations", {}).values()]
        return result, env, entries, values

    def _cascade_report(self, doc):
        params = self._cascade_params()
        result, env, extra, values = self._cascade_populations(doc, params)
        extra.update(self._steady_observables(doc, env, result.rho))
        if self.args.check_truncation:
            bumped = dataclasses.replace(params, n_a=params.n_a + 1, n_b=params.n_b + 1)
            with self._timed("parse"):
                bumped_doc = self.modelspec.cascade_document(bumped)
            bumped_values = self._cascade_populations(bumped_doc, bumped)[3]
            extra["truncation_check"] = {
                "n_a": bumped.n_a,
                "n_b": bumped.n_b,
                "max_drift": max(abs(a - b) for a, b in zip(values, bumped_values)),
            }
        return self._steady_record(result, **extra)

    def _cascade_negativities(self, doc):
        _, result = self._steady(doc)
        partial_trace = self.hilbert.partial_trace
        log_negativity = self.measures.log_negativity
        with self._timed("measure"):
            values = {
                "cascade_vs_modes": log_negativity(result.rho, ["xi"]),
                "mode_a_vs_mode_b": log_negativity(partial_trace(result.rho, ["xi"]), ["a"]),
                "cascade_vs_mode_a": log_negativity(partial_trace(result.rho, ["b"]), ["xi"]),
                "cascade_vs_mode_b": log_negativity(partial_trace(result.rho, ["a"]), ["xi"]),
            }
        return self._steady_record(result, log_negativities=values)


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
        _check_flags(args)
    except _UsageError as exc:
        print(f"meq: error: usage: {exc}", file=stderr)
        return 1

    from .dynamics import PropagationError
    from .modelspec import ModelError
    from .steady import CapacityError, ConvergenceError, DegeneracyError

    try:
        runner = _Runner(args, stdout)
        doc = runner.document()
        if doc is not None:
            record = getattr(runner, f"cmd_{args.command}")(doc)
            stdout.write(json.dumps(record, indent=2) + "\n")
        return 0
    except ModelError as exc:
        print(f"meq: error: model: {exc}", file=stderr)
        return 2
    except (DegeneracyError, ConvergenceError, CapacityError, PropagationError) as exc:
        print(f"meq: error: numerical: {exc}", file=stderr)
        return 3
    except MemoryError as exc:
        print(f"meq: error: numerical: memory ran out {exc}".rstrip(), file=stderr)
        return 3
    except (_UsageError, ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"meq: error: usage: {message}", file=stderr)
        return 1


def main(argv=None):
    sys.exit(run(argv))
