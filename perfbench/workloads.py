"""Workload definitions: the commands of one pass, their inputs and checks.

A workload is a list of ``Command`` objects that one pass runs in order.
Each command carries the ``meq`` argument list, the end-to-end kinds its
latency counts toward, and a check that receives the decoded JSON record and
a per-pass scratch dict (so a later command can compare with an earlier one).
A check returns an error string, or None when the record is correct.

Only ``sweep-small`` takes its parameters from the seed; the cascade
workloads use the paper's fixed parameters so their outputs can be compared
with reference values.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

# Reference values and tolerances of the acceptance gate
# (tests/test_acceptance.py), at the paper truncation n_a=4, n_b=2.
REF_POPULATIONS = (0.45882, 0.48438, 0.056796, 0.019165, 0.0012705)
REF_REAL_PARTS = (0.0, -1.0631, -1.5594, -1.5594, -1.5596)
REF_POP_A = 399.66
REF_POP_B = 24.961
REF_NEGATIVITIES = {
    "cascade_vs_modes": 0.0025892,
    "mode_a_vs_mode_b": 2.027e-07,
    "cascade_vs_mode_a": 0.0017957,
    "cascade_vs_mode_b": 9.2002e-05,
}
ALPHA, BETA = 20.0, 5.0  # displacements omega/g of the default cascade

RESIDUAL_TOL = 1e-10
LAMBDA0_TOL = 1e-8
TRACE_TOL = 1e-8
ROUTE_AGREEMENT_TOL = 1e-8

KINDS = ("steady", "linsolve", "spectrum", "evolve", "negativity")

Check = Callable[[dict, dict], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    kinds: tuple[str, ...]
    check: Check = field(compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    warmup: tuple[tuple[str, ...], ...]
    # Report times at the speed probe's reference speed (see speed.py).
    speed_probe: bool = False


# -- small helpers over decoded records -----------------------------------

def _re(pair) -> float:
    return float(pair[0])


def _cabs(pair) -> float:
    return math.hypot(pair[0], pair[1])


def _first_error(*checks: "str | None") -> "str | None":
    return next((c for c in checks if c), None)


def _residual(results: dict) -> "str | None":
    value = results["residual"]
    if not value <= RESIDUAL_TOL:
        return f"residual {value:.3e} > {RESIDUAL_TOL:g}"
    return None


def _lambda0(results: dict) -> "str | None":
    if "eigenvalue" in results and not _cabs(results["eigenvalue"]) <= LAMBDA0_TOL:
        return f"|lambda0| {_cabs(results['eigenvalue']):.3e} > {LAMBDA0_TOL:g}"
    return None


def _traces(values) -> "str | None":
    worst = max(abs(complex(*t) - 1.0) for t in values)
    if not worst <= TRACE_TOL:
        return f"trace off 1 by {worst:.3e}"
    return None


def _spectrum_lead(results: dict) -> "str | None":
    values = results["eigenvalues"]
    if not _cabs(values[0]) <= LAMBDA0_TOL:
        return f"|lambda0| {_cabs(values[0]):.3e} > {LAMBDA0_TOL:g}"
    if any(v[0] > LAMBDA0_TOL for v in values):
        return "eigenvalue with positive real part"
    return None


def _negativities_valid(values: dict) -> "str | None":
    bad = [k for k, v in values.items() if not (math.isfinite(v) and v >= 0.0)]
    return f"invalid log negativities {bad}" if bad else None


def _within_3_significant_digits(value: float, reference: float) -> bool:
    exponent = math.floor(math.log10(abs(reference)))
    return abs(value - reference) <= 0.5 * 10.0 ** (exponent - 2)


def _displaced(number: float, amplitude, shift: float) -> float:
    return shift ** 2 + number + 2.0 * shift * amplitude[0]


def _paper_populations(values, pop_a: float, pop_b: float) -> "str | None":
    if any(abs(v - r) > 1e-4 for v, r in zip(values, REF_POPULATIONS)):
        return f"populations {values} differ from {REF_POPULATIONS}"
    if abs(pop_a - REF_POP_A) / REF_POP_A >= 1e-3 or abs(pop_b - REF_POP_B) / REF_POP_B >= 1e-3:
        return f"displaced populations ({pop_a}, {pop_b}) differ from reference"
    return None


# -- cascade workloads ----------------------------------------------------

CASCADE_OBSERVABLES = "s11,s22,s33,am'*am,bm'*bm,am,bm"


def _routes_agree(values, scratch: dict) -> "str | None":
    """Compare with the populations an earlier command of the pass reported."""
    other = scratch.setdefault("populations", values)
    gap = max(abs(a - b) for a, b in zip(values, other))
    if gap > ROUTE_AGREEMENT_TOL:
        return f"steady routes disagree on the populations by {gap:.3e}"
    return None


def _cascade_populations_check(paper: bool) -> Check:
    def check(rec, scratch):
        res = rec["results"]
        values = res["populations"]["values"]
        error = _first_error(_residual(res), _lambda0(res))
        if error or not paper:
            return error or _routes_agree(values, scratch)
        disp = res["displaced_populations"]
        return _paper_populations(values, disp["mode_a"], disp["mode_b"])
    return check


def _cascade_file_check(paper: bool) -> Check:
    def check(rec, scratch):
        res = rec["results"]
        obs = res["observables"]
        values = [_re(obs[k]) for k in ("s11", "s22", "s33", "am'*am", "bm'*bm")]
        error = _first_error(_residual(res), _lambda0(res))
        if error:
            return error
        if paper:
            return _paper_populations(
                values,
                _displaced(values[3], obs["am"], ALPHA),
                _displaced(values[4], obs["bm"], BETA),
            )
        return _routes_agree(values, scratch)
    return check


def _cascade_spectrum_check(paper: bool) -> Check:
    def check(rec, scratch):
        res = rec["results"]
        error = _spectrum_lead(res)
        if error or not paper:
            return error
        values = res["eigenvalues"]
        if any(abs(v[0] - r) > 5e-3 for v, r in zip(values, REF_REAL_PARTS)):
            return f"top-5 real parts {[v[0] for v in values]} differ from reference"
        pair = sorted(v[1] for v in values[2:4])
        if abs(pair[0] + 20.62) >= 5e-3 or abs(pair[1] - 20.62) >= 5e-3:
            return f"oscillating pair {pair} differs from +-20.62"
        if abs(abs(values[4][1]) - 20.617) >= 5e-3:
            return f"fifth eigenvalue {values[4]} differs from reference"
        return None
    return check


def _cascade_negativity_check(paper: bool) -> Check:
    def check(rec, scratch):
        res = rec["results"]
        values = res["log_negativities"]
        error = _first_error(_residual(res), _negativities_valid(values))
        if error or not paper:
            return error
        for key in ("cascade_vs_modes", "cascade_vs_mode_a", "cascade_vs_mode_b"):
            if not _within_3_significant_digits(values[key], REF_NEGATIVITIES[key]):
                return f"log negativity {key} = {values[key]} differs from reference"
        ref = REF_NEGATIVITIES["mode_a_vs_mode_b"]
        if abs(values["mode_a_vs_mode_b"] - ref) / ref >= 0.10:
            return f"log negativity mode_a_vs_mode_b = {values['mode_a_vs_mode_b']}"
        return None
    return check


def _evolve_check(rec, scratch):
    return _traces(rec["results"]["trace"])


def _steady_only_check(rec, scratch):
    res = rec["results"]
    return _first_error(_residual(res), _lambda0(res))


def _emit_cascade_model(run, path: str, size: tuple[str, ...]) -> None:
    """Write the canonical cascade document through ``meq cascade --emit-model``."""
    rc, text, err = run(("cascade", *size, "--emit-model"))
    if rc != 0:
        raise RuntimeError(f"meq cascade --emit-model failed: {err}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


TINY_CASCADE = ("--na", "2", "--nb", "1")


def _cascade_warmup(workdir: str, run) -> tuple[tuple[str, ...], ...]:
    """Tiny commands that load every lazily imported solver once."""
    model_path = os.path.join(workdir, "warmup.model")
    _emit_cascade_model(run, model_path, TINY_CASCADE)
    return (
        ("cascade", *TINY_CASCADE),
        ("cascade", *TINY_CASCADE, "--method", "sparse", "--negativity-all"),
        ("cascade", *TINY_CASCADE, "-k", "3"),
        ("cascade", *TINY_CASCADE, "--times", "0.5,1"),
        ("cascade", *TINY_CASCADE, "--method", "sparse", "-k", "3"),
        ("steady", model_path, "--method", "solve", "--observables", "s11"),
    )


def cascade_2025(workdir: str, seed: int, run, smoke: bool) -> Workload:
    """Paper truncation n_a=4, n_b=2 (superspace 2025), default routes.

    The two dense commands (20 s and 10 s at the seed) run once.  The three
    cheap ones run three times, spread around them, so that each median
    rests on samples taken at different moments.  The negativity command is forced onto the sparse route: on the default
    (dense-eig) route it would repeat the 20 s eigendecomposition of the
    steady command and push one run past the time the benchmark can afford.
    """
    size = TINY_CASCADE if smoke else ("--na", "4", "--nb", "2")
    paper = not smoke
    model = os.path.join(workdir, "cascade-2025.model")
    _emit_cascade_model(run, model, size)
    cheap = (
        Command(("cascade", *size, "--times", "0.5,1,2"), ("evolve",), _evolve_check),
        Command(("cascade", *size, "--negativity-all", "--method", "sparse"),
                ("negativity",), _cascade_negativity_check(paper)),
        Command(("steady", model, "--method", "solve", "--observables",
                 CASCADE_OBSERVABLES), ("linsolve",), _cascade_file_check(paper)),
    )
    steady = Command(("cascade", *size), ("steady",), _cascade_populations_check(paper))
    spectrum = Command(("cascade", *size, "-k", "5"), ("spectrum",),
                       _cascade_spectrum_check(paper))
    commands = cheap + (steady,) + cheap + (spectrum,) + cheap
    return Workload("cascade-2025", commands, _cascade_warmup(workdir, run))


def cascade_7056(workdir: str, seed: int, run, smoke: bool) -> Workload:
    """Sparse side of the size policy: n_a=6, n_b=3 (superspace 7056).

    The cycle runs twice, so that every command has two samples.  The small ``--method dense`` reference (superspace 576) gives the dense
    steady layer samples on this workload too, so that no per-layer time
    reads a constant zero.
    """
    size = ("--na", "3", "--nb", "1") if smoke else ("--na", "6", "--nb", "3")
    model = os.path.join(workdir, "cascade-7056.model")
    _emit_cascade_model(run, model, size)
    cycle = (
        Command(("cascade", *size), ("steady",), _cascade_populations_check(False)),
        Command(("cascade", *size, "-k", "5"), ("spectrum",),
                _cascade_spectrum_check(False)),
        Command(("cascade", *size, "--negativity-all"), ("negativity",),
                _cascade_negativity_check(False)),
        Command(("cascade", *size, "--times", "0.5,1,2"), ("evolve",), _evolve_check),
        Command(("steady", model, "--method", "solve", "--observables",
                 CASCADE_OBSERVABLES), ("linsolve",), _cascade_file_check(False)),
        Command(("cascade", "--na", "3", "--nb", "1", "--method", "dense"), (),
                _steady_only_check),
    )
    return Workload("cascade-7056", 2 * cycle, _cascade_warmup(workdir, run))


# -- sweep-small ----------------------------------------------------------

# (emitter levels, mode dimensions): composite d from 4 to 16.  The shapes
# are fixed so that a pass costs the same on every seed; the seed draws the
# rates, drives, couplings and detunings.
SWEEP_SHAPES = (
    (2, (2,)), (3, (2,)), (2, (3,)), (2, (2, 2)), (3, (3,)), (2, (5,)),
    (3, (2, 2)), (3, (4,)), (2, (2, 3)), (3, (5,)), (2, (2, 4)), (2, (8,)),
)
SMOKE_SHAPES = ((2, (2,)), (3, (2,)))


def _term(coefficient: float, expr: str) -> str:
    sign = "-" if coefficient < 0 else "+"
    return f" {sign} {abs(coefficient):.4f}*{expr}"


def sweep_model_text(levels: int, modes: tuple[int, ...], rng: random.Random) -> str:
    """A driven, damped emitter coupled to damped modes.

    Every emitter transition j -> j+1 is driven and decays, and every mode
    couples to one transition and is damped, so each level is reached and
    the steady state is unique.
    """
    lines = ["spaces:", f"  e {levels}"]
    lines += [f"  m{i + 1} {dim}" for i, dim in enumerate(modes)]
    lines.append("define:")
    lines += [f"  s{j} = trans(e,{j},{j + 1})" for j in range(1, levels)]
    lines += [f"  b{i + 1} = a(m{i + 1})" for i in range(len(modes))]
    h = [f"{rng.uniform(0.5, 2.0):.4f}*(s1 + s1')"]
    h += [_term(rng.uniform(0.5, 2.0), f"(s{j} + s{j}')") for j in range(2, levels)]
    h += [_term(rng.uniform(-1.0, 1.0), f"proj(e,{j})") for j in range(2, levels + 1)]
    for i in range(len(modes)):
        s = f"s{1 + i % (levels - 1)}"
        h.append(_term(rng.uniform(0.3, 1.0), f"(b{i + 1}'*{s} + b{i + 1}*{s}')"))
    lines += ["hamiltonian:", "  " + "".join(h), "dissipators:"]
    lines += [f"  {rng.uniform(0.5, 1.5):.4f} , s{j}" for j in range(1, levels)]
    lines += [f"  {rng.uniform(1.0, 3.0):.4f} , b{i + 1}" for i in range(len(modes))]
    return "\n".join(lines) + "\n"


def _sweep_steady_check(levels: int, key: str) -> Check:
    def check(rec, scratch):
        res = rec["results"]
        scratch[key] = [_re(res["observables"][f"proj(e,{j})"]) for j in range(1, levels + 1)]
        rho = res["rho"]
        return _first_error(_residual(res), _lambda0(res),
                            _traces([[sum(rho[i][i][0] for i in range(len(rho))), 0.0]]))
    return check


def _sweep_ptrace_check(key: str) -> Check:
    def check(rec, scratch):
        res = rec["results"]
        reduced = res["rho_reduced"]
        diag = [reduced[i][i][0] for i in range(len(reduced))]
        error = _first_error(_residual(res), _traces([[sum(diag), 0.0]]))
        if error:
            return error
        gap = max(abs(a - b) for a, b in zip(diag, scratch[key]))
        if gap > ROUTE_AGREEMENT_TOL:
            return f"solve-route emitter populations differ by {gap:.3e}"
        return None
    return check


def _sweep_spectrum_check(rec, scratch):
    return _spectrum_lead(rec["results"])


def _sweep_negativity_check(rec, scratch):
    res = rec["results"]
    return _first_error(_residual(res),
                        _negativities_valid({"value": res["log_negativity"]}))


def sweep_small(workdir: str, seed: int, run, smoke: bool) -> Workload:
    rng = random.Random(seed)
    commands = []
    first_model = None
    for index, (levels, modes) in enumerate(SMOKE_SHAPES if smoke else SWEEP_SHAPES):
        path = os.path.join(workdir, f"sweep-{index:02d}.model")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(sweep_model_text(levels, modes, rng))
        first_model = first_model or path
        key = f"populations-{index}"
        observables = ",".join([f"proj(e,{j})" for j in range(1, levels + 1)] + ["b1'*b1"])
        keep = "e" if len(modes) == 1 else "e,m1"
        commands += [
            Command(("steady", path, "--observables", observables), ("steady",),
                    _sweep_steady_check(levels, key)),
            Command(("spectrum", path, "-k", "3"), ("spectrum",), _sweep_spectrum_check),
            Command(("evolve", path, "--times", "0.5,1,2", "--observables", "proj(e,2)"),
                    ("evolve",), _evolve_check),
            Command(("negativity", path, "--transpose", "e", "--keep", keep,
                     "--method", "sparse"), ("negativity",), _sweep_negativity_check),
            Command(("ptrace", path, "--keep", "e", "--method", "solve"), ("linsolve",),
                    _sweep_ptrace_check(key)),
        ]
    warmup = (
        ("steady", first_model),
        ("spectrum", first_model, "-k", "3"),
        ("evolve", first_model, "--times", "0.5,1"),
        ("negativity", first_model, "--transpose", "e", "--method", "sparse"),
        ("ptrace", first_model, "--keep", "e", "--method", "solve"),
    )
    return Workload("sweep-small", tuple(commands), warmup, speed_probe=True)


WORKLOADS = {
    "cascade-2025": cascade_2025,
    "cascade-7056": cascade_7056,
    "sweep-small": sweep_small,
}
