import ast
import io
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import STEADY_ROUTES, count_route_calls, record_text_oracle
import meq
from meq import cli
from meq.cli import run
from meq.modelspec import CascadeParams, cascade_document, parse_model, render_model

QUBIT_DECAY = """\
spaces:
  q 2
define:
  jm = trans(q,1,2)
hamiltonian:
  0
dissipators:
  1 , jm
"""

DRIVEN_QUBIT = """\
spaces:
  q 2
define:
  sm = trans(q,1,2)
hamiltonian:
  sm + sm'
dissipators:
  1 , sm
"""

DEGENERATE = """\
spaces:
  q 2
hamiltonian:
  proj(q,2)
"""

TWO_QUBIT_DECAY = """\
spaces:
  p 2
  q 2
define:
  jp = trans(p,1,2)
  jq = trans(q,1,2)
hamiltonian:
  0
dissipators:
  1 , jp
  1 , jq
"""

# small cascade: keeps the dense routes fast in CLI tests
SMALL_CASCADE = ["--na", "1", "--nb", "1"]

# the solver the solve route records, by superspace dimension
LINSOLVE_POLICIES = {
    4: {"route": "dense", "reason": "linsolve: n=4 < 400"},
    36: {"route": "dense", "reason": "linsolve: n=36 < 400"},
    324: {"route": "dense", "reason": "linsolve: n=324 < 400"},
    441: {"route": "sparse", "reason": "linsolve: n=441 >= 400"},
    576: {"route": "sparse", "reason": "linsolve: n=576 >= 400"},
    1296: {"route": "gmres", "reason": "linsolve: n=1296 >= 1024"},
}
# the diagnostics of each solver of the solve route
LINSOLVE_KEYS = {
    "dense": {"linsolve_policy"},
    "sparse": {"linsolve_policy", "lu_nnz"},
    "gmres": {"linsolve_policy", "gmres_iterations", "check_iterations",
              "gmres_relative_residual", "sylvester_shift", "preconditioner",
              "replaced_level", "check_level", "state_difference"},
}
DEFAULT_STEADY = {"route": "solve", "reason": "steady: the row-replacement solve at every n"}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_process(argv, threads="1"):
    """Run ``python -m meq`` in a fresh process under ``MEQ_THREADS=threads``;
    returns the exit code, stdout and stderr, which shows every warning."""
    src = os.path.dirname(os.path.dirname(meq.__file__))
    env = {k: v for k, v in os.environ.items() if k not in meq._THREAD_VARS}
    env.update(MEQ_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "meq", *argv], capture_output=True, text=True,
                          env=env)
    return proc.returncode, proc.stdout, proc.stderr


def invoke_record(argv):
    code, out, err = invoke(argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def model_file(tmp_path):
    def write(text, name="model.model"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestExitCodes:
    def test_one_parser_per_process(self):
        from meq import cli

        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_usage_errors(self):
        code, _, err = invoke(["bogus"])
        assert code == 1 and "usage" in err
        code, _, err = invoke(["steady", "/does/not/exist.model"])
        assert code == 1

    def test_model_errors(self, model_file):
        path = model_file("spaces:\n  q 2\nhamiltonian:\n  1 +\n")
        code, _, err = invoke(["steady", path])
        assert code == 2
        assert "error: model" in err and "line 4" in err

    @pytest.mark.parametrize("source,message", [
        ("2²", "malformed number"),
        ("²", "unexpected character"),
    ])
    def test_non_decimal_digit_is_model_error(self, tmp_path, source, message):
        path = tmp_path / "digits.model"
        path.write_text(f"spaces:\n  q 2\nhamiltonian:\n  {source}\n", encoding="utf-8")
        code, out, err = invoke(["steady", str(path)])
        assert code == 2 and out == ""
        assert "error: model" in err and message in err and "line 4" in err

    def test_non_utf8_byte_is_model_error(self, tmp_path):
        path = tmp_path / "latin1.model"
        path.write_bytes(b"spaces:\n  q 2\nhamiltonian:\n  \xff*trans(q,1,2)\n")
        code, out, err = invoke(["steady", str(path)])
        assert (code, out) == (2, "")
        assert err == ("meq: error: model: line 4, column 3: "
                       "invalid UTF-8 byte 0xff (invalid start byte)\n")

    # an overflowing literal used to pass the lexer as inf, with a numpy
    # RuntimeWarning and a late usage or Hermiticity error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body,position", [
        ("0\ndissipators:\n  1e400 , trans(q,1,2)", "line 6, column 3"),
        ("1e400*trans(q,1,2) + 1e400*trans(q,2,1)", "line 4, column 3"),
    ])
    def test_overflowing_literal_is_model_error(self, model_file, body, position):
        path = model_file(f"spaces:\n  q 2\nhamiltonian:\n  {body}\n")
        code, out, err = invoke(["steady", path])
        assert (code, out) == (2, "")
        assert err == f"meq: error: model: {position}: number out of range '1e400'\n"

    # finite literals whose products overflow: scipy's "array must not contain
    # infs or NaNs" as a usage error, or a Hamiltonian called non-Hermitian
    @pytest.mark.parametrize("command", [
        ["steady"], ["steady", "--method", "dense"], ["steady", "--method", "sparse"],
        ["steady", "--method", "solve"], ["spectrum", "-k", "2"],
    ])
    def test_overflowing_dissipator_is_model_error(self, model_file, command):
        # 2 rate J^dag J = 2 * 1e300 * 1e20
        path = model_file("spaces:\n  q 2\nhamiltonian:\n  0.5*(trans(q,1,2) + trans(q,2,1))\n"
                          "dissipators:\n  1e300 , 1e10*trans(q,1,2)\n")
        code, out, err = invoke([command[0], path, *command[1:]])
        assert (code, out) == (2, "")
        assert err.startswith("meq: error: model: line 6, column 15: dissipator expression "
                              "overflows: 2 times rate 1e+300 times J^dag J has a non-finite entry")

    def test_overflowing_hamiltonian_is_model_error(self, model_file):
        path = model_file("spaces:\n  q 2\ndefine:\n  x = 1e200*(trans(q,1,2) + trans(q,2,1))\n"
                          "hamiltonian:\n  x*x\ndissipators:\n  1 , trans(q,1,2)\n")
        message = ("meq: error: model: line 6, column 4: hamiltonian expression "
                   "overflows: its value has a non-finite entry\n")
        assert invoke(["steady", path]) == (2, "", message)
        # numpy's overflow warnings reach only a process's own stderr
        assert invoke_process(["steady", path]) == (2, "", message)

    def test_overflowing_binding_is_model_error(self, model_file):
        # y overflows where the bindings are evaluated, before the Hamiltonian
        path = model_file("spaces:\n  q 2\ndefine:\n  x = 1e200*(trans(q,1,2) + trans(q,2,1))\n"
                          "  y = x*x\nhamiltonian:\n  y\ndissipators:\n  1 , trans(q,1,2)\n")
        message = ("meq: error: model: line 7, column 3: hamiltonian expression "
                   "overflows: its value has a non-finite entry\n")
        assert invoke_process(["steady", path]) == (2, "", message)

    @pytest.mark.parametrize("command", [
        ["steady", "{path}"], ["evolve", "{path}", "--times", "0,1"], ["cascade", *SMALL_CASCADE],
    ])
    @pytest.mark.parametrize("observables", [",", "", " , "])
    def test_observables_without_expression_is_usage_error(self, model_file, command, observables):
        path = model_file(QUBIT_DECAY)
        argv = [arg.format(path=path) for arg in command] + ["--observables", observables]
        assert invoke(argv) == (1, "", "meq: error: usage: --observables lists no expression\n")

    def test_numerical_errors(self, model_file):
        path = model_file(DEGENERATE)
        for method in ("dense", "solve"):
            code, _, err = invoke(["steady", path, "--method", method])
            assert code == 3
            assert "error: numerical" in err

    def test_memory_error_exits_numerical(self, model_file, monkeypatch):
        from meq import superspace

        def exhausted(model):
            raise MemoryError("Unable to allocate 2.0 GiB")

        monkeypatch.setattr(superspace, "build_liouvillian", exhausted)
        path = model_file(DRIVEN_QUBIT)
        assert invoke(["steady", path]) == (
            3, "", "meq: error: numerical: memory ran out Unable to allocate 2.0 GiB\n")

    def test_non_positive_state_exits_numerical(self, model_file, monkeypatch):
        from meq import steady

        finalize = steady._finalize

        def tampered(liouv, rho, *args):
            rho = rho.copy()
            rho[1, 1] = -0.5 * rho[0, 0]
            return finalize(liouv, rho, *args)

        monkeypatch.setattr(steady, "_finalize", tampered)
        code, out, err = invoke(["steady", model_file(DRIVEN_QUBIT)])
        assert code == 3 and out == ""
        assert "error: numerical" in err and "not a density matrix" in err

    def test_records_go_to_stdout_only(self, model_file):
        path = model_file(QUBIT_DECAY)
        code, out, err = invoke(["steady", path])
        assert code == 0
        assert err == ""
        json.loads(out)


class TestSteadyCommand:
    def test_solve_route(self, model_file):
        path = model_file(QUBIT_DECAY)
        record = invoke_record(["steady", path, "--method", "solve"])
        assert record["command"] == "steady"
        assert record["method"] == "solve"
        rho = record["results"]["rho"]
        assert rho[0][0] == [1.0, 0.0]
        assert rho[1][1] == [0.0, 0.0]

    @pytest.mark.parametrize("method", ["dense", "sparse", "solve"])
    def test_observables(self, model_file, method):
        path = model_file(DRIVEN_QUBIT)
        record = invoke_record(
            ["steady", path, "--method", method,
             "--observables", "proj(q,2),trans(q,1,1)"]
        )
        values = record["results"]["observables"]
        assert values["proj(q,2)"][0] == pytest.approx(1 / 3, abs=1e-9)
        assert values["trans(q,1,1)"][0] == pytest.approx(2 / 3, abs=1e-9)

    def test_byte_identical_records(self, model_file):
        path = model_file(DRIVEN_QUBIT)
        for argv, policy in (
            (["steady", path, "--method", "sparse", "--observables", "proj(q,2)"],
             {"route": "sparse", "reason": "requested"}),
            (["steady", path], DEFAULT_STEADY),
            (["steady", path, "--method", "solve"], {"route": "solve", "reason": "requested"}),
            (["spectrum", path, "-k", "2"], {"route": "dense", "reason": "spectrum: n=4 < 200"}),
            (["evolve", path, "--times", "0,1"],
             {"route": "dense", "reason": "evolve: n=4 < 121"}),
            (["cascade", "--na", "3", "--nb", "2"], DEFAULT_STEADY),
            (["cascade", "--na", "3", "--nb", "1", "--method", "solve"],
             {"route": "solve", "reason": "requested"}),
            (["cascade", "--na", "2", "--nb", "1", "--times", "0.5,1,2"],
             {"route": "sparse", "reason": "evolve: n=324 >= 121"}),
        ):
            first = invoke_record(argv)
            second = invoke_record(argv)
            first.pop("timings")
            second.pop("timings")
            assert json.dumps(first) == json.dumps(second)
            assert first["results"]["policy"] == policy
            # a record names its route once: the policy's
            assert first["method"] == policy["route"]
            if "times" in first["results"]:
                # one propagator entry per distinct gap
                gaps = first["results"]["diagnostics"]["gaps"]
                times = [0.0, *first["results"]["times"]]
                distinct = list(dict.fromkeys(b - a for a, b in zip(times, times[1:]) if b > a))
                assert [entry["gap"] for entry in gaps] == distinct
                keys = {"dense": {"gap", "expm_calls"},
                        "sparse": {"gap", "krylov_steps", "rejected_steps"}}[policy["route"]]
                assert all(set(entry) == keys for entry in gaps)
            elif first["method"] == "solve":
                # the size policy's solver and its counters
                n = first["results"]["superspace_dimension"]
                diagnostics = first["results"]["diagnostics"]
                solver = LINSOLVE_POLICIES[n]["route"]
                assert diagnostics["linsolve_policy"] == LINSOLVE_POLICIES[n]
                assert set(diagnostics) == LINSOLVE_KEYS[solver]
                assert diagnostics.get("lu_nnz", 1) > 0
            else:
                assert "diagnostics" not in first["results"]
            if "min_eigenvalue" in first["results"]:
                # only the complex GMRES solve leaves an anti-Hermitian part
                defect = first["results"]["hermiticity_defect"]
                gmres = first["results"].get("diagnostics", {}).get("linsolve_policy", {})
                assert defect == 0.0 if gmres.get("route") != "gmres" else defect < 1e-12
            if argv[0] == "steady":
                rho = np.array(first["results"]["rho"]) @ [1.0, 1j]
                expected = np.linalg.eigvalsh(rho).min()
                assert first["results"]["min_eigenvalue"] == pytest.approx(expected, abs=1e-15)

    def test_model_hash_tracks_content(self, model_file):
        record_a = invoke_record(["steady", model_file(QUBIT_DECAY)])
        record_b = invoke_record(["steady", model_file(DRIVEN_QUBIT, "other.model")])
        assert record_a["model_hash"] != record_b["model_hash"]


class TestBindingEvaluation:
    """Each model binding is evaluated once per command."""

    @pytest.mark.parametrize("argv", [
        ["steady", "MODEL", "--observables", "sm'*sm"],
        ["evolve", "MODEL", "--times", "0,1", "--observables", "proj(q,2)"],
        ["cascade", *SMALL_CASCADE, "--observables", "s11,am"],
    ])
    def test_once_and_records_unchanged(self, model_file, monkeypatch, argv):
        from meq import modelspec

        argv = [model_file(DRIVEN_QUBIT) if arg == "MODEL" else arg for arg in argv]
        environment, build_model = modelspec.document_environment, modelspec.build_model
        calls = []

        def counted(doc):
            calls.append(doc)
            return environment(doc)

        monkeypatch.setattr(modelspec, "document_environment", counted)
        record = invoke_record(argv)
        assert len(calls) == 1
        # every binding evaluated afresh, as before: the same record
        calls.clear()
        monkeypatch.setattr(modelspec, "build_model", lambda doc, environment=None: build_model(doc))
        reference = invoke_record(argv)
        assert len(calls) == 2
        record.pop("timings")
        reference.pop("timings")
        assert json.dumps(record) == json.dumps(reference)


class TestSpectrumCommand:
    def test_qubit_decay_spectrum(self, model_file):
        path = model_file(QUBIT_DECAY)
        record = invoke_record(["spectrum", path, "-k", "4"])
        values = [complex(re, im) for re, im in record["results"]["eigenvalues"]]
        assert sorted(v.real for v in values) == pytest.approx([-2, -1, -1, 0], abs=1e-10)
        assert record["results"]["eigenvalues"][0] == [0.0, 0.0]
        assert "diagnostics" not in record["results"]  # the dense route runs no ARPACK

    def test_sparse_route_records_arpack_matvecs(self):
        # superspace 225: ARPACK by size, on the trace-zero coordinates
        record = invoke_record(["cascade", "--na", "4", "--nb", "0", "-k", "3"])
        assert record["method"] == "sparse"
        assert record["results"]["eigenvalues"][0] == [0.0, 0.0]
        assert record["results"]["diagnostics"]["arpack_matvecs"] > 0
        record = invoke_record(["cascade", "--na", "4", "--nb", "0", "-k", "1"])
        assert record["results"]["eigenvalues"] == [[0.0, 0.0]]
        assert record["results"]["diagnostics"] == {"arpack_matvecs": 0}


class TestEvolveCommand:
    def test_analytic_decay(self, model_file):
        path = model_file(QUBIT_DECAY)
        record = invoke_record(
            ["evolve", path, "--initial", "proj(q,2)", "--times", "0,1,2",
             "--observables", "proj(q,2)"]
        )
        series = record["results"]["observables"]["proj(q,2)"]
        populations = [re for re, _ in series]
        assert populations == pytest.approx([1.0, np.exp(-2), np.exp(-4)], abs=1e-8)
        for re, im in record["results"]["trace"]:
            assert re == pytest.approx(1.0, abs=1e-10)
            assert abs(im) < 1e-12

    def test_maximally_mixed_initial(self, model_file):
        path = model_file(QUBIT_DECAY)
        record = invoke_record(
            ["evolve", path, "--initial", "maximally-mixed", "--times", "0",
             "--observables", "proj(q,2)"]
        )
        assert record["results"]["observables"]["proj(q,2)"][0][0] == pytest.approx(0.5)

    def test_ground_initial_default(self, model_file):
        path = model_file(QUBIT_DECAY)
        record = invoke_record(
            ["evolve", path, "--times", "0,5", "--observables", "proj(q,1)"]
        )
        series = record["results"]["observables"]["proj(q,1)"]
        assert series[0][0] == pytest.approx(1.0)
        assert series[1][0] == pytest.approx(1.0, abs=1e-9)

    def test_min_eigenvalues_recorded(self, model_file):
        path = model_file(DRIVEN_QUBIT)
        record = invoke_record(["evolve", path, "--initial", "maximally-mixed",
                                "--times", "0,0.5,3"])
        lowest = record["results"]["min_eigenvalues"]
        assert len(lowest) == 3
        assert lowest[0] == pytest.approx(0.5)
        assert all(value > -1e-12 for value in lowest)

    @pytest.mark.parametrize("initial,message", [
        ("proj(q,1) + sm", "not Hermitian"),
        ("2*proj(q,1) - proj(q,2)", "not a density matrix"),
    ])
    def test_invalid_initial_state_is_usage_error(self, model_file, initial, message):
        code, out, err = invoke(["evolve", model_file(DRIVEN_QUBIT), "--initial", initial,
                                 "--times", "0,1"])
        assert code == 1 and out == ""
        assert "error: usage" in err and message in err

    @pytest.mark.parametrize("initial,times,message", [
        ("ground", ",", "no times given"),
        ("trans(q,1,2)", "0,1", "initial state expression 'trans(q,1,2)' has zero trace"),
    ])
    def test_unusable_times_or_initial_state(self, model_file, initial, times, message):
        argv = ["evolve", model_file(DRIVEN_QUBIT), "--initial", initial, "--times", times]
        assert invoke(argv) == (1, "", f"meq: error: usage: {message}\n")

    # the zero-trace check is relative to the expression's largest element
    @pytest.mark.parametrize("command,space", [("evolve", "q"), ("cascade", "xi")])
    def test_initial_trace_is_relative_to_scale(self, model_file, command, space):
        if command == "evolve":
            argv = ["evolve", model_file(DRIVEN_QUBIT), "--times", "1"]
        else:
            argv = ["cascade", *SMALL_CASCADE, "--times", "1"]
        state = f"proj({space},2)"
        reference = invoke_record([*argv, "--initial", state])
        scaled = invoke_record([*argv, "--initial", f"1e-13*{state}"])
        assert scaled["results"]["trace"] == reference["results"]["trace"]
        assert scaled["results"]["min_eigenvalues"] == reference["results"]["min_eigenvalues"]
        for initial in (f"{state} - proj({space},1)", f"0*ident({space})"):
            message = f"initial state expression {initial!r} has zero trace"
            assert invoke([*argv, "--initial", initial]) == (1, "", f"meq: error: usage: {message}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("times", ["nan", "1,nan", "inf", "0.5,inf"])
    def test_non_finite_times_are_usage_errors(self, model_file, times):
        expected = (1, "", "meq: error: usage: times must be finite\n")
        assert invoke(["evolve", model_file(QUBIT_DECAY), "--times", times]) == expected
        # superspace 576: the sparse route, which met inf with an OverflowError
        assert invoke(["cascade", "--na", "3", "--nb", "1", "--times", times]) == expected

    def test_negative_propagated_state_exits_numerical(self, model_file, monkeypatch):
        from meq import dynamics

        real_generator = dynamics._real_generator

        def reversed_time(liouv):  # -L drives the excited state out of the positive cone
            return -real_generator(liouv)

        monkeypatch.setattr(dynamics, "_real_generator", reversed_time)
        code, out, err = invoke(["evolve", model_file(QUBIT_DECAY), "--initial", "proj(q,2)",
                                 "--times", "0,1"])
        assert code == 3 and out == ""
        assert "error: numerical" in err and "not a density matrix" in err

    def test_huge_gap_on_the_dense_route_exits_numerical(self, model_file):
        # expm(R 1e200) is NaN: the state check refuses it instead of writing NaN
        code, out, err = invoke(["evolve", model_file(DRIVEN_QUBIT), "--times", "1e200"])
        assert code == 3 and out == ""
        assert "error: numerical" in err and "non-finite entry" in err

    def test_huge_gap_on_the_sparse_route_exits_numerical(self):
        # superspace 324: once the state has relaxed, one step takes the rest
        # of the gap, and its exponential overflows
        code, out, err = invoke_process(["cascade", "--na", "2", "--nb", "1", "--times", "1e308"])
        assert code == 3 and out == ""
        assert "error: numerical" in err and "time gap 1e+308" in err
        assert err.startswith("meq: error:") and err.count("\n") == 1

    def test_very_long_gap_on_the_sparse_route_returns(self):
        # a gap of 1e200 either relaxes to a state of trace 1 or names the gap
        code, out, err = invoke_process(["cascade", "--na", "2", "--nb", "1", "--times", "1e200"])
        if code == 0:
            assert err == ""
            assert abs(complex(*json.loads(out)["results"]["trace"][0]) - 1) < 1e-8
        else:
            # the step's exponential overflows, or the state's trace is refused
            assert (code, out) == (3, "")
            assert err.startswith(("meq: error: numerical: time gap 1e+200",
                                   "meq: error: numerical: state at t = 1e+200 has trace"))
            assert err.count("\n") == 1


class TestReductionCommands:
    def test_ptrace_product_steady_state(self, model_file):
        path = model_file(TWO_QUBIT_DECAY)
        record = invoke_record(["ptrace", path, "--keep", "p"])
        reduced = record["results"]["rho_reduced"]
        assert reduced[0][0] == pytest.approx([1.0, 0.0], abs=1e-9)
        assert record["results"]["keep"] == ["p"]

    def test_negativity_of_product_state(self, model_file):
        path = model_file(TWO_QUBIT_DECAY)
        record = invoke_record(["negativity", path, "--transpose", "p"])
        assert record["results"]["log_negativity"] == pytest.approx(0.0, abs=1e-10)

    def test_negativity_with_keep(self, model_file):
        path = model_file(TWO_QUBIT_DECAY)
        record = invoke_record(
            ["negativity", path, "--transpose", "p", "--keep", "p,q"]
        )
        assert record["results"]["keep"] == ["p", "q"]

    def test_unknown_subsystem_is_usage_error(self, model_file):
        path = model_file(TWO_QUBIT_DECAY)
        code, _, err = invoke(["ptrace", path, "--keep", "zz"])
        assert code == 1

    @pytest.mark.parametrize("command", [["ptrace", "--keep"], ["negativity", "--transpose"]])
    def test_unknown_subsystem_message_is_unquoted(self, model_file, command):
        path = model_file(TWO_QUBIT_DECAY)
        expected = (f"meq: error: usage: {command[1]} names unknown subsystem 'zz'; "
                    "the model has ('p', 'q')\n")
        assert invoke([command[0], path, command[1], "zz"]) == (1, "", expected)

    # checked against the model's spaces before any solve, on the commands and the cascade modes
    @pytest.mark.parametrize("flags,message", [
        (["--keep", "xi,xi"], "--keep names subsystem 'xi' twice"),
        (["--keep", "a,zz"], "--keep names unknown subsystem 'zz'; the model has ('xi', 'a', 'b')"),
        (["--transpose", "xi,xi"], "--transpose names subsystem 'xi' twice"),
        (["--transpose", "zz"],
         "--transpose names unknown subsystem 'zz'; the model has ('xi', 'a', 'b')"),
        (["--transpose", "xi", "--keep", "a"], "--transpose names subsystem 'xi', which --keep drops"),
        (["--transpose", "a", "--keep", "a,a"], "--keep names subsystem 'a' twice"),
        (["--transpose", "a", "--keep", "zz"],
         "--keep names unknown subsystem 'zz'; the model has ('xi', 'a', 'b')"),
        (["--transpose", ""], "--transpose lists no subsystem"),
        (["--transpose", " , "], "--transpose lists no subsystem"),
    ])
    def test_bad_subsystem_list_fails_before_the_solve(self, model_file, monkeypatch, flags,
                                                        message):
        from meq import cli

        def no_solve(*args):
            raise AssertionError("the steady state was solved for")

        monkeypatch.setattr(cli._Runner, "_steady", no_solve)
        path = model_file(emitted_model(*SMALL_CASCADE))
        command = "negativity" if flags[0] == "--transpose" else "ptrace"
        expected = (1, "", f"meq: error: usage: {message}\n")
        assert invoke([command, path, *flags]) == expected
        assert invoke(["cascade", *SMALL_CASCADE, *flags]) == expected


# every cascade parameter flag, its CascadeParams field and its default
CASCADE_FLAGS = [
    ("--delta-a", "delta_a", 0.0), ("--delta-b", "delta_b", 0.0),
    ("--g-a", "g_a", 1.0), ("--g-b", "g_b", 1.0),
    ("--gamma-12", "gamma_12", 1.0), ("--gamma-23", "gamma_23", 1.0),
    ("--gamma-a", "gamma_a", 3.0), ("--gamma-b", "gamma_b", 3.0),
    ("--omega-a", "omega_a", 20.0), ("--omega-b", "omega_b", 5.0),
    ("--na", "n_a", 4), ("--nb", "n_b", 2),
]


def emitted_model(*flags):
    code, out, err = invoke(["cascade", "--emit-model", *flags])
    assert code == 0, err
    return out


class TestCascadeCommand:
    def test_parameter_flags_and_defaults(self):
        defaults = {field: value for _, field, value in CASCADE_FLAGS}
        assert emitted_model() == render_model(cascade_document(CascadeParams(**defaults)))
        for flag, field, value in CASCADE_FLAGS:
            changed = CascadeParams(**dict(defaults, **{field: value + 1}))
            assert emitted_model(flag, str(value + 1)) == render_model(cascade_document(changed))

    def test_complex_drive_flag(self):
        expected = render_model(cascade_document(CascadeParams(omega_a=3 + 2j)))
        for value in ("(3,2)", "3+2i", "3+2j", " 3+2i "):
            assert emitted_model("--omega-a", value) == expected
        expected = render_model(cascade_document(CascadeParams(omega_b=2j)))
        assert emitted_model("--omega-b", "2i") == expected

    @pytest.mark.parametrize("value", ["bogus", "(1,x)", "3+2k", "i2"])
    def test_malformed_complex_flag_names_a_complex_number(self, value):
        expected = f"meq: error: usage: argument --omega-a: invalid complex number: {value!r}\n"
        assert invoke(["cascade", *SMALL_CASCADE, "--omega-a", value]) == (1, "", expected)

    def test_emit_model_parses(self):
        code, out, err = invoke(["cascade", "--emit-model"])
        assert code == 0
        doc = parse_model(out)
        assert dict(doc.spaces) == {"xi": 3, "a": 5, "b": 3}

    def test_emit_model_respects_flags(self):
        _, out, _ = invoke(["cascade", "--emit-model", "--na", "2", "--nb", "1"])
        assert dict(parse_model(out).spaces) == {"xi": 3, "a": 3, "b": 2}

    def test_populations_record(self):
        record = invoke_record(["cascade", *SMALL_CASCADE, "--method", "sparse"])
        populations = record["results"]["populations"]
        assert populations["labels"] == ["sigma_11", "sigma_22", "sigma_33", "n_a", "n_b"]
        assert all(abs(x) < 1e-9 for x in populations["imaginary_residuals"])
        displaced = record["results"]["displaced_populations"]
        assert displaced["mode_a"] > 0
        assert record["method"] == "sparse"

    def test_methods_agree(self):
        values = {}
        for method in ("dense", "sparse", "solve"):
            record = invoke_record(["cascade", *SMALL_CASCADE, "--method", method])
            values[method] = record["results"]["populations"]["values"]
        for method in ("sparse", "solve"):
            assert values[method] == pytest.approx(values["dense"], abs=1e-8)

    def test_spectrum_mode(self):
        record = invoke_record(["cascade", *SMALL_CASCADE, "-k", "3"])
        assert record["command"] == "cascade"
        eigenvalues = record["results"]["eigenvalues"]
        assert len(eigenvalues) == 3
        assert abs(eigenvalues[0][0]) < 1e-9
        assert record["method"] == record["results"]["policy"]["route"] == "dense"

    def test_method_is_the_route_that_ran(self):
        # superspace 225: ARPACK for k <= 14, but k = 224 puts the cut at
        # 5 * 3(k - 1) = 3345, which also keeps every k >= n - 1 dense
        record = invoke_record(["cascade", "--na", "4", "--nb", "0", "-k", "224"])
        assert record["method"] == "dense"
        assert record["results"]["policy"]["reason"] == "spectrum: n=225 < 3345 for k=224"
        record = invoke_record(["cascade", "--na", "4", "--nb", "0", "-k", "3"])
        assert record["method"] == "sparse"
        record = invoke_record(["cascade", "--na", "2", "--nb", "0", "--times", "0,1"])
        assert record["method"] == "dense"  # superspace 81 < 121
        record = invoke_record(["cascade", *SMALL_CASCADE, "--times", "0,1"])
        assert record["method"] == "sparse"  # superspace 144 >= 121

    @pytest.mark.parametrize("size,method,policy", [
        (["--na", "1", "--nb", "0"], "solve", DEFAULT_STEADY),
        (["--na", "6", "--nb", "0"], "solve", DEFAULT_STEADY),
        (["--na", "3", "--nb", "2"], "solve", DEFAULT_STEADY),
    ])  # n = 36, 441, 1296: dense LU, SuperLU, GMRES
    def test_default_route_by_size(self, size, method, policy):
        record = invoke_record(["cascade", *size])
        assert record["method"] == method
        assert record["results"]["policy"] == policy
        n = record["results"]["superspace_dimension"]
        assert record["results"]["diagnostics"]["linsolve_policy"] == LINSOLVE_POLICIES[n]
        other = "sparse" if n >= 1024 else "dense"
        reference = invoke_record(["cascade", *size, "--method", other])
        assert record["results"]["populations"]["values"] == pytest.approx(
            reference["results"]["populations"]["values"], abs=1e-9)

    def test_dense_capacity_exit_code(self):
        # superspace 77841: refused before any dense array is allocated
        code, out, err = invoke(["cascade", "--na", "30", "--nb", "2", "--method", "dense"])
        assert code == 3 and out == ""
        assert "error: numerical" in err and "77841" in err
        # the message names no library function a CLI user cannot call
        assert "steady_sparse" not in err

    def test_negativity_all_mode(self):
        record = invoke_record(["cascade", *SMALL_CASCADE, "--negativity-all"])
        values = record["results"]["log_negativities"]
        assert set(values) == {
            "cascade_vs_modes", "mode_a_vs_mode_b",
            "cascade_vs_mode_a", "cascade_vs_mode_b",
        }
        assert all(v >= 0 for v in values.values())

    def test_check_truncation(self):
        record = invoke_record(
            ["cascade", *SMALL_CASCADE, "--method", "solve", "--check-truncation"]
        )
        check = record["results"]["truncation_check"]
        assert check["n_a"] == 2 and check["n_b"] == 2
        assert check["max_drift"] >= 0.0
        assert set(record["timings"]) == {"parse", "operators", "assemble", "solve", "measure"}

    def test_evolve_mode(self):
        record = invoke_record(
            ["cascade", *SMALL_CASCADE, "--times", "0", "--observables", "s11"]
        )
        assert record["results"]["observables"]["s11"][0][0] == pytest.approx(1.0)
        assert record["results"]["initial"] == "ground"

    @pytest.mark.parametrize("flags,message", [
        (["-k", "3", "--observables", "s11"], "cascade -k does not use --observables"),
        (["--negativity-all", "--observables", "s11"],
         "cascade --negativity-all does not use --observables"),
        (["--transpose", "xi", "--observables", "s11"], "cascade --transpose does not use --observables"),
        (["--keep", "xi", "--observables", "s11"], "cascade --keep does not use --observables"),
        (["-k", "3", "--check-truncation"], "cascade -k does not use --check-truncation"),
        (["--negativity-all", "--check-truncation"],
         "cascade --negativity-all does not use --check-truncation"),
        (["--times", "1", "--check-truncation"], "cascade --times does not use --check-truncation"),
        (["--transpose", "xi", "--check-truncation"],
         "cascade --transpose does not use --check-truncation"),
        (["--keep", "xi", "--check-truncation"], "cascade --keep does not use --check-truncation"),
        (["--initial", "maximally-mixed"], "cascade without a mode flag does not use --initial"),
        (["-k", "3", "--initial", "ground"], "cascade -k does not use --initial"),
        (["-k", "3", "--times", "1"], "cascade -k does not use --times"),
        (["--times", "1", "--keep", "xi"], "cascade --times does not use --keep"),
        (["-k", "3", "--negativity-all"], "cascade -k does not use --negativity-all"),
        (["-k", "3", "--keep", "xi"], "cascade -k does not use --keep"),
        (["--times", "1", "--transpose", "xi"], "cascade --times does not use --transpose"),
        (["--times", "1", "--keep", "xi", "--transpose", "a"],
         "cascade --times does not use --transpose"),
        (["-k", "3", "--transpose", "xi"], "cascade -k does not use --transpose"),
        (["--negativity-all", "--keep", "xi"], "cascade --negativity-all does not use --keep"),
        (["--negativity-all", "--transpose", "xi"],
         "cascade --negativity-all does not use --transpose"),
        (["--transpose", "xi", "--initial", "ground"], "cascade --transpose does not use --initial"),
        (["--keep", "xi", "--initial", "ground"], "cascade --keep does not use --initial"),
        (["--emit-model", "-k", "3"], "cascade --emit-model does not use -k"),
        (["-k", "3", "--emit-model"], "cascade --emit-model does not use -k"),
        (["--emit-model", "--times", ""], "cascade --emit-model does not use --times"),
        (["--emit-model", "--method", "dense"], "cascade --emit-model does not use --method"),
        (["--emit-model", "--observables", "s11"],
         "cascade --emit-model does not use --observables"),
    ])
    def test_flags_the_mode_ignores_are_usage_errors(self, flags, message):
        assert invoke(["cascade", *SMALL_CASCADE, *flags]) == (1, "", f"meq: error: usage: {message}\n")

    def test_flags_the_mode_reads_are_accepted(self):
        record = invoke_record(["cascade", *SMALL_CASCADE, "--method", "sparse", "-k", "3"])
        assert len(record["results"]["eigenvalues"]) == 3
        record = invoke_record(["cascade", *SMALL_CASCADE, "--transpose", "a", "--keep", "a,b"])
        assert record["results"]["keep"] == ["a", "b"]
        record = invoke_record(["cascade", *SMALL_CASCADE, "--times", "0",
                                "--initial", "maximally-mixed", "--observables", "s11"])
        assert record["results"]["initial"] == "maximally-mixed"
        # every mode that solves for a steady state takes --method
        for flags in ([], ["--negativity-all"], ["--transpose", "xi"], ["--keep", "xi"]):
            record = invoke_record(["cascade", *SMALL_CASCADE, *flags, "--method", "solve"])
            assert record["method"] == "solve"

    # an empty value still picks the mode, which then fails like the command it runs
    @pytest.mark.parametrize("flag,command", [
        ("--times", ["evolve", "--times", ""]),
        ("--transpose", ["negativity", "--transpose", ""]),
        ("--keep", ["ptrace", "--keep", ""]),
    ])
    def test_empty_mode_flag_fails_like_its_command(self, model_file, flag, command):
        path = model_file(emitted_model(*SMALL_CASCADE))
        expected = invoke([command[0], path, *command[1:]])
        assert expected[0] == 1 and expected[1] == ""
        assert invoke(["cascade", *SMALL_CASCADE, flag, ""]) == expected

    @pytest.mark.parametrize("keep", ["", ",", " , "])
    def test_empty_keep_is_usage_error(self, model_file, keep):
        path = model_file(emitted_model(*SMALL_CASCADE))
        expected = (1, "", "meq: error: usage: --keep lists no subsystem\n")
        for argv in (["negativity", path, "--transpose", "xi", "--keep", keep],
                     ["ptrace", path, "--keep", keep],
                     ["cascade", *SMALL_CASCADE, "--transpose", "xi", "--keep", keep]):
            assert invoke(argv) == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags,field", [
        (["--g-a", "inf"], "g_a"), (["--delta-b=-inf"], "delta_b"), (["--gamma-a", "nan"], "gamma_a"),
        (["--omega-a", "(1e400,0)"], "omega_a"), (["--omega-b", "nanj"], "omega_b"),
        (["--omega-a", "inf"], "omega_a"), (["--omega-b=-inf"], "omega_b"),
        (["--omega-a", "nan"], "omega_a"), (["--omega-b", "infi"], "omega_b"),
    ])
    @pytest.mark.parametrize("mode", [[], ["--emit-model"]])
    def test_non_finite_parameter_is_usage_error(self, flags, field, mode):
        expected = (1, "", f"meq: error: usage: {field} must be finite\n")
        assert invoke(["cascade", *SMALL_CASCADE, *flags, *mode]) == expected


# the cascade modes next to the command that runs their emitted model file
FILE_COUNTERPARTS = [
    ([], ["steady"]),
    (["--method", "dense"], ["steady", "--method", "dense"]),
    (["--method", "solve", "--observables", "s11,am'*am"],
     ["steady", "--method", "solve", "--observables", "s11,am'*am"]),
    (["-k", "4"], ["spectrum", "-k", "4"]),
    (["--times", "0.5,1", "--observables", "s22"], ["evolve", "--times", "0.5,1", "--observables", "s22"]),
    (["--transpose", "xi", "--keep", "xi,a", "--method", "sparse"],
     ["negativity", "--transpose", "xi", "--keep", "xi,a", "--method", "sparse"]),
    (["--keep", "b"], ["ptrace", "--keep", "b"]),
    (["--negativity-all", "--method", "solve"], ["steady", "--method", "solve"]),
]


class TestCascadeIsItsModelText:
    """``meq cascade`` runs the document that ``--emit-model`` prints."""

    @pytest.mark.parametrize("cascade,command", FILE_COUNTERPARTS)
    def test_records_match_the_emitted_file(self, model_file, cascade, command):
        size = ["--na", "2", "--nb", "1", "--omega-a", "(3,-1)", "--delta-a", "-0.5"]
        path = model_file(emitted_model(*size))
        built_in = invoke_record(["cascade", *size, *cascade])
        from_file = invoke_record([command[0], path, *command[1:]])
        assert built_in["model_hash"] == from_file["model_hash"]
        assert built_in["method"] == from_file["method"]
        # the cascade's own entries (populations, negativities) have no file counterpart
        shared = built_in["results"].keys() & from_file["results"].keys()
        assert shared >= {"policy"} and shared != {"policy"}
        assert {key: built_in["results"][key] for key in shared} == {
            key: from_file["results"][key] for key in shared}


# the floats whose text is easiest to get wrong: signed zero, the smallest subnormal,
# the exponent switches of repr and the values json spells in its own way
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, 1e22, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
COMPLEXES = st.builds(complex, FLOATS, FLOATS)
ARRAY_ELEMENTS = {"f": FLOATS, "c": COMPLEXES,
                  "i": st.integers(-2**63, 2**63 - 1), "b": st.booleans()}


@st.composite
def record_arrays(draw):
    """An array of a dtype a record may carry, or of extended precision: 0-d,
    empty, (1,), (d, d) or (2, 3, 2)."""
    dtype = np.dtype(draw(st.sampled_from([np.float64, np.float32, np.complex128, np.complex64,
                                           np.int64, np.bool_, np.longdouble, np.clongdouble])))
    d = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(), (0,), (1,), (d, d), (2, 3, 2)]))
    values = draw(st.lists(ARRAY_ELEMENTS[dtype.kind], min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    with np.errstate(over="ignore"):  # a float64 beyond float32's range casts to inf
        return np.array(values, dtype=dtype).reshape(shape)


TEXTS = st.one_of(st.sampled_from(['"', "\\", "é", "\u2028", "\U0001f600", 'a "b" ç']),
                  st.text(max_size=8))
RECORD_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, COMPLEXES,
    TEXTS, record_arrays(),
    st.builds(np.float64, FLOATS), st.builds(np.float32, st.floats(width=32)),
    st.builds(np.complex128, COMPLEXES),
    st.builds(np.complex64, st.complex_numbers(width=64)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
)
RECORDS = st.recursive(
    RECORD_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=3).map(tuple),
                               st.dictionaries(TEXTS, children, max_size=4)),
    max_leaves=12,
)


class TestRecordWriter:
    """The record writer writes what the standard library's encoder writes for
    the same value, element by element (``helpers.record_text_oracle``)."""

    @given(RECORDS)
    def test_writer_matches_the_oracle(self, value):
        assert cli._json_text(value) == record_text_oracle(value)

    @given(record_arrays())
    def test_arrays_match_the_oracle_at_every_depth(self, array):
        for value in (array, [array], {"rho": [[array]]}):
            assert cli._json_text(value) == record_text_oracle(value)

    @pytest.mark.parametrize("value", [np.bool_(True), object(), {"x": [np.bool_(False)]}])
    def test_what_the_oracle_refuses_the_writer_refuses(self, value):
        with pytest.raises(TypeError):
            record_text_oracle(value)
        with pytest.raises(TypeError):
            cli._json_text(value)

    @pytest.mark.parametrize("argv,array", [
        (["steady", "MODEL", "--observables", "s11,am"], "rho"),
        (["ptrace", "MODEL", "--keep", "xi"], "rho_reduced"),
        (["spectrum", "MODEL", "-k", "3"], None),
        (["evolve", "MODEL", "--times", "0.5,1", "--observables", "s11,am"], None),
        (["cascade", "--na", "2", "--nb", "1", "--negativity-all"], None),
    ])
    def test_records_are_the_oracle_text(self, model_file, monkeypatch, argv, array):
        path = model_file(emitted_model("--na", "2", "--nb", "1"))  # n = 324
        argv = [path if arg == "MODEL" else arg for arg in argv]
        writer, records = cli._json_text, []

        def captured(value, level=0):
            if level == 0:
                records.append(value)
            return writer(value, level)

        monkeypatch.setattr(cli, "_json_text", captured)
        code, out, err = invoke(argv)
        assert code == 0, err
        (record,) = records
        assert out == record_text_oracle(record) + "\n"
        if array:  # a density matrix reaches the writer as an array
            assert isinstance(record["results"][array], np.ndarray)


class TestDefaultSteadyRoute:
    """The default steady route is the row-replacement solve, and its record
    differs from the requested solve's only in the policy reason."""

    @pytest.mark.parametrize("size,command", [
        (None, ["steady"]),  # n = 4
        (["--na", "2", "--nb", "1"], ["steady", "--observables", "s11"]),  # n = 324
        (["--na", "3", "--nb", "1"], ["ptrace", "--keep", "xi,a"]),  # n = 576, SuperLU
        (["--na", "2", "--nb", "1"], ["cascade"]),
        (["--na", "3", "--nb", "1"], ["cascade"]),
        (["--na", "3", "--nb", "1"], ["cascade", "--keep", "b"]),
        (["--na", "2", "--nb", "1"], ["cascade", "--transpose", "xi", "--keep", "xi,a"]),
        (["--na", "3", "--nb", "2"], ["cascade"]),  # n = 1296, GMRES
    ])
    def test_default_record_is_the_solve_record(self, model_file, size, command):
        if command[0] == "cascade":
            argv = ["cascade", *size, *command[1:]]
        else:
            path = model_file(emitted_model(*size) if size else DRIVEN_QUBIT)
            argv = [command[0], path, *command[1:]]
        default = invoke_record(argv)
        solve = invoke_record([*argv, "--method", "solve"])
        default.pop("timings")
        solve.pop("timings")
        assert default["method"] == "solve"
        # only the reason differs: the policy chose the solve, or the flag did
        assert default["results"].pop("policy") == DEFAULT_STEADY
        assert solve["results"].pop("policy") == {"route": "solve", "reason": "requested"}
        assert json.dumps(default) == json.dumps(solve)


class TestOneSteadyEntryPoint:
    """Every steady command solves through ``meq.steady.steady_state``."""

    @pytest.mark.parametrize("argv,route,calls", [
        (["steady"], "solve", 1),
        (["steady", "--method", "dense"], "dense", 1),
        (["steady", "--method", "sparse"], "sparse", 1),
        (["steady", "--method", "solve"], "solve", 1),
        (["negativity", "--transpose", "xi"], "solve", 1),
        (["ptrace", "--keep", "xi"], "solve", 1),
        (["negativity", "--transpose", "xi", "--method", "dense"], "dense", 1),
        (["cascade"], "solve", 1),
        (["cascade", "--check-truncation"], "solve", 2),  # n = 144, then 729
        (["cascade", "--negativity-all", "--method", "sparse"], "sparse", 1),
    ])
    def test_each_route_function_runs_once_per_solve(self, model_file, monkeypatch,
                                                     argv, route, calls):
        # the benchmark's tracer replaces these module attributes with wrappers
        counts = count_route_calls(monkeypatch)
        if argv[0] == "cascade":
            argv = ["cascade", *SMALL_CASCADE, *argv[1:]]
        else:
            argv = [argv[0], model_file(emitted_model(*SMALL_CASCADE)), *argv[1:]]
        assert invoke_record(argv)["results"]["policy"]["route"] == route
        assert counts == {name: calls * (name == route) for name in STEADY_ROUTES}


class TestCascadeBenchmarkRecords:
    """Full-size benchmark through the CLI surface (sparse route)."""

    def test_populations_and_displaced(self):
        record = invoke_record(["cascade", "--method", "sparse"])
        values = record["results"]["populations"]["values"]
        assert values == pytest.approx(
            [0.45882, 0.48438, 0.056796, 0.019165, 0.0012705], abs=1e-4
        )
        residuals = record["results"]["populations"]["imaginary_residuals"]
        assert all(abs(r) < 1e-10 for r in residuals)
        displaced = record["results"]["displaced_populations"]
        assert displaced["mode_a"] == pytest.approx(399.66, rel=1e-3)
        assert displaced["mode_b"] == pytest.approx(24.961, rel=1e-3)

    def test_negativity_all(self):
        record = invoke_record(["cascade", "--method", "sparse", "--negativity-all"])
        values = record["results"]["log_negativities"]
        assert values["cascade_vs_modes"] == pytest.approx(0.0025892, rel=5e-3)
        assert values["mode_a_vs_mode_b"] == pytest.approx(2.027e-07, rel=0.1)
        assert values["cascade_vs_mode_a"] == pytest.approx(0.0017957, rel=5e-3)
        assert values["cascade_vs_mode_b"] == pytest.approx(9.2002e-05, rel=5e-3)


class TestConsoleScript:
    def test_python_dash_m(self, tmp_path):
        path = tmp_path / "qubit.model"
        path.write_text(QUBIT_DECAY)
        code, out, err = invoke_process(["steady", str(path), "--method", "dense"])
        assert code == 0, err
        record = json.loads(out)
        assert record["method"] == "dense"
        assert record["results"]["rho"][0][0] == [1.0, 0.0]

    def test_installed_entry_point(self, tmp_path):
        path = tmp_path / "qubit.model"
        path.write_text(QUBIT_DECAY)
        env = dict(os.environ, MEQ_THREADS="1")
        proc = subprocess.run(
            ["meq", "steady", str(path), "--method", "dense"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["method"] == "dense"


class TestThreadCap:
    def test_meq_threads_is_set_before_numpy_loads(self):
        # MEQ_THREADS fills the unset variables; a set OMP_NUM_THREADS is kept
        expected = {"OMP_NUM_THREADS": "5", "OPENBLAS_NUM_THREADS": "2",
                    "MKL_NUM_THREADS": "2", "NUMEXPR_NUM_THREADS": "2",
                    "VECLIB_MAXIMUM_THREADS": "2"}
        # a finder first in sys.meta_path sees the environment as numpy starts to load
        script = (
            "import json, os, sys\n"
            "seen = {}\n"
            "class Probe:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.update(os.environ)\n"
            "sys.meta_path.insert(0, Probe())\n"
            "import meq\n"
            f"print(json.dumps({{var: seen.get(var) for var in {list(expected)!r}}}))\n"
        )
        src = os.path.dirname(os.path.dirname(meq.__file__))
        env = {k: v for k, v in os.environ.items() if k not in expected}
        env.update(MEQ_THREADS="2", OMP_NUM_THREADS="5")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected


class TestThreadIndependence:
    def test_krylov_counters_match_at_one_and_two_threads(self, tmp_path):
        # the sparse route's counters are in results, which must not depend
        # on the BLAS thread count
        path = tmp_path / "cascade.model"
        path.write_text(invoke(["cascade", "--na", "4", "--nb", "2", "--emit-model"])[1])
        for argv in (["cascade", "--na", "2", "--nb", "1", "--times", "0.5,1,2"],
                     ["evolve", str(path), "--times", "0.5,1,2"]):
            records = [json.loads(invoke_process(argv, threads)[1]) for threads in ("1", "2")]
            assert records[0]["results"]["policy"]["route"] == "sparse"
            gaps = [record["results"]["diagnostics"]["gaps"] for record in records]
            assert gaps[0] == gaps[1]

    def test_shift_invert_counters_match_at_one_and_two_threads(self):
        argv = ["cascade", "--na", "2", "--nb", "1", "--method", "sparse"]  # n = 324
        records = [json.loads(invoke_process(argv, threads)[1]) for threads in ("1", "2")]
        diagnostics = [record["results"]["diagnostics"] for record in records]
        assert set(diagnostics[0]) == {"lu_nnz", "shift", "arpack_solves"}
        assert diagnostics[0] == diagnostics[1]

    @pytest.mark.parametrize("argv", [
        ["cascade", "--na", "4", "--nb", "2", "-k", "5"],  # n = 2025
        ["cascade", "--na", "2", "--nb", "1", "-k", "3"],  # n = 324
    ])
    def test_spectrum_counts_match_at_one_and_two_threads(self, argv):
        results = [json.loads(invoke_process(argv, threads)[1])["results"]
                   for threads in ("1", "2")]
        assert results[0]["policy"]["route"] == "sparse"
        assert results[0]["diagnostics"] == results[1]["diagnostics"]
        assert results[0]["eigenvalues"] == results[1]["eigenvalues"]


class TestBenchmarkTracer:
    def test_tracer_sees_every_layer_the_cli_calls(self, model_file):
        # the traced benchmark run wraps module attributes; the CLI must call
        # through them, not through names bound at import
        tracing = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "perfbench", "tracing.py")
        tracer = runpy.run_path(tracing)["Tracer"]()
        path = model_file(QUBIT_DECAY)
        tracer.install()
        try:
            assert invoke(["steady", path])[0] == 0
            assert invoke(["spectrum", path, "-k", "2"])[0] == 0
        finally:
            tracer.close()
        names = {span.name for span in tracer.spans}
        assert {"modelspec.parse_model", "superspace.build_liouvillian",
                "steady.steady_linsolve", "steady.spectrum"} <= names


class TestPrivateScipyNames:
    def test_no_module_imports_a_private_scipy_module(self):
        # a scipy release may move or drop its private modules and names
        for path in sorted(Path(meq.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                for name in names:
                    parts = name.split(".")
                    private = any(part.startswith("_") for part in parts)
                    assert not (parts[0] == "scipy" and private), (path.name, name)


class TestNoGlobalRandomState:
    def test_no_module_refers_to_numpy_random(self):
        # a solve that draws from numpy's global stream depends on, and moves,
        # what the caller drew from it
        for path in sorted(Path(meq.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    names = [f"{node.value.id}.{node.attr}"]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                for name in names:
                    assert name.split(".")[:2] not in (["np", "random"], ["numpy", "random"]), (
                        path.name, node.lineno, name)
