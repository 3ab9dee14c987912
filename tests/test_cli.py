"""End-to-end command-line checks: exit codes, composition, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

import pinq.cli
import pinq.ffgauss
import pinq.gscon
import pinq.pauli
import pinq.pinning
import pinq.spectral
from oracles import generic_three_mode, random_so, strict_json
from pinq.cli import main
from pinq.errors import ResourceLimitError
from pinq.ffgauss import CovMatrix, FermionPath, GivensRotation, energy, verify_ff_path
from pinq.io import FORMAT_VERSIONS, format_hamiltonian, load_hamiltonian, parse_hamiltonian
from pinq.pauli import HamiltonianSum


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, strict_json(out) if out else None


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_stoquastic_file(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 2\n-1 XX\n-0.5 XI\n")
    code, report = _run(capsys, "check", f)
    assert code == 0
    assert report["payload"]["stoquastic"] is True


def test_check_expect_failure_exit_code(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 1\n1 X\n")
    code, report = _run(capsys, "check", f, "--expect", "stoquastic")
    assert code == 1
    assert report["payload"]["stoquastic"] is False


@pytest.mark.parametrize("assembled", [False, True])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_non_finite_or_negative_tol_exit_2(tmp_path, capsys, tol, assembled):
    # a NaN or infinite tolerance would pass every entry, a negative one
    # would fail exact zeros
    f = _write(tmp_path, "h.txt", "qubits 1\n1.0 X\n")
    argv = ["check", f, "--tol", tol, "--expect", "stoquastic"] + ["--assembled"] * assembled
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "tolerance" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("expect", ["stoq", "stoquastic,", "commuting,,permutation", "Commuting"])
def test_check_expect_unknown_property_exit_2(tmp_path, capsys, monkeypatch, expect):
    # a typo or an empty entry is a usage error, found before any check runs
    def no_check(*args, **kwargs):
        raise AssertionError("check ran before --expect was validated")

    for name in ("is_stoquastic", "is_commuting", "is_permutation"):
        monkeypatch.setattr(pinq.cli, name, no_check)
    f = _write(tmp_path, "h.txt", "qubits 1\n-1 X\n")
    code = main(["check", f, "--expect", expect])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "stoquastic, commuting, permutation" in captured.err and "Traceback" not in captured.err


def test_check_expect_strips_spaces(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 1\n-1 X\n")
    code, report = _run(capsys, "check", f, "--expect", "stoquastic, permutation")
    assert code == 1 and report["payload"]["stoquastic"] is True
    code, _ = _run(capsys, "check", f, "--expect", " stoquastic ,commuting")
    assert code == 0


def test_check_expect_commuting_with_zero_weight(tmp_path, capsys):
    # 0 X + 1 Z is the operator Z: the zero weight anticommutes with nothing
    f = _write(tmp_path, "h.txt", "qubits 1\n0 X\n1 Z\n")
    code, report = _run(capsys, "check", f, "--expect", "commuting")
    assert code == 0 and report["payload"]["commuting"] is True


def test_spectrum_dense_and_iterative_are_exclusive(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 1\n1 Z\n")
    code = main(["spectrum", f, "--dense", "--iterative"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("where", ["missing/r.json", "."])
def test_unwritable_json_path_leaves_stdout_empty(tmp_path, capsys, where):
    # a path in a missing directory, or a directory
    f = _write(tmp_path, "h.txt", "qubits 1\n1 Z\n")
    code = main(["--json", str(tmp_path / where), "check", f])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err


def test_output_path_that_is_a_directory_exit_2(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 1\n1 Z\n")
    for argv in (["pin-stoquastic", f, "--out", str(tmp_path)], ["check", str(tmp_path)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "Is a directory" in captured.err


def test_check_zero_tol_still_answers(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 1\n1.0 X\n")
    code, report = _run(capsys, "check", f, "--tol", "0")
    assert code == 0
    assert report["payload"]["stoquastic"] is False
    assert report["payload"]["permutation"] is True


def test_malformed_file_exit_2(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 1\n1 X\noops\n")
    code = main(["spectrum", f])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 3" in captured.err


def test_pin_stoquastic_then_pinned_spectrum(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 1\n1 Z\n1 X\n")
    out = str(tmp_path / "hs.txt")
    code, _ = _run(capsys, "pin-stoquastic", f, "--out", out)
    assert code == 0
    code, report = _run(capsys, "spectrum", out, "--pin", "1=-", "--dense")
    assert code == 0
    assert report["payload"]["value"] == pytest.approx(-np.sqrt(2.0), abs=1e-9)


def test_reduction_output_reparses_identically(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 2\n0.25 ZZ\n-0.125 XI\n0.375 XX\n")
    out = str(tmp_path / "perm.txt")
    code, _ = _run(capsys, "pin-permutation", f, "--out", out, "--bits", "8")
    assert code == 0
    text = open(out).read()
    reparsed = parse_hamiltonian(text)
    assert format_hamiltonian(reparsed) == text


@pytest.mark.parametrize("command, reduction, extra", [
    ("pin-commuting", "commuting_pin", []),
    ("pin-stoquastic", "stoquastic_pin", []),
    ("pin-permutation", "permutation_pin", ["--bits", "3"]),
])
def test_pin_commands_call_the_module_attribute(tmp_path, capsys, monkeypatch, command, reduction, extra):
    # the handler looks the reduction up at call time, so a wrapper installed
    # on the module (as a tracer does) sees every call
    f = _write(tmp_path, "h.txt", "qubits 2\n0.25 ZZ\n-0.5 XI\n")
    calls = []
    reduce = getattr(pinq.cli, reduction)

    def wrapped(*args, **kwargs):
        calls.append(kwargs)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(pinq.cli, reduction, wrapped)
    code, report = _run(capsys, command, f, "--bounds=-1,1", "--out", str(tmp_path / "o.txt"), *extra)
    assert code == 0 and report["subcommand"] == command
    assert report["payload"]["reduction"] == reduction
    assert len(calls) == 1
    assert calls[0].get("q_bits") == (3 if extra else None)


@pytest.mark.parametrize("command", ["pin-commuting", "pin-stoquastic", "pin-permutation", "spectrum"])
@pytest.mark.parametrize("bounds", ["-inf,0", "0,inf", "-1e400,0", "nan,1"])
def test_non_finite_bounds_exit_3(tmp_path, capsys, command, bounds):
    f = _write(tmp_path, "h.txt", "qubits 1\n0.5 Z\n")
    argv = [command, f, f"--bounds={bounds}"]
    if command != "spectrum":
        argv += ["--out", str(tmp_path / "o.txt")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert captured.err.startswith("error: bounds must be finite")


@pytest.mark.parametrize("command", ["pin-commuting", "pin-stoquastic", "pin-permutation"])
def test_pin_header_only_register_beyond_any_mask(tmp_path, capsys, command):
    # 1 << n cannot be formed here; a term-free input needs no ancilla mask
    f = _write(tmp_path, "h.txt", "qubits 99999999999999999999\n")
    code, report = _run(capsys, command, f, "--out", str(tmp_path / "o.txt"))
    assert code == 0
    assert report["payload"]["term_count"] == 0
    assert report["payload"]["output_qubits"] > 99999999999999999999


def test_pin_permutation_at_1024_bits(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 1\n0.75 X\n-0.5 Z\n")
    out = tmp_path / "p.txt"
    code = main(["pin-permutation", f, "--bits", "1024", "--out", str(out)])
    report = strict_json(capsys.readouterr().out)
    assert code == 0
    assert report["payload"]["output_qubits"] == 1 + 2 + 1024
    assert report["payload"]["term_count"] == 3
    assert load_hamiltonian(str(out)).n == 1027


@pytest.mark.parametrize("bits", ["1075", "4000000000", "100000000000000000000"])
def test_pin_permutation_bit_ceiling_exit_3(tmp_path, capsys, monkeypatch, bits):
    # no double has a set bit past 2^-1074, so more bits are refused before
    # any coefficient is expanded
    f = _write(tmp_path, "h.txt", "qubits 1\n0.75 X\n-0.5 Z\n")

    def no_expansion(*args):
        raise AssertionError("coefficients expanded before the bit ceiling check")

    monkeypatch.setattr(pinq.pinning, "_binary_bits", no_expansion)
    code = main(["pin-permutation", f, "--bits", bits, "--out", str(tmp_path / "p.txt")])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "1074" in captured.err and "Traceback" not in captured.err


def test_pin_permutation_without_finite_scale_exit_3(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 2\n1.7976931348623157e308 XX\n0.5 ZI\n")
    code = main(["pin-permutation", f, "--out", str(tmp_path / "p.txt")])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "no finite scale" in captured.err


def test_pin_commuting_refuses_non_commuting_off_diagonal_terms_exit_3(tmp_path, capsys):
    # XI and YI anticommute, so the |-><-| group would not commute
    f = _write(tmp_path, "h.txt", "qubits 2\n0.5 ZZ\n1 XI\n-0.25 YI\n")
    out = tmp_path / "o.txt"
    code = main(["pin-commuting", f, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and not out.exists()
    human, record = captured.err.splitlines()
    assert human == "error: off-diagonal terms XI and YI do not commute"
    assert json.loads(record) == {"error": {"type": "UnsupportedTermError", "message": human[len("error: "):],
                                            "exit_code": 3}}


@pytest.mark.parametrize("route", [[], ["--dense"], ["--iterative"]])
def test_spectrum_overflowing_residual_exit_3_without_warnings(tmp_path, capsys, route):
    f = _write(tmp_path, "h.txt", "qubits 2\n1e200 XX\n-0.25 ZZ\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["spectrum", f, *route])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "not finite" in captured.err
    assert [str(w.message) for w in caught] == []


def test_check_on_reduction_output_sees_term_structure(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 2\n0.8 ZI\n0.5 XI\n0.4 XZ\n")
    out = str(tmp_path / "hs.txt")
    code, _ = _run(capsys, "pin-stoquastic", f, "--out", out)
    assert code == 0
    code, report = _run(capsys, "check", out, "--expect", "stoquastic")
    assert code == 0
    assert report["payload"]["stoquastic"] is True


def test_effective_subcommand(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 2\n1 ZX\n")
    out = str(tmp_path / "eff.txt")
    code, _ = _run(capsys, "effective", f, "--pin", "1=+", "--out", out)
    assert code == 0
    eff = load_hamiltonian(out)
    assert [(t.coeff, t.string.label()) for t in eff.terms] == [(1.0, "Z")]


def test_spectrum_promise_decision_exit_codes(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 1\n1 Z\n")
    code, report = _run(capsys, "spectrum", f, "--bounds=-0.9,0")
    assert code == 0 and report["payload"]["decision"] == "YES"
    code, report = _run(capsys, "spectrum", f, "--bounds=-2,-1.5")
    assert code == 1 and report["payload"]["decision"] == "NO"
    code, report = _run(capsys, "spectrum", f, "--bounds=-1.5,-0.5")
    assert code == 3 and report["payload"]["decision"] == "GAP_VIOLATION"


@pytest.mark.parametrize("route", ["--dense", "--iterative"])
def test_pinned_bounds_job_solves_once(tmp_path, capsys, monkeypatch, route):
    f = _write(tmp_path, "h.txt", "qubits 3\n1 ZZI\n0.5 XIX\n-0.75 IZI\n")
    calls = []
    solve = pinq.spectral.min_eig

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pinq.spectral, "min_eig", counted)
    code, report = _run(capsys, "spectrum", f, "--pin", "2=0", route, "--bounds=5,6")
    assert code == 0 and report["payload"]["decision"] == "YES"
    assert len(calls) == 1


def test_spectrum_convergence_failure_exit_3(tmp_path, capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(pinq.spectral, "eigsh", stalled)
    f = _write(tmp_path, "h.txt", "qubits 3\n1 ZZI\n0.5 XIX\n")
    code = main(["spectrum", f, "--iterative"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ARPACK did not converge")
    assert "Traceback" not in captured.err


def test_unpin_penalty(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 2\n0.5 ZI\n")
    out = str(tmp_path / "lift.txt")
    code, report = _run(capsys, "unpin-penalty", f, "--pin-qubit", "1",
                        "--bounds", "0,1", "--out", out)
    assert code == 0
    assert report["payload"]["delta"] == pytest.approx(0.5 + 0.5 * (2 * 0.5 / 1 + 1))
    lifted = load_hamiltonian(out)
    assert lifted.n == 2


def test_unpin_penalty_norm_bound_and_exact_norm_are_exclusive(tmp_path, capsys):
    # --exact-norm was dropped without a word, and the given bound used
    f = _write(tmp_path, "h.txt", "qubits 2\n0.5 ZI\n")
    out = tmp_path / "lift.txt"
    code = main(["unpin-penalty", f, "--pin-qubit", "1", "--bounds", "0,1",
                 "--norm-bound", "5", "--exact-norm", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("bound", ["-1", "0", "nan", "inf"])
def test_unpin_penalty_rejects_impossible_norm_bounds(tmp_path, capsys, bound):
    # ||0.5 ZI|| = 0.5: no bound below it, and no bound that is not finite
    f = _write(tmp_path, "h.txt", "qubits 2\n0.5 ZI\n")
    code = main(["unpin-penalty", f, "--pin-qubit", "1", "--bounds", "0,1",
                 f"--norm-bound={bound}", "--out", str(tmp_path / "lift.txt")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: norm bound")


@pytest.mark.parametrize("qubit", ["2", "-1"])
def test_unpin_penalty_pin_qubit_outside_register_exit_3(tmp_path, capsys, qubit):
    f = _write(tmp_path, "h.txt", "qubits 2\n0.5 ZI\n")
    out = tmp_path / "lift.txt"
    code = main(["unpin-penalty", f, f"--pin-qubit={qubit}", "--bounds", "0,1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert captured.err.startswith(f"error: pin qubit {qubit} outside register")
    assert not out.exists()


def test_unpin_penalty_accepts_the_exact_norm_as_bound(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 2\n0.5 ZI\n0.5 IX\n")
    code, report = _run(capsys, "unpin-penalty", f, "--pin-qubit", "1", "--bounds", "0,1",
                        "--norm-bound", str(np.sqrt(0.5)), "--out", str(tmp_path / "lift.txt"))
    assert code == 0
    assert report["payload"]["norm_bound"] == np.sqrt(0.5)


@pytest.mark.parametrize("angle", ["nan", "inf", "1e400"])
def test_non_finite_pin_angle_is_malformed(tmp_path, capsys, angle):
    f = _write(tmp_path, "h.txt", "qubits 2\n0.5 ZX\n")
    code = main(["effective", f, "--pin", f"0=angle:{angle}", "--out", str(tmp_path / "e.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert "pin angle" in captured.err and "not finite" in captured.err


@pytest.mark.parametrize("angle", ["1e308", "-1e308", "8.99e307"])
@pytest.mark.parametrize("command", ["spectrum", "effective"])
def test_pin_angle_whose_double_overflows_is_malformed(tmp_path, capsys, command, angle):
    # the state's expectations are sin and cos of twice the angle, which
    # is not a double here, though the angle is
    f = _write(tmp_path, "h.txt", "qubits 2\n0.5 ZX\n")
    out = ["--out", str(tmp_path / "e.txt")] if command == "effective" else []
    code = main([command, f, "--pin", f"0=angle:{angle}", *out])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    human, record = captured.err.splitlines()
    assert human == f"error: pin angle {float(angle)!r} is too large: twice it is not finite"
    assert json.loads(record)["error"]["type"] == "ValueError"
    # an angle whose double is finite still pins
    code = main([command, f, "--pin", "0=angle:8.98e307", *out])
    capsys.readouterr()
    assert code == 0


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "pinq":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    pinq.cli._build_parser.cache_clear()
    try:
        f = _write(tmp_path, "h.txt", "qubits 3\n1 ZZZ\n")
        report_file = tmp_path / "report.json"
        code, first = _run(capsys, "--json", str(report_file), "effective", f,
                           "--pin", "0=0", "--pin", "1=+", "--out", str(tmp_path / "a.txt"))
        assert code == 0 and first["payload"]["qubits"] == 1
        report_file.unlink()
        code, second = _run(capsys, "effective", f, "--pin", "2=1", "--out", str(tmp_path / "b.txt"))
        assert code == 0 and second["payload"]["qubits"] == 2
        assert not report_file.exists()
        assert len(built) == 1
    finally:
        pinq.cli._build_parser.cache_clear()


def test_zeno_commuting_zero_weight_generator(tmp_path, capsys):
    # A = 0 X + 1 Z is the operator Z, so the run is the one with A = Z
    b = _write(tmp_path, "b.txt", "qubits 1\n1 X\n")
    reports = []
    for name, text in (("a0.txt", "qubits 1\n0 X\n1 Z\n"), ("a1.txt", "qubits 1\n1 Z\n")):
        a = _write(tmp_path, name, text)
        code, report = _run(capsys, "zeno", "--kind", "comm", "--a", a, "--b", b, "--t", "1", "--n", "50")
        assert code == 0
        reports.append(report["payload"])
    for key in ("error", "survival"):
        assert reports[0][key] == pytest.approx(reports[1][key], rel=0, abs=1e-12)


def test_zeno_csv(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", "qubits 1\n1 X\n")
    csv = str(tmp_path / "sweep.csv")
    code, report = _run(capsys, "zeno", "--kind", "comm", "--a", a, "--b", b,
                        "--t", "1", "--sweep", "50,100,200", "--csv", csv)
    assert code == 0
    lines = open(csv).read().strip().splitlines()
    assert lines[0] == "N,error,survival"
    assert len(lines) == 4
    assert report["payload"]["error_slope"] == pytest.approx(-1.0, abs=0.2)


def test_zeno_single_run_with_state_file(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", "qubits 1\n-1 X\n")
    state = _write(tmp_path, "psi.txt", "0.6\n0.8\n")
    code, report = _run(capsys, "zeno", "--kind", "stoq", "--a", a, "--b", b,
                        "--t", "1", "--n", "10", "--state", state)
    assert code == 0
    assert report["payload"]["error"] <= 1e-9
    assert report["payload"]["survival"] == pytest.approx(1.0, abs=1e-9)
    assert report["payload"]["reference"] == "A-B"


def test_zeno_state_file_with_a_bad_amplitude_exit_2(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", "qubits 1\n-1 X\n")
    state = _write(tmp_path, "psi.txt", "0.6\n0.8 x\n")
    code = main(["zeno", "--kind", "stoq", "--a", a, "--b", b, "--t", "1", "--n", "10", "--state", state])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    human, record = captured.err.splitlines()
    assert human == "error: line 2: invalid amplitude '0.8 x'"
    assert json.loads(record)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_zeno_non_finite_time_exit_3(tmp_path, capsys, t):
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", "qubits 1\n1 X\n")
    code = main(["zeno", "--kind", "comm", "--a", a, "--b", b, f"--t={t}", "--n", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "finite" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("t", ["1e20", "1e300"])
def test_zeno_non_finite_reference_exit_3(tmp_path, capsys, t):
    # a finite but huge t overflows the reference propagator
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", "qubits 1\n1 X\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["zeno", "--kind", "comm", "--a", a, "--b", b, "--t", t, "--n", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "not finite" in captured.err and "Traceback" not in captured.err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("kind, b_text", [("comm", "qubits 1\n1 X\n"), ("stoq", "qubits 1\n-1 X\n")])
def test_zeno_unresolved_reference_phase_exit_3(tmp_path, capsys, kind, b_text):
    # |t| * sqrt(2) >= 2^52: the phases of the reference have no fractional bits
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", b_text)
    code = main(["zeno", "--kind", kind, "--a", a, "--b", b, "--t", "1e16", "--n", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "not finite" in captured.err and "Traceback" not in captured.err


_OVERFLOWING_SUM = "qubits 1\n1e308 Z\n1e308 Z\n"


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "{h}"], ["check", "--assembled", "{h}"],
     ["zeno", "--kind", "comm", "--a", "{h}", "--b", "{h}", "--t", "1", "--n", "5"],
     ["zeno", "--kind", "comm", "--a", "{z}", "--b", "{z}", "--t", "1", "--n", "5"]],
)
def test_overflowing_pauli_sum_exit_3(tmp_path, capsys, argv):
    # the sum of two finite weights is not a double; the last case
    # overflows only in the reference generator A + B
    h = _write(tmp_path, "h.txt", _OVERFLOWING_SUM)
    z = _write(tmp_path, "z.txt", "qubits 1\n1.5e308 Z\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([a.format(h=h, z=z) for a in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "overflows" in captured.err and "Traceback" not in captured.err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("counts", [["--n", "100000000000000000000"], ["--n", "10000001"],
                                    ["--sweep", "1,100000000000000000000"]])
def test_zeno_step_ceiling_exit_3(tmp_path, capsys, counts):
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", "qubits 1\n1 X\n")
    code = main(["zeno", "--kind", "comm", "--a", a, "--b", b, "--t", "1", *counts])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "step ceiling" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "kind, b_text, sweep",
    [("stoq", "qubits 1\n-1 X\n", "50,100,200,400,800"), ("comm", "qubits 1\n1 X\n", "50")],
)
def test_zeno_sweep_payload_is_standard_json(tmp_path, capsys, kind, b_text, sweep):
    # the stoquastic survival deficit and a one-point sweep leave too few
    # positive points for a slope, which is reported as null
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", b_text)
    code = main(["zeno", "--kind", kind, "--a", a, "--b", b, "--t", "1", "--sweep", sweep])
    assert code == 0
    report = strict_json(capsys.readouterr().out)
    if sweep == "50":
        assert report["payload"]["error_slope"] is None
        assert report["payload"]["survival_deficit_slope"] is None


def test_zeno_sweep_nonpositive_count_exit_3(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", "qubits 1\n1 X\n")
    code = main(["zeno", "--kind", "comm", "--a", a, "--b", b, "--t", "1", "--sweep", "0,10"])
    captured = capsys.readouterr()
    assert code == 3
    assert "sweep" in captured.err and "Traceback" not in captured.err


def test_zeno_sweep_reads_no_single_run_step_count(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", "qubits 1\n1 X\n")
    argv = ["zeno", "--kind", "comm", "--a", a, "--b", b, "--t", "1", "--sweep", "10,20"]
    code, plain = _run(capsys, *argv)
    assert code == 0
    code, with_n = _run(capsys, *argv, "--n", "0")
    assert code == 0
    assert with_n["payload"] == plain["payload"]


def _zeno_refused_before_allocation(tmp_path, capsys, monkeypatch, kind, qubits, b_coeff):
    """exit code and stderr of a one-flip ``zeno`` run on ``qubits`` system
    qubits, with every operator and flip-diagonal build made to fail."""
    a = _write(tmp_path, "a.txt", f"qubits {qubits}\n0.5 Z{'I' * (qubits - 1)}\n")
    b = _write(tmp_path, "b.txt", f"qubits {qubits}\n{b_coeff} X{'I' * (qubits - 1)}\n")

    def no_build(*args, **kwargs):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(HamiltonianSum, "to_matrix", no_build)
    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
    code = main(["zeno", "--kind", kind, "--a", a, "--b", b, "--t", "1", "--n", "5"])
    return code, capsys.readouterr().err


def test_zeno_stoquastic_sweep_runs_above_the_dense_ceiling(tmp_path, capsys, monkeypatch):
    # 13 system qubits: the trajectory is the expm_multiply reference, so
    # no dense matrix is built and every row is exact
    to_matrix = HamiltonianSum.to_matrix

    def sparse_only(self, dense=False):
        if dense:
            raise AssertionError("dense matrix built")
        return to_matrix(self)

    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(HamiltonianSum, "to_matrix", sparse_only)
    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    a = _write(tmp_path, "a.txt", "qubits 13\n0.5 ZIIIIIIIIIIII\n-0.3 ZZIIIIIIIIIII\n")
    b = _write(tmp_path, "b.txt", "qubits 13\n-1 XIIIIIIIIIIII\n-0.4 IIIIIIIIIIIXX\n")
    code, report = _run(capsys, "zeno", "--kind", "stoq", "--a", a, "--b", b, "--t", "1", "--sweep", "50,100,200")
    assert code == 0
    assert report["payload"]["rows"] == [[50, 0.0, 1.0], [100, 0.0, 1.0], [200, 0.0, 1.0]]
    assert report["payload"]["error_slope"] is None
    assert report["payload"]["survival_deficit_slope"] is None


@pytest.mark.parametrize("kind, b_coeff", [("comm", "1"), ("stoq", "-1")], ids=["comm", "stoq"])
def test_zeno_iterative_ceiling_checked_before_allocation(tmp_path, capsys, monkeypatch, kind, b_coeff):
    # neither protocol holds a dense matrix; 21 system qubits are above the
    # 20-qubit ceiling of the flip diagonals and the CSR reference
    code, err = _zeno_refused_before_allocation(tmp_path, capsys, monkeypatch, kind, 21, b_coeff)
    assert code == 3
    assert "iterative ceiling" in err


@pytest.mark.parametrize("n", [17, 21])
def test_one_qubit_ceiling_for_every_sparse_route(tmp_path, capsys, monkeypatch, n):
    # one flip mask on n qubits: at 17 every route that reads the operator
    # or the whole-register form runs; at 21, above the 20-qubit ceiling,
    # each is refused before any flip diagonal is summed
    h = HamiltonianSum(n, [(-1.0, "X" * n)])
    f = _write(tmp_path, "h.txt", f"qubits {n}\n-1 {'X' * n}\n")
    a = _write(tmp_path, "a.txt", f"qubits {n}\n0.5 {'Z' * n}\n")
    calls = [h.to_matrix, lambda: h.apply(np.ones(1 << min(n, 20)))]
    commands = [["check", f], ["check", f, "--assembled"]]
    commands += [["zeno", "--kind", kind, "--a", a, "--b", f, "--t", "1", "--n", "5"] for kind in ("stoq", "comm")]
    if n <= 20:
        assert calls[0]().nnz == 1 << n
        assert calls[1]().tolist() == [-1.0] * (1 << n)
        for argv in commands:
            assert main(argv) == 0, argv
            capsys.readouterr()
        return

    def no_diagonals(*args):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_diagonals)
    for call in calls:
        with pytest.raises(ResourceLimitError, match="iterative ceiling"):
            call()
    for argv in commands:
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert not captured.out
        assert f"{n} qubits exceeds the iterative ceiling of 20" in captured.err


@pytest.mark.parametrize("kind, b_coeff", [("comm", "0.5"), ("stoq", "-1")], ids=["comm", "stoq"])
def test_zeno_working_set_checked_before_allocation(tmp_path, capsys, monkeypatch, kind, b_coeff):
    # 300 + 300 X masks on 16 qubits: the CSR operators of A, B and A + B
    # (600 * 2^16 * 12 = 471859200 bytes) each pass the byte ceiling, but
    # the run would hold three complex copies of A +- B (and, commuting,
    # the propagators)
    n = 16
    labels = [format(x, f"0{n}b").replace("0", "I").replace("1", "X") for x in range(1, 601)]
    a = _write(tmp_path, "a.txt", f"qubits {n}\n" + "".join(f"1 {lbl}\n" for lbl in labels[:300]))
    b = _write(tmp_path, "b.txt", f"qubits {n}\n" + "".join(f"{b_coeff} {lbl}\n" for lbl in labels[300:]))
    ha, hb = load_hamiltonian(a), load_hamiltonian(b)
    for ham in (ha, hb, HamiltonianSum(n, ha.terms + hb.terms)):
        pinq.pauli._check_stack_bytes(ham.flip_count(), ham.n, ham.dtype)

    def no_build(*args, **kwargs):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(HamiltonianSum, "to_matrix", no_build)
    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
    code = main(["zeno", "--kind", kind, "--a", a, "--b", b, "--t", "1", "--n", "5"])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "iterative ceiling" in captured.err and "Traceback" not in captured.err


def test_zeno_commuting_runs_above_the_dense_ceiling(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "qubits 13\n0.5 ZIIIIIIIIIIII\n-0.3 ZZIIIIIIIIIII\n")
    b = _write(tmp_path, "b.txt", "qubits 13\n1 XIIIIIIIIIIII\n0.4 IIIIIIIIIIIXY\n")
    code, report = _run(capsys, "zeno", "--kind", "comm", "--a", a, "--b", b, "--t", "1", "--n", "50")
    assert code == 0
    assert report["payload"]["reference"] == "A+B"
    assert 0.0 < report["payload"]["error"] < 0.1
    assert 0.9 < report["payload"]["survival"] < 1.0


def test_zeno_reference_cost_checked_before_expm_multiply(tmp_path, capsys, monkeypatch):
    # ||Z + X||_1 = 2, so t = 6e6 asks expm_multiply for about 1.2e7 Taylor
    # steps, above the step ceiling of 10^7
    a = _write(tmp_path, "a.txt", "qubits 1\n1 Z\n")
    b = _write(tmp_path, "b.txt", "qubits 1\n1 X\n")

    def refuse(*args, **kwargs):
        raise AssertionError("expm_multiply called")

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", refuse)
    code = main(["zeno", "--kind", "comm", "--a", a, "--b", b, "--t", "6e6", "--n", "5"])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "step ceiling" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, code, kind",
    [(["spectrum", "{h}", "--bounds", "1"], 2, "ParseError"),
     (["zeno", "--kind", "comm", "--a", "{h}", "--b", "{h}", "--t", "1", "--n", "10000001"], 3, "ResourceLimitError")],
)
def test_errors_carry_a_json_line(tmp_path, capsys, argv, code, kind):
    h = _write(tmp_path, "h.txt", "qubits 1\n1 Z\n")
    assert main([a.format(h=h) for a in argv]) == code
    captured = capsys.readouterr()
    assert not captured.out
    human, record = captured.err.splitlines()
    assert human.startswith("error: ")
    assert json.loads(record) == {"error": {"type": kind, "message": human[len("error: "):], "exit_code": code}}


@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "{h}", "--bounds", "1"], id="bounds"),
    pytest.param(["spectrum", "{h}", "--pin", "0"], id="pin"),
    pytest.param(["check", "{h}", "--expect", "stoq"], id="expect"),
])
def test_argument_errors_name_no_line(tmp_path, capsys, argv):
    h = _write(tmp_path, "h.txt", "qubits 1\n1 Z\n")
    assert main([a.format(h=h) for a in argv]) == 2
    human, record = capsys.readouterr().err.splitlines()
    assert "line" not in human
    assert json.loads(record)["error"]["type"] == "ParseError"


def test_gscon_build_and_verify(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 2\n-1 ZZ\n")
    inst = str(tmp_path / "inst.json")
    path = str(tmp_path / "path.json")
    code, _ = _run(capsys, "gscon-build", f, "--alpha", "1e-9", "--beta", "0.5",
                   "--out", inst, "--path-out", path)
    assert code == 0
    code, report = _run(capsys, "gscon-verify", "--instance", inst, "--path", path)
    assert code == 0
    assert report["payload"]["outcome"] == "YES-witnessed"


def _gscon_files(tmp_path, capsys, text="qubits 2\n-1 ZZ\n", alpha="1e-9"):
    f = _write(tmp_path, "h.txt", text)
    inst, path = str(tmp_path / "inst.json"), str(tmp_path / "path.json")
    code, _ = _run(capsys, "gscon-build", f, "--alpha", alpha, "--beta", "0.5",
                   "--out", inst, "--path-out", path)
    assert code == 0
    return inst, path


def test_gscon_verify_zero_step_path_reports_null_energy(tmp_path, capsys):
    # a path of no steps has no intermediate energy, which is null, not -Infinity
    inst, path = _gscon_files(tmp_path, capsys)
    _rewrite_json(path, lambda d: d.update(steps=[]))
    code, report = _run(capsys, "gscon-verify", "--instance", inst, "--path", path)
    assert code == 1
    assert report["payload"]["outcome"] == "distance-violation"
    assert report["payload"]["max_intermediate_energy"] is None


@pytest.mark.parametrize("option", [["--alpha", "nan"], ["--beta", "inf"], ["--delta", "nan"],
                                    ["--eta2", "inf"], ["--eta3", "nan"], ["--eta4", "-inf"],
                                    ["--beta", "1e200"], ["--m", "0"], ["--m", "-5"]])
def test_gscon_build_non_finite_or_empty_bound_exit_3(tmp_path, capsys, option):
    f = _write(tmp_path, "h.txt", "qubits 1\n0.5 Z\n")
    args = {"--alpha": "1e-9", "--beta": "0.5"}
    args[option[0]] = option[1]
    inst = tmp_path / "inst.json"
    code = main(["gscon-build", f, *[f"{k}={v}" for k, v in args.items()], "--out", str(inst)])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert not inst.exists()


def _rewrite_json(path, edit):
    with open(path) as f:
        data = json.load(f)
    edit(data)
    with open(path, "w") as f:
        json.dump(data, f)


@pytest.mark.parametrize("which, edit", [
    pytest.param("instance", lambda d: d.pop("qubits"), id="instance-without-qubits"),
    pytest.param("instance", lambda d: d.update(format="2"), id="instance-unknown-format"),
    pytest.param("path", lambda d: d["steps"][0].pop("matrix"), id="step-without-matrix"),
    pytest.param("path", lambda d: d.update(format="2"), id="path-unknown-format"),
    # mistyped fields that escaped as AttributeError or TypeError tracebacks
    pytest.param("instance", lambda d: d["hamiltonian"]["terms"][0].__setitem__(1, None),
                 id="term-label-not-a-string"),
    pytest.param("instance", lambda d: d.update(l=None), id="locality-bound-null"),
    pytest.param("path", lambda d: d["steps"][0].update(targets=[0.5]), id="float-target"),
    pytest.param("path", lambda d: d["steps"][0].update(targets=[None]), id="null-target"),
    pytest.param("path", lambda d: d["steps"][0].update(targets=["1"]), id="string-target"),
])
def test_gscon_verify_malformed_json_exit_2(tmp_path, capsys, which, edit):
    inst, path = _gscon_files(tmp_path, capsys)
    _rewrite_json(inst if which == "instance" else path, edit)
    code = main(["gscon-verify", "--instance", inst, "--path", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d.update(qubits=d["qubits"] + 0.5), id="qubits-8.5"),
    pytest.param(lambda d: d.update(qubits=d["qubits"] + 0.0), id="qubits-8.0"),
    pytest.param(lambda d: d["hamiltonian"]["groups"][0].__setitem__(0, 0.5), id="group-index-0.5"),
])
def test_gscon_verify_non_integer_count_or_index_exit_2(tmp_path, capsys, edit):
    # each was read through int(): as the 8-qubit instance it was written
    # from, and group index 0.5 as term 0
    inst, path = _gscon_files(tmp_path, capsys)
    _rewrite_json(inst, edit)
    code = main(["gscon-verify", "--instance", inst, "--path", path])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    human, record = captured.err.splitlines()
    assert human.startswith("error: malformed gscon_instance_json: TypeError")
    assert json.loads(record) == {"error": {"type": "ParseError", "message": human[len("error: "):], "exit_code": 2}}


def _set_weight(d, value):
    d["hamiltonian"]["terms"][0][0] = value


@pytest.mark.parametrize("which, edit, message", [
    pytest.param("instance", lambda d: _set_weight(d, str(d["hamiltonian"]["terms"][0][0])),
                 "term weight must be a JSON number, not str", id="string-weight"),
    pytest.param("instance", lambda d: _set_weight(d, True), "term weight must be a JSON number, not bool",
                 id="bool-weight"),
    pytest.param("instance", lambda d: d["eta"].__setitem__(0, "0"), "eta must be a JSON number, not str",
                 id="string-eta"),
    pytest.param("instance", lambda d: d.update(delta=False), "delta must be a JSON number, not bool",
                 id="bool-delta"),
    pytest.param("instance", lambda d: d.update(qubits=True), "qubits must be a JSON integer, not bool",
                 id="bool-qubits"),
    pytest.param("instance", lambda d: d.update(l=True), "l must be a JSON integer, not bool", id="bool-l"),
    pytest.param("instance", lambda d: d.update(k=True), "k must be a JSON integer, not bool", id="bool-k"),
    pytest.param("instance", lambda d: d.update(m=True), "m must be a JSON integer, not bool", id="bool-m"),
    pytest.param("instance", lambda d: d["hamiltonian"]["groups"][0].__setitem__(0, False),
                 "group index must be a JSON integer, not bool", id="bool-group-index"),
    pytest.param("path", lambda d: d["steps"][0].update(targets=[True]),
                 "gate target must be a JSON integer, not bool", id="bool-target"),
    pytest.param("path", lambda d: d["steps"][0]["matrix"][0][0].__setitem__(0, True),
                 "gate entry must be a JSON number, not bool", id="bool-gate-entry"),
])
def test_gscon_verify_string_or_bool_number_is_malformed(tmp_path, capsys, which, edit, message):
    # float(), complex() and index() read each of these as a number, and the
    # walk reached a verdict
    inst, path = _gscon_files(tmp_path, capsys)
    _rewrite_json(inst if which == "instance" else path, edit)
    code = main(["gscon-verify", "--instance", inst, "--path", path])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    human = captured.err.splitlines()[0]
    assert human == f"error: malformed gscon_{which}_json: TypeError: {message}"


def _five_local_gscon_files(tmp_path, capsys):
    """Instance and planted path that gscon-build writes for -1 ZZ + 0.3 ZX:
    a 5-local Hamiltonian on 8 qubits."""
    inst, path = _gscon_files(tmp_path, capsys, "qubits 2\n-1 ZZ\n0.3 ZX\n", alpha="0")
    with open(inst) as fh:
        assert json.load(fh)["k"] == 5
    return inst, path


@pytest.mark.parametrize("k", [1, 0, -5])
def test_gscon_verify_k_below_the_locality_exit_3(tmp_path, capsys, k):
    # such a "k" was read and dropped, and the walk said YES
    inst, path = _five_local_gscon_files(tmp_path, capsys)
    _rewrite_json(inst, lambda d: d.update(k=k))
    code = main(["gscon-verify", "--instance", inst, "--path", path])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    human, record = captured.err.splitlines()
    assert human == f"error: k={k} is below the Hamiltonian's locality 5"
    assert json.loads(record) == {"error": {"type": "PreconditionError", "message": human[len("error: "):],
                                            "exit_code": 3}}


@pytest.mark.parametrize("k", [5, 6])
def test_gscon_verify_k_at_or_above_the_locality_verifies(tmp_path, capsys, k):
    inst, path = _five_local_gscon_files(tmp_path, capsys)
    _rewrite_json(inst, lambda d: d.update(k=k))
    code, report = _run(capsys, "gscon-verify", "--instance", inst, "--path", path)
    assert code == 0 and report["payload"]["outcome"] == "YES-witnessed"


@pytest.mark.parametrize("count", [3, 5])
def test_gscon_verify_eta_of_the_wrong_length_exit_2(tmp_path, capsys, count):
    # a fifth threshold was ignored, and the walk reached a verdict
    inst, path = _gscon_files(tmp_path, capsys)
    _rewrite_json(inst, lambda d: d.update(eta=(d["eta"] + [1.0])[:count]))
    code = main(["gscon-verify", "--instance", inst, "--path", path])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error: malformed gscon_instance_json: ValueError")


_ID2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_ID4 = [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]


@pytest.mark.parametrize("step, message", [
    pytest.param({"targets": [0, 0], "matrix": _ID4}, "gate targets must be distinct", id="repeated"),
    pytest.param({"targets": [8], "matrix": _ID2}, "gate target 8 outside register", id="outside"),
])
def test_gscon_verify_bad_step_targets_exit_3(tmp_path, capsys, step, message):
    inst, path = _gscon_files(tmp_path, capsys)
    _rewrite_json(path, lambda d: d.update(steps=[step]))
    code = main(["gscon-verify", "--instance", inst, "--path", path])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("index", range(5))
def test_gscon_verify_non_finite_threshold_exit_3(tmp_path, capsys, index):
    # with eta1 = NaN every energy test was false and the walk said YES
    f = _write(tmp_path, "h.txt", "qubits 1\n0.5 Z\n")
    inst, path = str(tmp_path / "inst.json"), str(tmp_path / "path.json")
    code, _ = _run(capsys, "gscon-build", f, "--alpha", "1e-9", "--beta", "0.5",
                   "--out", inst, "--path-out", path)
    assert code == 0
    code, report = _run(capsys, "gscon-verify", "--instance", inst, "--path", path)
    assert code == 1 and report["payload"]["outcome"] == "energy-violation"

    def poison(d):
        if index < 4:
            d["eta"][index] = float("nan")
        else:
            d["delta"] = float("nan")

    _rewrite_json(inst, poison)
    code = main(["gscon-verify", "--instance", inst, "--path", path])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "is not finite" in captured.err


def test_gscon_verify_overflowing_step_exit_3_without_warnings(tmp_path, capsys):
    inst, path = _gscon_files(tmp_path, capsys)
    # the product m^H m overflows to inf, and inf * 0 gives nan
    huge = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    _rewrite_json(path, lambda d: d.update(steps=[{"targets": [0], "matrix": huge}]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["gscon-verify", "--instance", inst, "--path", path])
    captured = capsys.readouterr()
    assert code == 3
    assert "step 0 is not unitary" in captured.err
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
    assert [str(w.message) for w in caught] == []


_HUGE_HEADER = "qubits 99999999999999999999\n"


@pytest.mark.parametrize("command, options", [
    ("spectrum", []),
    ("spectrum", ["--iterative"]),
    ("gscon-build", ["--alpha", "0", "--beta", "0.5", "--out"]),
])
def test_huge_register_hits_the_qubit_ceiling(tmp_path, capsys, command, options):
    f = _write(tmp_path, "h.txt", _HUGE_HEADER)
    if options and options[-1] == "--out":
        options = options + [str(tmp_path / "inst.json")]
    code = main([command, f, *options])
    captured = capsys.readouterr()
    assert code == 3
    assert "iterative ceiling" in captured.err and "Traceback" not in captured.err


def test_assembled_check_on_a_huge_register_exits_3_with_a_json_line(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", _HUGE_HEADER)
    assert main(["check", f, "--assembled"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    human, record = captured.err.splitlines()
    assert human == "error: 99999999999999999999 qubits exceeds the iterative ceiling of 20"
    assert json.loads(record) == {"error": {"type": "ResourceLimitError", "message": human[len("error: "):],
                                            "exit_code": 3}}


def test_effective_on_a_huge_register_touches_only_the_strings(tmp_path):
    # a register-wide loop would run until memory is gone, so the command runs
    # in a child process whose address space is capped at 2.5 GiB
    f = _write(tmp_path, "h.txt", _HUGE_HEADER)
    out = str(tmp_path / "eff.txt")
    cap = 5 << 29
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
              "from pinq.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script, "effective", f, "--pin=0=0", "--pin=5=+", "--out", out],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["payload"]["qubits"] == 10**20 - 3
    assert load_hamiltonian(out).n == 10**20 - 3


def test_gscon_byte_ceiling_checked_before_build(tmp_path, capsys, monkeypatch):
    # 65 flip masks on 20 qubits need 520 MiB of diagonals, above the 512 MiB
    # ceiling of the spectral layer
    n = 20
    masks = [(q,) for q in range(n)] + [(p, q) for p in range(n) for q in range(p + 1, n)]
    labels = ["".join("X" if q in m else "I" for q in range(n)) for m in masks[:65]]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "format": FORMAT_VERSIONS["gscon_instance_json"], "qubits": n,
        "hamiltonian": {"terms": [[0.01, lbl] for lbl in labels],
                        "groups": [[i] for i in range(len(labels))]},
        "k": 2, "l": 2, "m": 4, "eta": [0.0, 1.0, 1e-6, 1.0], "delta": 1e-6,
        "start_circuit": [], "target_circuit": [],
    }))
    path = _write(tmp_path, "path.json",
                  json.dumps({"format": FORMAT_VERSIONS["gscon_path_json"], "steps": []}))
    build = pinq.pauli._stacked_diagonals

    def small_only(strings, diags):
        # group norms build each group on its own support
        if diags.shape[1] > 4:
            raise AssertionError("flip diagonals built before the ceiling check")
        return build(strings, diags)

    def no_state(*args, **kwargs):
        raise AssertionError("state built before the ceiling check")

    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", small_only)
    monkeypatch.setattr(pinq.gscon, "run_circuit", no_state)
    code = main(["gscon-verify", "--instance", str(inst), "--path", path])
    captured = capsys.readouterr()
    assert code == 3
    assert "iterative ceiling" in captured.err


def test_exact_norm_dense_ceiling_checked_before_allocation(tmp_path, capsys, monkeypatch):
    # 13 qubits: a dense matrix would take 512 MiB
    f = _write(tmp_path, "h.txt", "qubits 13\n0.5 ZIIIIIIIIIIII\n")

    def no_build(*args):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(pinq.pauli, "_whole_flip_form", no_build)
    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
    code = main(["unpin-penalty", f, "--pin-qubit", "1", "--bounds", "0,1", "--exact-norm",
                 "--out", str(tmp_path / "lift.txt")])
    captured = capsys.readouterr()
    assert code == 3
    assert "dense ceiling" in captured.err


def test_spectrum_dense_ceiling_checked_before_allocation(tmp_path, capsys, monkeypatch):
    # 13 qubits: above the dense ceiling, though the iterative route takes them
    f = _write(tmp_path, "h.txt", "qubits 13\n0.5 ZIIIIIIIIIIII\n-0.25 XIIIIIIIIIIIX\n")

    def no_build(*args):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(pinq.pauli, "_whole_flip_form", no_build)
    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
    code = main(["spectrum", f, "--dense"])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "dense ceiling" in captured.err


def test_assembled_check_byte_ceiling_exit_3(tmp_path, capsys, monkeypatch):
    # 700 X masks on 16 qubits: the assembled matrix would take 550502400
    # bytes of CSR data and index, over the 512 MiB ceiling
    labels = ["".join("X" if (m >> q) & 1 else "I" for q in range(16)) for m in [*range(1, 700), (1 << 16) - 1]]
    f = _write(tmp_path, "h.txt", "qubits 16\n" + "".join(f"1 {lbl}\n" for lbl in labels))

    def no_build(*args):
        raise AssertionError("flip diagonals built before the byte ceiling check")

    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
    code = main(["check", f, "--assembled"])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "iterative ceiling" in captured.err and "Traceback" not in captured.err


def test_ff_path_subcommand(tmp_path, capsys):
    g0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    gamma = np.kron(np.eye(2), g0)
    start = str(tmp_path / "start.csv")
    end = str(tmp_path / "end.csv")
    hcsv = str(tmp_path / "h.csv")
    np.savetxt(start, gamma, delimiter=",")
    np.savetxt(end, -gamma, delimiter=",")
    np.savetxt(hcsv, gamma, delimiter=",")
    out = str(tmp_path / "path.json")
    code, report = _run(capsys, "ff-path", "--start", start, "--end", end,
                        "--h", hcsv, "--n", "8", "--out", out)
    assert code == 0
    data = json.load(open(out))
    assert len(data["grid_energies"]) == 9
    np.testing.assert_allclose(data["grid_energies"], np.linspace(-4, 4, 9), atol=1e-9)


def _ff_files(tmp_path, start, end, h):
    files = []
    for name, mat in (("start", start), ("end", end), ("h", h)):
        files.append(str(tmp_path / f"{name}.csv"))
        np.savetxt(files[-1], mat, delimiter=",", fmt="%.17g")
    return files


def _verify_path_file(out, start, end, h, steps, eta1):
    """The verdict of ``verify_ff_path`` on the path that ff-path wrote to ``out``."""
    data = json.load(open(out))
    path = FermionPath(
        start=CovMatrix(start), end=CovMatrix(end),
        rotations=tuple(GivensRotation(int(p), int(q), th) for p, q, th in data["rotations"]),
        macro_counts=tuple(data["macro_counts"]), grid_energies=tuple(data["grid_energies"]),
        ramp_deviation=data["ramp_deviation"], alignment_deviation=data["alignment_deviation"],
        max_angle=data["max_angle"], requested_steps=steps)
    return verify_ff_path(path, h, eta1=eta1)


def test_ff_path_generic_three_modes(tmp_path, capsys):
    # generic endpoints take the energy moves and the descend-and-meet
    # alignment; the payload does not depend on --seed
    start, end, h = generic_three_mode()
    files = _ff_files(tmp_path, start, end, h)
    out = str(tmp_path / "path.json")
    argv = ["ff-path", "--start", files[0], "--end", files[1], "--h", files[2], "--n", "8", "--out", out]
    payloads = []
    for seed in ("0", "7"):
        code, report = _run(capsys, "--seed", seed, *argv)
        assert code == 0
        payloads.append(json.dumps(report["payload"], sort_keys=True))
    assert payloads[0] == payloads[1]
    eta1 = max(energy(start, h), energy(end, h)) + 1e-9
    verdict = _verify_path_file(out, start, end, h, 8, eta1)
    assert verdict.ok, verdict.failures
    assert verdict.max_micro_energy <= eta1


def test_ff_path_zero_hamiltonian_exit_0(tmp_path, capsys):
    # every state is a ground state of h = 0, and no plane moves the energy
    g0 = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
    q1, q2 = random_so(6, 0), random_so(6, 100)
    start, end, h = q1 @ g0 @ q1.T, q2 @ g0 @ q2.T, np.zeros((6, 6))
    files = _ff_files(tmp_path, start, end, h)
    out = str(tmp_path / "path.json")
    code, report = _run(capsys, "ff-path", "--start", files[0], "--end", files[1], "--h", files[2],
                        "--n", "8", "--out", out)
    assert code == 0
    assert report["payload"]["grid_energies"] == [0.0] * 9
    verdict = _verify_path_file(out, start, end, h, 8, 1e-9)
    assert verdict.ok, verdict.failures


@pytest.mark.parametrize("steps", ["1000000000000", "100000000000000000000", "100001"])
@pytest.mark.parametrize("flip_end", [False, True])
def test_ff_path_step_ceiling_exit_3(tmp_path, capsys, monkeypatch, steps, flip_end):
    # equal endpoints would record one grid energy per step, distinct ones
    # walk every step: both are refused before either
    g0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    gamma = np.kron(np.eye(2), g0)
    files = _ff_files(tmp_path, gamma, -gamma if flip_end else gamma, gamma)

    def no_walk(*args):
        raise AssertionError("path walked before the step ceiling check")

    monkeypatch.setattr(pinq.ffgauss, "_Walk", no_walk)
    code = main(["ff-path", "--start", files[0], "--end", files[1], "--h", files[2], "--n", steps,
                 "--out", str(tmp_path / "path.json")])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "step ceiling" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 2])
def test_ff_path_non_finite_entry_exit_2(tmp_path, capsys, entry, which):
    g = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    mats = [g, -g, g.copy()]
    mats[which][0, 1] = entry
    files = _ff_files(tmp_path, *mats)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["ff-path", "--start", files[0], "--end", files[1], "--h", files[2],
                     "--n", "4", "--out", str(tmp_path / "path.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "non-finite" in captured.err and not captured.out
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("which, value, mirror, message", [
    (2, 1e308, 1e308, "not antisymmetric"),  # the antisymmetry sum overflows
    (0, 1e200, -1e200, "not pure"),  # squaring overflows
    (2, 1e308, -1e308, "overflow"),  # the energies overflow
])
def test_ff_path_overflowing_entry_exit_3_without_warnings(tmp_path, capsys, which, value, mirror, message):
    g = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    mats = [g, -g, g.copy()]
    mats[which][0, 1], mats[which][1, 0] = value, mirror
    files = _ff_files(tmp_path, *mats)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["ff-path", "--start", files[0], "--end", files[1], "--h", files[2],
                     "--n", "4", "--out", str(tmp_path / "path.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert message in captured.err and not captured.out
    assert [str(w.message) for w in caught] == []


def test_seeded_payloads_are_byte_identical(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 3\n0.5 ZXI\n-0.25 XXZ\n0.125 IZZ\n")
    code1, r1 = _run(capsys, "--seed", "5", "spectrum", f, "--iterative")
    code2, r2 = _run(capsys, "--seed", "5", "spectrum", f, "--iterative")
    assert code1 == code2 == 0
    assert json.dumps(r1["payload"], sort_keys=True) == json.dumps(r2["payload"], sort_keys=True)


def test_version_lists_format_versions(capsys):
    code, report = _run(capsys, "--version")
    assert code == 0
    assert "hamiltonian_text" in report["formats"]


def test_no_subcommand_exit_2(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err.startswith("usage: pinq")


def test_pin_permutation_gap_below_every_bit_count_exit_3(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 2\n0.75 ZI\n-0.5 XX\n")
    out = tmp_path / "p.txt"
    code = main(["pin-permutation", f, "--bounds=0,5e-324", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out and not out.exists()
    assert "1074" in captured.err and "Traceback" not in captured.err


def test_stoquastic_constructions_refuse_y_exit_3(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 3\n0.5 XZZ\n-0.25 IYZ\n")
    for argv in (["pin-stoquastic", f], ["gscon-build", f, "--alpha", "0", "--beta", "0.5"]):
        code = main([*argv, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3 and not captured.out
        assert "UnsupportedTermError" in captured.err and "IYZ" in captured.err


def test_stoquastic_constructions_take_several_z_factors(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 3\n0.5 XZZ\n-0.25 ZXZ\n0.75 ZZX\n")
    code, report = _run(capsys, "pin-stoquastic", f, "--out", str(tmp_path / "p.txt"))
    assert code == 0 and report["payload"]["term_count"] == 3
    code, _ = _run(capsys, "check", str(tmp_path / "p.txt"), "--expect", "stoquastic")
    assert code == 0
    code, report = _run(capsys, "gscon-build", f, "--alpha", "0", "--beta", "0.5",
                        "--out", str(tmp_path / "inst.json"))
    assert code == 0 and report["payload"]["qubits"] == 9


# sha256 of the files the pinning and traversal constructions write on fixed
# inputs, a zero weight and negative weights included: their output bytes are
# part of the seeded-output contract
_GOLDEN_INPUTS = {
    "pin-commuting": (
        "qubits 3\n0.5 ZII\n-0.25 XXI\n0 IZZ\n0.75 IIX\n-0.375 ZIZ\n0.3 IXI\n",
        [],
        "483b7d97440af57fe6d49ba7cc38dfbcb804c7c1243cdaf74e6f84e22acc1a14",
    ),
    "pin-permutation": (
        "qubits 3\n0.625 XII\n-0.25 ZZI\n0 IXX\n-0.5 IIZ\n0.3 XIX\n-0.875 IZI\n",
        ["--bits", "6"],
        "c5188c356ce9fd91337ae9934dee793baea4b53c91e3a97e9e059d00f1284616",
    ),
    "pin-stoquastic": (
        "qubits 3\n0.5 XZI\n-0.25 ZXX\n0.75 IZX\n-0.3 XII\n0.2 ZZI\n0 XIZ\n-0.125 XXZ\n0.375 ZIX\n",
        [],
        "ea08c0bcabe3541cc27f7988cad826c035f6c6372862551edb11a8811ff43e56",
    ),
    "gscon-build": (
        "qubits 3\n0.5 XZI\n-0.25 ZXX\n0.3 ZZI\n-0.125 IXZ\n0.0625 XIX\n",
        ["--alpha", "0", "--beta", "0.5"],
        "fa6bdb80478b83260bf6127346e2bbceee8db102bba175ad4d0282060589d717",
    ),
}


@pytest.mark.parametrize("command", sorted(_GOLDEN_INPUTS))
def test_stoquastic_construction_files_are_golden(tmp_path, capsys, command):
    text, options, digest = _GOLDEN_INPUTS[command]
    f = _write(tmp_path, "h.txt", text)
    out = tmp_path / "out"
    code, _ = _run(capsys, command, f, *options, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# a planted traversal instance of three 2-qubit blocks (12 qubits once built):
# its Z-type terms put |00> above zero, its X-type terms put |++> below it,
# so the empty flip path is a NO and the path through H (x) H on each block
# is a YES.  The gates hold exact entries, so no solver touches the files.
_BLOCK_SIGNS = (("ZZ", 1.0), ("ZI", 1.0), ("IZ", 1.0), ("XX", -1.0), ("ZX", 1.0), ("XZ", -1.0),
                ("XI", -1.0), ("IX", -1.0))
_HH = [[[0.5 * (-1) ** bin(r & c).count("1"), 0.0] for c in range(4)] for r in range(4)]
_Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
# sha256 of the instance and empty-path files that gscon-build writes, and of
# the payloads of gscon-verify on the empty and the planted path
_GSCON_GOLDEN = {
    "instance": "7151b7c500ee8cc77b73c7ec0b2668dc0eaae29dc613f8cd5ea3ef44028e2b1f",
    "empty_path": "1b9f0eb1e7b02aa96d6928a5a00a34f8a35c35a3733f2532d3eddbf5b4c1f615",
    "empty": "40b5fd5387acc1835e63f193f64fe74e9723ae875e818ed90385df4aa534275b",
    "planted": "f4fc54d338f669d776b20f5cad294060aa2958ad5294303a2e0423b6ccf420d7",
}


def test_gscon_files_and_verdicts_are_golden(tmp_path, capsys, monkeypatch):
    # every group's weights sum to at most 0.75, which bounds its norm, so no
    # instance built or loaded here forms a dense group matrix
    def refuse(h):
        raise AssertionError("a group norm was diagonalized")

    monkeypatch.setattr(pinq.pauli, "_dense_stacks", refuse)
    rng = np.random.default_rng(22)
    n = 6
    lines = [f"qubits {n}"]
    for blk in range(3):
        for pair, sign in _BLOCK_SIGNS:
            label = ["I"] * n
            label[2 * blk:2 * blk + 2] = pair
            lines.append(f"{sign * float(rng.uniform(0.1, 0.5))!r} {''.join(label)}")
    f = _write(tmp_path, "h.txt", "\n".join(lines) + "\n")
    inst, empty, planted = (str(tmp_path / name) for name in ("inst.json", "empty.json", "planted.json"))
    steps = [{"targets": [2 * blk, 2 * blk + 1], "matrix": _HH} for blk in range(3)]
    steps += [{"targets": [q], "matrix": _Z} for q in range(n, n + 3)]
    steps += steps[2::-1]  # H (x) H is its own inverse
    with open(planted, "w") as out:
        json.dump({"format": FORMAT_VERSIONS["gscon_path_json"], "steps": steps}, out)
    code, report = _run(capsys, "gscon-build", f, "--alpha", "1e-9", "--beta", "0.5", "--out", inst,
                        "--path-out", empty)
    assert code == 0 and report["payload"]["qubits"] == 12
    digests = {"instance": hashlib.sha256(open(inst, "rb").read()).hexdigest(),
               "empty_path": hashlib.sha256(open(empty, "rb").read()).hexdigest()}
    for name, path, want_code, outcome in (("empty", empty, 1, "energy-violation"),
                                           ("planted", planted, 0, "YES-witnessed")):
        code, report = _run(capsys, "gscon-verify", "--instance", inst, "--path", path)
        assert code == want_code and report["payload"]["outcome"] == outcome
        digests[name] = hashlib.sha256(json.dumps(report["payload"], sort_keys=True).encode()).hexdigest()
    assert digests == _GSCON_GOLDEN


def test_unknown_subcommand_exit_2(capsys):
    code = main(["frobnicate"])
    assert code == 2
