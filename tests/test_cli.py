"""End-to-end command-line checks: exit codes, composition, determinism."""

import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import pinq.cli
import pinq.ffgauss
import pinq.gscon
import pinq.pauli
import pinq.pinning
import pinq.spectral
from oracles import generic_three_mode, strict_json
from pinq.cli import main
from pinq.ffgauss import CovMatrix, FermionPath, GivensRotation, energy, verify_ff_path
from pinq.io import FORMAT_VERSIONS, format_hamiltonian, load_hamiltonian, parse_hamiltonian
from pinq.pauli import HamiltonianSum


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


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


@pytest.mark.parametrize("bound", ["-1", "0", "nan", "inf"])
def test_unpin_penalty_rejects_impossible_norm_bounds(tmp_path, capsys, bound):
    # ||0.5 ZI|| = 0.5: no bound below it, and no bound that is not finite
    f = _write(tmp_path, "h.txt", "qubits 2\n0.5 ZI\n")
    code = main(["unpin-penalty", f, "--pin-qubit", "1", "--bounds", "0,1",
                 f"--norm-bound={bound}", "--out", str(tmp_path / "lift.txt")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: norm bound")


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


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


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
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
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


@pytest.mark.parametrize("kind, b_coeff", [("comm", "1"), ("stoq", "-1")])
def test_zeno_dense_ceiling_checked_before_allocation(tmp_path, capsys, monkeypatch, kind, b_coeff):
    # 13 system qubits: a dense generator would take 512 MiB
    a = _write(tmp_path, "a.txt", "qubits 13\n0.5 ZIIIIIIIIIIII\n")
    b = _write(tmp_path, "b.txt", f"qubits 13\n{b_coeff} XIIIIIIIIIIII\n")
    build = HamiltonianSum._flip_stack

    def small_only(self):
        # the termwise stoquastic check builds each group on its own support
        if self.n > 2:
            raise AssertionError("flip diagonals built before the ceiling check")
        return build(self)

    def no_diagonals(*args):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(HamiltonianSum, "_flip_stack", small_only)
    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_diagonals)
    code = main(["zeno", "--kind", kind, "--a", a, "--b", b, "--t", "1", "--n", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert "dense ceiling" in captured.err


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


def _gscon_files(tmp_path, capsys):
    f = _write(tmp_path, "h.txt", "qubits 2\n-1 ZZ\n")
    inst, path = str(tmp_path / "inst.json"), str(tmp_path / "path.json")
    code, _ = _run(capsys, "gscon-build", f, "--alpha", "1e-9", "--beta", "0.5",
                   "--out", inst, "--path-out", path)
    assert code == 0
    return inst, path


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
    build = HamiltonianSum._flip_stack

    def small_only(self):
        # group norms build each group on its own support
        if self.n > 2:
            raise AssertionError("flip diagonals built before the ceiling check")
        return build(self)

    def no_state(*args, **kwargs):
        raise AssertionError("state built before the ceiling check")

    monkeypatch.setattr(HamiltonianSum, "_flip_stack", small_only)
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

    monkeypatch.setattr(HamiltonianSum, "_flip_stack", no_build)
    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
    code = main(["unpin-penalty", f, "--pin-qubit", "1", "--bounds", "0,1", "--exact-norm",
                 "--out", str(tmp_path / "lift.txt")])
    captured = capsys.readouterr()
    assert code == 3
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
    data = json.load(open(out))
    path = FermionPath(
        start=CovMatrix(start), end=CovMatrix(end),
        rotations=tuple(GivensRotation(int(p), int(q), th) for p, q, th in data["rotations"]),
        macro_counts=tuple(data["macro_counts"]), grid_energies=tuple(data["grid_energies"]),
        ramp_deviation=data["ramp_deviation"], alignment_deviation=data["alignment_deviation"],
        max_angle=data["max_angle"], requested_steps=8)
    eta1 = max(energy(start, h), energy(end, h)) + 1e-9
    verdict = verify_ff_path(path, h, eta1=eta1)
    assert verdict.ok, verdict.failures
    assert verdict.max_micro_energy <= eta1


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


def test_unknown_subcommand_exit_2(capsys):
    code = main(["frobnicate"])
    assert code == 2
