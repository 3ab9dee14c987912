"""End-to-end command-line checks: exit codes, composition, determinism."""

import argparse
import json
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import pinq.cli
import pinq.gscon
import pinq.spectral
from pinq.cli import main
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


@pytest.mark.parametrize("kind, b_coeff", [("comm", "1"), ("stoq", "-1")])
def test_zeno_dense_ceiling_checked_before_allocation(tmp_path, capsys, monkeypatch, kind, b_coeff):
    # 13 system qubits: a dense generator would take 512 MiB
    a = _write(tmp_path, "a.txt", "qubits 13\n0.5 ZIIIIIIIIIIII\n")
    b = _write(tmp_path, "b.txt", f"qubits 13\n{b_coeff} XIIIIIIIIIIII\n")
    build = HamiltonianSum.flip_diagonals

    def small_only(self):
        # the termwise stoquastic check builds each group on its own support
        if self.n > 2:
            raise AssertionError("flip diagonals built before the ceiling check")
        return build(self)

    monkeypatch.setattr(HamiltonianSum, "flip_diagonals", small_only)
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
    build = HamiltonianSum.flip_diagonals

    def small_only(self):
        # group norms build each group on its own support
        if self.n > 2:
            raise AssertionError("flip diagonals built before the ceiling check")
        return build(self)

    def no_state(*args, **kwargs):
        raise AssertionError("state built before the ceiling check")

    monkeypatch.setattr(HamiltonianSum, "flip_diagonals", small_only)
    monkeypatch.setattr(pinq.gscon, "run_circuit", no_state)
    code = main(["gscon-verify", "--instance", str(inst), "--path", path])
    captured = capsys.readouterr()
    assert code == 3
    assert "iterative ceiling" in captured.err


def test_exact_norm_dense_ceiling_checked_before_allocation(tmp_path, capsys, monkeypatch):
    # 13 qubits: a dense matrix would take 512 MiB
    f = _write(tmp_path, "h.txt", "qubits 13\n0.5 ZIIIIIIIIIIII\n")

    def no_build(self):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(HamiltonianSum, "flip_diagonals", no_build)
    code = main(["unpin-penalty", f, "--pin-qubit", "1", "--bounds", "0,1", "--exact-norm",
                 "--out", str(tmp_path / "lift.txt")])
    captured = capsys.readouterr()
    assert code == 3
    assert "dense ceiling" in captured.err


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
