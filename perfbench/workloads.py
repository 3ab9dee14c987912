"""Seeded inputs, CLI jobs and output checks for each benchmark workload.

A workload is built once per process by ``build(name, seed, workdir)``: it
writes its input files and returns the job list of one round.  A job is one
``pinq`` CLI invocation with the exit code it must return and a check of its
payload (and of files it wrote) against the identity it should satisfy.
Checks see the payloads of the earlier jobs of the same round, so a job can
be compared with the ones before it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pinq.ffgauss


class CheckFailed(Exception):
    """An output does not satisfy the identity it is checked against."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    expect_exit: int
    check: Callable[[dict], None] | None = None


# Sizes of the measured runs and of the toy runs the smoke test uses.
SIZES = {
    "pinned-decide": {"full": {"dense_n": 10, "iterative_n": 13}, "toy": {"dense_n": 4, "iterative_n": None}},
    "reduce-check": {"full": {"ns": (4, 5, 6), "bits": 3}, "toy": {"ns": (2, 3), "bits": 2}},
    "zeno-sweep": {"full": {"n": 8, "sweep": (50, 100, 200, 400, 800)},
                   "toy": {"n": 3, "sweep": (50, 100, 200, 400, 800)}},
    "traverse": {"full": {"blocks": 3, "steps": 4, "patterns": (0, 1)},
                 "toy": {"blocks": 1, "steps": 4, "patterns": (1,)}},
}
WORKLOADS = tuple(SIZES)


# ---------------------------------------------------------------------------
# input files, written without the package so inputs do not depend on it
# ---------------------------------------------------------------------------


def _label(n: int, letters: dict) -> str:
    return "".join(letters.get(q, "I") for q in range(n))


def write_hamiltonian(path: str, n: int, terms) -> None:
    with open(path, "w") as f:
        f.write(f"qubits {n}\n")
        for coeff, label in terms:
            f.write(f"{coeff:.17g} {label}\n")


def read_terms(path: str) -> tuple[int, dict]:
    """(qubits, {label: summed coefficient}) of a Hamiltonian text file."""
    n = None
    acc = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].split()
            if not line:
                continue
            if n is None:
                n = int(line[1])
                continue
            acc[line[1]] = acc.get(line[1], 0.0) + float(line[0])
    return n, acc


def same_terms(got: dict, want: dict, tol: float = 1e-12) -> bool:
    labels = set(got) | set(want)
    return all(abs(got.get(k, 0.0) - want.get(k, 0.0)) <= tol for k in labels)


def _bounds_arg(a: float, b: float) -> str:
    # one token: "--bounds -1,0" would parse the value as an option
    return f"--bounds={a!r},{b!r}"


# ---------------------------------------------------------------------------
# pinned-decide: the pinned spectrum equals the original one
# ---------------------------------------------------------------------------


def _xz_hamiltonian(n: int, rng) -> list:
    """3n terms: 2n random 2-local terms over {X, Z} x {X, Z} and a Z field.

    The field keeps the spectral gap open, so the Lanczos iteration count
    (and with it the run time) does not swing from one seed to the next.
    """
    terms = []
    for _ in range(2 * n):
        i, j = (int(q) for q in rng.choice(n, 2, replace=False))
        letters = {i: str(rng.choice(["X", "Z"])), j: str(rng.choice(["X", "Z"]))}
        terms.append((float(rng.normal()), _label(n, letters)))
    for q in range(n):
        terms.append((-float(rng.uniform(1.5, 2.5)), _label(n, {q: "Z"})))
    return terms


def _decide_jobs(tag, n, route, terms, workdir, yes):
    h = os.path.join(workdir, f"{tag}.txt")
    hs = os.path.join(workdir, f"{tag}_stoq.txt")
    write_hamiltonian(h, n, terms)
    norm = sum(abs(c) for c, _ in terms)
    # bounds outside [-norm, norm] make the verdict known in advance
    if yes:
        a, b, decision, code = norm + 1.0, norm + 2.0, "YES", 0
    else:
        a, b, decision, code = -norm - 2.0, -norm - 1.0, "NO", 1

    def check_pin(p):
        payload = p[f"{tag}.pin"]
        require(payload["output_qubits"] == n + 1, "stoquastic pin adds one ancilla")
        require(payload["pin"] == [f"{n}=-"], f"ancilla pin {payload['pin']}")

    def check_pinned(p):
        payload = p[f"{tag}.pinned"]
        require(payload["method"] == route, f"method {payload['method']} != {route}")
        require(payload["decision"] == decision, f"decision {payload['decision']}")
        require(abs(payload["value"]) <= norm + 1e-9, "energy outside [-norm, norm]")

    def check_unpinned(p):
        pinned, plain = p[f"{tag}.pinned"], p[f"{tag}.unpinned"]
        require(plain["method"] == route, f"method {plain['method']} != {route}")
        require(abs(pinned["value"] - plain["value"]) <= 1e-8,
                f"pinned {pinned['value']!r} != original {plain['value']!r}")

    return [
        Job(f"{tag}.pin", ("pin-stoquastic", h, "--out", hs), 0, check_pin),
        Job(f"{tag}.pinned", ("spectrum", hs, "--pin", f"{n}=-", _bounds_arg(a, b)), code,
            check_pinned),
        Job(f"{tag}.unpinned", ("spectrum", h), 0, check_unpinned),
    ]


def _pinned_decide(seed, workdir, sizes):
    rng = np.random.default_rng(seed)
    jobs = []
    for tag, n, route in (("dense", sizes["dense_n"], "dense"),
                          ("iter", sizes["iterative_n"], "iterative")):
        if n is not None:
            terms = _xz_hamiltonian(n, rng)
            jobs += _decide_jobs(tag, n, route, terms, workdir, yes=rng.random() < 0.5)
    return jobs


# ---------------------------------------------------------------------------
# reduce-check: every reduction keeps its structural property and its
# pinned operator
# ---------------------------------------------------------------------------


def _zx_hamiltonian(n: int, rng) -> list:
    """2n terms over {Z, ZZ, X, XX}: n Z-type and n X-type, alternating one-
    and two-qubit, with random qubits and signs.

    Magnitudes are (k + u)/8 with k in {3, 5, 6}: two set bits at --bits 3, so
    the permutation pin emits the same number of blocks for every seed.
    """
    terms = []
    for i in range(2 * n):
        letter = "Z" if i < n else "X"
        qs = [int(q) for q in rng.choice(n, 1 + i % 2, replace=False)]
        mag = (float(rng.choice([3, 5, 6])) + float(rng.uniform(0.05, 0.95))) / 8.0
        terms.append((mag if rng.random() < 0.5 else -mag, _label(n, {q: letter for q in qs})))
    return terms


def _reduce_jobs(n, terms, a, b, bits, workdir):
    want = {}
    for c, lab in terms:
        want[lab] = want.get(lab, 0.0) + c
    half = {k: v / 2.0 for k, v in want.items()}
    f = {k: os.path.join(workdir, f"n{n}_{k}.txt")
         for k in ("h", "comm", "stoq", "perm", "lift", "eff_comm", "eff_stoq", "eff_lift")}
    write_hamiltonian(f["h"], n, terms)
    t = f"n{n}"

    def check_verdicts(name, expected):
        def check(p):
            payload = p[name]
            for prop, value in expected.items():
                require(payload[prop] is value, f"{prop} is {payload[prop]}, expected {value}")
        return check

    def check_effective(name, path, target):
        def check(p):
            require(p[name]["qubits"] == n, "effective operator lives on the system register")
            got_n, got = read_terms(path)
            require(got_n == n and same_terms(got, target), f"{path}: pinned operator differs")
        return check

    def check_comm(p):
        payload = p[f"{t}.comm"]
        require(payload["output_qubits"] == n + 1, "commuting pin adds one ancilla")
        require(payload["output_bounds"] == [a / 2.0, b / 2.0], "promise not halved")

    def check_stoq(p):
        payload = p[f"{t}.stoq"]
        require(payload["output_bounds"] == [a, b], "stoquastic pin changed the promise")

    def check_perm(p):
        payload = p[f"{t}.perm"]
        require(payload["output_qubits"] == n + 2 + bits, f"{payload['output_qubits']} qubits")
        require(payload["output_locality"] <= 5, "permutation blocks above locality 5")

    def check_lift(p):
        payload = p[f"{t}.lift"]
        lo, hi, d = a / 2.0, b / 2.0, payload["norm_bound"]
        delta = (hi + lo) / 2.0 + d * (2.0 * d / (hi - lo) + 1.0)
        require(0.0 < d <= sum(abs(v) for v in want.values()) + 1e-9, f"norm bound {d}")
        require(math.isclose(payload["delta"], delta, rel_tol=1e-12), "penalty strength")
        require(payload["output_bounds"] == [lo, (lo + hi) / 2.0], "lifted promise")

    anc = str(n)
    bounds = _bounds_arg(a, b)
    return [
        Job(f"{t}.comm", ("pin-commuting", f["h"], bounds, "--out", f["comm"]), 0, check_comm),
        Job(f"{t}.comm.check", ("check", f["comm"], "--expect", "commuting"), 0,
            check_verdicts(f"{t}.comm.check", {"commuting": True})),
        Job(f"{t}.comm.assembled", ("check", f["comm"], "--assembled", "--expect", "commuting"), 0,
            check_verdicts(f"{t}.comm.assembled", {"commuting": True})),
        Job(f"{t}.comm.eff", ("effective", f["comm"], "--pin", f"{anc}=0", "--out", f["eff_comm"]), 0,
            check_effective(f"{t}.comm.eff", f["eff_comm"], half)),
        Job(f"{t}.stoq", ("pin-stoquastic", f["h"], bounds, "--out", f["stoq"]), 0, check_stoq),
        Job(f"{t}.stoq.check", ("check", f["stoq"], "--expect", "stoquastic"), 0,
            check_verdicts(f"{t}.stoq.check", {"stoquastic": True})),
        Job(f"{t}.stoq.assembled", ("check", f["stoq"], "--assembled", "--expect", "stoquastic"), 0,
            check_verdicts(f"{t}.stoq.assembled", {"stoquastic": True})),
        Job(f"{t}.stoq.eff", ("effective", f["stoq"], "--pin", f"{anc}=-", "--out", f["eff_stoq"]), 0,
            check_effective(f"{t}.stoq.eff", f["eff_stoq"], want)),
        Job(f"{t}.perm", ("pin-permutation", f["h"], "--bits", str(bits), bounds, "--out", f["perm"]),
            0, check_perm),
        Job(f"{t}.perm.check", ("check", f["perm"], "--expect", "permutation"), 0,
            check_verdicts(f"{t}.perm.check", {"permutation": True})),
        # a sum of two or more permutation blocks is never a 0/1 permutation
        Job(f"{t}.perm.assembled", ("check", f["perm"], "--assembled", "--expect", "permutation"), 1,
            check_verdicts(f"{t}.perm.assembled", {"permutation": False})),
        Job(f"{t}.lift", ("unpin-penalty", f["comm"], "--pin-qubit", anc, _bounds_arg(a / 2.0, b / 2.0),
                          "--exact-norm", "--out", f["lift"]), 0, check_lift),
        # the penalty vanishes on the pinned subspace, but breaks commutation
        Job(f"{t}.lift.check", ("check", f["lift"], "--expect", "commuting"), 1,
            check_verdicts(f"{t}.lift.check", {"commuting": False})),
        Job(f"{t}.lift.eff", ("effective", f["lift"], "--pin", f"{anc}=0", "--out", f["eff_lift"]), 0,
            check_effective(f"{t}.lift.eff", f["eff_lift"], half)),
    ]


def _reduce_check(seed, workdir, sizes):
    rng = np.random.default_rng(seed)
    jobs = []
    for n in sizes["ns"]:
        terms = _zx_hamiltonian(n, rng)
        a = -float(rng.uniform(0.5, 1.5)) * n
        b = a + float(rng.uniform(0.5, 1.0))
        jobs += _reduce_jobs(n, terms, a, b, sizes["bits"], workdir)
    return jobs


# ---------------------------------------------------------------------------
# zeno-sweep: O(t^2/N) branch error for the commuting protocol, exact
# dynamics for the stoquastic one
# ---------------------------------------------------------------------------


def _zeno_groups(n: int, rng, kind: str):
    a, b = [], []
    for q in range(n):
        # Z-type A (ring couplings and fields), X-type B: both internally commuting
        a.append((float(rng.uniform(-1.0, 1.0)), _label(n, {q: "Z", (q + 1) % n: "Z"})))
        a.append((float(rng.uniform(-0.5, 0.5)), _label(n, {q: "Z"})))
        mag = float(rng.uniform(0.2, 1.0))
        # the stoquastic protocol needs B strictly off-diagonal and sign-definite
        b.append((-mag if kind == "stoq" else mag, _label(n, {q: "X"})))
    return a, b


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    require(rows and rows[0] == ["N", "error", "survival"], f"{path}: bad header")
    return [[int(r[0]), float(r[1]), float(r[2])] for r in rows[1:]]


def _zeno_sweep(seed, workdir, sizes):
    rng = np.random.default_rng(seed)
    n = sizes["n"]
    sweep = ",".join(str(s) for s in sizes["sweep"])
    jobs = []
    for kind in ("comm", "stoq"):
        a_terms, b_terms = _zeno_groups(n, rng, kind)
        fa, fb = os.path.join(workdir, f"{kind}_a.txt"), os.path.join(workdir, f"{kind}_b.txt")
        write_hamiltonian(fa, n, a_terms)
        write_hamiltonian(fb, n, b_terms)
        out = os.path.join(workdir, f"{kind}.csv")
        argv = ["zeno", "--kind", kind, "--a", fa, "--b", fb, "--t", "1.0", "--sweep", sweep, "--csv", out]
        if kind == "stoq":
            # a seeded random start state also exercises the state-file reader
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            psi /= np.linalg.norm(psi)
            fstate = os.path.join(workdir, "psi.txt")
            with open(fstate, "w") as f:
                f.writelines(f"{v.real:.17g} {v.imag:.17g}\n" for v in psi)
            argv += ["--state", fstate]

        def check(p, kind=kind, out=out):
            payload = p[f"zeno.{kind}"]
            rows = payload["rows"]
            require([r[0] for r in rows] == list(sizes["sweep"]), "sweep points")
            require(_read_csv(out) == rows, "CSV rows differ from the payload")
            if kind == "comm":
                for key in ("error_slope", "survival_deficit_slope"):
                    require(abs(payload[key] + 1.0) <= 0.15, f"{key} {payload[key]} not near -1")
            else:
                require(max(r[1] for r in rows) <= 1e-9, "stoquastic protocol is not exact")
                require(all(abs(r[2] - 1.0) <= 1e-9 for r in rows), "stoquastic survival below 1")

        jobs.append(Job(f"zeno.{kind}", tuple(argv), 0, check))
    return jobs


# ---------------------------------------------------------------------------
# traverse: low-energy paths.  A free-fermion path's grid energies follow the
# straight ramp between the endpoints; a planted witness traverses the
# stoquastic construction, the empty witness does not.
# ---------------------------------------------------------------------------


def _block_matrix(values) -> np.ndarray:
    m = np.zeros((2 * len(values), 2 * len(values)))
    for j, v in enumerate(values):
        m[2 * j, 2 * j + 1] = v
        m[2 * j + 1, 2 * j] = -v
    return m


def _path_from_json(path, start, end) -> pinq.ffgauss.FermionPath:
    with open(path) as f:
        data = json.load(f)
    rotations = tuple(pinq.ffgauss.GivensRotation(int(p), int(q), float(th))
                      for p, q, th in data["rotations"])
    return pinq.ffgauss.FermionPath(
        start=pinq.ffgauss.CovMatrix(start), end=pinq.ffgauss.CovMatrix(end),
        rotations=rotations, macro_counts=tuple(data["macro_counts"]),
        grid_energies=tuple(data["grid_energies"]), ramp_deviation=data["ramp_deviation"],
        alignment_deviation=data["alignment_deviation"], max_angle=data["max_angle"],
        requested_steps=len(data["grid_energies"]) - 1)


# Two-mode pure states with 2x2 block-diagonal covariance, equal parity.  The
# first flips two modes of opposite sign, which the pairing initial guess
# cannot reach, so every macro-step goes through least squares; the second
# flips a same-sign pair, which the pairing guess solves exactly.
FF_PATTERNS = (((-1.0, 1.0), (1.0, -1.0)), ((1.0, 1.0), (-1.0, -1.0)))


def _ff_path(seed, workdir, sizes):
    rng = np.random.default_rng(seed)
    steps = sizes["steps"]
    jobs = []
    for k in sizes["patterns"]:
        cs, ce = FF_PATTERNS[k]
        w = rng.uniform(0.5, 1.5, size=len(cs))
        g_start, g_end, h = _block_matrix(cs), _block_matrix(ce), _block_matrix(w)
        files = {}
        for key, mat in (("start", g_start), ("end", g_end), ("h", h)):
            files[key] = os.path.join(workdir, f"p{k}_{key}.csv")
            np.savetxt(files[key], mat, delimiter=",", fmt="%.17g")
        out = os.path.join(workdir, f"p{k}_path.json")
        # tr(gamma h) = -2 sum_j c_j w_j for block-diagonal gamma and h
        ramp = np.linspace(-2.0 * np.dot(cs, w), -2.0 * np.dot(ce, w), steps + 1)

        def check(p, k=k, out=out, ramp=ramp, g_start=g_start, g_end=g_end, h=h):
            payload = p[f"ff.{k}"]
            grid = np.array(payload["grid_energies"])
            require(grid.shape == ramp.shape, "grid point count")
            require(np.max(np.abs(grid - ramp)) <= 1e-9, "grid energies leave the ramp")
            path = _path_from_json(out, g_start, g_end)
            require(len(path.rotations) == payload["rotations"], "rotation count")
            verdict = pinq.ffgauss.verify_ff_path(
                path, h, eta1=float(np.max(grid)) + path.ramp_deviation + 1e-9)
            require(verdict.ok, f"verify_ff_path: {verdict.failures}")

        jobs.append(Job(f"ff.{k}", ("ff-path", "--start", files["start"], "--end", files["end"],
                                    "--h", files["h"], "--n", str(steps), "--out", out), 0, check))
    return jobs


_PAULI = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Z": np.diag([1.0, -1.0])}
# Signs are fixed: the sign of an X-type term decides whether the construction
# triples it, so fixed signs keep the instance size the same for every seed.
# Positive Z-type coefficients put |00> above the block's ground energy.
_BLOCK_TERMS = (("ZZ", 1.0), ("ZI", 1.0), ("IZ", 1.0), ("XX", -1.0), ("ZX", 1.0), ("XZ", -1.0),
                ("XI", -1.0), ("IX", 1.0))


def _gate_json(targets, mat) -> dict:
    return {"targets": list(targets),
            "matrix": [[[float(v), 0.0] for v in row] for row in np.asarray(mat)]}


def _gscon_traverse(seed, workdir, sizes):
    rng = np.random.default_rng(seed)
    blocks = sizes["blocks"]
    n = 2 * blocks
    terms, witness, e_zero, e_ground = [], [], 0.0, 0.0
    for blk in range(blocks):
        q = (2 * blk, 2 * blk + 1)
        mat = np.zeros((4, 4))
        for pair, sign in _BLOCK_TERMS:
            c = sign * float(rng.uniform(0.1, 0.5))
            terms.append((c, _label(n, {q[0]: pair[0], q[1]: pair[1]})))
            mat += c * np.kron(_PAULI[pair[0]], _PAULI[pair[1]])
        e_zero += float(mat[0, 0])
        evals, evecs = np.linalg.eigh(mat)
        e_ground += float(evals[0])
        u, _ = np.linalg.qr(np.column_stack([evecs[:, 0], np.eye(4)[:, 1:]]))
        witness.append((q, u))
    h = os.path.join(workdir, "h.txt")
    write_hamiltonian(h, n, terms)
    inst, empty, planted = (os.path.join(workdir, x) for x in ("inst.json", "empty.json", "planted.json"))
    # witness, Z flips of the middle register, uncompute (the construction's
    # three-phase path, written here without the package)
    middle = (n, n + 1, n + 2)
    steps = [_gate_json(q, u) for q, u in witness]
    steps += [_gate_json((m,), _PAULI["Z"]) for m in middle]
    steps += [_gate_json(q, u.T) for q, u in reversed(witness)]
    with open(planted, "w") as f:
        json.dump({"format": "1", "steps": steps}, f)

    def check_build(p):
        payload = p["gscon.build"]
        require(payload["qubits"] == n + 6, "two 3-qubit ancilla registers")

    def check_empty(p):
        payload = p["gscon.empty"]
        require(payload["outcome"] == "energy-violation", payload["outcome"])
        require(payload["violation_step"] == 0, f"violation at step {payload['violation_step']}")
        require(abs(payload["max_intermediate_energy"] - e_zero) <= 1e-9,
                "flip-phase energy differs from <0|H|0>")

    def check_planted(p):
        payload = p["gscon.planted"]
        require(payload["outcome"] == "YES-witnessed", payload["outcome"])
        require(payload["final_distance"] <= 1e-6, f"final distance {payload['final_distance']}")
        require(abs(payload["max_intermediate_energy"]) <= 1e-9, "uniform phases should sit at zero")

    require(e_ground < 0.0 < e_zero, "planted instance is not a YES/NO pair")
    return [
        Job("gscon.build", ("gscon-build", h, "--alpha", "1e-9", "--beta", "0.5", "--out", inst,
                            "--path-out", empty), 0, check_build),
        Job("gscon.empty", ("gscon-verify", "--instance", inst, "--path", empty), 1, check_empty),
        Job("gscon.planted", ("gscon-verify", "--instance", inst, "--path", planted), 0, check_planted),
    ]


def _traverse(seed, workdir, sizes):
    return _gscon_traverse(seed, workdir, sizes) + _ff_path(seed, workdir, sizes)


_BUILDERS = {
    "pinned-decide": _pinned_decide,
    "reduce-check": _reduce_check,
    "zeno-sweep": _zeno_sweep,
    "traverse": _traverse,
}


def build(name: str, seed: int, workdir: str, toy: bool = False) -> list:
    """Write the workload's seeded inputs under ``workdir``; return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[name](seed, workdir, SIZES[name]["toy" if toy else "full"])
