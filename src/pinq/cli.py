"""Command-line entry point.

Exit codes: 0 = success / YES, 1 = NO or violation verdict, 2 = malformed
input, 3 = precondition or promise violation.  Every subcommand prints a run
report as JSON: {"subcommand", "seed", "inputs" (sha256 digests), "payload",
"wall_time_s"}.  The payload is byte-stable for identical inputs and seed at
a fixed BLAS thread count: between counts, the dense route's value, residual
and vector can change in their last bits.
An exit 2 or 3 prints ``error: <message>`` on stderr, then one JSON line
{"error": {"type", "message", "exit_code"}}.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import ParseError, PinqError
from .ffgauss import CovMatrix, HamMatrix, interpolation_path
from .gscon import (
    build_stoquastic_gscon,
    load_instance,
    load_path,
    save_instance,
    save_path,
    verify_path,
    witness_traversal,
)
from .io import (
    FORMAT_VERSIONS,
    load_hamiltonian,
    load_matrix_csv,
    load_state,
    save_hamiltonian,
)
from .pauli import is_commuting, matrix_checks
from .pinning import (
    PinSpec,
    PinState,
    PromiseBounds,
    commuting_pin,
    effective_sum,
    permutation_pin,
    pin_penalty_lift,
    stoquastic_pin,
)
from .spectral import GAP_VIOLATION, NO, YES, decide, min_eig, pinned_min_energy
from .zeno import ZenoProtocol, zeno_evolve, zeno_scaling_sweep

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_MALFORMED = 2
EXIT_PRECONDITION = 3


def _digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _parse_pins(tokens) -> PinSpec:
    entries = []
    for tok in tokens or []:
        if "=" not in tok:
            raise ParseError(None, f"pin {tok!r} is not of the form <qubit>=<state>")
        q, state = tok.split("=", 1)
        entries.append((int(q), PinState.parse(state)))
    return PinSpec.of(*entries)


def _parse_bounds(text) -> PromiseBounds | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(None, f"bounds {text!r} must be 'a,b'")
    return PromiseBounds(float(parts[0]), float(parts[1]))


def _emit(args, subcommand, inputs, payload, t0) -> None:
    report = {
        "subcommand": subcommand,
        "seed": args.seed,
        "inputs": {str(p): _digest(p) for p in inputs},
        "payload": payload,
        "wall_time_s": round(time.monotonic() - t0, 6),
    }
    text = json.dumps(report, sort_keys=True)
    # the file first, so that a path that cannot be written leaves stdout empty
    if getattr(args, "json", None):
        with open(args.json, "w") as f:
            f.write(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


_PROPERTIES = ("stoquastic", "commuting", "permutation")


def _cmd_check(args, t0) -> int:
    # an empty --expect names the empty property, which is unknown
    wanted = [w.strip() for w in args.expect.split(",")] if args.expect is not None else []
    unknown = [w for w in wanted if w not in _PROPERTIES]
    if unknown:
        raise ParseError(None, f"--expect names unknown properties {unknown}; valid: {', '.join(_PROPERTIES)}")
    h = load_hamiltonian(args.file)
    stoq, perm = matrix_checks(h, termwise=not args.assembled, tol=args.tol)
    comm = is_commuting(h)
    payload = {
        "qubits": h.n,
        "terms": len(h.terms),
        "locality": h.locality,
        "stoquastic": stoq.verdict,
        "commuting": comm.verdict,
        "permutation": perm.verdict,
    }
    if not stoq.verdict and stoq.worst_entry is not None:
        entry = complex(stoq.worst_entry)
        payload["stoquastic_offender"] = {
            "entry": [entry.real, entry.imag],
            "position": list(stoq.worst_position),
        }
    if not comm.verdict:
        payload["noncommuting_pair"] = list(comm.pair)
    _emit(args, "check", [args.file], payload, t0)
    results = {"stoquastic": stoq.verdict, "commuting": comm.verdict, "permutation": perm.verdict}
    return EXIT_OK if all(results[w] for w in wanted) else EXIT_VERDICT


def _cmd_pin(args, t0) -> int:
    """pin-commuting, pin-stoquastic and pin-permutation: one reduction each."""
    h = load_hamiltonian(args.file)
    extra = {"q_bits": args.bits} if "bits" in args else {}
    # looked up by name at call time, so a wrapped module attribute is the one called
    result = globals()[args.reduction](h, bounds=_parse_bounds(args.bounds), **extra)
    save_hamiltonian(result.hamiltonian, args.out)
    payload = result.report.to_json()
    payload["output_file"] = args.out
    _emit(args, args.subcommand, [args.file], payload, t0)
    return EXIT_OK


def _cmd_unpin_penalty(args, t0) -> int:
    h = load_hamiltonian(args.file)
    bounds = _parse_bounds(args.bounds)
    res = pin_penalty_lift(h, args.pin_qubit, bounds, d=args.norm_bound,
                           exact_norm=args.exact_norm)
    save_hamiltonian(res.hamiltonian, args.out)
    payload = {
        "delta": res.delta,
        "norm_bound": res.norm_bound,
        "output_bounds": [res.bounds.a, res.bounds.b],
        "output_file": args.out,
    }
    _emit(args, "unpin-penalty", [args.file], payload, t0)
    return EXIT_OK


def _cmd_effective(args, t0) -> int:
    h = load_hamiltonian(args.file)
    pin = _parse_pins(args.pin)
    eff = effective_sum(h, pin)
    save_hamiltonian(eff, args.out)
    payload = {"qubits": eff.n, "terms": len(eff.terms), "output_file": args.out}
    _emit(args, "effective", [args.file], payload, t0)
    return EXIT_OK


def _cmd_spectrum(args, t0) -> int:
    h = load_hamiltonian(args.file)
    method = "dense" if args.dense else "iterative" if args.iterative else "auto"
    pin = _parse_pins(args.pin)
    if pin.entries:
        res = pinned_min_energy(h, pin, method=method, seed=args.seed)
    else:
        res = min_eig(h, method=method, seed=args.seed)
    payload = {"value": res.value, "residual": res.residual, "method": res.method}
    bounds = _parse_bounds(args.bounds)
    code = EXIT_OK
    if bounds is not None:
        decision = decide(res.value, bounds)
        payload["decision"] = decision
        code = {YES: EXIT_OK, NO: EXIT_VERDICT, GAP_VIOLATION: EXIT_PRECONDITION}[decision]
    _emit(args, "spectrum", [args.file], payload, t0)
    return code


def _finite_or_none(value: float):
    return value if np.isfinite(value) else None


def _cmd_zeno(args, t0) -> int:
    a = load_hamiltonian(args.a)
    b = load_hamiltonian(args.b)
    kind = {"stoq": "stoquastic", "comm": "commuting"}[args.kind]
    counts = [int(s) for s in args.sweep.split(",")] if args.sweep else None
    # the protocol checks the register against its qubit and byte ceilings
    # first; a sweep's largest count stands in for the --n it does not read
    protocol = ZenoProtocol(kind, a, b, args.t, max(counts) if counts else args.n)
    if args.state:
        psi0 = load_state(args.state, a.n)
    else:
        psi0 = np.zeros(1 << a.n, dtype=complex)
        psi0[0] = 1.0
    inputs = [args.a, args.b] + ([args.state] if args.state else [])
    if counts:
        sweep = zeno_scaling_sweep(protocol, psi0, counts)
        rows = sweep.rows()
        # a slope fitted to fewer than two positive points is NaN, which is not JSON
        payload = {
            "rows": [[int(n), e, s] for n, e, s in rows],
            "error_slope": _finite_or_none(sweep.error_slope),
            "survival_deficit_slope": _finite_or_none(sweep.survival_deficit_slope),
        }
    else:
        res = zeno_evolve(protocol, psi0)
        rows = [(args.n, res.error_norm, res.survival_probability)]
        payload = {
            "error": res.error_norm,
            "survival": res.survival_probability,
            "reference": res.reference_label,
        }
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("N,error,survival\n")
            for n_steps, err, surv in rows:
                f.write(f"{int(n_steps)},{err:.17g},{surv:.17g}\n")
        payload["csv"] = args.csv
    _emit(args, "zeno", inputs, payload, t0)
    return EXIT_OK


def _cmd_gscon_build(args, t0) -> int:
    h = load_hamiltonian(args.file)
    build = build_stoquastic_gscon(h, args.alpha, args.beta, eta2=args.eta2,
                                   eta3=args.eta3, eta4=args.eta4,
                                   delta=args.delta, max_steps=args.m)
    save_instance(build.instance, args.out)
    payload = {
        "qubits": build.instance.n,
        "terms": len(build.hamiltonian.terms),
        "term_groups": len(build.hamiltonian.group_indices()),
        "locality": build.instance.k,
        "instance_file": args.out,
    }
    if args.path_out:
        steps = witness_traversal(build, [])
        save_path(steps, args.path_out)
        payload["path_file"] = args.path_out
    _emit(args, "gscon-build", [args.file], payload, t0)
    return EXIT_OK


def _cmd_gscon_verify(args, t0) -> int:
    inst = load_instance(args.instance)
    steps = load_path(args.path)
    verdict = verify_path(inst, steps)
    payload = {
        "outcome": verdict.outcome,
        # a path of no steps has no intermediate energy: -inf, which is not JSON
        "max_intermediate_energy": _finite_or_none(verdict.max_intermediate_energy),
        "final_distance": verdict.final_distance,
        "violation_step": verdict.violation_step,
    }
    _emit(args, "gscon-verify", [args.instance, args.path], payload, t0)
    return EXIT_OK if verdict.accepted else EXIT_VERDICT


def _cmd_ff_path(args, t0) -> int:
    start = CovMatrix(load_matrix_csv(args.start))
    end = CovMatrix(load_matrix_csv(args.end))
    h = HamMatrix(load_matrix_csv(args.h))
    path = interpolation_path(start, end, h, args.n)
    out = {
        "format": FORMAT_VERSIONS["ff_path_json"],
        "rotations": [[r.p, r.q, r.theta] for r in path.rotations],
        "macro_counts": list(path.macro_counts),
        "grid_energies": list(path.grid_energies),
        "ramp_deviation": path.ramp_deviation,
        "alignment_deviation": path.alignment_deviation,
        "max_angle": path.max_angle,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
    payload = {
        "rotations": len(path.rotations),
        "ramp_deviation": path.ramp_deviation,
        "grid_energies": list(path.grid_energies),
        "output_file": args.out,
    }
    _emit(args, "ff-path", [args.start, args.end, args.h], payload, t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pinq",
        description="Pinning reductions, Zeno-pinned evolution, and ground-space paths",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomized internals")
    parser.add_argument("--json", metavar="PATH", help="also write the run report to a file")
    parser.add_argument("--version", action="store_true", help="print file-format versions and exit")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("check", help="structural property report for a Hamiltonian file")
    p.add_argument("file")
    p.add_argument("--assembled", action="store_true", help="check the assembled matrix instead of per-term")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--expect", help="comma list of properties that must hold (exit 1 otherwise)")
    p.set_defaults(func=_cmd_check)

    for name, reduction, help_text in (
        ("pin-commuting", "commuting_pin", "pin commuting reduction"),
        ("pin-stoquastic", "stoquastic_pin", "pin stoquastic reduction"),
        ("pin-permutation", "permutation_pin", "permutation-matrix reduction"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        if reduction == "permutation_pin":
            p.add_argument("--bits", type=int, default=None, help="binary-expansion bit count Q")
        p.add_argument("--bounds", help="promise bounds 'a,b'")
        p.add_argument("--out", required=True, help="output Hamiltonian file")
        p.set_defaults(func=_cmd_pin, reduction=reduction)

    p = sub.add_parser("unpin-penalty", help="replace a |0> pin by an energy penalty")
    p.add_argument("file")
    p.add_argument("--pin-qubit", type=int, required=True)
    p.add_argument("--bounds", required=True, help="promise bounds 'a,b'")
    norm = p.add_mutually_exclusive_group()
    norm.add_argument("--norm-bound", type=float, default=None, help="upper bound d on the operator norm")
    norm.add_argument("--exact-norm", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_unpin_penalty)

    p = sub.add_parser("effective", help="project onto pinned qubits")
    p.add_argument("file")
    p.add_argument("--pin", action="append", metavar="Q=STATE", help="state in {0,1,+,-,angle:<radians>}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_effective)

    p = sub.add_parser("spectrum", help="minimum (pinned) energy")
    p.add_argument("file")
    p.add_argument("--pin", action="append", metavar="Q=STATE")
    route = p.add_mutually_exclusive_group()
    route.add_argument("--dense", action="store_true")
    route.add_argument("--iterative", action="store_true")
    p.add_argument("--bounds", help="decide YES/NO against promise bounds 'a,b'")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("zeno", help="Zeno-pinned trajectory or step-count sweep")
    p.add_argument("--kind", choices=("stoq", "comm"), required=True)
    p.add_argument("--a", required=True, help="Hamiltonian file for the first group")
    p.add_argument("--b", required=True, help="Hamiltonian file for the second group")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, default=100, help="step count of a single run")
    p.add_argument("--sweep", help="comma list of step counts")
    p.add_argument("--state", help="initial state file (one amplitude per line)")
    p.add_argument("--csv", help="write N,error,survival rows")
    p.set_defaults(func=_cmd_zeno)

    p = sub.add_parser("gscon-build", help="build the stoquastic traversal instance")
    p.add_argument("file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eta2", type=float, default=None)
    p.add_argument("--eta3", type=float, default=1e-6)
    p.add_argument("--eta4", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--m", type=int, default=1024, help="path length bound")
    p.add_argument("--out", required=True, help="instance JSON")
    p.add_argument("--path-out", help="also write the canonical flip path (empty witness)")
    p.set_defaults(func=_cmd_gscon_build)

    p = sub.add_parser("gscon-verify", help="verify a traversal path against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--path", required=True)
    p.set_defaults(func=_cmd_gscon_verify)

    p = sub.add_parser("ff-path", help="free-fermion interpolation path")
    p.add_argument("--start", required=True, help="covariance CSV")
    p.add_argument("--end", required=True, help="covariance CSV")
    p.add_argument("--h", required=True, help="Hamiltonian CSV (2x2 block diagonal)")
    p.add_argument("--n", type=int, required=True, help="macro-step count")
    p.add_argument("--out", required=True, help="path JSON")
    p.set_defaults(func=_cmd_ff_path)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    if args.version:
        print(json.dumps({"pinq": __version__, "formats": FORMAT_VERSIONS}, sort_keys=True))
        return EXIT_OK
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_MALFORMED
    t0 = time.monotonic()
    try:
        return args.func(args, t0)
    except (ParseError, OSError, json.JSONDecodeError, ValueError) as exc:
        return _fail(exc, EXIT_MALFORMED)
    except PinqError as exc:
        return _fail(exc, EXIT_PRECONDITION)


def _fail(exc: Exception, code: int) -> int:
    """Report an error on stderr, as an ``error: <message>`` line for people
    and a one-line JSON object for scripts, and return its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    record = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
