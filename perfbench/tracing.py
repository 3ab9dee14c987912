"""Span recorder for the traced benchmark run.

The tracer wraps public entry points of each ``pinq`` module (and the two
scipy routines the package leans on) from outside the package: it replaces
the function objects in every module namespace that holds them and restores
the originals on exit.  Each call becomes a span with its name, layer, start,
end, parent span and job.  Spans stay in memory; a layer's self time is its
span time minus the time covered by child spans, so the self times of all
layers (plus the harness layer ``bench``) add up to the traced job time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp

import pinq.cli
import pinq.ffgauss
import pinq.gscon
import pinq.io
import pinq.pauli
import pinq.pinning
import pinq.spectral
import pinq.zeno

LAYERS = ("cli", "io", "pauli", "pinning", "spectral", "zeno", "gscon", "ffgauss", "bench")

# interpolation_path's default solver tolerance: a least-squares solve is
# useful when it reaches it
LSQ_USEFUL_TOL = 1e-11


def _on_load(counters, args, kwargs, result):
    counters["io.bytes"] += os.path.getsize(args[0])


def _on_save(counters, args, kwargs, result):
    counters["io.bytes"] += os.path.getsize(args[1])


def _on_to_matrix(counters, args, kwargs, result):
    counters["pauli.to_matrix.nnz"] += result.nnz if sp.issparse(result) else result.size


def _on_min_eig(counters, args, kwargs, result):
    counters["spectral.matvecs"] += result.iterations
    if result.method == "dense":
        counters["spectral.dense_solves"] += 1


def _on_reduction(counters, args, kwargs, result):
    counters["pinning.terms_out"] += len(result.hamiltonian.terms)


def _on_effective(counters, args, kwargs, result):
    counters["pinning.terms_out"] += len(result.terms)


def _on_zeno_evolve(counters, args, kwargs, result):
    protocol = args[0] if args else kwargs["protocol"]
    counters["zeno.steps"] += protocol.steps


def _on_expm(counters, args, kwargs, result):
    counters["zeno.expm.dim_max"] = max(counters["zeno.expm.dim_max"], result.shape[0])


def _on_lsq(counters, args, kwargs, result):
    counters["ffgauss.lsq.nfev"] += result.nfev
    if float(np.max(np.abs(result.fun))) <= LSQ_USEFUL_TOL:
        counters["ffgauss.lsq.useful"] += 1


def _on_path(counters, args, kwargs, result):
    counters["ffgauss.rotations"] += len(result.rotations)


# (owner, attribute, span name, post-call hook).  Span names start with the
# layer they are charged to.
TARGETS = (
    (pinq.cli, "main", "cli.main", None),
    (pinq.io, "load_hamiltonian", "io.load", _on_load),
    (pinq.io, "save_hamiltonian", "io.save", _on_save),
    (pinq.io, "load_state", "io.load", _on_load),
    (pinq.io, "load_matrix_csv", "io.load", _on_load),
    (pinq.io, "save_matrix_csv", "io.save", _on_save),
    (pinq.pauli.HamiltonianSum, "apply", "pauli.apply", None),
    (pinq.pauli.PauliString, "apply", "pauli.string_apply", None),
    (pinq.pauli.HamiltonianSum, "to_matrix", "pauli.to_matrix", _on_to_matrix),
    (pinq.pauli.HamiltonianSum, "group_norms", "pauli.group_norms", None),
    (pinq.pauli, "is_stoquastic", "pauli.checks", None),
    (pinq.pauli, "is_commuting", "pauli.checks", None),
    (pinq.pauli, "is_permutation", "pauli.checks", None),
    (pinq.pinning, "commuting_pin", "pinning.reduce", _on_reduction),
    (pinq.pinning, "stoquastic_pin", "pinning.reduce", _on_reduction),
    (pinq.pinning, "permutation_pin", "pinning.reduce", _on_reduction),
    (pinq.pinning, "pin_penalty_lift", "pinning.reduce", _on_reduction),
    (pinq.pinning, "effective_sum", "pinning.effective", _on_effective),
    (pinq.spectral, "min_eig", "spectral.min_eig", _on_min_eig),
    (pinq.spectral, "pinned_min_energy", "spectral.pinned", None),
    (pinq.spectral, "promise_decide", "spectral.decide", None),
    (pinq.zeno, "zeno_evolve", "zeno.evolve", _on_zeno_evolve),
    (pinq.zeno, "zeno_scaling_sweep", "zeno.sweep", None),
    (pinq.zeno.ZenoProtocol, "__post_init__", "zeno.protocol_init", None),
    (scipy.linalg, "expm", "zeno.expm", _on_expm),
    (pinq.gscon, "build_stoquastic_gscon", "gscon.build", None),
    (pinq.gscon.GsconInstance, "__post_init__", "gscon.instance_init", None),
    (pinq.gscon, "verify_path", "gscon.verify", None),
    (pinq.gscon, "apply_gate", "gscon.apply_gate", None),
    (pinq.gscon, "witness_traversal", "gscon.witness", None),
    (pinq.gscon, "save_instance", "gscon.json", None),
    (pinq.gscon, "load_instance", "gscon.json", None),
    (pinq.gscon, "save_path", "gscon.json", None),
    (pinq.gscon, "load_path", "gscon.json", None),
    (pinq.ffgauss, "interpolation_path", "ffgauss.path", _on_path),
    (pinq.ffgauss, "verify_ff_path", "ffgauss.verify", None),
    (pinq.ffgauss, "givens_decompose", "ffgauss.givens", None),
    (scipy.optimize, "least_squares", "ffgauss.lsq", _on_lsq),
)

_PACKAGE_MODULES = tuple(
    m for name, m in sorted(sys.modules.items()) if name == "pinq" or name.startswith("pinq.")
)


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, job)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)  # inclusive time per span name
        self.self_s = defaultdict(float)  # exclusive time per span name
        self.counters = defaultdict(int)
        self.job = None
        self._stack = []  # [span id, child time]
        self._patches = []

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            self.spans[span_id] = (span_id, name, start, end, parent, self.job)
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def _wrap(self, orig, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.span(name, orig, *args, **kwargs)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def __enter__(self):
        for owner, attr, name, hook in TARGETS:
            orig = owner.__dict__[attr]
            wrapped = self._wrap(orig, name, hook)
            holders = [owner] if isinstance(owner, type) else [owner, *_PACKAGE_MODULES]
            for holder in holders:
                if vars(holder).get(attr) is orig:
                    setattr(holder, attr, wrapped)
                    self._patches.append((holder, attr, orig))
        return self

    def __exit__(self, *exc):
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()
        return False

    # -- results -------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics, averaged over ``rounds`` traced rounds."""

        def calls(*names):
            return sum(self.calls[n] for n in names) / rounds

        def total(*names):
            return sum(self.total_s[n] for n in names) / rounds

        def self_time(*names):
            return sum(self.self_s[n] for n in names) / rounds

        def layer(prefix):
            return [n for n in self.calls if n.split(".", 1)[0] == prefix]

        c = self.counters
        lsq_calls = self.calls["ffgauss.lsq"]
        out = {
            "cli.main.calls": (calls("cli.main"), "count"),
            "io.calls": (calls(*layer("io")), "count"),
            "io.bytes": (c["io.bytes"] / rounds, "bytes"),
            "pauli.apply.calls": (calls("pauli.apply"), "count"),
            "pauli.apply.self_s": (self_time("pauli.apply"), "s"),
            "pauli.string_apply.calls": (calls("pauli.string_apply"), "count"),
            "pauli.to_matrix.calls": (calls("pauli.to_matrix"), "count"),
            "pauli.to_matrix.self_s": (self_time("pauli.to_matrix"), "s"),
            "pauli.to_matrix.nnz": (c["pauli.to_matrix.nnz"] / rounds, "count"),
            "pauli.checks.calls": (calls("pauli.checks"), "count"),
            "pauli.checks.self_s": (self_time("pauli.checks"), "s"),
            "pauli.group_norms.self_s": (self_time("pauli.group_norms"), "s"),
            "spectral.min_eig.calls": (calls("spectral.min_eig"), "count"),
            "spectral.matvecs": (c["spectral.matvecs"] / rounds, "count"),
            "spectral.dense_solves": (c["spectral.dense_solves"] / rounds, "count"),
            "pinning.calls": (calls(*layer("pinning")), "count"),
            "pinning.terms_out": (c["pinning.terms_out"] / rounds, "count"),
            "zeno.evolve.calls": (calls("zeno.evolve"), "count"),
            "zeno.protocol_init_s": (total("zeno.protocol_init"), "s"),
            "zeno.expm.calls": (calls("zeno.expm"), "count"),
            "zeno.expm_s": (total("zeno.expm"), "s"),
            "zeno.expm.dim_max": (c["zeno.expm.dim_max"], "count"),
            "zeno.steps": (c["zeno.steps"] / rounds, "count"),
            "ffgauss.path.calls": (calls("ffgauss.path"), "count"),
            "ffgauss.lsq.calls": (calls("ffgauss.lsq"), "count"),
            "ffgauss.lsq_s": (total("ffgauss.lsq"), "s"),
            "ffgauss.lsq.nfev": (c["ffgauss.lsq.nfev"] / rounds, "count"),
            "ffgauss.lsq.useful_ratio": (
                c["ffgauss.lsq.useful"] / lsq_calls if lsq_calls else 0.0, "ratio"),
            "ffgauss.verify_s": (total("ffgauss.verify"), "s"),
            "ffgauss.rotations": (c["ffgauss.rotations"] / rounds, "count"),
            "gscon.build_s": (total("gscon.build"), "s"),
            "gscon.instance_init_s": (total("gscon.instance_init"), "s"),
            "gscon.verify_s": (total("gscon.verify"), "s"),
            "gscon.apply_gate.calls": (calls("gscon.apply_gate"), "count"),
            "gscon.apply_gate_s": (total("gscon.apply_gate"), "s"),
            "gscon.json_s": (total("gscon.json"), "s"),
            "trace.job_s": (total("bench.job"), "s"),
            "trace.spans": (len(self.spans) / rounds, "count"),
        }
        for prefix in LAYERS:
            out[f"{prefix}.self_s"] = (self_time(*layer(prefix)), "s")
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON line (times relative to the first span)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            for span_id, name, start, end, parent, job in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start - t0,
                                    "end": end - t0, "parent": parent, "job": job}) + "\n")
