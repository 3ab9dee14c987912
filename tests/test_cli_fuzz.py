"""Property tests of the exit-code contract: every input, malformed ones
included, ends in exit 0, 1, 2 or 3 with no exception escaping ``main``.

Valid headers stay at 5 qubits or fewer, so each example is cheap; the
out-of-range headers must be turned away before anything is allocated.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import generic_three_mode, strict_json
from pinq.cli import main
from pinq.io import FORMAT_VERSIONS

EXIT_CODES = {0, 1, 2, 3}

_BIG_HEADERS = ["qubits 17", "qubits 40", "qubits 100000", "qubits 99999999999999999999"]
_BAD_HEADERS = ["qubits -2", "qubits x", "qubit 3", "qubits 3 4", ""]
_COEFFS = ["1", "-0.5", "0", "0.25", "-1e-320", "1e200", "1e300", "1.7976931348623157e308", "1e400",
           "-inf", "nan", "abc", "0x10"]
_REALS = ["0", "1", "-1", "0.5", "2.5", "1e400", "-1e400", "nan", "x", ""]


def _label(draw, n):
    size = draw(st.sampled_from([n] * 6 + [max(n - 1, 0), n + 1]))
    return draw(st.text(st.sampled_from("IXYZ" * 4 + "Qx"), min_size=size, max_size=size))


@st.composite
def hamiltonian_text(draw, max_qubits=5):
    """A Hamiltonian file: header, terms, ``#!group`` lines and comments.

    Valid headers name at most ``max_qubits`` qubits."""
    header = draw(st.one_of(
        st.integers(0, max_qubits).map(lambda n: f"qubits {n}"),
        st.sampled_from(_BIG_HEADERS + _BAD_HEADERS),
    ))
    try:
        n = int(header.split()[1])
    except (IndexError, ValueError):
        n = 2
    lines = [header]
    count = draw(st.integers(0, 5)) if 0 <= n <= 64 else 0
    for _ in range(count):
        coeff = draw(st.one_of(st.sampled_from(_COEFFS), st.floats().map(repr)))
        lines.append(f"{coeff} {_label(draw, n)}")
        if draw(st.integers(0, 9)) == 0:
            lines.append("# a comment")
    indices = list(range(count))
    grouping = draw(st.sampled_from(["none", "single", "pairs", "random"]))
    if grouping == "single":
        lines += [f"#!group {i}" for i in indices]
    elif grouping == "pairs":
        lines += ["#!group " + " ".join(map(str, indices[i:i + 2])) for i in range(0, count, 2)]
    elif grouping == "random":
        tokens = st.one_of(st.integers(-1, count + 1).map(str), st.just("a"))
        lines += ["#!group " + " ".join(draw(st.lists(tokens, max_size=3)))]
    return "\n".join(lines) + "\n"


_PIN_STATES = ["0", "1", "+", "-", "angle:0.3", "angle:nan", "angle:inf", "angle:1e400",
               "angle:", "angle:x", "2"]
pin_token = st.one_of(
    st.builds("{}={}".format, st.sampled_from(["0", "1", "4", "-1", "x"]), st.sampled_from(_PIN_STATES)),
    st.just("0"),
)
bounds_text = st.one_of(
    st.builds("{},{}".format, st.sampled_from(_REALS), st.sampled_from(_REALS)),
    st.sampled_from(["-1,1", "1", "0,1,2"]),
)


# file names in the work directory, put in place of the paths of argv
_H, _OUT = "h.txt", "out.txt"


@st.composite
def hamiltonian_argv(draw):
    """argv of one subcommand that reads the Hamiltonian file ``_H``."""
    command = draw(st.sampled_from(
        ["check", "pin-commuting", "pin-stoquastic", "pin-permutation", "unpin-penalty",
         "effective", "spectrum"]
    ))
    argv = [command, _H]
    if command == "check":
        if draw(st.booleans()):
            argv.append("--assembled")
        argv += ["--tol", draw(st.sampled_from(["1e-12", "0", "-1", "nan", "1e300"]))]
    if command in ("pin-commuting", "pin-stoquastic", "pin-permutation", "spectrum") and draw(st.booleans()):
        argv += ["--bounds", draw(bounds_text)]
    if command == "pin-permutation" and draw(st.booleans()):
        argv += ["--bits", draw(st.sampled_from(["1", "2", "3", "1024", "0", "-1", "100000000000000000000"]))]
    if command == "unpin-penalty":
        argv += ["--pin-qubit", draw(st.sampled_from(["0", "1", "-1", "9"])),
                 "--bounds", draw(bounds_text)]
        if draw(st.booleans()):
            argv += ["--norm-bound", draw(st.sampled_from(_REALS))]
        if draw(st.booleans()):
            argv.append("--exact-norm")
    if command in ("effective", "spectrum"):
        for token in draw(st.lists(pin_token, max_size=2)):
            argv.append(f"--pin={token}")
    if command == "spectrum" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--dense", "--iterative"])))
    if command != "check" and command != "spectrum":
        argv += ["--out", _OUT]
    return argv


def _run_contract(argv):
    """Run ``main``; check the exit code, that no traceback escapes and that
    any report printed is strict JSON.  Returns (exit code, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in EXIT_CODES
    assert "Traceback" not in stderr.getvalue()
    if stdout.getvalue():
        strict_json(stdout.getvalue())
    return code, stdout.getvalue()


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as d:
        yield d


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)
    return path


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
@given(text=hamiltonian_text(), argv=hamiltonian_argv())
# operators with no terms, which ARPACK would start from a zero vector
@example(text="qubits 3\n", argv=["spectrum", _H, "--iterative"])
@example(text="qubits 17\n", argv=["spectrum", _H])
# registers whose n-letter penalty label no file could hold: exit 3, no 2^n
@example(text="qubits 99999999999999999999\n",
         argv=["unpin-penalty", _H, "--pin-qubit", "0", "--bounds", "0,1", "--out", _OUT])
@example(text="qubits 1000000000000\n",
         argv=["unpin-penalty", _H, "--pin-qubit", "0", "--bounds", "0,1", "--out", _OUT])
def test_hamiltonian_commands_keep_the_exit_contract(workdir, text, argv):
    _write(os.path.join(workdir, _H), text)
    _run_contract([os.path.join(workdir, a) if a in (_H, _OUT) else a for a in argv])


@functools.cache
def _gscon_docs():
    """A small planted instance and its empty witness, as parsed JSON."""
    with tempfile.TemporaryDirectory() as d:
        h = _write(os.path.join(d, "g.txt"), "qubits 1\n-0.5 Z\n0.25 X\n")
        inst, path = os.path.join(d, "inst.json"), os.path.join(d, "path.json")
        assert main(["gscon-build", h, "--alpha", "1e-9", "--beta", "0.5", "--out", inst,
                     "--path-out", path]) == 0
        with open(inst) as fi, open(path) as fp:
            return json.load(fi), json.load(fp)


_GSCON_OPTIONS = ["--alpha", "--beta", "--eta2", "--eta3", "--eta4", "--delta", "--m"]


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_gscon_build_keeps_the_exit_contract(workdir, data):
    h = _write(os.path.join(workdir, "gb.txt"), "qubits 1\n-0.5 Z\n0.25 X\n")
    inst = os.path.join(workdir, "gb-inst.json")
    if os.path.exists(inst):
        os.remove(inst)
    values = {"--alpha": "1e-9", "--beta": "0.5"}
    for option in data.draw(st.lists(st.sampled_from(_GSCON_OPTIONS), min_size=1, max_size=3, unique=True)):
        values[option] = data.draw(st.sampled_from(_REALS + ["-5", "1e200"]))
    code, out = _run_contract(["gscon-build", h, *[f"{k}={v}" for k, v in values.items()], "--out", inst])
    if code == 0:
        strict_json(out)
        with open(inst) as f:
            strict_json(f.read())
    else:
        assert not out


def _paths(node, prefix=()):
    """Every key path into a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _sites(doc):
    """Key paths grouped by shape (list indices as '*'), so that a field of
    every list entry is as likely a target as a top-level key."""
    sites = {}
    for path in _paths(doc):
        shape = tuple("*" if isinstance(k, int) else k for k in path)
        sites.setdefault(shape, []).append(path)
    return [sites[shape] for shape in sorted(sites, key=lambda s: (-len(s), repr(s)))]


# type confusions first: a wrong scalar where a number, a label or a list is due
_CONFUSIONS = st.sampled_from([None, True, -1, 0.5, 10**30, float("nan"), float("inf"), "", "x", "1", [], {}])
json_value = st.one_of(
    _CONFUSIONS,
    _CONFUSIONS,
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.sampled_from(["1", "IZ"])),
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.dictionaries(st.text(max_size=2), inner, max_size=2)),
        max_leaves=4,
    ),
)


def _mutate(doc, draw):
    """doc with one subtree replaced or deleted; the document is copied."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(draw(st.sampled_from(_sites(doc)))))
    if not path:
        return draw(json_value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        parent[path[-1]] = draw(json_value)
    elif isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent.pop(path[-1])
    return doc


@st.composite
def gscon_texts(draw):
    """(instance, path) JSON texts: the planted pair with one of the two
    documents mutated one to three times, and sometimes cut short."""
    docs = list(_gscon_docs())
    which = draw(st.sampled_from([0, 1]))
    for _ in range(draw(st.integers(1, 3))):
        docs[which] = _mutate(docs[which], draw)
    texts = [json.dumps(d) for d in docs]
    if draw(st.integers(0, 9)) == 0:
        texts[which] = texts[which][: draw(st.integers(0, len(texts[which])))]
    return texts


def _instance_text(qubits):
    """Instance JSON text with no terms and the qubit count written as ``qubits``."""
    return (f'{{"format": "{FORMAT_VERSIONS["gscon_instance_json"]}", "qubits": {qubits}, '
            '"hamiltonian": {"terms": [], "groups": []}, "k": 2, "l": 2, "m": 4, '
            '"eta": [0.0, 1.0, 1e-6, 1.0], "delta": 1e-6, "start_circuit": [], "target_circuit": []}')


_EMPTY_PATH = json.dumps({"format": FORMAT_VERSIONS["gscon_path_json"], "steps": []})


@settings(max_examples=250, suppress_health_check=[HealthCheck.too_slow])
@given(texts=gscon_texts())
# a qubit count that no integer holds
@example(texts=[_instance_text("Infinity"), _EMPTY_PATH])
@example(texts=[_instance_text("1e400"), _EMPTY_PATH])
def test_gscon_verify_keeps_the_exit_contract(workdir, texts):
    inst = _write(os.path.join(workdir, "fuzz-inst.json"), texts[0])
    path = _write(os.path.join(workdir, "fuzz-path.json"), texts[1])
    assert main(["gscon-verify", "--instance", inst, "--path", path]) in EXIT_CODES


def _ff_cases():
    """(start, end, h) triples: generic 3-mode pure endpoints of even parity,
    and the block-diagonal 2-mode flip, each under a block-diagonal h."""
    flip = np.kron(np.diag([-1.0, 1.0]), [[0.0, 1.0], [-1.0, 0.0]])
    return [generic_three_mode(), (flip, -flip, np.kron(np.diag([0.8, 1.3]), [[0.0, 1.0], [-1.0, 0.0]]))]


def _csv(rows):
    return "".join(",".join(row) + "\n" for row in rows)


_ENTRIES = ["nan", "inf", "-inf", "1e400", "-1e400", "1e308", "-1e-320", "0", "x", "", "0x10", "1;2"]


@st.composite
def matrix_csv(draw, mat):
    """The CSV text of ``mat`` after one to three mutations.  A mirrored
    mutation writes -v opposite v, so antisymmetry survives; a block mutation
    is mirrored onto a diagonal 2x2 block, which a block-diagonal h keeps."""
    rows = [[repr(float(x)) for x in row] for row in mat]
    value = st.one_of(st.sampled_from(_ENTRIES), st.floats().map(repr))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["entry", "mirror", "block", "scale", "drop_row", "drop_cell", "extra_cell"]))
        i = draw(st.integers(0, len(rows) - 1)) if rows else 0
        if kind in ("entry", "mirror", "block") and len(rows) == len(mat) and all(len(r) == len(mat) for r in rows):
            j = i ^ 1 if kind == "block" else draw(st.integers(0, len(rows) - 1))
            v = draw(value)
            rows[i][j] = v
            if kind != "entry":
                rows[j][i] = v[1:] if v.startswith("-") else "-" + v
        elif kind == "scale":
            factor = draw(st.sampled_from([-1.0, 0.0, 0.5, 1e-300, 1e300]))
            rows = [[repr(float(mat[r, c]) * factor) for c in range(mat.shape[1])] for r in range(len(rows))]
        elif kind == "drop_row" and rows:
            rows.pop(i)
        elif kind == "drop_cell" and rows and rows[i]:
            rows[i].pop()
        elif kind == "extra_cell" and rows:
            rows[i].append("0")
    text = _csv(rows)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_ff_path_keeps_the_exit_contract(workdir, data):
    mats = data.draw(st.sampled_from(_ff_cases()))
    which = data.draw(st.sampled_from([0, 1, 2]))
    files = []
    for k, (name, mat) in enumerate(zip(("start", "end", "h"), mats)):
        text = data.draw(matrix_csv(mat)) if k == which else _csv([[repr(float(x)) for x in row] for row in mat])
        files.append(_write(os.path.join(workdir, f"ff-{name}.csv"), text))
    out = os.path.join(workdir, "ff-path.json")
    steps = data.draw(st.sampled_from(["1", "4", "8", "0", "-2", "x", "100000000000000000000"]))
    code, stdout = _run_contract(["ff-path", "--start", files[0], "--end", files[1], "--h", files[2],
                                  "--n", steps, "--out", out])
    if code == 0:
        strict_json(stdout)
        with open(out) as f:
            strict_json(f.read())
    else:
        assert not stdout


_TIMES = ["0", "1", "-1", "1e16", "1e300", "nan"]
_STEP_COUNTS = ["1", "7", "40", "0", "-3", "100000000000000000000"]
_SWEEPS = ["1,7,40", "40,7", "1,100000000000000000000", "0,10", "5", "1,x"]
_STATES = ["0.6\n0 0.8\n", "1e200\n0\n", "nan\n0\n", "0\n0\n", "x\n"]
_ZENO_COEFFS = ["1", "-1", "-0.5", "0.25", "0", "-1e-320", "1e300", "-1e308", "1.7976931348623157e308"]
# file names in the work directory, put in place of the paths of argv
_A, _B, _STATE = "za.txt", "zb.txt", "zpsi.txt"
_ZENO_Z, _ZENO_X = "qubits 1\n1 Z\n", "qubits 1\n1 X\n"


@st.composite
def zeno_group_text(draw, n):
    """A well-formed n-qubit file of one to three strings over one alphabet,
    so that it is often commuting, stoquastic or strictly off-diagonal."""
    letters = draw(st.sampled_from(["IZ", "IX", "IXYZ"]))
    lines = [f"qubits {n}"]
    for _ in range(draw(st.integers(1, 3))):
        label = "".join(draw(st.sampled_from(letters)) for _ in range(n))
        lines.append(f"{draw(st.sampled_from(_ZENO_COEFFS))} {label}")
    return "\n".join(lines) + "\n"


def _zeno_files(n):
    """(A, B, state) texts; A and B are mostly well-formed n-qubit files, and
    the state is mostly a normalized n-qubit state."""
    text = st.one_of(zeno_group_text(n), zeno_group_text(n), hamiltonian_text(max_qubits=3))
    uniform = f"{2 ** (-n / 2)!r}\n" * (1 << n)
    return st.tuples(text, text, st.one_of(st.just(uniform), st.just(uniform), st.sampled_from(_STATES)))


@st.composite
def zeno_argv(draw):
    """argv of ``zeno`` on the Hamiltonian files ``_A`` and ``_B``, and the
    optional state file ``_STATE``."""
    argv = ["zeno", "--kind", draw(st.sampled_from(["comm", "stoq"])), "--a", _A, "--b", _B,
            f"--t={draw(st.sampled_from(_TIMES))}"]
    if draw(st.booleans()):
        argv.append(f"--n={draw(st.sampled_from(_STEP_COUNTS))}")
    else:
        argv.append(f"--sweep={draw(st.sampled_from(_SWEEPS))}")
    if draw(st.booleans()):
        argv += ["--state", _STATE]
    return argv


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(files=st.integers(1, 3).flatmap(_zeno_files), argv=zeno_argv())
# a reference phase past 2^52, a sum of two finite weights that overflows,
# and a step count above the ceiling
@example(files=(_ZENO_Z, _ZENO_X, _STATES[0]), argv=["zeno", "--kind", "comm", "--a", _A, "--b", _B, "--t=1e16"])
@example(files=("qubits 1\n1e308 Z\n1e308 Z\n", _ZENO_X, _STATES[0]),
         argv=["zeno", "--kind", "comm", "--a", _A, "--b", _B, "--t=1"])
@example(files=(_ZENO_Z, _ZENO_X, _STATES[0]),
         argv=["zeno", "--kind", "comm", "--a", _A, "--b", _B, "--t=1", "--n=100000000000000000000"])
def test_zeno_keeps_the_exit_contract(workdir, files, argv):
    for name, text in zip((_A, _B, _STATE), files):
        _write(os.path.join(workdir, name), text)
    code, out = _run_contract([os.path.join(workdir, x) if x in (_A, _B, _STATE) else x for x in argv])
    if code != 0:
        assert not out
