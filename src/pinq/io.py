"""File formats: Hamiltonian text files, pin specs, state vectors, matrices.

Hamiltonian text format (version 1)::

    # comment
    qubits 3
    0.5  XIZ
    -1   ZZI

The first non-comment line is ``qubits N``; every following line is a real
coefficient and an N-letter string over {I, X, Y, Z} with qubit 0 leftmost.
``#`` starts a comment anywhere on a line.

Term grouping (the local-operator structure the property checks work on) is
carried in structured comment lines ``#!group <i> <j> ...`` naming term
indices in file order.  Group-unaware consumers can ignore every comment and
still parse the identical term list.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParseError
from .pauli import HamiltonianSum, PauliString, PauliTerm

FORMAT_VERSIONS = {
    "hamiltonian_text": "1",
    "pin_spec": "1",
    "state_file": "1",
    "matrix_csv": "1",
    "zeno_csv": "1",
    "gscon_instance_json": "1",
    "gscon_path_json": "1",
    "ff_path_json": "1",
    "run_report_json": "1",
}


def parse_hamiltonian(text: str) -> HamiltonianSum:
    n = None
    terms = []
    groups = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#!group"):
            try:
                groups.append(tuple(int(tok) for tok in stripped.split()[1:]))
            except ValueError:
                raise ParseError(line_no, "invalid group indices") from None
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "qubits":
                raise ParseError(line_no, "expected header 'qubits N'")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"invalid qubit count {parts[1]!r}") from None
            if n < 0:
                raise ParseError(line_no, "qubit count must be non-negative")
            continue
        if len(parts) != 2:
            raise ParseError(line_no, "expected '<coeff> <string>'")
        try:
            coeff = float(parts[0])
        except ValueError:
            raise ParseError(line_no, f"invalid coefficient {parts[0]!r}") from None
        label = parts[1]
        if len(label) != n:
            raise ParseError(line_no, f"string has {len(label)} letters, expected {n}")
        try:
            string = PauliString.from_label(label)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        terms.append(PauliTerm(coeff, string))
    if n is None:
        raise ParseError(None, "missing 'qubits N' header")
    if groups:
        try:
            return HamiltonianSum(n, terms, groups=tuple(groups))
        except ValueError as exc:
            raise ParseError(None, f"bad group annotations: {exc}") from None
    return HamiltonianSum(n, terms)


def load_hamiltonian(path) -> HamiltonianSum:
    with open(path) as f:
        return parse_hamiltonian(f.read())


def format_hamiltonian(h: HamiltonianSum) -> str:
    """Serialize with canonical term order and round-trip-exact coefficients.

    Grouped sums sort terms within each group and groups by their leading
    term, then append ``#!group`` annotation lines.
    """

    def key(i):
        t = h.terms[i]
        return (t.string.x, t.string.z, t.coeff)

    lines = [f"qubits {h.n}"]
    if h.groups is None:
        order = sorted(range(len(h.terms)), key=key)
        group_spans = None
    else:
        sorted_groups = sorted(
            (sorted(g, key=key) for g in h.groups if g), key=lambda g: key(g[0])
        )
        order = [i for g in sorted_groups for i in g]
        group_spans = []
        pos = 0
        for g in sorted_groups:
            group_spans.append(range(pos, pos + len(g)))
            pos += len(g)
    for i in order:
        t = h.terms[i]
        lines.append(f"{t.coeff:.17g} {t.string.label()}")
    if group_spans is not None:
        for span in group_spans:
            lines.append("#!group " + " ".join(str(i) for i in span))
    return "\n".join(lines) + "\n"


def save_hamiltonian(h: HamiltonianSum, path) -> None:
    with open(path, "w") as f:
        f.write(format_hamiltonian(h))


def parse_state_file(text: str, n: int | None = None) -> np.ndarray:
    """One complex amplitude per line; accepts 're', 're im', or 're+imj'."""
    amps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) == 2:
                amps.append(complex(float(parts[0]), float(parts[1])))
            else:
                amps.append(complex(parts[0].replace("i", "j")))
        except ValueError:
            raise ParseError(line_no, f"invalid amplitude {line!r}") from None
    vec = np.array(amps, dtype=complex)
    if n is not None and vec.shape[0] != (1 << n):
        raise ParseError(None, f"state has {vec.shape[0]} amplitudes, expected {1 << n}")
    return vec


def load_state(path, n: int | None = None) -> np.ndarray:
    with open(path) as f:
        return parse_state_file(f.read(), n)


def load_matrix_csv(path) -> np.ndarray:
    """2n rows of 2n comma-separated finite reals."""
    with warnings.catch_warnings():
        # an empty file reads as 0x1 and is refused below, without loadtxt's warning
        warnings.simplefilter("ignore", UserWarning)
        mat = np.loadtxt(path, delimiter=",", ndmin=2)
    if mat.shape[0] != mat.shape[1]:
        raise ParseError(None, f"matrix is {mat.shape[0]}x{mat.shape[1]}, expected square")
    if not np.isfinite(mat).all():
        raise ParseError(None, "matrix has a non-finite entry")
    return mat


def save_matrix_csv(mat: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(mat), delimiter=",", fmt="%.17g")
