"""Hamiltonian text format round-trips and parse failures."""

import warnings

import numpy as np
import pytest

from pinq.errors import ParseError
from pinq.io import (
    format_hamiltonian,
    load_matrix_csv,
    parse_hamiltonian,
    parse_state_file,
)
from pinq.pauli import HamiltonianSum


def test_parse_basic():
    text = """# a comment
qubits 2
0.5  XI   # inline comment
-1   ZZ
"""
    h = parse_hamiltonian(text)
    assert h.n == 2
    assert [(t.coeff, t.string.label()) for t in h.terms] == [(0.5, "XI"), (-1.0, "ZZ")]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_hamiltonian("qubits 2\n0.5 XI\nbogus line here\n")
    assert exc.value.line_no == 3
    with pytest.raises(ParseError) as exc:
        parse_hamiltonian("qubits 2\n0.5 XIZ\n")
    assert exc.value.line_no == 2
    with pytest.raises(ParseError) as exc:
        parse_hamiltonian("0.5 XI\n")
    assert exc.value.line_no == 1
    with pytest.raises(ParseError):
        parse_hamiltonian("")


@pytest.mark.parametrize("parse", [
    pytest.param(lambda: parse_hamiltonian("# no header\n"), id="no-header"),
    pytest.param(lambda: parse_state_file("1\n0\n0\n", n=1), id="state-length"),
])
def test_errors_of_no_one_line_carry_no_line_number(parse):
    with pytest.raises(ParseError) as exc:
        parse()
    assert exc.value.line_no is None
    assert "line" not in str(exc.value)


def test_round_trip_is_exact():
    rng = np.random.default_rng(19)
    terms = [
        (float(rng.standard_normal()), "".join(rng.choice(list("IXYZ")) for _ in range(3)))
        for _ in range(7)
    ]
    h = HamiltonianSum(3, terms)
    text = format_hamiltonian(h)
    h2 = parse_hamiltonian(text)
    assert format_hamiltonian(h2) == text
    pairs1 = sorted((t.string.x, t.string.z, t.coeff) for t in h.terms)
    pairs2 = sorted((t.string.x, t.string.z, t.coeff) for t in h2.terms)
    assert pairs1 == pairs2  # coefficients bit-exact through 17 significant digits


def test_duplicate_strings_survive_round_trip():
    h = HamiltonianSum(1, [(0.25, "X"), (0.75, "X")])
    h2 = parse_hamiltonian(format_hamiltonian(h))
    assert len(h2.terms) == 2


def test_group_annotations_round_trip():
    h = HamiltonianSum(
        2, [(0.5, "ZI"), (0.5, "ZX"), (-1.0, "XI")], groups=((0, 1), (2,))
    )
    text = format_hamiltonian(h)
    assert "#!group" in text
    h2 = parse_hamiltonian(text)
    assert h2.groups is not None
    assert sorted(len(g) for g in h2.groups) == [1, 2]
    assert format_hamiltonian(h2) == text
    # group-unaware parsing: strip the annotations, same term list
    bare = "\n".join(l for l in text.splitlines() if not l.startswith("#!group"))
    h3 = parse_hamiltonian(bare)
    assert [(t.coeff, t.string.label()) for t in h3.terms] == [
        (t.coeff, t.string.label()) for t in h2.terms
    ]


def test_bad_group_annotation_rejected():
    with pytest.raises(ParseError):
        parse_hamiltonian("qubits 1\n1 X\n#!group 0 1\n")


def test_state_file_formats():
    vec = parse_state_file("1 0\n0.5 -0.5\n# comment\n0\n0.25\n", n=2)
    np.testing.assert_array_equal(vec, [1.0, 0.5 - 0.5j, 0.0, 0.25])
    vec = parse_state_file("1+2j\n0\n")
    np.testing.assert_array_equal(vec, [1.0 + 2.0j, 0.0])
    with pytest.raises(ParseError):
        parse_state_file("1 0\n", n=2)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e400"])
def test_matrix_csv_rejects_non_finite_entries(tmp_path, entry):
    path = tmp_path / "m.csv"
    path.write_text(f"0,{entry}\n-1,0\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_matrix_csv(path)


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_matrix_csv_rejects_empty_file_without_warning(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="expected square"):
            load_matrix_csv(path)
    assert not caught
