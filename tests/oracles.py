"""Independent oracles shared by the test and acceptance suites.

These deliberately avoid the package's own matrix-assembly and covariance
paths: Pauli-sum matrices come from per-qubit Pauli action, term by term
(no flip-mask grouping), and fermionic
expectations from dense Jordan-Wigner operators in Fock space.
"""

import numpy as np
import scipy.linalg

from pinq.ffgauss import givens_decompose, pure_orthogonal_factor

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pauli_entry(n, terms, row, col):
    """<row|H|col> for a list of (coeff, label) terms, one qubit at a time."""
    total = 0.0 + 0.0j
    for coeff, label in terms:
        val = complex(coeff)
        for q, letter in enumerate(label):
            rb = (row >> (n - 1 - q)) & 1
            cb = (col >> (n - 1 - q)) & 1
            if letter == "I":
                f = 1.0 if rb == cb else 0.0
            elif letter == "X":
                f = 1.0 if rb != cb else 0.0
            elif letter == "Z":
                f = (-1.0) ** cb if rb == cb else 0.0
            else:  # Y
                f = 1j * (-1.0) ** cb if rb != cb else 0.0
            val *= f
            if val == 0:
                break
        total += val
    return total


_LETTER_MAT = {"I": np.eye(2, dtype=complex), "X": _X, "Y": _Y, "Z": _Z}


def pauli_matrix(n, terms):
    """Dense matrix of a list of (coeff, label) terms, one Kronecker chain per term.

    The literal per-term sum that ``pauli_entry`` evaluates one entry at a time.
    """
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for coeff, label in terms:
        out += coeff * _kron_chain(_LETTER_MAT[letter] for letter in label)
    return out


def _kron_chain(ops):
    out = np.array([[1.0]], dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def majoranas(n):
    """Jordan-Wigner Majoranas: m_{2j} = Z..ZX, m_{2j+1} = Z..ZY on mode j."""
    ms = []
    for j in range(n):
        for letter in (_X, _Y):
            ops = [_Z] * j + [letter] + [np.eye(2, dtype=complex)] * (n - j - 1)
            ms.append(_kron_chain(ops))
    return ms


def fock_hamiltonian(h_mat, ms):
    """Quadratic operator 2i * sum_{a<b} h_ab m_a m_b as a dense matrix."""
    dim = ms[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    k = len(ms)
    for a in range(k):
        for b in range(a + 1, k):
            if h_mat[a, b] != 0.0:
                out += 2j * h_mat[a, b] * ms[a] @ ms[b]
    return out


def fock_state(gamma, ms):
    """Fock-space vector realizing a pure covariance matrix."""
    n = gamma.n
    dim = 1 << n
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    if gamma.parity() < 0:
        vac = 0.5 * (ms[0] - 1j * ms[1]) @ vac  # occupy mode 0
    o = pure_orthogonal_factor(gamma)
    state = vac
    for rot in givens_decompose(o):
        gen = scipy.linalg.expm(-(rot.theta / 2.0) * (ms[rot.p] @ ms[rot.q]))
        state = gen @ state
    return state


def fock_covariance(state, ms):
    k = len(ms)
    out = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            val = -1j * np.vdot(state, ms[a] @ ms[b] @ state)
            out[a, b] = val.real
            out[b, a] = -val.real
    return out
