"""Independent oracles shared by the test and acceptance suites.

These deliberately avoid the package's own matrix-assembly and covariance
paths: Pauli-sum matrices come from per-qubit Pauli action, term by term
(no flip-mask grouping), and fermionic
expectations from dense Jordan-Wigner operators in Fock space.  The
generic free-fermion endpoints used by several suites are built here too,
with the canonical factor and conjugation of a covariance matrix, and so
are the exact rational commutator of two groups, the amplitudes of a pin
state, the product state of a pin list, the letter-by-letter reading of a
Pauli label and the strict JSON reader that CLI reports are held to.
"""

import json
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from pinq.errors import PreconditionError
from pinq.ffgauss import CovMatrix, canonical_gamma0, givens_decompose

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def label_masks(label):
    """(n, x, z) of a Pauli label, one letter at a time: letter q gives bit
    q of each mask."""
    x = z = 0
    for q, ch in enumerate(label):
        try:
            xb, zb = _LETTER_BITS[ch]
        except KeyError:
            raise ValueError(f"invalid Pauli letter {ch!r}") from None
        x |= xb << q
        z |= zb << q
    return len(label), x, z


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


def lowest_eigenvalue(n, terms):
    """Lowest eigenvalue of a list of (coeff, label) terms: one plain ``eigh``
    of ``pauli_matrix``, with no symmetry split."""
    return float(scipy.linalg.eigh(pauli_matrix(n, terms), eigvals_only=True)[0])


def _kron_chain(ops):
    out = np.array([[1.0]], dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def flip_diagonals(n, terms):
    """(f, D_f) pairs in increasing f for (coeff, label) terms, with
    H = sum_f P_f diag(D_f) and (P_f v)[i] = v[i ^ f]: the literal per-term build.

    Masks are read off the letters (qubit q is index bit n-1-q).  Each D_f is
    one 2^n vector, summed from zero in term order, one string at a time; it is
    complex when any term carries a Y.
    """
    by_flip = {}
    for coeff, label in terms:
        flip = sum(1 << (n - 1 - q) for q, letter in enumerate(label) if letter in "XY")
        sign = sum(1 << (n - 1 - q) for q, letter in enumerate(label) if letter in "ZY")
        by_flip.setdefault(flip, []).append((sign, label.count("Y"), coeff))
    dtype = complex if any("Y" in label for _, label in terms) else float
    idx = np.arange(1 << n, dtype=np.uint64)
    pairs = []
    for flip in sorted(by_flip):
        diag = np.zeros(1 << n, dtype=dtype)
        for sign, ny, coeff in by_flip[flip]:
            par = np.bitwise_count(idx & np.uint64(sign)) & np.uint8(1)
            term = coeff * (1.0 - 2.0 * par)
            diag += term * (1j ** ny) if ny % 4 else term
        pairs.append((flip, diag))
    return pairs


def apply_flip_diagonals(pairs, vec, dtype=float):
    """Apply H = sum_f P_f diag(D_f) to a vector, where (P_f v)[i] = v[i ^ f]:
    the literal per-flip loop, one strided add per flip mask.

    ``pairs`` is an iterable of (f, D_f) in increasing f; ``dtype`` is the
    operator's own dtype.  Seen as a (2,)*n array with qubit q on axis q,
    P_f reverses the axes of the bits set in f.
    """
    n = vec.shape[0].bit_length() - 1
    shape = (2,) * n
    out = np.zeros(vec.shape, dtype=np.result_type(dtype, vec.dtype))
    acc = out.reshape(shape)
    for flip, diag in pairs:
        axes = tuple(q for q in range(n) if (flip >> (n - 1 - q)) & 1)
        acc += np.flip((diag * vec).reshape(shape), axis=axes)
    return out


def pauli_sparse(n, terms):
    """CSR matrix of (coeff, label) terms: ``pauli_matrix`` with sparse Kronecker chains."""
    out = sp.csr_matrix((1 << n, 1 << n), dtype=complex)
    for coeff, label in terms:
        chain = sp.identity(1, dtype=complex, format="csr")
        for letter in label:
            chain = sp.kron(chain, _LETTER_MAT[letter], format="csr")
        out = out + coeff * chain
    return out


def _check_parts(n, terms, groups, assembled, sparse=False):
    """(group index, matrix) pairs that a structural check reads.

    Each group is realized on its own union support, qubits kept in order;
    ``assembled`` gives the whole sum once, with group index None.  Matrices
    are dense, or CSR from ``pauli_sparse`` when ``sparse`` is set.
    """
    build = pauli_sparse if sparse else pauli_matrix
    if assembled:
        return [(None, build(n, terms))]
    parts = []
    for gi, g in enumerate(groups):
        supp = [q for q in range(n) if any(terms[i][1][q] != "I" for i in g)]
        local = [(terms[i][0], "".join(terms[i][1][q] for q in supp)) for i in g]
        parts.append((gi, build(len(supp), local)))
    return parts


def group_norms(n, terms, groups):
    """Spectral norm of each group: dense eigvalsh on its own support."""
    return [float(np.max(np.abs(np.linalg.eigvalsh(mat)))) for _, mat in _check_parts(n, terms, groups, False)]


def commuting_report(n, terms, groups):
    """(verdict, first pair) by dense commutators: groups i < j, in order,
    commute when [A_i, A_j] of their whole-register matrices is exactly zero.

    Exact for dyadic weights of a few bits, whose products and short sums
    are doubles.
    """
    mats = [pauli_matrix(n, [terms[i] for i in g]) for g in groups]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if np.any(mats[i] @ mats[j] - mats[j] @ mats[i]):
                return False, (i, j)
    return True, None


def groups_commute_rational(h, g1, g2):
    """Exact zero test of the commutator of the groups ``g1`` and ``g2`` of a
    ``HamiltonianSum``, in rational arithmetic.

    Anticommuting string pairs contribute 2*c*d*i^k to the product string,
    with k = 1 or 3, so only the imaginary part is kept; each weight is read
    as a ``Fraction``, in which a float embeds exactly.
    """
    acc = {}
    for i in g1:
        ti = h.terms[i]
        for j in g2:
            tj = h.terms[j]
            if ti.string.commutes_with(tj.string):
                continue
            prod, k = ti.string.compose(tj.string)
            c = 2 * Fraction(ti.coeff) * Fraction(tj.coeff)
            key = (prod.x, prod.z)
            acc[key] = acc.get(key, 0) + (c if k == 1 else -c)
    return all(v == 0 for v in acc.values())


def gate_matrix(n, u, targets):
    """2^n x 2^n matrix of ``u`` on the qubits ``targets`` (the first the most
    significant bit of u's index; qubit 0 the most significant of a state's):
    P^T (u (x) I) P, with P the permutation that moves the targets' bits to
    the front, in order, and keeps the other qubits in order behind them."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    perm = np.zeros((1 << n, 1 << n))
    for i in range(1 << n):
        bits = [(i >> (n - 1 - q)) & 1 for q in order]
        perm[int("".join(map(str, bits)) or "0", 2), i] = 1.0
    return perm.T @ np.kron(u, np.eye(1 << (n - len(targets)))) @ perm


def _dense_offdiag_offender(mat, tol):
    m = np.array(mat, dtype=complex, copy=True)
    np.fill_diagonal(m, 0.0)
    bad = (m.real > tol) | (np.abs(m.imag) > tol)
    if not bad.any():
        return None
    viol = np.where(bad, m.real + np.abs(m.imag), -np.inf)
    pos = np.unravel_index(np.argmax(viol), m.shape)
    return m[pos], (int(pos[0]), int(pos[1]))


def _sparse_offdiag_offender(mat, tol):
    """``_dense_offdiag_offender`` over the stored entries of a sparse matrix."""
    coo = mat.tocoo()
    order = np.lexsort((coo.col, coo.row))  # row-major
    rows, cols, vals = coo.row[order], coo.col[order], coo.data[order]
    bad = (rows != cols) & ((vals.real > tol) | (np.abs(vals.imag) > tol))
    if not bad.any():
        return None
    k = int(np.argmax(np.where(bad, vals.real + np.abs(vals.imag), -np.inf)))
    return vals[k], (int(rows[k]), int(cols[k]))


def stoquastic_report(n, terms, groups, assembled, tol=1e-12, sparse=False):
    """(verdict, worst entry, its position, its group) by a full scan: of
    every entry, or of the stored ones of ``pauli_sparse`` when ``sparse``.

    The worst offender is the largest real part plus |imaginary part| among
    off-diagonal entries that are not real and <= tol, the first in row-major
    order on ties; across groups the larger real part wins, the earlier group
    on ties.
    """
    offender = _sparse_offdiag_offender if sparse else _dense_offdiag_offender
    worst = None
    for gi, mat in _check_parts(n, terms, groups, assembled, sparse):
        hit = offender(mat, tol)
        if hit is not None and (worst is None or hit[0].real > worst[0].real):
            worst = (*hit, gi)
    return (True, None, None, None) if worst is None else (False, *worst)


def _dense_permutation_defect(mat, tol):
    m = np.asarray(mat)
    if np.max(np.abs(m.imag)) > tol:
        return "complex entries"
    m = m.real
    near1 = np.abs(m - 1.0) <= tol
    if not np.all((np.abs(m) <= tol) | near1):
        return "entry outside {0,1}"
    if not (np.all(near1.sum(axis=0) == 1) and np.all(near1.sum(axis=1) == 1)):
        return "row/column sums differ from 1"
    return None


def _sparse_permutation_defect(mat, tol):
    """``_dense_permutation_defect`` over the stored entries; the rest are zeros."""
    coo = mat.tocoo()
    if np.max(np.abs(coo.data.imag), initial=0.0) > tol:
        return "complex entries"
    vals = coo.data.real
    near1 = np.abs(vals - 1.0) <= tol
    if not np.all((np.abs(vals) <= tol) | near1):
        return "entry outside {0,1}"
    dim = mat.shape[0]
    if not (np.all(np.bincount(coo.col[near1], minlength=dim) == 1)
            and np.all(np.bincount(coo.row[near1], minlength=dim) == 1)):
        return "row/column sums differ from 1"
    return None


def permutation_report(n, terms, groups, assembled, tol=1e-12, sparse=False):
    """(verdict, reason, group) from the first part that is not a 0/1 permutation."""
    defect = _sparse_permutation_defect if sparse else _dense_permutation_defect
    for gi, mat in _check_parts(n, terms, groups, assembled, sparse):
        reason = defect(mat, tol)
        if reason is not None:
            return False, reason, gi
    return True, None, None


def zeno_register_evolve(kind, a_terms, b_terms, t, steps, psi0):
    """Literal Zeno protocol on the (n+1)-qubit register, ancilla last.

    ``a_terms``/``b_terms`` are (coeff, label) lists on n qubits.  Every step
    tensors the system state with the ancilla start state, applies
    expm(-i delta H') of the whole register and projects the ancilla onto the
    kept outcome, then renormalizes:

    * stoquastic: H' = A (x) I + B (x) X, ancilla |->, keep |->;
    * commuting: H' = A (x) (I + X) + B (x) (I - X), ancilla |0>, keep |0>.

    Returns (final_state, survival, step_survivals, error_norm), with the
    error of the branch sqrt(survival) * final_state against
    expm(-i t (A -+ B)) psi0.
    """
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    n = psi.size.bit_length() - 1
    if kind == "stoquastic":
        hp = [(c, lab + "I") for c, lab in a_terms] + [(c, lab + "X") for c, lab in b_terms]
        anc = np.array([1.0, -1.0]) / np.sqrt(2.0)
        sign = -1.0
    else:
        hp = [(c, lab + p) for c, lab in a_terms for p in "IX"]
        hp += [(s * c, lab + p) for c, lab in b_terms for s, p in ((1.0, "I"), (-1.0, "X"))]
        anc = np.array([1.0, 0.0])
        sign = 1.0
    u_step = scipy.linalg.expm(-1j * (t / steps) * pauli_matrix(n + 1, hp))
    state, survival, step_survivals = psi, 1.0, []
    for _ in range(steps):
        full = u_step @ np.kron(state, anc)
        kept = full.reshape(-1, 2) @ anc.conj()
        p = float(np.vdot(kept, kept).real)
        survival *= p
        step_survivals.append(p)
        state = kept / np.sqrt(p)
    gen = pauli_matrix(n, list(a_terms) + [(sign * c, lab) for c, lab in b_terms])
    ref = scipy.linalg.expm(-1j * t * gen) @ psi
    error = float(np.linalg.norm(np.sqrt(survival) * state - ref))
    return state, survival, np.array(step_survivals), error


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


def conjugated(gamma, o):
    """The covariance matrix O gamma O^T."""
    return CovMatrix(o @ gamma.mat @ o.T)


def pure_orthogonal_factor(gamma):
    """Special orthogonal O with gamma = O gamma0(parity) O^T, from the real Schur form."""
    if not gamma.is_pure():
        raise PreconditionError("state is not pure")
    parity = gamma.parity()
    t, q = scipy.linalg.schur(gamma.mat, output="real")
    n = gamma.n
    pattern = np.ones(n)
    if parity < 0:
        pattern[0] = -1.0
    qn = q.copy()
    for j in range(n):
        b = t[2 * j, 2 * j + 1]
        if abs(abs(b) - 1.0) > 1e-6:
            raise PreconditionError("Schur form is not a pure-state canonical form")
        if math.copysign(1.0, b) != pattern[j]:
            qn[:, [2 * j, 2 * j + 1]] = qn[:, [2 * j + 1, 2 * j]]
    g0 = canonical_gamma0(n, "even" if parity > 0 else "odd").mat
    if np.linalg.norm(qn @ g0 @ qn.T - gamma.mat) > 1e-7:
        raise PreconditionError("canonical factorization failed")
    if np.linalg.det(qn) < 0:
        raise PreconditionError("canonical factor has determinant -1; parity mismatch")
    return qn


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


_R = 1.0 / math.sqrt(2.0)
_PIN_AMPLITUDES = {"0": (1.0, 0.0), "1": (0.0, 1.0), "+": (_R, _R), "-": (_R, -_R)}


def pin_amplitudes(state):
    """The two amplitudes of a ``PinState``: cos(a)|0> + sin(a)|1> for an angle."""
    if state.kind == "angle":
        return np.array([math.cos(state.angle), math.sin(state.angle)])
    return np.array(_PIN_AMPLITUDES[state.kind])


def pin_state_vector(pin):
    """Product state of the pinned qubits of a ``PinSpec``, in entry order."""
    out = np.array([1.0])
    for _, s in pin.entries:
        out = np.kron(out, pin_amplitudes(s))
    return out


def random_so(dim, seed):
    """A random special orthogonal matrix (QR of a seeded Gaussian matrix)."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


def generic_three_mode():
    """(start, end, h) arrays: two generic pure even 3-mode states, the vacuum
    frame turned by ``random_so`` of seeds 1 and 2, under the block-diagonal h
    of weights 1, 0.7, 0.4."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g0 = np.kron(np.eye(3), j)
    q1, q2 = random_so(6, 1), random_so(6, 2)
    return q1 @ g0 @ q1.T, q2 @ g0 @ q2.T, np.kron(np.diag([1.0, 0.7, 0.4]), j)


def strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)
