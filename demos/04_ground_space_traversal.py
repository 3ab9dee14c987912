"""Ground-space traversal with stoquastic terms.

Builds the two-ancilla-register construction for a small Hamiltonian, checks
the expectation identities that make it work, and walks the three-phase
witness path: prepare the witness, flip the middle register with Z gates,
uncompute.
"""

import numpy as np

from pinq import (
    HamiltonianSum,
    UnitaryStep,
    build_stoquastic_gscon,
    is_stoquastic,
    verify_path,
    witness_traversal,
)
from pinq.gscon import apply_gate

h = HamiltonianSum(2, [(-1.0, "ZZ"), (0.3, "ZX")])
hsys = np.asarray(h.to_matrix(dense=True))
evals, evecs = np.linalg.eigh(hsys)
print(f"system Hamiltonian ground energy: {evals[0]:.6f}")

build = build_stoquastic_gscon(h, alpha=1e-9, beta=0.5)
hpp = build.hamiltonian
print(f"traversal Hamiltonian: {len(hpp.terms)} strings, "
      f"{len(hpp.group_indices())} terms, locality {hpp.locality}, "
      f"{hpp.n} qubits")
print(f"termwise stoquastic: {is_stoquastic(hpp, termwise=True).verdict}")

# expectation identities on |psi>|x>|--->
plus = np.array([1.0, 1.0]) / np.sqrt(2)
minus = np.array([1.0, -1.0]) / np.sqrt(2)


def xbasis(bits):
    v = np.array([1.0])
    for bch in bits:
        v = np.kron(v, plus if bch == "+" else minus)
    return v


hm = hpp.to_matrix()
rng = np.random.default_rng(1)
psi = rng.standard_normal(4)
psi /= np.linalg.norm(psi)
e_sys = psi @ hsys @ psi
print(f"\nrandom |psi> with <psi|H|psi> = {e_sys:.6f}")
for mid in ("---", "+++", "+--", "-++"):
    st = np.kron(np.kron(psi, xbasis(mid)), xbasis("---"))
    e = np.real(np.vdot(st, hm @ st))
    print(f"  middle |{mid}>: construction expectation {e:+.6f}")
print("uniform middle strings give zero; the others reproduce <psi|H|psi>")

# witness: a two-qubit unitary whose first column is the ground state
q, _ = np.linalg.qr(np.column_stack([evecs[:, 0], np.eye(4)[:, 1:]]))
witness = [UnitaryStep((0, 1), q * np.sign(q[0, 0] * np.sign(evecs[0, 0])))]
steps = witness_traversal(build, witness)
print(f"\ntraversal path: {len(steps)} unitaries "
      "(prepare witness, 3 flips, uncompute)")
state = build.instance.start_state()
for i, step in enumerate(steps):
    state = apply_gate(state, step, build.instance.n)
    e = float(np.real(np.vdot(state, hm @ state)))
    print(f"  after step {i + 1}: energy {e:+.6f}")
verdict = verify_path(build.instance, steps)
print(f"verdict: {verdict.outcome}  "
      f"(max energy {verdict.max_intermediate_energy:.2e}, "
      f"final distance {verdict.final_distance:.2e})")
