"""Pinning reductions: trading Hamiltonian restrictions for fixed qubits.

Walks the three static reductions on a small mixed-sign Hamiltonian and
verifies, numerically, that pinning the fresh ancillas reproduces the
original spectrum (exactly, or halved, or to 2^-Q in the permutation case).
"""

import numpy as np

from pinq import (
    HamiltonianSum,
    PromiseBounds,
    commuting_pin,
    effective_sum,
    is_commuting,
    is_permutation,
    is_stoquastic,
    min_eig,
    permutation_pin,
    pinned_min_energy,
    stoquastic_pin,
)

h = HamiltonianSum(
    2,
    [(0.8, "ZI"), (-0.6, "ZZ"), (0.5, "XI"), (0.7, "XX"), (0.4, "XZ")],
)
print("input terms:")
for t in h.terms:
    print(f"  {t.coeff:+.3f} {t.string.label()}")
e0 = min_eig(h).value
print(f"ground energy: {e0:.12f}")
print(f"stoquastic already? {is_stoquastic(h, termwise=True).verdict}")

# --- stoquastic pin: same spectrum, one ancilla pinned to |-> --------------
print("\n== stoquastic pin ==")
res = stoquastic_pin(h, PromiseBounds(-2.0, -1.0))
print(f"output: {len(res.hamiltonian.terms)} strings in "
      f"{len(res.hamiltonian.group_indices())} terms, locality {res.hamiltonian.locality}")
print(f"termwise stoquastic: {is_stoquastic(res.hamiltonian, termwise=True).verdict}")
pinned = pinned_min_energy(res.hamiltonian, res.pin).value
print(f"pinned minimum {pinned:.12f}  (target {e0:.12f}, diff {abs(pinned - e0):.2e})")

# --- commuting pin needs commuting off-diagonal strings: XZ and XX do not --
print("\n== commuting pin ==")
h_split = HamiltonianSum(
    2, [(0.8, "ZI"), (-0.6, "ZZ"), (0.5, "XI"), (0.7, "XX")]
)
e_split = min_eig(h_split).value
res = commuting_pin(h_split, PromiseBounds(-2.0, -1.0))
print(f"fully commuting: {is_commuting(res.hamiltonian).verdict}")
pinned = pinned_min_energy(res.hamiltonian, res.pin).value
print(f"pinned minimum {pinned:.12f}  (half target {e_split / 2:.12f})")
print(f"promise bounds: ({res.bounds.a}, {res.bounds.b})")

# --- permutation pin: 0/1 blocks, coefficients in the pin angles -----------
print("\n== permutation pin ==")
res = permutation_pin(h, q_bits=20)
report = res.report
print(f"blocks: {report.term_count} (bound {len(h.terms) * 20}), "
      f"locality {report.output_locality}, pinned qubits {len(res.pin.entries)}")
print(f"every block a permutation: {is_permutation(res.hamiltonian, termwise=True).verdict}")
eff = effective_sum(res.hamiltonian, res.pin).to_matrix(dense=True)
target = h.to_matrix(dense=True) / report.scale
err = np.linalg.norm(eff - target, 2)
print(f"effective vs target: {err:.3e}  (bound {report.truncation_bound:.3e})")
