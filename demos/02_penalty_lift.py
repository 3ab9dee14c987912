"""Removing a pin by paying energy: the penalty construction.

A pinned problem with promise (a, b) becomes an ordinary ground-energy
problem with promise (a, (a+b)/2) after adding Delta * |1><1| on the pinned
qubit, Delta = (b+a)/2 + d(2d/(b-a) + 1) for any norm bound d.  The script
builds one YES and one NO instance and scans the worst-case mixing angle.
"""

import numpy as np

from pinq import (
    HamiltonianSum,
    PinSpec,
    PromiseBounds,
    min_eig,
    penalty_delta,
    pin_penalty_lift,
    pinned_min_energy,
)

print(f"Delta(a=0, b=1, d=1) = {penalty_delta(PromiseBounds(0, 1), 1.0)}")
print(f"Delta(a=0, b=1, d=0) = {penalty_delta(PromiseBounds(0, 1), 0.0)}")

rng = np.random.default_rng(0)
sys_h = HamiltonianSum(2, [(0.7, "ZX"), (-0.4, "XX"), (0.2, "ZI")])
emb = HamiltonianSum(
    3, [(t.coeff, t.string.label() + "I") for t in sys_h.terms] + [(0.3, "IIX")]
)
pin = PinSpec.of((2, "0"))
pinned_min = pinned_min_energy(emb, pin).value
print(f"\npinned minimum of the embedded problem: {pinned_min:.6f}")

# YES: choose a just above the pinned minimum
bounds = PromiseBounds(pinned_min + 0.05, pinned_min + 0.55)
res = pin_penalty_lift(emb, 2, bounds)
val = min_eig(res.hamiltonian).value
print(f"YES instance: lifted minimum {val:.6f} <= a = {bounds.a:.6f}: {val <= bounds.a}")

# NO: choose b just below the pinned minimum, so every pinned state is >= b
bounds = PromiseBounds(pinned_min - 0.51, pinned_min - 0.01)
res = pin_penalty_lift(emb, 2, bounds)
val = min_eig(res.hamiltonian).value
floor = (bounds.a + bounds.b) / 2
print(f"NO instance: Delta = {res.delta:.4f} (norm bound d = {res.norm_bound:.4f})")
print(f"  lifted minimum {val:.6f} >= (a+b)/2 = {floor:.6f}: {val >= floor - 1e-9}")

# worst-case mixing scan over (cos t)|psi0>|0> + (sin t)|psi1>|1>
g = np.asarray(res.hamiltonian.to_matrix(dense=True))
dim = g.shape[0] // 2
idx0 = [i for i in range(2 * dim) if i % 2 == 0]
idx1 = [i for i in range(2 * dim) if i % 2 == 1]
v0 = np.linalg.eigh(g[np.ix_(idx0, idx0)])[1][:, 0]
v1 = np.linalg.eigh(g[np.ix_(idx1, idx1)])[1][:, 0]
psi0 = np.zeros(2 * dim)
psi0[idx0] = v0
psi1 = np.zeros(2 * dim)
psi1[idx1] = v1
worst = min(
    (np.cos(t) * psi0 + np.sin(t) * psi1) @ g @ (np.cos(t) * psi0 + np.sin(t) * psi1)
    for t in np.linspace(0, np.pi / 2, 361)
)
print(f"  mixing-angle scan minimum {worst:.6f} (stays above the floor: {worst >= floor - 1e-9})")
