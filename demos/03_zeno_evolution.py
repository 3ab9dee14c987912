"""Dynamical pinning: evolve, measure one qubit, repeat.

The stoquastic protocol is exact at any measurement rate because the flip
operator commutes with the full generator; the commuting protocol converges
like 1/N in both the branch error and the survival deficit.
"""

import numpy as np

from pinq import HamiltonianSum, ZenoProtocol, zeno_evolve, zeno_scaling_sweep

a = HamiltonianSum(1, [(1.0, "Z")])
b_stoq = HamiltonianSum(1, [(-1.0, "X")])
psi0 = np.array([1.0, 0.0], dtype=complex)

print("== stoquastic protocol: A = Z, B = -X, t = 1 ==")
print("target evolution: exp(-i t (A - B)) = exp(-i t (Z + X))")
for n_steps in (1, 10, 100):
    res = zeno_evolve(ZenoProtocol("stoquastic", a, b_stoq, 1.0, n_steps), psi0)
    print(f"  N={n_steps:4d}  error {res.error_norm:.2e}  "
          f"survival deficit {1 - res.survival_probability:.2e}")
print("the ancilla is never flipped, so every step count is exact")

print("\n== commuting protocol: A = Z, B = X, t = 1 ==")
print("target evolution: exp(-i t (A + B))")
b_comm = HamiltonianSum(1, [(1.0, "X")])
protocol = ZenoProtocol("commuting", a, b_comm, 1.0, 50)
sweep = zeno_scaling_sweep(protocol, psi0, [50, 100, 200, 400, 800, 1600])
print(f"{'N':>6} {'error':>12} {'1 - survival':>14}")
for n_steps, err, surv in sweep.rows():
    print(f"{int(n_steps):6d} {err:12.3e} {1 - surv:14.3e}")
print(f"log-log slopes: error {sweep.error_slope:+.3f}, "
      f"survival deficit {sweep.survival_deficit_slope:+.3f}  (both ~ -1)")
