"""Simulated quantum estimation of Jones values from Hadamard-test bits.

Validates the ancilla circuit identity by statevector simulation, then runs
the seeded sampling loop at several accuracy targets, each next to the error
bound it delivers, and shows convergence toward the exact value as the shot
count grows.
"""

import numpy as np

from tljones import (
    SamplerConfig,
    enumerate_paths,
    global_gate,
    hadamard_circuit_check,
    iterations_for,
    jones_value_exact,
    parse_braid_word,
    sample_jones_value,
)
from tljones.braids import BraidWord

print("=== Circuit identity (statevector vs bit-law formulas) ===")
word = parse_braid_word("1 1 1", 2)
basis = enumerate_paths(2, 5)
for m in basis.nonempty_sectors():
    gate = global_gate(basis, word, m)
    for p in range(gate.dim):
        rep = hadamard_circuit_check(gate, p)
        print(
            f"  sector m={m}, walk {p}: bracket {rep.bracket:+.4f}, "
            f"P0(real)={rep.re_prob0_circuit:.6f}, P0(imag)={rep.im_prob0_circuit:.6f}, "
            f"max deviation {rep.max_deviation:.1e}"
        )

print()
print("=== Shot budgets from the Hoeffding bound ===")
for eps, delta in ((0.1, 0.05), (0.05, 0.05), (0.05, 0.01), (0.02, 0.01)):
    print(f"  epsilon={eps:.2f}, delta={delta:.2f} -> {iterations_for(eps, delta)} shots per channel")

print()
print("=== Seeded sampling runs: trefoil at k=5 ===")
exact = jones_value_exact(word, 5).value
print(f"  exact value: {exact:+.8f}")
for seed in range(4):
    run = sample_jones_value(word, 5, SamplerConfig(epsilon=0.05, delta=0.05, seed=seed))
    print(f"  seed={seed}: estimate {run.value:+.6f}  |error| {run.abs_error:.4f} "
          f"bound {run.value_error_bound:.4f} at {run.error_confidence:.0%} confidence "
          f"({run.iterations} shots/channel)")

print()
print("=== Convergence as the shot count grows ===")
for iters in (100, 1000, 10000, 100000):
    errors = [
        sample_jones_value(word, 5, SamplerConfig(iterations=iters, seed=s)).abs_error
        for s in range(10)
    ]
    print(f"  {iters:>6} shots: mean |error| over 10 seeds = {np.mean(errors):.5f}")

print()
print("=== Identity braids sample with exactly zero error ===")
for n in (1, 2, 3):
    run = sample_jones_value(BraidWord.identity(n), 5, SamplerConfig(seed=0))
    print(f"  identity on {n} strand(s): estimate == exact == {run.value:+.6f}, "
          f"error {run.abs_error}")
print("(every bracket is a pinned diagonal of the identity gate, so no bits are drawn)")
