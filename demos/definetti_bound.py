"""How far can a k-extendable state sit from the separable set?

The tilde state of any k-symmetric-extendable state is separable, and the
distance to it is at most 2 d_B^2 / (d_B^2 + k).  The bound decays like
1/k: high extendability pins a state near the separable set.  The Bell
state saturates a gap of 1 at k = 2 against a bound of 4/3.

rho minus its tilde state is d_B (d_B rho - rho_A x I) / (d_B^2 + k), so
the gap and the bound share the factor 1/(d_B^2 + k) and their ratio,
||d_B rho - rho_A x I||_1 / (2 d_B), is the same at every k: 3/4 for the
Bell state.
"""

import numpy as np

from symext import bell_state, definetti_gap, partial_trace, random_density, trace_norm


def gap_bound_ratio(rho):
    d_b = rho.dims[1]
    lifted = np.kron(partial_trace(rho, [0]).mat, np.eye(d_b))
    return trace_norm(d_b * rho.mat - lifted) / (2 * d_b)


bell = bell_state([1, 0, 0, 0])
print("Bell state (d_B = 2):")
print("  k   gap        bound      gap/bound")
for k in range(1, 11):
    result = definetti_gap(bell, k)
    print(f"  {k:2d}  {result.gap:.6f}  {result.bound:.6f}  {result.gap / result.bound:.6f}")
ratio = gap_bound_ratio(bell)
print(f"  ||d_B rho - rho_A x I||_1 / (2 d_B) = {ratio:.6f}")
assert abs(ratio - 0.75) < 1e-12

rng = np.random.default_rng(2026)
print("\nworst observed gap/bound ratio over 200 random two-qutrit states:")
worst = 0.0
for _ in range(200):
    rho = random_density((3, 3), rng)
    for k in (1, 2, 5, 10):
        result = definetti_gap(rho, k)
        assert abs(result.gap / result.bound - gap_bound_ratio(rho)) < 1e-12
        worst = max(worst, result.gap / result.bound)
print(f"  {worst:.4f}  (never exceeds 1)")
