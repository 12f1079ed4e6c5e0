"""Sampling random checkerboard media and checking ergodic averaging.

A medium is an i.i.d. lattice of material parameters with a uniform random
shift.  Cell values are counter-hashed from the seed, so the field lives on
all of the plane with O(1) memory, and every query is reproducible.
"""

import numpy as np

import plasthom as ph

law = ph.ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"uniform": [0.25, 0.35]},
})
print("law-level ellipticity constants: gamma =", round(law.gamma, 4),
      " beta =", round(law.beta, 4))

omega = ph.sample_realization(law, seed=42)
print("\nrealization 42 has shift", np.round(omega.shift, 4))
points = np.array([[0.2, 0.7], [1.2, 0.7], [10.0, -3.5]])
params = omega.parameters_at(points)
for x, E, sigma_y in zip(points.tolist(), params["E"], params["sigma_y"]):
    print(f"  material at {x}: E={E}, sigma_y={sigma_y:.3f}")

print("\nshifting the medium relabels space consistently:")
moved = ph.shifted(omega, np.array([1.5, -0.5]))
a = moved.parameters_at(np.array([0.2, 0.7]))
b = omega.parameters_at(np.array([1.7, 0.2]))
print("  shifted at x equals original at x+y:", a["E"][0] == b["E"][0])

print("\nspatial averages approach the ensemble mean (expect 1.5):")
for L in (4, 8, 16, 32):
    # one average per realization in the list, here a list of one
    avg, = ph.ergodic_average([omega], lambda params: params["E"], L)
    print(f"  box half-width {L:>2}: average E = {avg:.4f} "
          f"(error {abs(avg - 1.5):.4f})")

print("\nthe error decays like the inverse square root of the cell count:")
spec = ph.ExperimentSpec(kind="ergodic", params={
    "law": law, "L_values": [8, 16, 32], "n_seeds": 30})
table = ph.run_ergodic_check(spec)
print("  mean errors:", {k: round(v, 5) for k, v in table.meta["mean_errors"].items()})
print("  fitted decay exponent:", round(table.meta["exponent"], 3),
      "(about -1 for d=2)")
