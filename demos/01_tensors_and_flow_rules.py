"""Tensor algebra and regularized flow rules, step by step.

Walks through the Mandel vector convention, the isotropic material maps,
and the convex machinery of the plastic flow rule: yield projection,
regularized envelope, its gradient, and the duality gap.
"""

import numpy as np

import plasthom as ph

print("== Mandel vectors ==")
shear = ph.pack([[0.0, 1.0], [1.0, 0.0]])
print("pure shear as a matrix:\n", ph.unpack(shear))
print("as a Mandel vector (off-diagonals carry sqrt 2):", shear)
other = ph.pack([[2.0, 0.3], [0.3, -1.0]])
print("Frobenius product equals the dot product:",
      float(np.sum(ph.unpack(shear) * ph.unpack(other))), "=", float(shear @ other))
print("deviatoric part of", other, "is", ph.deviatoric(other))

print("\n== Isotropic maps (plane strain) ==")
C = ph.isotropic_compliance(E=1.0, nu=0.3)
print("compliance eigenvalues:", np.round(np.linalg.eigvalsh(C), 4))
print("compliance on pure shear = (1+nu)/E times it:", (C @ shear)[2] / shear[2])
print("two-sided ellipticity at gamma=0.3:", ph.ellipticity_check(C, 0.3))

print("\n== Flow rule and its regularization ==")
rule = ph.FlowRule(ph.VON_MISES, yield_stress=1.0)
reg = rule.regularized(delta=0.05)
outside = 1.4 * shear / np.linalg.norm(shear)
print("a stress 40% beyond yield:", np.round(outside, 3))
print("projected back to the yield surface:", np.round(rule.project(outside), 3))
print("envelope value (squared distance / 2 delta):", reg.value(outside))
print("envelope gradient (radial, deviatoric):", np.round(reg.gradient(outside), 3))

print("\n== Duality ==")
p = reg.gradient(outside)
print("gap at a gradient pair (should be ~0):", ph.fenchel_gap(reg, outside, p))
rng = np.random.default_rng(0)
sig = rule.project(rng.standard_normal((5, 3)))
pd = rng.standard_normal((5, 3))
pd[:, :2] -= pd[:, :2].mean(axis=1, keepdims=True)  # deviatoric duals
print("gaps at 5 random feasible pairs (all nonnegative):")
print(np.round(ph.fenchel_gap(rule, sig, pd), 4))

print("\n== Envelope converges monotonically as delta shrinks ==")
probe = np.array([0.0, 0.0, 1.3])
for delta in (0.5, 0.1, 0.02, 0.004):
    print(f"  delta={delta:<6} envelope={reg.rule.regularized(delta).value(probe):.6f}")
print("  unregularized value is +inf outside the yield set:", rule.value(probe))
