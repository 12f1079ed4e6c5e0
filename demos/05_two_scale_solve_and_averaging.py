"""The two-scale effective solve and the scale-separation experiment.

First, the effective macroscopic problem: every macro element owns cell
problems that supply its stress response, solved jointly with the macro
displacements in one Newton loop per step (a monolithic two-level solve).  Then
the averaging experiment: simplex-averaged stresses of oscillating solves
approach the effective operator as the oscillation scale shrinks.
"""

import numpy as np

import plasthom as ph
from plasthom.fem import mesh_unit_square
from plasthom.tensors import pack

law = ph.ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"point": 0.3},
})

steps = 4
shear = pack(np.array([[0.0, 1.0], [1.0, 0.0]]))
path = ph.StrainPath.ramp(0.5 * shear, T=1.0, steps=steps)
grid = np.linspace(0.0, 1.0, steps + 1)

print("== two-level effective solve on an 8-element square ==")
rve = ph.RveConfig(n_cells=4, refine=1, n_samples=4, delta=0.003,
                   law=law, base_seed=0)
config = ph.MacroConfig(
    mesh=mesh_unit_square(2), rve=rve,
    dirichlet=ph.AffineBoundary(path), time_grid=grid,
    load=lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1)),
)
solution = ph.solve_effective(config)
print("macro Newton iterations per step:", solution.newton_iters)
avg = solution.average_stress()
for m in range(steps + 1):
    print(f"  t={grid[m]:.2f}  mean shear stress {avg[m, 2] / np.sqrt(2):+.4f}")
print("weak-form residual over all test functions:",
      f"{ph.weak_form_residual(solution, config):.1e}")

print("\n== averaging: oscillating solves against the effective operator ==")
spec = ph.ExperimentSpec(kind="averaging", params={
    "law": law, "xi": path, "delta": 0.003,
    "epsilons": [0.25, 0.125], "seeds": [0, 1, 2, 3],
    "time_grid": grid,
    "rve": {"N": 8, "r": 2, "M": 16, "base_seed": 50_000},
})
table = ph.run_averaging_experiment(spec)
for eps, d in table.meta["D_mean"].items():
    print(f"  eps={eps}: seed-averaged discrepancy {d:.4e}")
print("the discrepancy shrinks as the microstructure refines")

print("\n== a gradient inequality behind the corrector solves ==")
korn = ph.run_korn_check(ph.ExperimentSpec(kind="korn", params={
    "n_cells": 8, "n_samples": 500, "seed": 1}))
print("max |grad| / |sym grad| over 500 random periodic fields:",
      round(korn.meta["max_ratio"], 4), "(bound: 2)")
