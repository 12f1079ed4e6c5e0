"""The benchmark workloads: seeded inputs, the entry-point call, output checks.

Every workload uses the two-phase law of the demos and the acceptance suite
(E in {1, 2}, nu = 0.3, sigma_y = 0.3, delta = 0.003).  Where a strain path
is needed it is a pure-shear cycle 0 -> +a -> -a -> 0, so the return map sees
loading, elastic unloading, reverse flow and reloading.  The sizes are the
problem definition; the number of time steps only sets how long one call
runs.

Each workload gives:

* ``setup(seed, variant)`` -- everything the entry point receives, built
  from the seed and the variant number alone (law, path, mesh, configs);
* ``call(inputs)`` -- the one call into the plasthom entry point that is
  timed;
* ``summary(output)`` -- named float arrays compared bit for bit between
  repeated calls on one input and, for the default seed, against
  ``reference.json``;
* ``check(inputs, output)`` -- problems found by checks that hold for any
  seed, as a list of messages.

A seed stands for VARIANTS input sets that differ only in the sampled
medium.  Untraced runs cycle through them, so a run's median measures the
workload over several media rather than the luck of one: on ``fe2_macro``
the CG iteration count differs by up to a quarter between media.

Reference tolerances are tied to the workload's Newton tolerance: a result
from any linear solver that converges to the same Newton tolerance stays
within them, while a changed law, path or update rule does not.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from plasthom import cellproblem, experiments, finescale, macroscale
from plasthom.cellproblem import RveConfig
from plasthom.experiments import UNIT_RIGHT_TRIANGLE, ExperimentSpec
from plasthom.fem import mesh_simplex, mesh_unit_square
from plasthom.finescale import EpsProblemConfig
from plasthom.loading import AffineBoundary, StrainPath
from plasthom.macroscale import MacroConfig
from plasthom.media import ProbabilityLaw, sample_realization
from plasthom.tensors import pack

DEFAULT_SEED = 0
VARIANTS = 8
REFERENCE_FILE = Path(__file__).with_name("reference.json")

DELTA = 0.003
TWO_PHASE = ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"point": 0.3},
})
SHEAR = 2  # Mandel index of the shear component


def seed_base(seed, variant):
    """First sample seed of an input set; sets use at most 50 samples, so ranges never overlap."""
    return 1000 * int(seed) + 100 * variant


def shear_cycle(amplitude, steps):
    """Pure-shear path 0 -> +a -> -a -> 0 on [0, 1] and a grid of ``steps`` steps.

    ``steps`` is a multiple of 4, so the grid hits the turning points and
    t = 1/2 and t = 1 are the zero-strain states after forward and after
    reverse loading.
    """
    direction = pack(np.array([[0.0, 1.0], [1.0, 0.0]]))
    knots = np.array([0.0, 0.25, 0.75, 1.0])
    scale = np.array([0.0, 1.0, -1.0, 0.0])
    path = StrainPath.from_knots(knots, np.outer(amplitude * scale, direction))
    return path, np.linspace(0.0, 1.0, steps + 1)


def hysteresis_problems(shear_stress, times):
    """Zero strain after forward loading leaves negative shear stress, after reverse positive."""
    after_forward = shear_stress[np.searchsorted(times, 0.5)]
    after_reverse = shear_stress[-1]
    if not after_forward < 0.0 < after_reverse:
        return [f"hysteresis sign: shear stress {after_forward:.3e} at t=1/2 "
                f"and {after_reverse:.3e} at t=1 (want < 0 < )"]
    return []


def finite_problems(**arrays):
    return [f"{name} is not finite" for name, a in arrays.items()
            if not np.all(np.isfinite(a))]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    call: Callable
    summary: Callable
    check: Callable
    reference_rtol: Callable  # inputs -> relative tolerance against the reference


# -- cell_mc: the effective-operator stage ---------------------------------

CELL_STEPS = 4


def cell_setup(seed, variant=0):
    path, grid = shear_cycle(0.6, CELL_STEPS)
    cfg = RveConfig(n_cells=16, refine=2, n_samples=4, delta=DELTA,
                    law=TWO_PHASE, base_seed=seed_base(seed, variant))
    return {"cfg": cfg, "path": path, "grid": grid}


def cell_call(inputs):
    return cellproblem.sigma(inputs["cfg"], inputs["path"], inputs["grid"], threads=1)


def cell_summary(result):
    return {"sigma": result.sigma, "pi": result.pi}


def cell_check(inputs, result):
    problems = finite_problems(sigma=result.sigma, pi=result.pi,
                               per_sample_sigma=result.per_sample_sigma,
                               mc_stderr=result.mc_stderr)
    for j, sample in enumerate(result.per_sample_sigma):
        problems += [f"sample {j}: {p}"
                     for p in hysteresis_problems(sample[:, SHEAR], result.times)]
    return problems


# -- eps_fine: one large Dirichlet solve per Newton step -------------------

EPS_STEPS = 4


def eps_setup(seed, variant=0):
    eps = 1.0 / 32.0
    path, grid = shear_cycle(0.5, EPS_STEPS)
    config = EpsProblemConfig(
        mesh=mesh_simplex(UNIT_RIGHT_TRIANGLE, eps / 2.0),
        medium=sample_realization(TWO_PHASE, seed_base(seed, variant), zero_shift=True),
        epsilon=eps, delta=DELTA, time_grid=grid, dirichlet=AffineBoundary(path))
    return {"config": config}


def eps_call(inputs):
    return finescale.solve_eps(inputs["config"])


def eps_summary(traj):
    return {"average_stress": finescale.average_stress(traj),
            "average_plastic_strain": np.einsum(
                "e,mek->mk", traj.space.mesh.volumes, traj.p) / traj.space.mesh.volumes.sum()}


def eps_check(inputs, traj):
    config = inputs["config"]
    problems = finite_problems(u=traj.u, sigma=traj.sigma, p=traj.p)
    report = finescale.residual_report(traj, config)
    # each pointwise identity holds to roundoff once Newton has converged;
    # the energy balance holds to the Newton tolerance
    limits = {
        "max_decomposition_residual": 1e-10,
        "max_constitutive_residual": 1e-10,
        "max_flow_residual": 1e-8,
        "energy_balance_defect": 100.0 * config.newton_rtol,
    }
    for name, limit in limits.items():
        value = getattr(report, name)
        if not value <= limit:
            problems.append(f"residual_report.{name} = {value:.3e} > {limit:.1e}")
    problems += hysteresis_problems(finescale.average_stress(traj)[:, SHEAR], traj.times)
    return problems


# -- fe2_macro: FE2 on a coarse mesh, many tiny cell solves ----------------

MACRO_STEPS = 4


def macro_load(t, points):
    return t * np.tile([0.2, -0.1], (len(points), 1))


def macro_setup(seed, variant=0):
    path, grid = shear_cycle(0.5, MACRO_STEPS)
    rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=DELTA,
                    law=TWO_PHASE, base_seed=seed_base(seed, variant))
    config = MacroConfig(mesh=mesh_unit_square(2), rve=rve,
                         dirichlet=AffineBoundary(path), time_grid=grid,
                         load=macro_load)
    return {"config": config}


def macro_call(inputs):
    return macroscale.solve_effective(inputs["config"])


def macro_summary(solution):
    return {"average_stress": solution.average_stress(), "u": solution.u}


def macro_check(inputs, solution):
    config = inputs["config"]
    problems = finite_problems(u=solution.u, sigma=solution.sigma)
    residual = macroscale.weak_form_residual(solution, config)
    if not residual <= 10.0 * config.newton_rtol:
        problems.append(f"weak_form_residual = {residual:.3e} > "
                        f"{10.0 * config.newton_rtol:.1e}")
    return problems


# -- ergodic: spatial averages of the medium -------------------------------

ERGODIC_WINDOW = (-1.5, -0.5)  # the c11 acceptance window of the decay exponent


def ergodic_setup(seed, variant=0):
    spec = ExperimentSpec(kind="ergodic", params={
        "law": TWO_PHASE, "L_values": [16, 32, 64], "n_seeds": 50,
        "base_seed": seed_base(seed, variant), "statistic": "E"})
    return {"spec": spec}


def ergodic_call(inputs):
    return experiments.run_ergodic_check(inputs["spec"])


def ergodic_summary(table):
    return {"values": np.array([row[2] for row in table.rows]),
            "mean_errors": np.array(list(table.meta["mean_errors"].values()))}


def ergodic_check(inputs, table):
    values = ergodic_summary(table)["values"]
    problems = finite_problems(values=values)
    if not np.all((values >= 1.0) & (values <= 2.0)):
        problems.append("a box average of E lies outside [1, 2]")
    lo, hi = ERGODIC_WINDOW
    exponent = table.meta["exponent"]
    if not lo <= exponent <= hi:
        problems.append(f"decay exponent {exponent:.3f} outside [{lo}, {hi}]")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("cell_mc", cell_setup, cell_call, cell_summary, cell_check,
             lambda inputs: 1e4 * inputs["cfg"].newton_rtol),
    Workload("eps_fine", eps_setup, eps_call, eps_summary, eps_check,
             lambda inputs: 1e3 * inputs["config"].newton_rtol),
    Workload("fe2_macro", macro_setup, macro_call, macro_summary, macro_check,
             lambda inputs: 100.0 * inputs["config"].newton_rtol),
    # sums over hashed cells: only the summation order can change them
    Workload("ergodic", ergodic_setup, ergodic_call, ergodic_summary, ergodic_check,
             lambda inputs: 1e-12),
)}


def load_reference():
    with open(REFERENCE_FILE, encoding="utf8") as fh:
        return json.load(fh)


def reference_problems(workload, inputs, summary, reference, variant):
    """Deviation of a default-seed summary from the recorded reference."""
    rtol = workload.reference_rtol(inputs)
    problems = []
    for name, expected in reference[workload.name][variant].items():
        expected = np.asarray(expected, dtype=float)
        got = np.asarray(summary[name], dtype=float)
        if got.shape != expected.shape:
            problems.append(f"{name}: shape {got.shape} != reference {expected.shape}")
            continue
        scale = max(np.abs(expected).max(), np.finfo(float).tiny)
        dev = np.abs(got - expected).max() / scale
        if not dev <= rtol:
            problems.append(f"{name}: deviates from the reference by {dev:.3e} > {rtol:.1e}")
    return problems


def check_output(workload, inputs, output, seed, variant, reference):
    """Every problem with one output: seed-independent checks, then the reference."""
    problems = workload.check(inputs, output)
    if seed == DEFAULT_SEED:
        problems += reference_problems(workload, inputs, workload.summary(output),
                                       reference, variant)
    return problems
