"""Verification experiments: averaging, Korn ratio, ergodic decay.

Each experiment returns a ReportTable whose rows carry the seed, the scale
(eps or box size) and tolerance metadata, so emitted CSV files are
self-describing.  Summary statistics live in ``table.meta``.
"""

from dataclasses import dataclass, field

import numpy as np

from .cellproblem import RveConfig, sigma
from .errors import ConfigurationError, array_size, positive_int, positive_number, valid_seed
from .fem import P1Space, mesh_simplex, mesh_torus
from .finescale import EpsProblemConfig, average_stress, solve_eps
from .loading import AffineBoundary, tabulated_offset
from .media import Realization, ergodic_average, sample_realization, sample_shifts
from .reporting import ReportTable
from .tensors import SQRT2

UNIT_RIGHT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass
class ExperimentSpec:
    """Which experiment to run and its parameter sweep."""

    kind: str                      # averaging | korn | ergodic
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("averaging", "korn", "ergodic"):
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}")


# -- averaging ---------------------------------------------------------


def run_averaging_experiment(spec):
    """Simplex-averaged stresses of oscillating solves against the cell
    operator, swept over eps and seeds.

    Rows: one per (eps, seed, t) with the running discrepancy D(eps, t); the
    L2(0,T) discrepancies and their seed averages repeat per row so a single
    CSV carries the whole result.  The additive boundary constant is handled
    structurally and cannot influence stresses.
    """
    p = spec.params
    law = p["law"]
    xi = p["xi"]
    epsilons, seeds = p["epsilons"], p["seeds"]
    for name, values in (("epsilons", epsilons), ("seeds", seeds)):
        if not isinstance(values, (list, tuple, range)) or not values:
            raise ConfigurationError(f"averaging {name} must be a non-empty list, "
                                     f"got {values!r}")
    epsilons = sorted((positive_number(eps, "averaging epsilon") for eps in epsilons),
                      reverse=True)
    seeds = [valid_seed(seed, "averaging seed") for seed in seeds]
    delta = p["delta"]
    time_grid = np.asarray(p["time_grid"], dtype=float)
    h_factor = positive_number(p.get("h_factor", 0.5), "averaging h_factor")
    offset = p.get("offset")
    boundary = AffineBoundary(xi, None if offset is None else tabulated_offset(offset))
    if "N" not in p["rve"] or "M" not in p["rve"]:
        raise ConfigurationError(f"averaging rve needs N and M, got {p['rve']!r}")
    rve = RveConfig(n_cells=p["rve"]["N"], refine=p["rve"].get("r", 1),
                    n_samples=p["rve"]["M"], delta=delta, law=law,
                    base_seed=p["rve"].get("base_seed", 10_000))

    reference = sigma(rve, xi, time_grid)
    dt = np.diff(time_grid)

    table = ReportTable(columns=[
        "epsilon", "seed", "t", "avg_s11", "avg_s22", "avg_s12",
        "ref_s11", "ref_s22", "ref_s12", "D_t", "D_L2", "D_L2_seed_avg",
        "delta", "h",
    ])
    d_mean = {}
    for eps in epsilons:
        # lattice-aligned right triangles with power-of-two eps never cut cells
        mesh = mesh_simplex(UNIT_RIGHT_TRIANGLE, h_factor * eps)
        d_l2_values = []
        rows_this_eps = []
        for seed in seeds:
            medium = sample_realization(law, seed, zero_shift=True)
            config = EpsProblemConfig(
                mesh=mesh, medium=medium, epsilon=eps, delta=delta,
                time_grid=time_grid, dirichlet=boundary,
            )
            traj = solve_eps(config)
            avg = average_stress(traj)
            diff = avg - reference.sigma
            d_t = np.linalg.norm(diff, axis=1)
            d_l2 = float(np.sqrt(np.sum(dt * 0.5 * (d_t[1:] ** 2 + d_t[:-1] ** 2))))
            d_l2_values.append(d_l2)
            for i, t in enumerate(time_grid):
                rows_this_eps.append([
                    eps, seed, t, avg[i, 0], avg[i, 1], avg[i, 2] / SQRT2,
                    reference.sigma[i, 0], reference.sigma[i, 1],
                    reference.sigma[i, 2] / SQRT2,
                    float(d_t[i]), d_l2, np.nan, float(delta), mesh.h,
                ])
        d_mean[eps] = float(np.mean(d_l2_values))
        for row in rows_this_eps:
            row[11] = d_mean[eps]
            table.append(*row)
    table.meta = {"D_mean": d_mean}
    return table


# -- Korn ratio on the torus --------------------------------------------


def run_korn_check(spec):
    """Gradient-to-symmetrized-gradient ratio of random periodic fields.

    Samples nodal fields on a torus, removes nothing (periodic gradients are
    automatically mean-free), and reports max ||grad|| / ||sym grad||; the
    contract is a bound of 2.  Samples with vanishing gradient are skipped;
    a one-vertex torus (N r = 1), where every field is a translation, is
    rejected.
    """
    p = spec.params
    n_cells = p.get("n_cells", 8)
    refine = p.get("refine", 1)
    n_samples = positive_int(p.get("n_samples", 1000), "korn n_samples")
    seed = valid_seed(p.get("seed", 0), "korn seed")

    mesh = mesh_torus(n_cells, refine)
    if mesh.grid_size == 1:
        raise ConfigurationError("korn check needs a torus of more than one vertex, N * r > 1")
    space = P1Space(mesh)
    rng = np.random.default_rng(seed)
    array_size(n_samples * space.n_packed, "korn n_samples")
    packed = rng.standard_normal((n_samples, space.n_packed))
    nodal = packed.reshape(n_samples, -1, 2)[:, space.packed_of_vertex, :]

    local = nodal[:, mesh.simplices, :]                     # (S, ne, 3, 2)
    grads = np.einsum("seia,eib->seab", local, mesh.grads)  # (S, ne, 2, 2)
    sym = 0.5 * (grads + np.swapaxes(grads, -1, -2))
    w = mesh.volumes / mesh.volumes.sum()
    full_sq = np.einsum("e,seab,seab->s", w, grads, grads)
    sym_sq = np.einsum("e,seab,seab->s", w, sym, sym)

    table = ReportTable(columns=["n_cells", "seed", "sample", "ratio", "bound"])
    ratios = []
    for s in range(n_samples):
        if full_sq[s] <= 1e-28:
            continue
        ratio = float(np.sqrt(full_sq[s] / sym_sq[s]))
        ratios.append(ratio)
        table.append(n_cells, seed, s, ratio, 2.0)
    table.meta = {"max_ratio": max(ratios), "n_samples": len(ratios)}
    return table


# -- ergodic decay -------------------------------------------------------


def run_ergodic_check(spec):
    """Spatial-average error of a scalar statistic against the law mean,
    tabulated over box sizes, with a fitted decay exponent."""
    p = spec.params
    law = p["law"]
    L_values = p.get("L_values", (8, 16, 32))
    if not isinstance(L_values, (list, tuple)) or not L_values:
        raise ConfigurationError(f"ergodic L_values must be a non-empty list, "
                                 f"got {L_values!r}")
    L_values = [positive_int(L, "ergodic L_values entry") for L in L_values]
    n_seeds = positive_int(p.get("n_seeds", 50), "ergodic n_seeds")
    base_seed = valid_seed(p.get("base_seed", 0), "ergodic base_seed")
    valid_seed(base_seed + n_seeds - 1, "ergodic last seed")
    stat = p.get("statistic", "E")
    marginals = {"E": law.E, "nu": law.nu, "sigma_y": law.sigma_y, "H": law.hardening}
    if not isinstance(stat, str) or stat not in marginals:
        raise ConfigurationError(f"unknown ergodic statistic {stat!r}; "
                                 f"expected one of {sorted(marginals)}")
    expected = marginals[stat].mean()

    # sample_realization's draws, with the shifts of all seeds hashed at once
    seeds = base_seed + np.arange(array_size(n_seeds, "ergodic n_seeds"))
    realizations = [Realization(law, int(seed), shift, np.zeros(2))
                    for seed, shift in zip(seeds, sample_shifts(seeds))]

    table = ReportTable(columns=["L", "seed", "value", "abs_error", "expected"])
    mean_errors = []
    averages = ergodic_average(realizations, lambda params: params[stat], L_values)
    for L, values in zip(L_values, averages):
        errs = np.abs(values - expected)
        for omega, value, err in zip(realizations, values.tolist(), errs.tolist()):
            table.append(L, omega.seed, value, err, expected)
        mean_errors.append(np.mean(errs))
    if np.all(np.asarray(mean_errors) > 0):
        slope = np.polyfit(np.log(np.asarray(L_values, dtype=float)),
                           np.log(np.asarray(mean_errors)), 1)[0]
    else:
        slope = np.nan  # exact averages leave no decay to fit
    table.meta = {"exponent": float(slope),
                  "mean_errors": dict(zip(L_values, map(float, mean_errors)))}
    return table

