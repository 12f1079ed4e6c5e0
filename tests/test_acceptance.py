"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from plasthom.cellproblem import RveConfig, causality_check, sigma, solve_cell
from plasthom.experiments import ExperimentSpec, run_averaging_experiment, \
    run_ergodic_check, run_korn_check
from plasthom.fem import P1Space, mesh_torus, mesh_unit_square, solve_elastic
from plasthom.finescale import EpsProblemConfig, average_stress, solve_eps
from plasthom.flowrules import NORM_TYPE, VON_MISES, FlowRule, fenchel_gap
from plasthom.loading import AffineBoundary, StrainPath
from plasthom.media import PeriodizedMedium, ProbabilityLaw, sample_realization
from plasthom.tensors import isotropic_stiffness, pack

from helpers import elastic_reference, h1_time_norm, reference_pointwise_response, \
    shear_path

TWO_PHASE = ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"point": 0.3},
})
# the two-phase elastic moduli with a yield stress that is never reached
TWO_PHASE_ELASTIC = ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"point": 1e9},
})
CONSTANT = ProbabilityLaw.constant(1.0, 0.3, 0.3, 1.0)


def report(number, ok, text):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def dev_batch(comps):
    out = comps.copy()
    tr = comps[:, 0] + comps[:, 1]
    out[:, 0] -= tr / 2
    out[:, 1] -= tr / 2
    return out


def test_c01_convex_duality_suite():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    n = 100_000
    checks = []
    for kind in (VON_MISES, NORM_TYPE):
        rule = FlowRule(kind, 1.0)
        delta = 0.01
        reg = rule.regularized(delta)

        sig_raw = 3.0 * rng.standard_normal((n, 3))
        p_raw = dev_batch(rng.standard_normal((n, 3)))
        if kind == VON_MISES:
            sig_feasible = rule.project(sig_raw)        # finite potential
            p_feasible = p_raw                          # finite conjugate
        else:
            sig_feasible = sig_raw
            norms = np.linalg.norm(p_raw, axis=1, keepdims=True)
            p_feasible = p_raw / np.maximum(norms, 1.0)  # inside the dual ball
        gap = fenchel_gap(rule, sig_feasible, p_feasible)
        checks.append(gap.min() >= -1e-12)

        grads = reg.gradient(sig_raw)
        eq_defect = np.abs(fenchel_gap(reg, sig_raw, grads))
        checks.append(eq_defect.max() <= 1e-10)

        a = 3.0 * rng.standard_normal((n, 3))
        b = 3.0 * rng.standard_normal((n, 3))
        ga, gb = reg.gradient(a), reg.gradient(b)
        mono = np.einsum("ij,ij->i", a - b, ga - gb)
        checks.append(mono.min() >= -1e-12)

        lips = np.linalg.norm(ga - gb, axis=1) \
            <= (1.0 + 1e-10) / delta * np.linalg.norm(a - b, axis=1)
        checks.append(bool(np.all(lips)))

    elapsed = time.monotonic() - start
    checks.append(elapsed < 10.0)
    report(1, all(checks),
           f"duality gaps, gradient equality, monotonicity, Lipschitz bound "
           f"on {n} pairs per rule in {elapsed:.1f}s")


def test_c02_moreau_yosida_convergence():
    rng = np.random.default_rng(102)
    sigma_y = 0.1
    deltas = (1e-1, 1e-2, 1e-3, 1e-4)
    ok_monotone, ok_limit = True, True
    for kind in (VON_MISES, NORM_TYPE):
        rule = FlowRule(kind, sigma_y)
        points = rng.standard_normal((100, 3))
        if kind == VON_MISES:
            points = rule.project(points)  # keep the potential finite
        exact = np.asarray(rule.value(points))
        prev = None
        for delta in deltas:
            val = np.asarray(rule.regularized(delta).value(points))
            if prev is not None and np.any(val < prev - 1e-15):
                ok_monotone = False
            prev = val
        if kind == NORM_TYPE:
            ok_limit = bool(np.abs(prev - exact).max() <= 1e-6)
    report(2, ok_monotone and ok_limit,
           "envelope increases as delta drops and is within 1e-6 of the "
           "potential at delta=1e-4 for the norm-type rule")


def test_c03_fem_patch_and_convergence():
    start = time.monotonic()
    mesh = mesh_unit_square(16)
    space = P1Space(mesh)
    A = isotropic_stiffness(1.0, 0.3)
    xi = np.array([[0.1, 0.05], [0.05, -0.2]])
    u = solve_elastic(space, A, g=lambda pts: pts @ xi.T, rtol=1e-14)
    patch_err = np.abs(u - mesh.vertices @ xi.T).max()

    E, nu = 1.0, 0.3
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    pi = np.pi

    def exact(pts):
        return np.stack([np.sin(pi * pts[:, 0]) * np.sin(pi * pts[:, 1]),
                         np.zeros(len(pts))], axis=-1)

    def load(pts):
        sx, sy = np.sin(pi * pts[:, 0]), np.sin(pi * pts[:, 1])
        cx, cy = np.cos(pi * pts[:, 0]), np.cos(pi * pts[:, 1])
        return np.stack([(lam + 3 * mu) * pi**2 * sx * sy,
                         -(lam + mu) * pi**2 * cx * cy], axis=-1)

    errors = []
    for nref in (8, 16, 32):
        m = mesh_unit_square(nref)
        s = P1Space(m)
        uh = solve_elastic(s, A, f=load, g=lambda p: 0.0 * p, rtol=1e-12)
        diff = uh - exact(m.vertices)
        errors.append(np.sqrt((diff**2).sum(axis=1).mean()))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    elapsed = time.monotonic() - start
    ok = patch_err < 1e-12 and all(1.7 <= r <= 2.3 for r in rates) and elapsed < 30
    report(3, ok, f"patch error {patch_err:.2e}, rates {rates[0]:.2f}/"
                  f"{rates[1]:.2f} in {elapsed:.1f}s")


def test_c04_elastic_limit_equivalence():
    start = time.monotonic()
    steps = 3
    path = shear_path(0.3, 1.0, steps)
    cfg = EpsProblemConfig(
        mesh=mesh_unit_square(16), medium=sample_realization(TWO_PHASE_ELASTIC, 9),
        epsilon=0.25, delta=0.003, time_grid=np.linspace(0, 1, steps + 1),
        dirichlet=AffineBoundary(path), cg_rtol=1e-13,
    )
    traj = solve_eps(cfg)
    linear = elastic_reference(cfg)
    worst = 0.0
    for m in range(1, steps + 1):
        num = np.sqrt(((traj.u[m] - linear[m]) ** 2).sum(axis=1).mean())
        den = np.sqrt((linear[m] ** 2).sum(axis=1).mean())
        worst = max(worst, num / den)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 60
    report(4, ok, f"relative L2 gap to per-step elastic solves {worst:.2e} "
                  f"in {elapsed:.1f}s")


def test_c05_pointwise_oracle_equivalence():
    delta, steps = 0.003, 8
    path = shear_path(0.6, 1.0, steps)
    grid = np.linspace(0, 1, steps + 1)
    ref_s, ref_p = reference_pointwise_response(
        1.0, 0.3, 0.3, 1.0, delta, lambda t: path.at(t), grid)
    scale = np.abs(ref_s).max()

    cfg = EpsProblemConfig(
        mesh=mesh_unit_square(4), medium=sample_realization(CONSTANT, 0),
        epsilon=0.25, delta=delta, time_grid=grid,
        dirichlet=AffineBoundary(path),
    )
    eps_err = np.abs(average_stress(solve_eps(cfg)) - ref_s).max() / scale

    rve = RveConfig(n_cells=1, refine=1, n_samples=1, delta=delta,
                    law=CONSTANT, base_seed=0)
    res = sigma(rve, path, grid)
    cell_err = max(np.abs(res.sigma - ref_s).max(),
                   np.abs(res.pi - ref_p).max()) / scale

    # empirical order in the regime where the viscous transient is resolved
    order_delta = 0.3
    errs, hs = [], []
    for m in (8, 16, 32, 64):
        p2 = shear_path(0.8, 1.0, m, unload_to=0.5)
        g2 = np.linspace(0, 1, m + 1)
        c2 = EpsProblemConfig(
            mesh=mesh_unit_square(2), medium=sample_realization(CONSTANT, 0),
            epsilon=0.25, delta=order_delta, time_grid=g2,
            dirichlet=AffineBoundary(p2),
        )
        r2, _ = reference_pointwise_response(
            1.0, 0.3, 0.3, 1.0, order_delta, lambda t: p2.at(t), g2, refine=100)
        diff = average_stress(solve_eps(c2)) - r2
        dt = np.diff(g2)
        sq = (diff**2).sum(axis=1)
        errs.append(np.sqrt(np.sum(dt * 0.5 * (sq[1:] + sq[:-1]))))
        hs.append(1.0 / m)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    ok = eps_err <= 1e-3 and cell_err <= 1e-3 and order >= 0.8
    report(5, ok, f"solver vs fine-step reference {eps_err:.1e}, cell operator "
                  f"{cell_err:.1e}, time order {order:.2f}")


def test_c06_effective_stress_elastic_identity():
    cfg = RveConfig(n_cells=2, refine=1, n_samples=2, delta=0.01,
                    law=CONSTANT, base_seed=0)
    path = shear_path(0.1, 1.0, 5)
    grid = np.linspace(0, 1, 6)
    res = sigma(cfg, path, grid)
    A = isotropic_stiffness(1.0, 0.3)
    gap = np.abs(res.sigma - path.at(grid) @ A.T).max()
    report(6, gap <= 1e-10,
           f"effective stress equals the elastic law to {gap:.1e}")


def test_c07_cell_problem_invariants():
    start = time.monotonic()
    steps = 8
    path = shear_path(0.6, 1.0, steps)
    grid = np.linspace(0, 1, steps + 1)
    space = P1Space(mesh_torus(8, 2))
    vol = space.mesh.volumes
    xi_vals = path.at(grid)
    ok = True
    for j in range(4):
        medium = PeriodizedMedium(TWO_PHASE, 1000 + j, n_cells=8)
        traj = solve_cell(medium, path, 0.003, grid, space=space)
        ok &= np.abs(traj.z[0]).max() == 0.0
        for m in range(steps + 1):
            e_of_z = traj.mats.apply_compliance(traj.z[m])
            closure = e_of_z - (xi_vals[m][None, :] + pack(traj.v[m]) - traj.p[m])
            ok &= np.abs(closure).max() <= 1e-9 * (1.0 + np.abs(e_of_z).max())
            f_int = space.internal_forces(traj.z[m])
            z_norm = np.sqrt(np.einsum("e,ek,ek->", vol, traj.z[m], traj.z[m]))
            ok &= np.abs(f_int).max() <= 1e-8 * max(z_norm * np.abs(space.B).max(),
                                                    1e-12)
            ok &= np.abs(traj.mean_corrector_gradient()[m]).max() <= 1e-10
    elapsed = time.monotonic() - start
    ok &= elapsed < 300
    report(7, bool(ok), f"solenoidality, closure, zero-mean corrector and "
                        f"zero initial stress on 4 samples in {elapsed:.1f}s")


def test_c08_a_priori_bound_stability():
    steps = 6
    path = shear_path(0.6, 1.0, steps)
    grid = np.linspace(0, 1, steps + 1)
    xi_norm = path.h1_norm()
    ratios = []
    for delta_factor in (1e-1, 1e-2, 1e-3):
        for refine in (1, 2):
            space = P1Space(mesh_torus(4, refine))
            medium = PeriodizedMedium(TWO_PHASE, 7, n_cells=4)
            traj = solve_cell(medium, path, delta_factor * 0.3, grid, space=space)
            vol = space.mesh.volumes
            total = (h1_time_norm(grid, traj.p, vol)
                     + h1_time_norm(grid, traj.z, vol)
                     + h1_time_norm(grid, traj.v, vol))
            ratios.append(total / xi_norm)
    spread = max(ratios) / min(ratios)
    report(8, spread < 2.0,
           f"energy-norm ratio varies by {spread:.2f}x across delta and mesh")


def test_c09_averaging_trend_and_offset_invariance():
    start = time.monotonic()
    steps = 6
    path = shear_path(0.5, 1.0, steps)
    grid = np.linspace(0, 1, steps + 1)
    base = {
        "law": TWO_PHASE, "xi": path, "delta": 0.003,
        "time_grid": grid, "h_factor": 0.5,
        "rve": {"N": 16, "r": 2, "M": 32, "base_seed": 50_000},
    }
    spec = ExperimentSpec(kind="averaging", params=dict(
        base, epsilons=[0.25, 0.125, 0.0625], seeds=list(range(8))))
    table = run_averaging_experiment(spec)
    d = table.meta["D_mean"]
    monotone = d[0.25] > d[0.125] > d[0.0625]
    halved = d[0.0625] < 0.5 * d[0.25]

    small = dict(base, epsilons=[0.25], seeds=[0],
                 rve={"N": 4, "r": 1, "M": 2, "base_seed": 60_000})
    plain = run_averaging_experiment(ExperimentSpec(kind="averaging",
                                                    params=small))
    small_off = dict(small, offset=[[0.0, 0.0, 0.0], [1.0, 1.0, -0.5]])
    moved = run_averaging_experiment(ExperimentSpec(kind="averaging",
                                                    params=small_off))
    bitwise = plain.rows == moved.rows

    elapsed = time.monotonic() - start
    ok = monotone and halved and bitwise and elapsed < 900
    report(9, ok, f"D={d[0.25]:.2e}/{d[0.125]:.2e}/{d[0.0625]:.2e} "
                  f"(ratio {d[0.0625] / d[0.25]:.2f}), offset bitwise-"
                  f"invariant={bitwise}, in {elapsed:.0f}s")


def test_c10_torus_korn_ratio():
    start = time.monotonic()
    spec = ExperimentSpec(kind="korn", params={
        "n_cells": 8, "refine": 1, "n_samples": 1000, "seed": 5})
    table = run_korn_check(spec)
    elapsed = time.monotonic() - start
    ok = table.meta["max_ratio"] <= 2.0 + 1e-10 and elapsed < 10
    report(10, ok, f"max gradient ratio {table.meta['max_ratio']:.3f} over "
                   f"1000 fields in {elapsed:.1f}s")


def test_c11_ergodic_decay_exponent():
    start = time.monotonic()
    spec = ExperimentSpec(kind="ergodic", params={
        "law": TWO_PHASE, "L_values": [8, 16, 32], "n_seeds": 50,
        "base_seed": 100})
    table = run_ergodic_check(spec)
    exponent = table.meta["exponent"]
    elapsed = time.monotonic() - start
    ok = -1.5 <= exponent <= -0.5 and elapsed < 60
    report(11, ok, f"fitted decay exponent {exponent:.2f} in {elapsed:.1f}s")


def test_c12_causality():
    start = time.monotonic()
    steps = 6
    grid = np.linspace(0, 1, steps + 1)
    cfg = RveConfig(n_cells=2, refine=1, n_samples=2, delta=0.003,
                    law=TWO_PHASE, base_seed=3)
    base = shear_path(0.6, 1.0, steps)
    bent = StrainPath(grid, base.values * np.where(grid > 0.5, 1.5, 1.0)[:, None])
    dev = causality_check(cfg, base, bent, 0.5, grid)
    elapsed = time.monotonic() - start
    ok = dev == 0.0 and elapsed < 30
    report(12, ok, f"paths agreeing up to t*=0.5 give deviation {dev!r} "
                   f"in {elapsed:.1f}s")


def test_c13_effective_solver_consistency():
    from plasthom.macroscale import MacroConfig, solve_effective

    steps = 4
    path = shear_path(0.6, 1.0, steps)
    grid = np.linspace(0, 1, steps + 1)
    mesh = mesh_unit_square(1)  # two elements
    rve = RveConfig(n_cells=1, refine=1, n_samples=1, delta=0.003,
                    law=CONSTANT, base_seed=0, newton_rtol=1e-11)
    mc = MacroConfig(mesh=mesh, rve=rve, dirichlet=AffineBoundary(path),
                     time_grid=grid, newton_rtol=1e-10)
    sol = solve_effective(mc)
    ec = EpsProblemConfig(mesh=mesh, medium=sample_realization(CONSTANT, 0),
                          epsilon=1.0, delta=0.003, time_grid=grid,
                          dirichlet=AffineBoundary(path), newton_rtol=1e-11)
    traj = solve_eps(ec)
    worst = 0.0
    for m in range(steps + 1):
        worst = max(worst, np.abs(sol.u[m] - traj.u[m]).max(),
                    np.abs(sol.sigma[m] - traj.sigma[m]).max())
    report(13, worst <= 1e-8,
           f"two-level solve matches the plain solver to {worst:.1e} per step")
