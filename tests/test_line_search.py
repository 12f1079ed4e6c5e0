"""The step halving of ``finescale.newton_iterate``, the one Newton loop that
the fine-scale solve, the cell problems and the FE2 macro step share.

No correction of the other tests' problems fails to reduce its residual, so
these patch a linear solve to return a wrong correction: twice the solution,
which the first halving repairs, or zero, which no halving repairs.
"""

from dataclasses import replace

import numpy as np
import pytest

from plasthom import cellproblem, fem, finescale, macroscale
from plasthom.cellproblem import RveConfig, sigma
from plasthom.errors import NumericalError
from plasthom.fem import mesh_torus, mesh_unit_square
from plasthom.loading import AffineBoundary
from plasthom.macroscale import MacroConfig, solve_effective
from plasthom.media import ProbabilityLaw

from helpers import shear_cycle

TWO_PHASE = ProbabilityLaw.from_config({"E": {"discrete": {"values": [1.0, 2.0]}},
                                        "nu": {"point": 0.3}, "sigma_y": {"point": 0.3}})
GRID = np.linspace(0.0, 1.0, 5)


def loaded_macro_config():
    rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE)
    load = lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1))
    return MacroConfig(mesh=mesh_unit_square(2), rve=rve, load=load,
                       dirichlet=AffineBoundary(shear_cycle(0.5)), time_grid=GRID)


def scaled(solver, factor):
    """``solver`` with its solution, the first entry of a tuple result, times ``factor``."""
    def wrapped(*args, **kwargs):
        out = solver(*args, **kwargs)
        return (factor * out[0],) + tuple(out[1:]) if isinstance(out, tuple) else factor * out
    return wrapped


def test_doubled_macro_corrections_are_halved(monkeypatch):
    """Twice the macro correction is cut back to it: the solve converges and
    matches the unpatched one, the cells differing only in where their Newton
    iterations start."""
    config = loaded_macro_config()
    reference = solve_effective(config)
    advances = []
    advance = macroscale.ElementCellState.advance

    def counting_advance(self, *args):
        advances.append(1)
        return advance(self, *args)

    monkeypatch.setattr(macroscale.ElementCellState, "advance", counting_advance)
    monkeypatch.setattr(macroscale, "pcg", scaled(macroscale.pcg, 2.0))
    doubled = solve_effective(config)
    # one advance per step and per correction; the rest are line-search cuts
    assert len(advances) > len(doubled.newton_iters) + sum(doubled.newton_iters)
    stress = reference.average_stress()
    assert np.abs(doubled.average_stress() - stress).max() <= 1e-12 * np.abs(stress).max()


def test_cells_backtrack_in_lock_step(monkeypatch):
    """With every periodic correction doubled, a batch of cells halves each
    cell's step on its own and still gives, bit for bit, each cell alone."""
    cfg = RveConfig(n_cells=4, refine=1, n_samples=3, delta=0.003, law=TWO_PHASE)
    monkeypatch.setattr(fem, "solve_periodic_direct", scaled(fem.solve_periodic_direct, 2.0))
    counts = {"evaluated": 0, "calls": 0, "corrections": 0}
    plastic_step, newton_solve = finescale.plastic_step, cellproblem.newton_solve

    def counting_step(strains, *args, **kwargs):
        counts["evaluated"] += strains.shape[0]
        return plastic_step(strains, *args, **kwargs)

    def counting_newton(*args, **kwargs):
        out = newton_solve(*args, **kwargs)
        counts["calls"] += 1
        counts["corrections"] += out[2]
        return out

    monkeypatch.setattr(finescale, "plastic_step", counting_step)
    monkeypatch.setattr(cellproblem, "newton_solve", counting_newton)
    batch = sigma(cfg, shear_cycle(0.6), GRID)
    evaluations = counts["evaluated"] // mesh_torus(cfg.n_cells, cfg.refine).n_elements
    # one evaluation of every cell per step and one per correction; the rest are cuts
    assert evaluations > counts["calls"] * cfg.n_samples + counts["corrections"]

    for j in range(cfg.n_samples):
        alone = sigma(replace(cfg, n_samples=1, base_seed=cfg.sample_seed(j)),
                      shear_cycle(0.6), GRID)
        assert np.array_equal(batch.per_sample_sigma[j], alone.per_sample_sigma[0])


@pytest.mark.parametrize("scale", ["macro", "cell"])
def test_zero_correction_fails_at_its_step(monkeypatch, scale):
    """A correction that never reduces the residual is halved ten times and
    then reported with its time step."""
    if scale == "macro":
        monkeypatch.setattr(macroscale, "pcg", scaled(macroscale.pcg, 0.0))
        run = lambda: solve_effective(loaded_macro_config())
    else:
        monkeypatch.setattr(fem, "solve_periodic_direct", scaled(fem.solve_periodic_direct, 0.0))
        cfg = RveConfig(n_cells=4, refine=1, n_samples=1, delta=0.003, law=TWO_PHASE)
        run = lambda: sigma(cfg, shear_cycle(0.6), GRID)
    with pytest.raises(NumericalError, match="Newton step failed to reduce") as err:
        run()
    assert err.value.step == 1
    assert err.value.residual > 0
