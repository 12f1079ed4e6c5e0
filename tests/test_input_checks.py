"""Run inputs are checked once, by the library call that consumes them.

The property test feeds JSON scalars (what a run config can hold) into every
library input that the CLI passes through unchecked.  Each call must either
raise ConfigurationError or accept a value that is in range: a silent
acceptance of 2.5 cells, an infinite delta or a NaN mesh size fails, and so
does any other exception type.
"""

import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasthom.cellproblem import RveConfig
from plasthom.errors import ConfigurationError
from plasthom.fem import mesh_simplex, mesh_torus, mesh_unit_square
from plasthom.finescale import EpsProblemConfig
from plasthom.loading import AffineBoundary
from plasthom.macroscale import MacroConfig
from plasthom.media import ProbabilityLaw, sample_realization

from helpers import shear_path

LAW = ProbabilityLaw.constant(1.0, 0.3, 0.3, 1.0)
MESH = mesh_unit_square(1)
GRID = np.linspace(0.0, 1.0, 3)
BOUNDARY = AffineBoundary(shear_path(0.4, 1.0, 2))
RVE = RveConfig(n_cells=1, law=LAW)
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# in-range values first, so that a failure shrinks towards a plain number
SMALL_SCALARS = [1, 2, 0.5, 2.5, 3.0, float("nan"), float("inf"), float("-inf"),
                 0, 0.0, -1, -0.5, "a", "1", "", None, True, False]
# huge sizes are in range but would build huge meshes, so mesh_torus gets none
JSON_SCALARS = st.sampled_from(SMALL_SCALARS + [1e300, -1e300, 10**30, 2**63 - 1, 2**63])


def is_real(v):
    return not isinstance(v, bool) and isinstance(v, numbers.Real)


def is_int(v):
    return not isinstance(v, bool) and isinstance(v, numbers.Integral)


def in_positive_ints(v):
    return is_int(v) and v >= 1


def in_positive_numbers(v):
    return is_real(v) and 0 < v < np.inf


def in_seeds(v):
    return is_int(v) and 0 <= v < 2**63


def in_budget_seconds(v):
    return v is None or (is_real(v) and 0 <= v < np.inf)


def in_budget_elements(v):
    return v is None or in_positive_ints(v)


CASES = {
    "RveConfig": (
        lambda n_cells, refine, n_samples, delta, base_seed: RveConfig(
            n_cells=n_cells, refine=refine, n_samples=n_samples, delta=delta,
            law=LAW, base_seed=base_seed),
        {"n_cells": in_positive_ints, "refine": in_positive_ints,
         "n_samples": in_positive_ints, "delta": in_positive_numbers,
         "base_seed": in_seeds},
        JSON_SCALARS),
    "EpsProblemConfig": (
        lambda epsilon, delta: EpsProblemConfig(
            mesh=MESH, medium=sample_realization(LAW, 0), epsilon=epsilon, delta=delta,
            time_grid=GRID, dirichlet=BOUNDARY),
        {"epsilon": in_positive_numbers, "delta": in_positive_numbers},
        JSON_SCALARS),
    "MacroConfig": (
        lambda max_seconds, max_elements: MacroConfig(
            mesh=MESH, rve=RVE, dirichlet=BOUNDARY, time_grid=GRID,
            max_seconds=max_seconds, max_elements=max_elements),
        {"max_seconds": in_budget_seconds, "max_elements": in_budget_elements},
        JSON_SCALARS),
    "mesh_simplex": (
        lambda h: mesh_simplex(TRIANGLE, h),
        {"h": in_positive_numbers},
        JSON_SCALARS),
    "mesh_torus": (
        lambda n_cells, refine: mesh_torus(n_cells, refine),
        {"n_cells": in_positive_ints, "refine": in_positive_ints},
        st.sampled_from(SMALL_SCALARS)),
}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_library_rejects_or_accepts_in_range(name, data):
    build, in_range, leaves = CASES[name]
    values = {key: data.draw(leaves, label=key) for key in in_range}
    try:
        build(**values)
    except ConfigurationError:
        return
    out_of_range = {key: v for key, v in values.items() if not in_range[key](v)}
    assert not out_of_range, f"{name} accepted {out_of_range}"
