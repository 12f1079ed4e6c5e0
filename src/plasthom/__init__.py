"""Stochastic homogenization of quasi-static elastoplasticity with hardening.

The pipeline: sample a random checkerboard medium, solve the heterogeneous
plasticity problem at a small scale eps, evaluate the effective hysteretic
stress operator through cell problems on periodized volumes, solve the
effective macroscopic equation, and verify the averaging, duality, ergodic
and Korn properties empirically.
"""

from .cellproblem import (
    CellTrajectory,
    RveConfig,
    SigmaResult,
    causality_check,
    continuity_probe,
    sigma,
    solve_cell,
)
from .errors import ConfigurationError, NumericalError
from .experiments import (
    ExperimentSpec,
    run_averaging_experiment,
    run_ergodic_check,
    run_korn_check,
)
from .fem import (
    P1Space,
    SimplicialMesh,
    mesh_simplex,
    mesh_torus,
    mesh_unit_square,
    solve_elastic,
)
from .finescale import (
    EpsProblemConfig,
    PlasticTrajectory,
    average_stress,
    residual_report,
    solve_eps,
)
from .flowrules import NORM_TYPE, VON_MISES, FlowRule, RegularizedFlow, fenchel_gap
from .loading import AffineBoundary, StrainPath, path_from_csv, tabulated_offset
from .macroscale import EffectiveSolution, MacroConfig, solve_effective, weak_form_residual
from .media import (
    Distribution,
    PeriodizedMedium,
    ProbabilityLaw,
    Realization,
    ergodic_average,
    sample_realization,
    shifted,
)
from .reporting import ReportTable, emit_report
from .tensors import (
    deviatoric,
    ellipticity_check,
    isotropic_compliance,
    isotropic_stiffness,
    pack,
    unpack,
)

__version__ = "0.1.0"
