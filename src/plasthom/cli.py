"""Command-line entry points.

Subcommands: ``eps`` (heterogeneous solve), ``cell`` (effective operator),
``macro`` (FE2 effective solve), ``average``, ``korn``, ``ergodic``
(experiments).  All read a JSON run config (see README for the schema) and
write CSV results into the output directory.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .cellproblem import RveConfig, sigma
from .errors import ConfigurationError, NumericalError
from .experiments import (
    ExperimentSpec,
    run_averaging_experiment,
    run_ergodic_check,
    run_korn_check,
)
from .fem import mesh_simplex, mesh_unit_square
from .finescale import EpsProblemConfig, average_stress, residual_report, solve_eps
from .loading import AffineBoundary, path_from_csv, tabulated_offset
from .macroscale import MacroConfig, solve_effective
from .media import ProbabilityLaw, sample_realization
from .reporting import ReportTable, emit_report

SQRT2 = np.sqrt(2.0)
_SECTIONS = ("domain", "mesh", "time", "law", "rve", "bc", "averaging", "korn", "ergodic")


def _load_config(path):
    if path is None:
        raise ConfigurationError("--config is required")
    try:
        with open(path, "r", encoding="utf8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    for name in _SECTIONS:
        if name in cfg and not isinstance(cfg[name], dict):
            raise ConfigurationError(f"config section {name!r} must be a JSON object")
    return cfg


def _is_number(value):
    """True for a JSON number: an int or float, but not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _positive_int(value, name):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def _positive_number(value, name):
    if not _is_number(value) or not 0 < value < np.inf:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def _optional(cfg, key, check):
    """``cfg[key]`` passed through ``check(value, key)``, or None when absent or null."""
    value = cfg.get(key)
    return None if value is None else check(value, key)


def _positive_numbers(values, name):
    """A non-empty list of positive finite numbers, returned unchanged."""
    if not isinstance(values, list) or not values:
        raise ConfigurationError(f"{name} must be a non-empty list of positive numbers, "
                                 f"got {values!r}")
    for value in values:
        _positive_number(value, name)
    return values


def _integer(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return value


def _non_negative_seconds(value, name):
    if not _is_number(value) or not 0 <= value < np.inf:
        raise ConfigurationError(f"{name} must be a non-negative finite number, "
                                 f"got {value!r}")
    return value


def _delta(cfg, override=None):
    return _positive_number(cfg.get("delta", 1e-2) if override is None else override,
                            "delta")


def _law(cfg):
    try:
        return ProbabilityLaw.from_config(cfg["law"])
    except KeyError:
        raise ConfigurationError("config misses the 'law' section") from None


def _time_grid(cfg):
    t = cfg.get("time", {})
    T = _positive_number(t.get("T", 1.0), "time.T")
    steps = _positive_int(t.get("steps", 8), "time.steps")
    return np.linspace(0.0, T, steps + 1)


def _xi_path(cfg, config_dir):
    bc = cfg.get("bc", {})
    ref = bc.get("xi")
    if ref is None:
        raise ConfigurationError("config misses bc.xi (strain path CSV)")
    path = ref if os.path.isabs(ref) else os.path.join(config_dir, ref)
    return path_from_csv(path)


def _boundary(cfg, config_dir):
    xi = _xi_path(cfg, config_dir)
    a_rows = cfg.get("bc", {}).get("a")
    offset = None if a_rows is None else tabulated_offset(a_rows)
    return AffineBoundary(xi, offset), xi


def _domain_mesh(cfg):
    dom = cfg.get("domain", {"type": "unit_right_triangle"})
    h = _positive_number(cfg.get("mesh", {}).get("h", 0.25), "mesh.h")
    kind = dom.get("type", "unit_right_triangle")
    if kind == "unit_right_triangle":
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        return mesh_simplex(corners, h)
    if kind == "simplex":
        try:
            corners = np.asarray(dom["vertices"], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError("domain.vertices must list three 2-d points") from None
        return mesh_simplex(corners, h)
    if kind == "unit_square":
        return mesh_unit_square(max(1, round(1.0 / h)))
    raise ConfigurationError(f"unknown domain type {kind!r}")


def _load_term(cfg):
    f = cfg.get("load")
    if f is None:
        return None
    if not isinstance(f, list) or len(f) != 2 \
            or not all(_is_number(v) and np.isfinite(v) for v in f):
        raise ConfigurationError(f"load must be a list of two finite numbers, got {f!r}")
    f = np.asarray(f, dtype=float)

    def load(t, points):
        return t * np.tile(f, (len(points), 1))

    return load


def _rve(cfg, law, delta, seed, overrides=None):
    r = dict(cfg.get("rve", {}))
    r.update({key: value for key, value in (overrides or {}).items() if value is not None})
    return RveConfig(n_cells=_positive_int(r.get("N", 4), "rve.N"),
                     refine=_positive_int(r.get("r", 1), "rve.r"),
                     n_samples=_positive_int(r.get("M", 4), "rve.M"),
                     delta=delta, law=law, base_seed=seed)


def _averaging_rve(cfg):
    """The RVE block of the averaging reference, checked; N and M are required."""
    r = cfg.get("rve", {"N": 8, "r": 1, "M": 8})
    rve = {"N": _positive_int(r.get("N"), "rve.N"),
           "r": _positive_int(r.get("r", 1), "rve.r"),
           "M": _positive_int(r.get("M"), "rve.M")}
    if "base_seed" in r:
        rve["base_seed"] = _integer(r["base_seed"], "rve.base_seed")
    return rve


def _stress_columns(prefix):
    return [f"{prefix}_11", f"{prefix}_22", f"{prefix}_12"]


def _write_series(out_dir, name, times, mandel_series, extra_cols=(), extra_vals=None):
    table = ReportTable(columns=["t"] + _stress_columns("s") + list(extra_cols))
    for i, t in enumerate(times):
        row = [t, mandel_series[i, 0], mandel_series[i, 1], mandel_series[i, 2] / SQRT2]
        if extra_vals is not None:
            row += list(extra_vals[i])
        table.append(*row)
    path = os.path.join(out_dir, name)
    emit_report(table, path)
    return path


def cmd_eps(cfg, args):
    law = _law(cfg)
    delta = _delta(cfg)
    boundary, _ = _boundary(cfg, os.path.dirname(os.path.abspath(args.config)))
    mesh = _domain_mesh(cfg)
    zero_shift = cfg.get("zero_shift", False)
    if not isinstance(zero_shift, bool):
        raise ConfigurationError(f"zero_shift must be true or false, got {zero_shift!r}")
    medium = sample_realization(law, args.seed, zero_shift=zero_shift)
    config = EpsProblemConfig(
        mesh=mesh, medium=medium,
        epsilon=_positive_number(cfg.get("epsilon", 0.25), "epsilon"),
        delta=delta, time_grid=_time_grid(cfg), dirichlet=boundary,
        load=_load_term(cfg),
    )
    traj = solve_eps(config)
    report = residual_report(traj, config)
    avg = average_stress(traj)
    vol = mesh.volumes / mesh.volumes.sum()
    u_norm = [float(np.sqrt((traj.u[i][mesh.simplices].mean(axis=1) ** 2)
                            .sum(axis=1) @ vol)) for i in range(traj.times.size)]
    p_norm = [float(np.sqrt(np.einsum("e,ek,ek->", vol, traj.p[i], traj.p[i])))
              for i in range(traj.times.size)]
    extras = [(u_norm[i], p_norm[i],
               traj.newton_iters[i - 1] if i else 0,
               traj.residual_norms[i - 1] if i else 0.0,
               args.seed)
              for i in range(traj.times.size)]
    path = _write_series(args.out, "eps_run.csv", traj.times, avg,
                         extra_cols=["u_norm", "p_norm", "newton_iters",
                                     "residual", "seed"],
                         extra_vals=extras)
    print(f"wrote {path}")
    print(f"norm ratio {report.ratio:.6g}, energy defect "
          f"{report.energy_balance_defect:.3e}")
    return 0


def cmd_cell(cfg, args):
    law = _law(cfg)
    delta = _delta(cfg, args.delta)
    boundary, xi = _boundary(cfg, os.path.dirname(os.path.abspath(args.config)))
    time_grid = _time_grid(cfg)
    rve = _rve(cfg, law, delta, args.seed, {"N": args.N, "r": args.r, "M": args.M})
    result = sigma(rve, xi, time_grid, threads=args.threads)
    table = ReportTable(
        columns=["t"] + _stress_columns("sigma") + _stress_columns("pi")
        + _stress_columns("stderr") + ["seed"])
    for i, t in enumerate(time_grid):
        table.append(
            t,
            result.sigma[i, 0], result.sigma[i, 1], result.sigma[i, 2] / SQRT2,
            result.pi[i, 0], result.pi[i, 1], result.pi[i, 2] / SQRT2,
            result.mc_stderr[i, 0], result.mc_stderr[i, 1],
            result.mc_stderr[i, 2] / SQRT2,
            args.seed,
        )
    table.meta = result.config
    path = os.path.join(args.out, "cell_sigma.csv")
    emit_report(table, path)
    print(f"wrote {path}")
    return 0


def cmd_macro(cfg, args):
    law = _law(cfg)
    delta = _delta(cfg)
    boundary, _ = _boundary(cfg, os.path.dirname(os.path.abspath(args.config)))
    mesh = _domain_mesh(cfg)
    rve = _rve(cfg, law, delta, args.seed)
    config = MacroConfig(mesh=mesh, rve=rve, dirichlet=boundary,
                         time_grid=_time_grid(cfg), load=_load_term(cfg),
                         max_seconds=_optional(cfg, "budget_seconds",
                                               _non_negative_seconds),
                         max_elements=_optional(cfg, "budget_elements", _positive_int))
    solution = solve_effective(config)
    avg = solution.average_stress()
    path = _write_series(args.out, "macro_run.csv", solution.times, avg,
                         extra_cols=["seed"],
                         extra_vals=[[args.seed]] * solution.times.size)
    print(f"wrote {path}")
    return 0


def cmd_average(cfg, args):
    law = _law(cfg)
    delta = _delta(cfg)
    _, xi = _boundary(cfg, os.path.dirname(os.path.abspath(args.config)))
    avg = cfg.get("averaging", {})
    n_seeds = _positive_int(avg.get("n_seeds", 4), "averaging.n_seeds")
    spec = ExperimentSpec(kind="averaging", params={
        "law": law, "xi": xi, "delta": delta,
        "epsilons": _positive_numbers(avg.get("epsilons", [0.25, 0.125]),
                                      "averaging.epsilons"),
        "seeds": [args.seed + i for i in range(n_seeds)],
        "time_grid": _time_grid(cfg),
        "rve": _averaging_rve(cfg),
        "offset": cfg.get("bc", {}).get("a"),
        "h_factor": _positive_number(avg.get("h_factor", 0.5), "averaging.h_factor"),
    })
    table = run_averaging_experiment(spec)
    path = os.path.join(args.out, "averaging.csv")
    emit_report(table, path, svg_path=os.path.join(args.out, "averaging.svg"),
                x="t", y="D_t", series_by="epsilon")
    print(f"wrote {path}")
    for eps, d in table.meta["D_mean"].items():
        print(f"eps={eps}: seed-averaged discrepancy {d:.6g}")
    return 0


def cmd_korn(cfg, args):
    korn = cfg.get("korn", {})
    spec = ExperimentSpec(kind="korn", params={
        "n_cells": _positive_int(korn.get("n_cells", 8), "korn.n_cells"),
        "refine": _positive_int(korn.get("r", 1), "korn.r"),
        "n_samples": _positive_int(korn.get("n_samples", 1000), "korn.n_samples"),
        "seed": args.seed,
    })
    table = run_korn_check(spec)
    path = os.path.join(args.out, "korn.csv")
    emit_report(table, path)
    print(f"wrote {path}")
    print(f"max ratio {table.meta['max_ratio']:.12f} (bound 2)")
    return 0


def cmd_ergodic(cfg, args):
    law = _law(cfg)
    erg = cfg.get("ergodic", {})
    spec = ExperimentSpec(kind="ergodic", params={
        "law": law,
        "L_values": erg.get("L_values", [8, 16, 32]),
        "n_seeds": erg.get("n_seeds", 50),
        "base_seed": args.seed,
        "statistic": erg.get("statistic", "E"),
    })
    table = run_ergodic_check(spec)
    path = os.path.join(args.out, "ergodic.csv")
    emit_report(table, path, svg_path=os.path.join(args.out, "ergodic.svg"),
                x="L", y="abs_error", series_by=None)
    print(f"wrote {path}")
    print(f"fitted decay exponent {table.meta['exponent']:.3f}")
    return 0


_COMMANDS = {
    "eps": cmd_eps,
    "cell": cmd_cell,
    "macro": cmd_macro,
    "average": cmd_average,
    "korn": cmd_korn,
    "ergodic": cmd_ergodic,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plasthom",
        description="stochastic homogenization runs for elastoplasticity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=False, help="JSON run config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="base seed")
        if name == "cell":
            p.add_argument("--threads", type=int, default=1,
                           help="worker threads for Monte-Carlo sweeps")
            p.add_argument("--N", type=int, help="cells per side (overrides config)")
            p.add_argument("--r", type=int, help="refinements per cell")
            p.add_argument("--M", type=int, help="Monte-Carlo samples")
            p.add_argument("--delta", type=float, help="regularization")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
