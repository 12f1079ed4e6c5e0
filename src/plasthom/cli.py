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
from .errors import (
    ConfigurationError,
    NumericalError,
    array_size,
    finite_number,
    positive_int,
    positive_number,
)
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
from .tensors import SQRT2, inner

_SECTIONS = ("domain", "mesh", "time", "law", "rve", "bc", "averaging", "korn", "ergodic")


def _load_config(path):
    if path is None:
        raise ConfigurationError("--config is required")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read config file {path}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigurationError(f"config file {path} is not UTF-8 text") from None
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    for name in _SECTIONS:
        if name in cfg and not isinstance(cfg[name], dict):
            raise ConfigurationError(f"config section {name!r} must be a JSON object")
    return cfg


def _delta(cfg, override=None):
    return cfg.get("delta", 1e-2) if override is None else override


def _law(cfg):
    try:
        return ProbabilityLaw.from_config(cfg["law"])
    except KeyError:
        raise ConfigurationError("config misses the 'law' section") from None


def _time_grid(cfg):
    t = cfg.get("time", {})
    T = positive_number(t.get("T", 1.0), "time.T")
    steps = positive_int(t.get("steps", 8), "time.steps")
    return np.linspace(0.0, T, array_size(steps + 1, "time.steps"))


def _boundary(cfg, config_dir):
    bc = cfg.get("bc", {})
    if not isinstance(bc.get("xi"), str):
        raise ConfigurationError(f"bc.xi must name a strain path CSV, got {bc.get('xi')!r}")
    xi = path_from_csv(os.path.join(config_dir, bc["xi"]))  # an absolute bc.xi wins
    offset = None if bc.get("a") is None else tabulated_offset(bc["a"])
    return AffineBoundary(xi, offset), xi


def _domain_mesh(cfg):
    dom = cfg.get("domain", {"type": "unit_right_triangle"})
    h = cfg.get("mesh", {}).get("h", 0.25)
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
        cells = array_size(1.0 / positive_number(h, "mesh.h"), "mesh.h")
        return mesh_unit_square(max(1, round(cells)))
    raise ConfigurationError(f"unknown domain type {kind!r}")


def _load_term(cfg):
    f = cfg.get("load")
    if f is None:
        return None
    if not isinstance(f, list) or len(f) != 2:
        raise ConfigurationError(f"load must be a list of two finite numbers, got {f!r}")
    f = np.asarray([finite_number(v, "load entry") for v in f], dtype=float)

    def load(t, points):
        return t * np.tile(f, (len(points), 1))

    return load


def _rve(cfg, law, delta, seed, overrides=None):
    r = dict(cfg.get("rve", {}))
    r.update({key: value for key, value in (overrides or {}).items() if value is not None})
    return RveConfig(n_cells=r.get("N", 4), refine=r.get("r", 1), n_samples=r.get("M", 4),
                     delta=delta, law=law, base_seed=seed)


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
        mesh=mesh, medium=medium, epsilon=cfg.get("epsilon", 0.25),
        delta=delta, time_grid=_time_grid(cfg), dirichlet=boundary,
        load=_load_term(cfg),
    )
    traj = solve_eps(config)
    report = residual_report(traj, config)
    avg = average_stress(traj)
    vol = mesh.volumes / mesh.volumes.sum()
    u_norm = [float(np.sqrt(inner((traj.u[i][mesh.simplices].mean(axis=1) ** 2)
                                  .sum(axis=1), vol))) for i in range(traj.times.size)]
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
    result = sigma(rve, xi, time_grid)
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
                         max_seconds=cfg.get("budget_seconds"),
                         max_elements=cfg.get("budget_elements"))
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
    n_seeds = positive_int(avg.get("n_seeds", 4), "averaging.n_seeds")
    array_size(n_seeds, "averaging.n_seeds")  # the length of the seed list below
    spec = ExperimentSpec(kind="averaging", params={
        "law": law, "xi": xi, "delta": delta,
        "epsilons": avg.get("epsilons", [0.25, 0.125]),
        "seeds": [args.seed + i for i in range(n_seeds)],
        "time_grid": _time_grid(cfg),
        "rve": cfg.get("rve", {"N": 8, "M": 8}),
        "offset": cfg.get("bc", {}).get("a"),
    })
    if "h_factor" in avg:
        spec.params["h_factor"] = avg["h_factor"]
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
    names = {"n_cells": "n_cells", "r": "refine", "n_samples": "n_samples"}
    params = {names[key]: value for key, value in korn.items() if key in names}
    spec = ExperimentSpec(kind="korn", params={**params, "seed": args.seed})
    table = run_korn_check(spec)
    path = os.path.join(args.out, "korn.csv")
    emit_report(table, path)
    print(f"wrote {path}")
    print(f"max ratio {table.meta['max_ratio']:.12f} (bound 2)")
    return 0


def cmd_ergodic(cfg, args):
    law = _law(cfg)
    erg = cfg.get("ergodic", {})
    params = {key: erg[key] for key in ("L_values", "n_seeds", "statistic") if key in erg}
    spec = ExperimentSpec(kind="ergodic", params={**params, "law": law, "base_seed": args.seed})
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
            p.add_argument("--N", type=int, help="cells per side (overrides config)")
            p.add_argument("--r", type=int, help="refinements per cell")
            p.add_argument("--M", type=int, help="Monte-Carlo samples")
            p.add_argument("--delta", type=float, help="regularization")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as err:
            raise ConfigurationError(f"cannot create output directory {args.out}: "
                                     f"{err.strerror}") from None
        return _COMMANDS[args.command](cfg, args)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        where = [f"step {err.step}"] if err.step is not None else []
        if err.residual is not None:
            where.append(f"residual {err.residual:.3e}")
        detail = f" ({', '.join(where)})" if where else ""
        print(f"numerical failure: {err}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
