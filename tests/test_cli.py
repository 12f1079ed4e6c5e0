import csv
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plasthom import finescale
from plasthom.cli import main
from plasthom.errors import NumericalError


@pytest.fixture
def run_dir(tmp_path):
    xi_csv = tmp_path / "xi.csv"
    with open(xi_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "xi_11", "xi_22", "xi_12"])
        for i in range(5):
            t = i / 4
            writer.writerow([t, 0.0, 0.0, 0.4 * t])
    config = {
        "domain": {"type": "unit_square"},
        "mesh": {"h": 0.5},
        "epsilon": 0.25,
        "delta": 0.003,
        "time": {"T": 1.0, "steps": 4},
        "law": {
            "E": {"discrete": {"values": [1.0, 2.0]}},
            "nu": {"point": 0.3},
            "sigma_y": {"point": 0.3},
        },
        "rve": {"N": 2, "r": 1, "M": 2},
        "bc": {"xi": "xi.csv", "a": None},
        "load": None,
        "averaging": {"epsilons": [0.5, 0.25], "n_seeds": 2},
        "korn": {"n_cells": 4, "n_samples": 50},
        "ergodic": {"L_values": [4, 8], "n_seeds": 5},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, cfg_path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_variant(cfg, out, key, value, **sections):
    """The run config with ``key`` (dotted, or None for the whole config) set
    to ``value`` and the given top-level sections replaced, written next to it."""
    bad = json.loads(cfg.read_text())
    bad.update(sections)
    if key is None:
        bad = value
    else:
        *parents, leaf = key.split(".")
        section = bad
        for name in parents:
            section = section[name]
        section[leaf] = value
    path = out / "malformed.json"
    path.write_text(json.dumps(bad))
    return path


class TestSubcommands:
    def test_eps_writes_series(self, run_dir, capsys):
        out, cfg = run_dir
        code = main(["eps", "--config", str(cfg), "--out", str(out), "--seed", "3"])
        assert code == 0
        rows = read_rows(out / "eps_run.csv")
        assert len(rows) == 5
        assert rows[0]["s_12"] == "0.0"
        assert all(r["seed"] == "3" for r in rows)

    def test_cell_writes_sigma_series(self, run_dir):
        out, cfg = run_dir
        code = main(["cell", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "cell_sigma.csv")
        assert len(rows) == 5
        assert float(rows[0]["sigma_12"]) == 0.0
        assert float(rows[-1]["sigma_12"]) > 0.1

    def test_macro_runs(self, run_dir):
        out, cfg = run_dir
        code = main(["macro", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "macro_run.csv").exists()

    def test_loaded_macro_runs(self, run_dir):
        # the CLI's load is t * f, which passes the check that it vanishes at t = 0
        out, cfg = run_dir
        loaded = json.loads(cfg.read_text())
        loaded["load"] = [0.2, -0.1]
        path = out / "loaded.json"
        path.write_text(json.dumps(loaded))
        assert main(["macro", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "macro_run.csv").exists()

    def test_average_runs(self, run_dir):
        out, cfg = run_dir
        code = main(["average", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "averaging.csv").exists()
        assert (out / "averaging.svg").exists()

    def test_korn_runs(self, run_dir):
        out, cfg = run_dir
        code = main(["korn", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "korn.csv")
        assert all(float(r["ratio"]) <= 2.0 + 1e-10 for r in rows)

    def test_ergodic_runs(self, run_dir):
        out, cfg = run_dir
        code = main(["ergodic", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "ergodic.csv").exists()


class TestExitCodes:
    def test_missing_config_is_configuration_error(self, tmp_path):
        assert main(["cell", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 2

    def test_invalid_law_is_configuration_error(self, run_dir):
        out, cfg = run_dir
        bad = json.loads(cfg.read_text())
        bad["law"]["nu"] = {"point": 0.7}
        bad_path = out / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert main(["cell", "--config", str(bad_path), "--out", str(out)]) == 2

    def test_budget_overrun_is_numerical_error(self, run_dir):
        out, cfg = run_dir
        strict = json.loads(cfg.read_text())
        strict["budget_seconds"] = 0.0
        strict_path = out / "strict.json"
        strict_path.write_text(json.dumps(strict))
        assert main(["macro", "--config", str(strict_path), "--out", str(out)]) == 3

    def test_numerical_error_prints_step_and_residual(self, run_dir, monkeypatch, capsys):
        out, cfg = run_dir

        def failing_pcg(*args, **kwargs):
            raise NumericalError("conjugate gradients broke down", residual=0.25)

        loaded = json.loads(cfg.read_text())
        loaded["load"] = [0.2, -0.1]   # the affine predictor alone solves the unloaded step
        loaded_path = out / "loaded.json"
        loaded_path.write_text(json.dumps(loaded))
        monkeypatch.setattr(finescale, "pcg", failing_pcg)
        assert main(["eps", "--config", str(loaded_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.strip() == (
            "numerical failure: conjugate gradients broke down (step 1, residual 2.500e-01)")

    def test_missing_xi_reference_is_configuration_error(self, run_dir):
        out, cfg = run_dir
        broken = json.loads(cfg.read_text())
        del broken["bc"]
        path = out / "broken.json"
        path.write_text(json.dumps(broken))
        assert main(["eps", "--config", str(path), "--out", str(out)]) == 2

    @pytest.mark.parametrize("command, key, value", [
        pytest.param("cell", "law.E", {"uniform": 5}, id="uniform-not-a-pair"),
        pytest.param("cell", "time.steps", "x", id="steps-not-a-number"),
        pytest.param("cell", "time.steps", 0, id="zero-steps"),
        pytest.param("cell", "law", [1, 2], id="law-not-an-object"),
        pytest.param("cell", "rve.N", "a", id="rve-N-not-a-number"),
        pytest.param("ergodic", "ergodic.statistic", "foo", id="unknown-statistic"),
        pytest.param("eps", "domain", "square", id="domain-not-an-object"),
        pytest.param("cell", None, [1, 2], id="top-level-list"),
        pytest.param("cell", "delta", "x", id="cell-delta-not-a-number"),
        pytest.param("eps", "delta", 0.0, id="eps-zero-delta"),
        pytest.param("eps", "epsilon", "x", id="epsilon-not-a-number"),
        pytest.param("macro", "delta", -1.0, id="macro-negative-delta"),
        pytest.param("average", "delta", [0.1], id="average-delta-a-list"),
        pytest.param("ergodic", "ergodic.L_values", ["a"], id="L-values-not-integers"),
        pytest.param("ergodic", "ergodic.L_values", [], id="L-values-empty"),
        pytest.param("ergodic", "ergodic.L_values", 8, id="L-values-not-a-list"),
        pytest.param("ergodic", "ergodic.L_values", [4, 4, 8], id="L-values-repeated"),
        pytest.param("ergodic", "ergodic.n_seeds", 0, id="zero-seeds"),
        pytest.param("average", "averaging.n_seeds", "x", id="average-seeds-not-a-number"),
        pytest.param("average", "averaging.n_seeds", 0, id="average-zero-seeds"),
        pytest.param("average", "averaging.epsilons", [], id="epsilons-empty"),
        pytest.param("average", "averaging.epsilons", 0.5, id="epsilons-not-a-list"),
        pytest.param("average", "averaging.epsilons", [0.5, "x"], id="epsilons-not-numbers"),
        pytest.param("average", "averaging.epsilons", [0.5, -0.25], id="epsilons-negative"),
        pytest.param("average", "averaging.h_factor", "x", id="h-factor-not-a-number"),
        pytest.param("average", "averaging.h_factor", 0.0, id="zero-h-factor"),
        pytest.param("average", "rve", {"r": 1, "M": 2}, id="average-rve-without-N"),
        pytest.param("average", "rve.M", "x", id="average-rve-M-not-a-number"),
        pytest.param("average", "rve.r", 0, id="average-rve-zero-r"),
        pytest.param("average", "rve.base_seed", "x", id="average-base-seed-not-an-integer"),
        pytest.param("korn", "korn.n_cells", "x", id="korn-cells-not-a-number"),
        pytest.param("korn", "korn.r", 0, id="korn-zero-r"),
        pytest.param("korn", "korn.n_samples", 2.5, id="korn-samples-not-an-integer"),
        pytest.param("korn", "korn.n_cells", 1, id="korn-one-vertex-torus"),
        pytest.param("macro", "budget_seconds", "x", id="budget-seconds-not-a-number"),
        pytest.param("macro", "budget_seconds", -1.0, id="budget-seconds-negative"),
        pytest.param("macro", "budget_seconds", float("inf"), id="budget-seconds-infinite"),
        pytest.param("macro", "budget_elements", "x", id="budget-elements-not-a-number"),
        pytest.param("macro", "budget_elements", 0, id="zero-budget-elements"),
        pytest.param("eps", "load", "x", id="load-not-a-list"),
        pytest.param("eps", "load", [1, 2, 3], id="load-three-entries"),
        pytest.param("eps", "bc.a", [["x"]], id="offset-not-numbers"),
        pytest.param("eps", "bc.a", [[0, 0, 0], [1, 0.1]], id="offset-ragged"),
        pytest.param("eps", "bc.a", [], id="offset-empty"),
        pytest.param("eps", "zero_shift", "false", id="zero-shift-a-string"),
        pytest.param("cell", "law.E", True, id="law-E-a-boolean"),
        pytest.param("cell", "law.E", {"discrete": {"values": [1, True]}},
                     id="law-discrete-value-a-boolean"),
        pytest.param("cell", "law.E", {"point": float("inf")}, id="law-point-infinite"),
        pytest.param("cell", "law.sigma_y", float("nan"), id="law-sigma-y-nan"),
        pytest.param("cell", "law.E",
                     {"discrete": {"values": [1.0, 2.0], "weights": [float("nan"), 1]}},
                     id="law-weight-nan"),
        pytest.param("eps", "epsilon", 1e-300, id="epsilon-beyond-int64-cells"),
        pytest.param("average", "rve.base_seed", -1, id="average-negative-base-seed"),
        pytest.param("eps", "bc.xi", 5, id="xi-not-a-file-name"),
    ])
    def test_malformed_config_is_configuration_error(self, run_dir, capsys,
                                                     command, key, value):
        out, cfg = run_dir
        path = write_variant(cfg, out, key, value)
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value, domain, named", [
        pytest.param("eps", "mesh.h", 1e-300, "unit_right_triangle", "mesh size h",
                     id="triangle-mesh-h"),
        pytest.param("eps", "mesh.h", 5e-324, "unit_right_triangle", "mesh size h",
                     id="triangle-mesh-h-subnormal"),
        pytest.param("eps", "mesh.h", 1e-300, "unit_square", "mesh.h", id="square-mesh-h"),
        pytest.param("eps", "time.steps", 10**30, "unit_square", "time.steps",
                     id="time-steps"),
        # 2**62 entries fit int64, but not their 2**65 bytes
        pytest.param("eps", "time.steps", 2**62, "unit_square", "time.steps",
                     id="time-steps-2**62"),
        pytest.param("cell", "rve.N", 10**30, "unit_square", "torus cells N", id="cell-rve-N"),
        pytest.param("macro", "rve.N", 10**30, "unit_square", "torus cells N",
                     id="macro-rve-N"),
        pytest.param("korn", "korn.n_cells", 10**30, "unit_square", "torus cells N",
                     id="korn-n-cells"),
        pytest.param("korn", "korn.n_samples", 10**30, "unit_square", "korn n_samples",
                     id="korn-n-samples"),
        pytest.param("ergodic", "ergodic.L_values", [10**30], "unit_square",
                     "box half-width L", id="ergodic-L"),
        pytest.param("average", "averaging.n_seeds", 2**63, "unit_square",
                     "averaging.n_seeds", id="averaging-n-seeds"),
        pytest.param("average", "averaging.n_seeds", 2**62, "unit_square",
                     "averaging.n_seeds", id="averaging-n-seeds-2**62"),
        pytest.param("korn", "korn.n_samples", 2**62 // 32, "unit_square", "korn n_samples",
                     id="korn-n-samples-2**62-entries"),
        pytest.param("ergodic", "ergodic.n_seeds", 2**63, "unit_square", "ergodic n_seeds",
                     id="ergodic-n-seeds"),
        pytest.param("ergodic", "ergodic.n_seeds", 2**62, "unit_square", "ergodic n_seeds",
                     id="ergodic-n-seeds-2**62"),
    ])
    def test_size_beyond_int64_is_configuration_error(self, run_dir, capsys, command, key,
                                                      value, domain, named):
        out, cfg = run_dir
        path = write_variant(cfg, out, key, value, domain={"type": domain})
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err

    @pytest.mark.parametrize("header, row", [
        pytest.param(None, None, id="missing-file"),
        pytest.param(["t", "xi_11", "xi_12"], [1.0, 0.0, 0.4], id="missing-column"),
        pytest.param(["t", "xi_11", "xi_22", "xi_12"], [1.0, 0.0, "x", 0.4],
                     id="non-numeric-entry"),
    ])
    def test_bad_strain_path_is_configuration_error(self, run_dir, capsys, header, row):
        out, cfg = run_dir
        xi_csv = out / "xi.csv"
        if header is None:
            xi_csv.unlink()
        else:
            with open(xi_csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerow([0.0] * len(header))
                writer.writerow(row)
        assert main(["cell", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(xi_csv) in err

    def test_strain_path_name_with_nul_byte_cannot_be_read(self, run_dir, capsys):
        out, cfg = run_dir
        path = write_variant(cfg, out, "bc.xi", "x\u0000y")
        assert main(["cell", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot read strain path" in err and "null byte" in err
        assert "non-numeric" not in err

    @pytest.mark.parametrize("flag", ["--N", "--r", "--M"])
    def test_zero_override_is_configuration_error(self, run_dir, capsys, flag):
        out, cfg = run_dir
        assert main(["cell", "--config", str(cfg), "--out", str(out), flag, "0"]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (out / "cell_sigma.csv").exists()

    @pytest.mark.parametrize("command, seed", [
        pytest.param("cell", "99999999999999999999", id="cell-seed-beyond-int64"),
        pytest.param("eps", "99999999999999999999", id="eps-seed-beyond-int64"),
        pytest.param("korn", "-1", id="korn-negative-seed"),
        pytest.param("ergodic", str(2**63 - 1), id="ergodic-second-seed-beyond-int64"),
        pytest.param("cell", "-1", id="cell-negative-seed"),
        pytest.param("eps", "-1", id="eps-negative-seed"),
        pytest.param("macro", "-1", id="macro-negative-seed"),
        pytest.param("average", "-1", id="average-negative-seed"),
        pytest.param("ergodic", "-1", id="ergodic-negative-seed"),
    ])
    def test_seed_outside_int64_range_is_configuration_error(self, run_dir, capsys,
                                                            command, seed):
        out, cfg = run_dir
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "seed" in err

    def test_config_directory_is_configuration_error(self, tmp_path, capsys):
        assert main(["cell", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_config_not_utf8_is_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"delta": "\u00e9"}'.encode("latin-1"))
        assert main(["cell", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_strain_path_not_utf8_is_configuration_error(self, run_dir, capsys):
        out, cfg = run_dir
        xi_csv = out / "xi.csv"
        xi_csv.write_bytes(xi_csv.read_text().encode("utf-16"))
        assert main(["cell", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{xi_csv} is not UTF-8 text" in err

    @pytest.mark.parametrize("marked", ["config", "strain-path", "both"])
    def test_byte_order_mark_is_ignored(self, run_dir, marked):
        # spreadsheet tools save UTF-8 text with a leading byte-order mark
        out, cfg = run_dir
        bom = "\ufeff".encode("utf8")
        config = json.loads(cfg.read_text())
        config["bc"]["xi"] = "marked.csv"
        (out / "marked.csv").write_bytes(bom * (marked != "config")
                                         + (out / "xi.csv").read_bytes())
        marked_cfg = out / "marked.json"
        marked_cfg.write_bytes(bom * (marked != "strain-path") + json.dumps(config).encode())
        assert main(["cell", "--config", str(cfg), "--out", str(out / "plain")]) == 0
        assert main(["cell", "--config", str(marked_cfg), "--out", str(out / "marked")]) == 0
        assert (out / "marked" / "cell_sigma.csv").read_bytes() \
            == (out / "plain" / "cell_sigma.csv").read_bytes()

    def test_out_naming_a_file_is_configuration_error(self, run_dir, capsys):
        out, cfg = run_dir
        assert main(["korn", "--config", str(cfg), "--out", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

# Malformed values of the keys that the CLI checks itself, and of the sizes
# that it passes on to an allocation.  Only malformed values are drawn: a
# valid large size would allocate or run for minutes.
WRONG_TYPE = st.one_of(st.text(max_size=3), st.none(),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
NOT_SCALAR = st.one_of(WRONG_TYPE, st.lists(st.integers(0, 3), max_size=2))
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
BAD_NUMBER = st.one_of(NOT_SCALAR, st.booleans(), NON_FINITE, st.integers(max_value=0),
                       st.floats(max_value=0.0))
# floats are no counts, and 2**63 entries do not fit int64
BAD_COUNT = st.one_of(NOT_SCALAR, st.booleans(), st.integers(max_value=0), st.floats(),
                      st.integers(min_value=2**63))
# mesh sizes whose 1/h cells per side do not fit int64
BAD_MESH_SIZE = st.one_of(BAD_NUMBER, st.floats(0.0, 2.0**-63, exclude_min=True))
BAD_LOAD_ENTRY = st.one_of(WRONG_TYPE, st.booleans(), NON_FINITE)
BAD_LOAD = st.one_of(
    WRONG_TYPE.filter(lambda v: v is not None), st.booleans(), st.floats(),
    st.lists(st.floats(-1.0, 1.0), max_size=4).filter(lambda v: len(v) != 2),
    st.tuples(BAD_LOAD_ENTRY, st.floats(-1.0, 1.0)).map(list),
    st.tuples(st.floats(-1.0, 1.0), BAD_LOAD_ENTRY).map(list))
NOT_BOOL = st.one_of(WRONG_TYPE, st.integers(), st.floats(), st.lists(st.booleans(),
                                                                        max_size=2))
BAD_L_VALUES = st.one_of(WRONG_TYPE, st.booleans(), st.integers(), st.just([]),
                         st.lists(BAD_COUNT, min_size=1, max_size=3))
# anything but the name of a law parameter
BAD_STATISTIC = st.one_of(WRONG_TYPE, st.booleans(), st.integers(), st.floats(),
                          st.lists(st.text(max_size=2), max_size=2)).filter(
    lambda v: v not in ("E", "nu", "sigma_y", "H"))
# every list of positive numbers is a valid epsilon sweep, so each drawn list
# holds at least one entry that is no positive number
BAD_EPSILONS = st.one_of(
    WRONG_TYPE, st.booleans(), st.integers(), st.floats(), st.just([]),
    st.tuples(st.lists(st.floats(0.25, 0.5), max_size=2),
              st.one_of(BAD_NUMBER, st.booleans())).map(lambda v: v[0] + [v[1]]))
# names of missing files and of files that are no strain path, or no name at all
BAD_XI = st.one_of(
    NOT_SCALAR.filter(lambda v: not isinstance(v, str)), st.booleans(), st.floats(),
    st.text(max_size=3).map(lambda name: "missing" + name), st.sampled_from(["", ".", "run.json"]))
# every non-null value that is not rows [t, a_1, a_2] of finite numbers with
# increasing t; null means no offset
BAD_OFFSET = st.one_of(
    WRONG_TYPE.filter(lambda v: v is not None), st.booleans(), st.floats(), st.just([]),
    st.lists(st.lists(st.floats(-1.0, 1.0), max_size=4).filter(lambda row: len(row) != 3),
             min_size=1, max_size=2),
    st.tuples(NON_FINITE, st.floats(-1.0, 1.0)).map(lambda v: [[0.0, v[1], v[0]]]),
    st.floats(0.0, 1.0).map(lambda t: [[t, 0.0, 0.0], [t, 0.1, 0.1]]))

FUZZED_KEYS = {
    ("eps", "time.T", "unit_square"): BAD_NUMBER,
    ("eps", "time.steps", "unit_square"): BAD_COUNT,
    ("eps", "mesh.h", "unit_square"): BAD_MESH_SIZE,
    ("eps", "mesh.h", "unit_right_triangle"): BAD_MESH_SIZE,
    ("eps", "load", "unit_square"): BAD_LOAD,
    ("eps", "zero_shift", "unit_square"): NOT_BOOL,
    ("average", "averaging.n_seeds", "unit_square"): BAD_COUNT,
    ("average", "averaging.epsilons", "unit_square"): BAD_EPSILONS,
    ("average", "averaging.h_factor", "unit_square"): BAD_NUMBER,
    ("cell", "rve.N", "unit_square"): BAD_COUNT,
    ("macro", "rve.N", "unit_square"): BAD_COUNT,
    ("korn", "korn.n_cells", "unit_square"): BAD_COUNT,
    ("korn", "korn.n_samples", "unit_square"): BAD_COUNT,
    ("korn", "korn.r", "unit_square"): BAD_COUNT,
    ("cell", "bc.xi", "unit_square"): BAD_XI,
    ("eps", "bc.a", "unit_square"): BAD_OFFSET,
    ("ergodic", "ergodic.L_values", "unit_square"): BAD_L_VALUES,
    ("ergodic", "ergodic.n_seeds", "unit_square"): BAD_COUNT,
    ("ergodic", "ergodic.statistic", "unit_square"): BAD_STATISTIC,
}


@pytest.mark.parametrize("command, key, domain", sorted(FUZZED_KEYS),
                         ids=lambda v: str(v))
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_value_exits_2(run_dir, capsys, command, key, domain, data):
    out, cfg = run_dir
    value = data.draw(FUZZED_KEYS[command, key, domain], label=key)
    path = write_variant(cfg, out, key, value, domain={"type": domain})
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "configuration error: " in capsys.readouterr().err
