import tracemalloc

import numpy as np
import pytest

from plasthom.cellproblem import RveConfig
from plasthom.errors import ConfigurationError
from plasthom.experiments import (
    ExperimentSpec,
    run_averaging_experiment,
    run_ergodic_check,
    run_korn_check,
)
from plasthom.media import ProbabilityLaw
from plasthom.reporting import ReportTable, emit_report

from helpers import shear_path

TWO_PHASE = ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"point": 0.3},
})
CONSTANT = ProbabilityLaw.constant(1.0, 0.3, 0.3, 1.0)


class TestKornCheck:
    def test_ratio_bounded_by_two(self):
        spec = ExperimentSpec(kind="korn", params={
            "n_cells": 8, "n_samples": 200, "seed": 1})
        table = run_korn_check(spec)
        assert table.meta["max_ratio"] <= 2.0 + 1e-10
        assert table.meta["n_samples"] == 200

    def test_zero_field_guard(self):
        # constant fields have zero gradient and are skipped, not divided by
        spec = ExperimentSpec(kind="korn", params={
            "n_cells": 2, "n_samples": 5, "seed": 2})
        table = run_korn_check(spec)
        assert all(np.isfinite(row[2]) for row in table.rows)


class TestErgodicCheck:
    def test_point_mass_has_zero_error(self):
        spec = ExperimentSpec(kind="ergodic", params={
            "law": CONSTANT, "L_values": [4, 8], "n_seeds": 3})
        table = run_ergodic_check(spec)
        assert max(table.column("abs_error")) <= 1e-12

    def test_repeated_box_size_is_rejected(self):
        # the table would hold both copies of L = 4, but mean_errors only one
        spec = ExperimentSpec(kind="ergodic", params={
            "law": TWO_PHASE, "L_values": [4, 4, 8], "n_seeds": 3})
        with pytest.raises(ConfigurationError, match=r"\(repeated: 4\)"):
            run_ergodic_check(spec)

    def test_bernoulli_decay_exponent(self):
        spec = ExperimentSpec(kind="ergodic", params={
            "law": TWO_PHASE, "L_values": [8, 16, 32], "n_seeds": 50,
            "base_seed": 7})
        table = run_ergodic_check(spec)
        assert -1.5 <= table.meta["exponent"] <= -0.5

    def test_doubling_roughly_halves_error(self):
        spec = ExperimentSpec(kind="ergodic", params={
            "law": TWO_PHASE, "L_values": [8, 16, 32], "n_seeds": 50,
            "base_seed": 11})
        errors = run_ergodic_check(spec).meta["mean_errors"]
        assert 1.0 < errors[8] / errors[16] < 4.0
        assert 1.0 < errors[16] / errors[32] < 4.0

    def test_sweep_at_benchmark_size_peaks_below_2_mb(self):
        """Boxes are hashed in batches of a bounded cell count, so the traced
        peak of the benchmark's sweep does not grow with the seed count."""
        spec = ExperimentSpec(kind="ergodic", params={
            "law": TWO_PHASE, "L_values": [16, 32, 64], "n_seeds": 50})
        run_ergodic_check(spec)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            run_ergodic_check(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


class TestAveragingExperiment:
    def base_params(self, law, seeds, epsilons, steps=4):
        return {
            "law": law,
            "xi": shear_path(0.6, 1.0, steps),
            "delta": 0.003,
            "epsilons": epsilons,
            "seeds": seeds,
            "time_grid": np.linspace(0, 1, steps + 1),
            "rve": {"N": 4, "r": 1, "M": 4, "base_seed": 900},
        }

    def test_homogeneous_medium_has_no_discrepancy(self):
        spec = ExperimentSpec(kind="averaging", params=self.base_params(
            CONSTANT, seeds=[0, 1], epsilons=[0.25, 0.125]))
        table = run_averaging_experiment(spec)
        assert max(table.meta["D_mean"].values()) <= 1e-8

    def test_additive_offset_leaves_stresses_bitwise_unchanged(self):
        params = self.base_params(TWO_PHASE, seeds=[0, 1], epsilons=[0.25])
        plain = run_averaging_experiment(ExperimentSpec(kind="averaging",
                                                        params=params))
        params_off = dict(params)
        params_off["offset"] = [[0.0, 0.0, 0.0], [1.0, 1.0, -0.5]]
        moved = run_averaging_experiment(ExperimentSpec(kind="averaging",
                                                        params=params_off))
        assert plain.rows == moved.rows

    def test_two_phase_discrepancy_decreases(self):
        spec = ExperimentSpec(kind="averaging", params=dict(
            self.base_params(TWO_PHASE, seeds=list(range(4)),
                             epsilons=[0.25, 0.125]),
            rve={"N": 8, "r": 1, "M": 16, "base_seed": 900}))
        table = run_averaging_experiment(spec)
        d = table.meta["D_mean"]
        assert d[0.25] > d[0.125]

    def test_rows_carry_scale_and_tolerance_metadata(self):
        spec = ExperimentSpec(kind="averaging", params=self.base_params(
            CONSTANT, seeds=[3], epsilons=[0.25]))
        table = run_averaging_experiment(spec)
        cols = table.columns
        for needed in ("epsilon", "seed", "delta", "h"):
            assert needed in cols


class TestDispatchAndSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(kind="percolation")


class TestReporting:
    def test_empty_table_is_header_only(self, tmp_path):
        table = ReportTable(columns=["a", "b"])
        path = tmp_path / "empty.csv"
        emit_report(table, path)
        assert path.read_bytes() == b"a,b\r\n"

    def test_row_count(self, tmp_path):
        table = ReportTable(columns=["x", "y"])
        for i in range(3):
            table.append(i, i * 0.5)
        path = tmp_path / "three.csv"
        emit_report(table, path)
        lines = path.read_bytes().strip().split(b"\r\n")
        assert len(lines) == 4

    def test_reruns_are_byte_identical(self, tmp_path):
        def build():
            t = ReportTable(columns=["x", "value", "label"])
            t.append(1, 0.1 + 0.2, "a,b")  # comma forces quoting
            t.append(2, -1.5e-17, "plain")
            return t

        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(build(), p1)
        emit_report(build(), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert '"a,b"' in p1.read_text()

    def test_svg_emission_deterministic(self, tmp_path):
        table = ReportTable(columns=["t", "y", "series"])
        for s in ("one", "two"):
            for i in range(4):
                table.append(i * 0.25, (i * 0.25) ** 2 + (s == "two"), s)
        svg1, svg2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        emit_report(table, tmp_path / "d1.csv", svg_path=svg1, x="t", y="y",
                    series_by="series")
        emit_report(table, tmp_path / "d2.csv", svg_path=svg2, x="t", y="y",
                    series_by="series")
        assert svg1.read_bytes() == svg2.read_bytes()
        assert svg1.read_text().startswith("<svg")

    def test_bad_row_width_rejected(self):
        table = ReportTable(columns=["a"])
        with pytest.raises(ConfigurationError):
            table.append(1, 2)

    def test_unwritable_path_reports_location(self, tmp_path):
        table = ReportTable(columns=["a"])
        bad = tmp_path / "missing_dir" / "out.csv"
        with pytest.raises(OSError) as err:
            emit_report(table, bad)
        assert "out.csv" in str(err.value)
