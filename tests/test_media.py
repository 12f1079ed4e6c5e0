import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from plasthom import media
from plasthom.errors import ConfigurationError
from plasthom.media import (
    Distribution,
    PeriodizedMedium,
    ProbabilityLaw,
    ergodic_average,
    sample_realization,
    sample_shifts,
    shifted,
)

from helpers import cellwise_ergodic_average


def two_point_law(p_high=None):
    weights = None if p_high is None else [1 - p_high, p_high]
    return ProbabilityLaw(
        E=Distribution.discrete([1.0, 2.0], weights),
        nu=Distribution.point(0.3),
        sigma_y=Distribution.point(0.5),
    )


class TestDistributions:
    def test_point_mass(self):
        d = Distribution.point(3.0)
        assert np.all(d.sample(np.array([0.0, 0.3, 0.999])) == 3.0)
        assert d.mean() == 3.0

    def test_uniform_interval(self):
        d = Distribution.uniform(1.0, 3.0)
        u = np.linspace(0, 1, 11)[:-1]
        vals = d.sample(u)
        assert vals.min() >= 1.0 and vals.max() < 3.0
        assert d.mean() == 2.0

    def test_discrete_weights(self):
        d = Distribution.discrete([1.0, 2.0], [3.0, 1.0])
        vals = d.sample(np.array([0.1, 0.5, 0.74, 0.76, 0.99]))
        assert list(vals) == [1.0, 1.0, 1.0, 2.0, 2.0]
        assert d.mean() == pytest.approx(1.25)

    def test_from_config_forms(self):
        assert Distribution.from_config({"point": 2.0}).kind == "point"
        assert Distribution.from_config(2.0).kind == "point"
        assert Distribution.from_config({"uniform": [0.0, 1.0]}).kind == "uniform"
        got = Distribution.from_config({"discrete": {"values": [1, 2], "weights": [1, 1]}})
        assert got.kind == "discrete"
        with pytest.raises(ConfigurationError):
            Distribution.from_config({"gauss": [0, 1]})

    def test_empty_support_rejected(self):
        with pytest.raises(ConfigurationError):
            Distribution.discrete([])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(weights=st.one_of(
               st.sampled_from([[1 / 3] * 3, [0.1] * 10]),
               st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1 / 3, 0.5, 1.0, 7.0]),
                        min_size=1, max_size=12).filter(any)),
           extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=16))
    def test_discrete_sample_equals_the_searchsorted_rule(self, weights, extra):
        """Counting the edges a draw reaches picks the same value as the
        capped searchsorted rule, bit for bit, at and around every edge and
        when the cumulative weights end below 1."""
        d = Distribution.discrete(1.5 * np.arange(len(weights)) - 2.0, weights)
        values, w = np.array(d.params[0]), d.params[1]
        edges = np.cumsum(w)
        u = np.concatenate([[0.0, 1.0 - 2.0**-53], edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, 1.0), extra])
        old = values[np.minimum(np.searchsorted(edges, u, "right"), len(values) - 1)]
        assert np.array_equal(d.sample(u), old)
        assert np.array_equal(d.sample(u.reshape(1, -1)), old.reshape(1, -1))


class TestLawValidation:
    def test_rejects_bad_parameter_ranges(self):
        with pytest.raises(ConfigurationError):
            ProbabilityLaw(Distribution.point(-1.0), Distribution.point(0.3),
                           Distribution.point(1.0))
        with pytest.raises(ConfigurationError):
            ProbabilityLaw(Distribution.point(1.0), Distribution.uniform(0.0, 0.6),
                           Distribution.point(1.0))
        with pytest.raises(ConfigurationError):
            ProbabilityLaw(Distribution.point(1.0), Distribution.point(0.3),
                           Distribution.point(0.0))

    def test_ellipticity_window_positive(self):
        law = ProbabilityLaw(Distribution.uniform(1.0, 4.0), Distribution.point(0.3),
                             Distribution.point(1.0))
        assert 0.0 < law.gamma <= 1.0
        assert 0.0 < law.beta <= 1.0

    def test_from_config_missing_key(self):
        with pytest.raises(ConfigurationError):
            ProbabilityLaw.from_config({"E": {"point": 1.0}, "nu": {"point": 0.3}})


# JSON scalars: half are values that every parameter admits, so that a spec
# with one bad leaf is often otherwise valid; the rest are numbers of every
# kind, NaN and +-inf included, and the non-numbers a config file can hold
ANY_LEAF = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(),
                     st.text(max_size=3))
JSON_LEAVES = st.one_of(st.sampled_from([0.3, 1, 2.0]), ANY_LEAF)
LEAF_LISTS = st.lists(JSON_LEAVES, max_size=3)
SPECS = st.one_of(
    JSON_LEAVES,
    st.builds(lambda v: {"point": v}, JSON_LEAVES),
    st.builds(lambda lo, hi: {"uniform": [lo, hi]}, JSON_LEAVES, JSON_LEAVES),
    st.builds(lambda v: {"discrete": {"values": v}}, LEAF_LISTS),
    st.builds(lambda v, w: {"discrete": {"values": v, "weights": w}}, LEAF_LISTS, LEAF_LISTS),
)


def _leaves(spec):
    if isinstance(spec, dict):
        return [leaf for value in spec.values() for leaf in _leaves(value)]
    if isinstance(spec, list):
        return [leaf for item in spec for leaf in _leaves(item)]
    return [spec]


def _finite_number(leaf):
    return isinstance(leaf, int) and not isinstance(leaf, bool) \
        or isinstance(leaf, float) and np.isfinite(leaf)


class TestLawSpecProperty:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.fixed_dictionaries({"E": SPECS, "nu": SPECS, "sigma_y": SPECS},
                                 optional={"H": SPECS}))
    def test_law_is_rejected_or_valid_on_every_cell(self, cfg):
        """A law spec is rejected or yields finite, admissible cell parameters;
        a spec with a leaf that is not a finite number is always rejected."""
        try:
            law = ProbabilityLaw.from_config(cfg)
        except ConfigurationError:
            return
        assert all(_finite_number(leaf) for leaf in _leaves(cfg)), cfg
        params = law.cell_parameters(7, (np.arange(16)[:, None], np.arange(16)[None, :]))
        assert all(np.all(np.isfinite(v)) for v in params.values()), cfg
        assert np.all(params["E"] > 0) and np.all(params["sigma_y"] > 0), cfg
        assert np.all(params["H"] > 0), cfg
        assert np.all((-1.0 < params["nu"]) & (params["nu"] < 0.5)), cfg


class TestRealizations:
    def test_point_mass_law_is_spatially_constant(self):
        law = ProbabilityLaw.constant(2.0, 0.25, 0.7, 1.1)
        rng = np.random.default_rng(20)
        for seed in (0, 1, 99):
            omega = sample_realization(law, seed)
            params = omega.parameters_at(rng.uniform(-50, 50, size=(10, 2)), eps=0.37)
            for key, value in (("E", 2.0), ("nu", 0.25), ("sigma_y", 0.7)):
                assert np.all(params[key] == value)

    def test_same_seed_is_bit_identical(self):
        law = two_point_law()
        rng = np.random.default_rng(21)
        points = rng.uniform(-100, 100, size=(200, 2))
        a = sample_realization(law, 1234).parameters_at(points, 0.5)
        b = sample_realization(law, 1234).parameters_at(points, 0.5)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_distinct_seeds_differ(self):
        law = two_point_law()
        points = np.random.default_rng(22).uniform(-20, 20, size=(500, 2))
        a = sample_realization(law, 0).parameters_at(points)
        b = sample_realization(law, 1).parameters_at(points)
        assert np.any(a["E"] != b["E"])

    def test_shift_uniformity_kolmogorov_smirnov(self):
        shifts = sample_shifts(np.arange(10_000))
        critical_1pct = 1.6276 / np.sqrt(shifts.shape[0])
        for axis in range(2):
            stat = stats.kstest(shifts[:, axis], "uniform").statistic
            assert stat < critical_1pct

    def test_shift_group_consistency(self):
        law = two_point_law()
        omega = sample_realization(law, 5)
        rng = np.random.default_rng(23)
        for _ in range(1000):
            x = rng.uniform(-10, 10, size=2)
            y = rng.uniform(-10, 10, size=2)
            lhs = shifted(omega, y).parameters_at(x)
            rhs = omega.parameters_at(x + y)
            assert lhs["E"] == rhs["E"] and lhs["sigma_y"] == rhs["sigma_y"]

    def test_shift_by_zero_is_identity(self):
        law = two_point_law()
        omega = sample_realization(law, 7)
        moved = shifted(omega, np.zeros(2))
        pts = np.random.default_rng(24).uniform(-5, 5, size=(100, 2))
        assert np.array_equal(omega.parameters_at(pts)["E"],
                              moved.parameters_at(pts)["E"])

    def test_shift_composition_adds(self):
        law = two_point_law()
        omega = sample_realization(law, 8)
        a, b = np.array([0.7, -1.2]), np.array([2.3, 0.4])
        once = shifted(omega, a + b)
        twice = shifted(shifted(omega, a), b)
        pts = np.random.default_rng(25).uniform(-8, 8, size=(1000, 2))
        assert np.array_equal(once.parameters_at(pts)["E"],
                              twice.parameters_at(pts)["E"])

    def test_integer_shift_permutes_cells(self):
        law = two_point_law()
        omega = sample_realization(law, 9, zero_shift=True)
        moved = shifted(omega, np.array([1.0, 0.0]))
        pts = np.random.default_rng(26).uniform(-5, 5, size=(50, 2))
        assert np.array_equal(moved.parameters_at(pts)["E"],
                              omega.parameters_at(pts + [1.0, 0.0])["E"])

    def test_two_point_frequency(self):
        law = two_point_law()
        params = law.cell_parameters(31, (np.arange(100)[:, None], np.arange(100)[None, :]))
        freq = np.mean(params["E"] == 2.0)
        assert 0.48 <= freq <= 0.52

    def test_rescaling_matches_unit_scale(self):
        # powers of two make x*eps/eps exact, so fields agree bitwise
        law = two_point_law()
        omega = sample_realization(law, 11)
        eps = 0.25
        pts = np.random.default_rng(27).uniform(-4, 4, size=(500, 2))
        a = omega.parameters_at(pts * eps, eps)
        b = omega.parameters_at(pts, 1.0)
        assert np.array_equal(a["E"], b["E"])

    def test_eps_must_be_positive(self):
        omega = sample_realization(two_point_law(), 0)
        with pytest.raises(ConfigurationError):
            omega.parameters_at(np.zeros((1, 2)), eps=0.0)

    def test_eps_too_small_for_int64_cell_indices(self):
        # x / eps = 1e300 has no int64 cell; the cast used to clamp every
        # point into one cell and run a homogeneous medium
        omega = sample_realization(two_point_law(), 0)
        with pytest.raises(ConfigurationError, match="int64"):
            omega.parameters_at(np.array([[0.5, 0.5]]), eps=1e-300)

    def test_points_must_be_planar(self):
        omega = sample_realization(two_point_law(), 0)
        with pytest.raises(ConfigurationError, match="3 coordinates"):
            omega.parameters_at(np.zeros((4, 3)))


class TestErgodicAverage:
    def test_point_mass_law_is_exact(self):
        law = ProbabilityLaw.constant(2.0, 0.25, 0.7)
        for L in (1, 4, 16):
            avg = ergodic_average([sample_realization(law, 3)], lambda params: params["E"], L)
            assert avg.shape == (1,)
            assert avg[0] == pytest.approx(2.0, abs=1e-12)

    def test_binomial_concentration(self):
        # 3-sigma window of the cell-mean in at least 99 of 100 seeds
        law = two_point_law()
        L = 32
        bound = 3.0 * 0.5 / np.sqrt((2 * L) ** 2)
        avgs = ergodic_average([sample_realization(law, seed) for seed in range(100)],
                               lambda params: params["E"], L)
        assert np.sum(np.abs(avgs - 1.5) <= bound) >= 99

    def test_error_decay_rate(self):
        law = two_point_law()
        omegas = [sample_realization(law, 500 + s) for s in range(40)]
        errors = [np.mean(np.abs(ergodic_average(omegas, lambda params: params["E"], L) - 1.5))
                  for L in (8, 16, 32)]
        # each doubling should divide the error by about 2^(d/2) = 2
        for coarse, fine in zip(errors[:-1], errors[1:]):
            assert 1.0 < coarse / fine < 4.0

    def test_weights_cover_box_exactly(self):
        # averaging the constant 1 gives exactly 1 regardless of the shift
        law = two_point_law()
        avgs = ergodic_average([sample_realization(law, seed) for seed in range(5)],
                               lambda params: 1.0, 3)
        assert avgs == pytest.approx(np.ones(5), abs=1e-13)

    def test_small_box_rejected(self):
        with pytest.raises(ConfigurationError):
            ergodic_average([sample_realization(two_point_law(), 0)],
                            lambda params: 1.0, 0.5)

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one realization"):
            ergodic_average([], lambda params: 1.0, 4)

    def test_mixed_laws_rejected(self):
        omegas = [sample_realization(two_point_law(), 0),
                  sample_realization(two_point_law(0.25), 1)]
        with pytest.raises(ConfigurationError, match="one law"):
            ergodic_average(omegas, lambda params: params["E"], 4)


# no point marginal, so every statistic is read from hashed cell draws
HASHED_LAW = ProbabilityLaw(
    E=Distribution.uniform(1.0, 3.0),
    nu=Distribution.discrete([0.1, 0.25, 0.4], [1.0, 2.0, 1.0]),
    sigma_y=Distribution.uniform(0.2, 0.6),
    hardening=Distribution.discrete([0.5, 2.0]),
)


class TestGridEvaluation:
    """A box is hashed as a row x column grid; it must name the same cells,
    in row-major order, as the (n, 2) cell list it replaced."""

    @pytest.mark.parametrize("L", [1, 2.5, 7])
    @pytest.mark.parametrize("statistic", ["E", "nu", "sigma_y", "H", "scalar"])
    def test_ergodic_average_matches_the_cellwise_sum(self, L, statistic):
        if statistic == "scalar":
            def g(params):
                return 0.75
        else:
            def g(params):
                return params[statistic]
        # the offset of the last realization is an integer, so its box cuts
        # 2L cells per axis where the others cut 2L + 1: two shapes, one batch
        omegas = [shifted(sample_realization(HASHED_LAW, seed), np.array(y))
                  for seed in (0, 5, 2**40 + 3)
                  for y in ([0.0, 0.0], [0.37, -1.91], [-3.5, 12.25])]
        omegas.append(shifted(omegas[0], omegas[0].shift))
        averages = ergodic_average(omegas, g, L)
        assert averages.shape == (len(omegas),)
        for omega, average in zip(omegas, averages):
            assert average == cellwise_ergodic_average(omega, g, L)

    @pytest.mark.parametrize("L, n_boxes", [(16, 20), (64, 5)])
    def test_boxes_spread_over_several_batches(self, L, n_boxes):
        """More cells than media._BATCH_CELLS are hashed in several batches:
        at L = 16 two batches of several boxes, at L = 64 one box per batch."""
        def g(params):
            return params["E"] * params["H"]
        assert n_boxes * (2 * L + 1) ** 2 > media._BATCH_CELLS
        omegas = [sample_realization(HASHED_LAW, seed) for seed in range(20, 20 + n_boxes)]
        averages = ergodic_average(omegas, g, L)
        for omega, average in zip(omegas, averages):
            assert average == cellwise_ergodic_average(omega, g, L)

    def test_seed_array_stacks_the_grids_of_single_seeds(self):
        rows = np.array([[-4, 0, 9], [2, 3, 4]])
        cols = np.array([[1, 7], [-2**62, 5]])
        stacked = HASHED_LAW.cell_parameters(np.array([3, 2**50]),
                                             (rows[:, :, None], cols[:, None, :]))
        for key, values in stacked.items():
            singles = [HASHED_LAW.cell_parameters(seed, (r[:, None], c[None, :]))[key]
                       for seed, r, c in zip((3, 2**50), rows, cols)]
            assert np.array_equal(values, np.concatenate(singles))

    @pytest.mark.parametrize("law", [HASHED_LAW, two_point_law()], ids=["hashed", "two-point"])
    def test_grid_equals_the_same_cells_as_points(self, law):
        rows = np.array([-2**62, -7, -1, 0, 1, 40, 2**62])
        cols = np.array([-3, 0, 2, 9, 2**63 - 1])
        grid = law.cell_parameters(11, (rows[:, None], cols[None, :]))
        row_of, col_of = np.meshgrid(rows, cols, indexing="ij")
        points = law.cell_parameters(11, (row_of.ravel(), col_of.ravel()))
        for key, values in points.items():
            assert grid[key].shape == values.shape == (rows.size * cols.size,)
            assert np.array_equal(grid[key], values)


class TestMeasurePreservationProxy:
    def test_shifted_statistics_match(self):
        # empirical distributions before and after a shift agree across seeds;
        # one probe per seed keeps the samples independent
        law = ProbabilityLaw(
            E=Distribution.uniform(1.0, 2.0),
            nu=Distribution.point(0.3),
            sigma_y=Distribution.point(0.5),
        )
        y = np.array([0.37, -1.91])
        probes = np.random.default_rng(28).uniform(-3, 3, size=(2000, 2))
        plain, moved = [], []
        for seed, probe in enumerate(probes):
            omega = sample_realization(law, seed)
            plain.append(omega.parameters_at(probe[None, :])["E"][0])
            moved.append(shifted(omega, y).parameters_at(probe[None, :])["E"][0])
        assert stats.ks_2samp(plain, moved).pvalue > 0.01


class TestPeriodizedMedium:
    def test_wraps_cells(self):
        law = two_point_law()
        med = PeriodizedMedium(law, 3, n_cells=4)
        a = med.parameters_at(np.array([[0.5, 0.5]]))["E"]
        b = med.parameters_at(np.array([[4.5, 8.5]]))["E"]
        assert a == b

    def test_points_must_be_planar(self):
        # hashing 3-column cell indices would give plausible values
        med = PeriodizedMedium(two_point_law(), 0, n_cells=2)
        with pytest.raises(ConfigurationError, match="3 coordinates"):
            med.parameters_at(np.zeros((4, 3)))

    def test_needs_positive_block(self):
        with pytest.raises(ConfigurationError):
            PeriodizedMedium(two_point_law(), 0, n_cells=0)
