import numpy as np
import pytest
from scipy.optimize import minimize

from plasthom.errors import ConfigurationError
from plasthom.flowrules import NORM_TYPE, VON_MISES, FlowRule, RegularizedFlow, fenchel_gap

from helpers import dev2


def random_mandel(rng, n=1, scale=1.0):
    return scale * rng.standard_normal((n, 3))


def envelope_infimum_oracle(rule, delta, sigma):
    """Numeric infimum over the envelope's defining minimization."""
    sigma = np.asarray(sigma, dtype=float)
    if rule.kind == VON_MISES:
        # constrained quadratic program over the yield set
        cons = [{"type": "ineq",
                 "fun": lambda x: rule.yield_stress - np.linalg.norm(dev2(x))}]
        res = minimize(lambda x: np.sum((x - sigma) ** 2) / (2 * delta),
                       x0=rule.project(sigma), constraints=cons, tol=1e-12)
        return res.fun
    # nonsmooth but convex: Powell handles the kink
    res = minimize(lambda x: rule.yield_stress * np.linalg.norm(dev2(x))
                   + np.sum((x - sigma) ** 2) / (2 * delta),
                   x0=sigma, method="Powell",
                   options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 10000})
    return res.fun


class TestProjection:
    def setup_method(self):
        self.rule = FlowRule(VON_MISES, 1.0)

    def test_interior_point_unchanged(self):
        s = np.array([0.3, 0.3, 0.5])  # |dev| = 0.5 sigma_y
        assert np.linalg.norm(dev2(s)) == pytest.approx(0.5, abs=1e-12)
        assert np.array_equal(self.rule.project(s), s)

    def test_radial_scaling_of_deviatoric_point(self):
        s = np.array([1.0, -1.0, np.sqrt(2.0)])  # |s| = 2 = 2 sigma_y, deviatoric
        proj = self.rule.project(s)
        assert np.allclose(proj, s / 2.0)

    def test_projection_beats_sampled_yield_points(self):
        # optimality against a dense random sample of the feasible set
        rng = np.random.default_rng(8)
        s = np.array([0.7, -0.2, 1.9])
        proj = self.rule.project(s)
        best = np.linalg.norm(s - proj)
        for _ in range(20000):
            direction = rng.standard_normal(3)
            direction = dev2(direction)
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(0, 1.0)
            hydro = rng.normal(scale=2.0)
            candidate = radius * direction + np.array([hydro, hydro, 0.0])
            assert np.linalg.norm(s - candidate) >= best - 1e-9

    def test_hydrostatic_point_unchanged(self):
        s = np.array([3.0, 3.0, 0.0])
        assert np.array_equal(self.rule.project(s), s)

    def test_norm_rule_has_no_projection(self):
        with pytest.raises(ConfigurationError):
            FlowRule(NORM_TYPE, 1.0).project(np.zeros(3))


class TestEnvelopeValue:
    def test_zero_at_origin(self):
        for kind in (VON_MISES, NORM_TYPE):
            rf = FlowRule(kind, 1.0).regularized(0.05)
            assert rf.value(np.zeros(3)) == 0.0

    def test_quadratic_outside_yield_surface(self):
        delta = 0.05
        rf = FlowRule(VON_MISES, 1.0).regularized(delta)
        s = (1.0 + delta) / np.sqrt(2.0) * np.array([1.0, -1.0, 0.0])
        assert rf.value(s) == pytest.approx(delta / 2.0, rel=1e-12)

    @pytest.mark.parametrize("kind", [VON_MISES, NORM_TYPE])
    def test_matches_numeric_infimum(self, kind):
        rng = np.random.default_rng(9)
        rule = FlowRule(kind, 0.8)
        delta = 0.07
        rf = rule.regularized(delta)
        for _ in range(12):
            s = random_mandel(rng, scale=1.5)[0]
            oracle = envelope_infimum_oracle(rule, delta, s)
            assert rf.value(s) == pytest.approx(oracle, rel=2e-5, abs=2e-7)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(10)
        rule = FlowRule(VON_MISES, 1.0)
        sigmas = random_mandel(rng, n=100, scale=2.0)
        v_coarse = rule.regularized(0.1).value(sigmas)
        v_fine = rule.regularized(0.01).value(sigmas)
        assert np.all(v_fine >= v_coarse - 1e-15)


class TestEnvelopeGradient:
    def test_zero_at_origin(self):
        rf = FlowRule(VON_MISES, 1.0).regularized(0.05)
        assert np.linalg.norm(rf.gradient(np.zeros(3))) == 0.0

    def test_radial_formula_outside(self):
        delta, r = 0.02, 0.3
        rf = FlowRule(VON_MISES, 1.0).regularized(delta)
        direction = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        s = (1.0 + r) * direction
        assert np.allclose(rf.gradient(s), (r / delta) * direction, rtol=1e-12)

    def test_interior_gradient_vanishes(self):
        rf = FlowRule(VON_MISES, 1.0).regularized(0.05)
        s = np.array([0.2, 0.1, 0.3])
        assert np.linalg.norm(dev2(s)) < 1.0
        assert np.linalg.norm(rf.gradient(s)) == 0.0

    @pytest.mark.parametrize("kind", [VON_MISES, NORM_TYPE])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        rf = FlowRule(kind, 0.9).regularized(0.03)
        step = 1e-6
        checked = 0
        for _ in range(1000):
            s = random_mandel(rng, scale=2.0)[0]
            grad = rf.gradient(s)
            fd = np.empty(3)
            for c in range(3):
                dx = np.zeros(3)
                dx[c] = step
                fd[c] = (rf.value(s + dx) - rf.value(s - dx)) / (2 * step)
            scale = max(np.linalg.norm(grad), 1e-3)
            assert np.abs(fd - grad).max() <= 1e-5 * scale + 1e-8
            checked += 1
        assert checked == 1000

    def test_gradient_is_deviatoric(self):
        rng = np.random.default_rng(12)
        rf = FlowRule(VON_MISES, 0.5).regularized(0.01)
        g = rf.gradient(random_mandel(rng, n=200, scale=3.0))
        assert np.abs(g[:, 0] + g[:, 1]).max() <= 1e-12

    def test_monotonicity(self):
        rng = np.random.default_rng(13)
        rf = FlowRule(VON_MISES, 1.0).regularized(0.02)
        a = random_mandel(rng, n=10000, scale=3.0)
        b = random_mandel(rng, n=10000, scale=3.0)
        slack = np.einsum("ij,ij->i", a - b, rf.gradient(a) - rf.gradient(b))
        assert slack.min() >= -1e-12

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(14)
        delta = 0.04
        rf = FlowRule(VON_MISES, 1.0).regularized(delta)
        a = random_mandel(rng, n=5000, scale=3.0)
        b = random_mandel(rng, n=5000, scale=3.0)
        num = np.linalg.norm(rf.gradient(a) - rf.gradient(b), axis=1)
        den = np.linalg.norm(a - b, axis=1)
        assert np.all(num <= (1.0 + 1e-10) / delta * den)


class TestProx:
    @pytest.mark.parametrize("kind", [VON_MISES, NORM_TYPE])
    def test_moreau_identity(self, kind):
        """The envelope is attained at its minimizer q = s - delta * gradient(s):
        it equals Psi(q) + |s - q|^2 / (2 delta)."""
        rng = np.random.default_rng(15)
        delta = 0.03
        rule = FlowRule(kind, 0.9)
        reg = rule.regularized(delta)
        s = random_mandel(rng, n=10000, scale=2.0)
        q = s - delta * reg.gradient(s)
        attained = rule.value(q) + np.sum((s - q) ** 2, axis=-1) / (2 * delta)
        value = reg.value(s)
        assert np.all(np.abs(value - attained) <= 1e-14 * (1.0 + value))

    def test_von_mises_prox_is_projection(self):
        rng = np.random.default_rng(16)
        rule = FlowRule(VON_MISES, 0.9)
        s = random_mandel(rng, n=10000, scale=2.0)
        q = s - 0.03 * rule.regularized(0.03).gradient(s)
        assert np.abs(q - rule.project(s)).max() <= 1e-13


class TestConjugate:
    def test_zero_at_origin(self):
        for kind in (VON_MISES, NORM_TYPE):
            assert FlowRule(kind, 1.0).conjugate(np.zeros(3)) == 0.0

    def test_support_function_matches_pairing_oracle(self):
        # sup of <s, p> over a dense sample of the yield set
        rng = np.random.default_rng(15)
        rule = FlowRule(VON_MISES, 2.0)
        p = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)  # deviatoric, |p| = 1
        value = rule.conjugate(p)
        assert value == pytest.approx(2.0, rel=1e-12)
        best = -np.inf
        for _ in range(20000):
            direction = dev2(rng.standard_normal(3))
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(0, 2.0)
            hydro = rng.normal(scale=1.5)
            candidate = radius * direction + np.array([hydro, hydro, 0.0])
            best = max(best, float(candidate @ p))
        assert best <= value + 1e-9
        assert best >= value - 1e-2  # the sample comes close to the sup

    def test_nonzero_trace_gives_infinity(self):
        rule = FlowRule(VON_MISES, 1.0)
        p = np.array([0.5, 0.5, 0.0])  # trace 1
        assert rule.conjugate(p) == np.inf

    def test_norm_rule_dual_ball(self):
        rule = FlowRule(NORM_TYPE, 1.0)
        inside = 0.5 * np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        outside = 2.0 * np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        assert rule.conjugate(inside) == 0.0
        assert rule.conjugate(outside) == np.inf

    def test_nan_raises(self):
        rule = FlowRule(VON_MISES, 1.0)
        with pytest.raises(ConfigurationError):
            rule.conjugate(np.array([np.nan, 0.0, 0.0]))


class TestFenchelGap:
    def test_zero_pair(self):
        rf = FlowRule(VON_MISES, 1.0).regularized(0.05)
        assert fenchel_gap(rf, np.zeros(3), np.zeros(3)) == 0.0

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(16)
        rule = FlowRule(VON_MISES, 1.0)
        for _ in range(500):
            s = rule.project(random_mandel(rng, scale=2.0)[0])  # feasible
            p = dev2(random_mandel(rng, scale=2.0)[0])
            p -= np.array([p[0] + p[1], p[0] + p[1], 0.0]) / 2  # enforce trace 0
            assert fenchel_gap(rule, s, p) >= -1e-12

    def test_equality_at_gradient_pairs(self):
        rng = np.random.default_rng(17)
        rf = FlowRule(VON_MISES, 1.0).regularized(0.03)
        for _ in range(500):
            s = random_mandel(rng, scale=3.0)[0]
            p = rf.gradient(s)
            assert abs(fenchel_gap(rf, s, p)) <= 1e-10

    def test_envelope_conjugate_matches_numeric_sup(self):
        # maximize <s, p> - envelope(s) with a smooth unconstrained optimizer
        rng = np.random.default_rng(18)
        rf = FlowRule(VON_MISES, 1.0).regularized(0.08)
        for _ in range(8):
            p = dev2(rng.standard_normal(3))
            res = minimize(lambda s: -(s @ p) + rf.value(s),
                           x0=p, method="BFGS", options={"gtol": 1e-12})
            assert rf.conjugate(p) == pytest.approx(-res.fun, rel=1e-6, abs=1e-8)

    def test_infinity_propagates(self):
        rule = FlowRule(VON_MISES, 1.0)
        p_bad = np.array([1.0, 1.0, 0.0])
        assert fenchel_gap(rule, np.zeros(3), p_bad) == np.inf


class TestPointwiseConvergence:
    def test_envelope_converges_to_potential(self):
        rng = np.random.default_rng(19)
        for kind in (VON_MISES, NORM_TYPE):
            rule = FlowRule(kind, 0.1)
            values = random_mandel(rng, n=100, scale=0.5)
            if kind == VON_MISES:
                values = rule.project(values)  # finite potential only
            exact = rule.value(values)
            prev = None
            for delta in (1e-1, 1e-2, 1e-3, 1e-4):
                approx = rule.regularized(delta).value(values)
                assert np.all(approx <= exact + 1e-15)
                if prev is not None:
                    assert np.all(approx >= prev - 1e-15)
                prev = approx
            assert np.abs(prev - exact).max() <= 1e-6


class TestValidation:
    def test_rejects_bad_kind(self):
        with pytest.raises(ConfigurationError):
            FlowRule("plastic", 1.0)

    def test_rejects_nonpositive_yield(self):
        with pytest.raises(ConfigurationError):
            FlowRule(VON_MISES, 0.0)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ConfigurationError):
            RegularizedFlow(FlowRule(VON_MISES, 1.0), 0.0)

    def test_default_delta_scales_with_yield(self):
        rf = FlowRule(VON_MISES, 0.5).regularized()
        assert rf.delta == pytest.approx(0.005)
