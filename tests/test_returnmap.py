"""Property tests of the element return map (von Mises flow rule).

States are drawn per regime: the trial deviatoric stress magnitude is set
to a fixed fraction or multiple of the yield stress (below: elastic, above:
plastic), so finite differences never straddle the kink.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasthom.errors import ConfigurationError
from plasthom.returnmap import MaterialArrays, plastic_step
from plasthom.tensors import isotropic_stiffness, lame_parameters

from helpers import reference_pointwise_response

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
BELOW, ABOVE = (0.2, 0.8), (1.25, 4.0)   # trial magnitude / yield stress
REGIMES = {BELOW: "elastic", ABOVE: "plastic"}


@dataclass
class State:
    regime: str
    E: float
    nu: float
    sigma_y: float
    hardening: float
    delta: float
    dt: float
    xi: np.ndarray       # (1, 3) total strain
    p_old: np.ndarray    # (1, 3) previous plastic strain

    @property
    def mats(self):
        return MaterialArrays.from_parameters(self.E, self.nu, self.sigma_y, self.hardening)

    def step(self, xi):
        return plastic_step(xi, self.p_old, self.mats, self.dt, self.delta)

    def central_differences(self, h):
        fd = np.empty((3, 3))
        for j in range(3):
            e_j = np.zeros(3)
            e_j[j] = h
            fd[:, j] = (self.step(self.xi + e_j)[0] - self.step(self.xi - e_j)[0])[0] / (2 * h)
        return fd


def unit_deviator(angle):
    """Unit-norm deviatoric Mandel vector."""
    return np.array([np.cos(angle) / np.sqrt(2.0), -np.cos(angle) / np.sqrt(2.0),
                     np.sin(angle)])


@st.composite
def states(draw, p_old_max=0.5):
    """A single-element state whose trial magnitude lies inside one regime."""
    band = draw(st.sampled_from([BELOW, ABOVE]))
    E, nu = draw(st.floats(0.5, 5.0)), draw(st.floats(0.0, 0.45))
    sigma_y, hardening = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 2.0))
    delta, dt = draw(st.floats(1e-3, 1e-1)), draw(st.floats(0.01, 1.0))
    a_dev = E / (1.0 + nu)
    p_old = draw(st.floats(0.0, p_old_max)) * unit_deviator(draw(st.floats(0.0, 2 * np.pi)))
    # trial s = a_dev dev(xi) - (a_dev + H) p_old, placed inside the band
    s_trial = draw(st.floats(*band)) * sigma_y \
        * unit_deviator(draw(st.floats(0.0, 2 * np.pi)))
    dev_xi = (s_trial + (a_dev + hardening) * p_old) / a_dev
    sph_xi = draw(st.floats(-1.0, 1.0)) * np.array([1.0, 1.0, 0.0])
    return State(REGIMES[band], E, nu, sigma_y, hardening, delta, dt,
                 (dev_xi + sph_xi)[None, :], p_old[None, :])


@PROPERTY
@given(states())
# a purely hydrostatic strain from a zero plastic strain: zero trial stress
@example(State("elastic", 1.0, 0.3, 0.3, 1.0, 0.003, 0.25,
               np.array([[0.1, 0.1, 0.0]]), np.zeros((1, 3))))
def test_tangent_matches_central_differences(state):
    _, p_new, moduli = state.step(state.xi)
    assert np.array_equal(p_new, state.p_old) == (state.regime == "elastic")
    if state.regime == "elastic":
        assert np.array_equal(moduli, state.mats.stiffness_moduli())
    fd = state.central_differences(1e-4 * state.sigma_y / state.mats.a_dev[0])
    assert np.linalg.norm(moduli[0] - fd) <= 1e-6 * np.linalg.norm(moduli[0])


@PROPERTY
@given(states(p_old_max=0.0))
def test_one_step_matches_pointwise_reference(state):
    z, p_new, _ = state.step(state.xi)
    ref_z, ref_p = reference_pointwise_response(
        state.E, state.nu, state.sigma_y, state.hardening, state.delta,
        lambda t: state.xi[0], np.array([0.0, state.dt]), refine=1)
    assert np.abs(z[0] - ref_z[1]).max() <= 1e-12 * max(1.0, np.abs(ref_z[1]).max())
    assert np.abs(p_new[0] - ref_p[1]).max() <= 1e-12 * max(1.0, np.abs(ref_p[1]).max())


def test_mixed_batch_moduli_are_symmetric_and_per_element():
    """Elastic and flowing elements in one call, one of them at zero trial stress."""
    rng = np.random.default_rng(3)
    n = 12
    mats = MaterialArrays.from_parameters(rng.uniform(0.5, 5.0, n), rng.uniform(0.0, 0.45, n),
                                          0.3, rng.uniform(0.1, 2.0, n))
    angles = rng.uniform(0.0, 2 * np.pi, n)
    magnitude = np.where(np.arange(n) % 2 == 0, 0.5, 3.0) * 0.3   # elastic, flowing
    magnitude[0] = 0.0
    xi = np.stack([magnitude[e] / mats.a_dev[e] * unit_deviator(angles[e])
                   for e in range(n)]) + rng.uniform(-1.0, 1.0, (n, 1)) * [1.0, 1.0, 0.0]
    p_old = np.zeros((n, 3))
    _, p_new, moduli = plastic_step(xi, p_old, mats, 0.25, 0.003)
    assert np.array_equal(p_new[0], [0.0, 0.0, 0.0])
    assert np.array_equal((p_new != 0).any(axis=1), magnitude > 0.3)
    assert np.array_equal(moduli, np.swapaxes(moduli, 1, 2))
    for e in range(n):
        alone = plastic_step(xi[e:e + 1], p_old[e:e + 1], mats.take([e]), 0.25, 0.003)[2]
        assert np.array_equal(moduli[e], alone[0])


class TestMaterialArrays:
    def test_from_parameters(self):
        mats = MaterialArrays.from_parameters(2.0, 0.3, 0.5, 1.5)
        lam, mu = lame_parameters(2.0, 0.3)
        assert np.array_equal(mats.yield_stress, [0.5])
        assert np.array_equal(mats.hardening, [1.5])
        assert np.allclose(mats.a_vol, 2 * lam + 2 * mu, rtol=1e-15)
        assert np.allclose(mats.a_dev, 2 * mu, rtol=1e-15)
        assert np.allclose(mats.stiffness_moduli()[0], isotropic_stiffness(2.0, 0.3),
                           rtol=1e-15)

    def test_rejects_nonpositive_yield(self):
        with pytest.raises(ConfigurationError):
            MaterialArrays.from_parameters(1.0, 0.3, 0.0, 1.0)

    def test_rejects_nonpositive_hardening(self):
        with pytest.raises(ConfigurationError):
            MaterialArrays.from_parameters(1.0, 0.3, 1.0, -1.0)

    def test_rejects_nan_yield(self):
        with pytest.raises(ConfigurationError):
            MaterialArrays.from_parameters(1.0, 0.3, np.nan, 1.0)
