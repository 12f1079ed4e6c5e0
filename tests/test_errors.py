"""The shared checkers of scalar inputs in ``plasthom.errors``."""

import numpy as np
import pytest

from plasthom.errors import (
    ConfigurationError,
    NumericalError,
    at_step,
    finite_number,
    positive_int,
    positive_number,
    valid_seed,
)


class TestCheckers:
    @pytest.mark.parametrize("check, value", [
        (finite_number, -2.5), (finite_number, np.float32(1.5)),
        (positive_number, 3), (positive_number, np.float64(0.25)),
        (positive_int, 7), (positive_int, np.int64(2)),
        (valid_seed, 0), (valid_seed, np.uint64(2**63 - 1)),
    ])
    def test_returns_value_unchanged(self, check, value):
        got = check(value, "x")
        assert got is value

    @pytest.mark.parametrize("check", [finite_number, positive_number, positive_int,
                                       valid_seed])
    @pytest.mark.parametrize("value", [True, "1", None, float("nan"), [1]])
    def test_rejects_non_numbers_with_the_name(self, check, value):
        with pytest.raises(ConfigurationError, match="the input"):
            check(value, "the input")

    def test_seed_range_is_int64(self):
        with pytest.raises(ConfigurationError):
            valid_seed(2**63, "seed")
        with pytest.raises(ConfigurationError):
            valid_seed(-1, "seed")


class TestAtStep:
    def test_gives_the_step_to_an_error_without_one(self):
        with pytest.raises(NumericalError) as err, at_step(4):
            raise NumericalError("failed", residual=1.0)
        assert (err.value.step, err.value.residual) == (4, 1.0)

    def test_keeps_the_step_an_error_names(self):
        with pytest.raises(NumericalError) as err, at_step(4), at_step(2):
            raise NumericalError("failed")
        assert err.value.step == 2
