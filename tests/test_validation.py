"""Tests for the shared argument-validation helpers."""

import math

import pytest

from repro._validation import (
    require_finite,
    require_in_range,
    require_nonnegative,
    require_positive,
    require_type,
)


class TestRequirePositive:
    def test_passes_through(self):
        assert require_positive("x", 2.5) == 2.5

    @pytest.mark.parametrize("bad", [0, -1, -0.001])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive("x", bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            require_positive("x", bad)


class TestRequireNonnegative:
    def test_zero_ok(self):
        assert require_nonnegative("x", 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            require_nonnegative("x", -1e-9)


class TestRequireFinite:
    def test_int_and_float_ok(self):
        assert require_finite("x", 3) == 3
        assert require_finite("x", -2.5) == -2.5

    def test_bool_rejected(self):
        with pytest.raises(TypeError, match="real number"):
            require_finite("x", True)

    def test_int_past_the_float_range_rejected(self):
        assert require_finite("x", 2**1023) == 2**1023
        with pytest.raises(ValueError) as info:
            require_finite("x", 10**400)
        assert str(info.value) == (
            "x must be finite, got an integer too large for a float (1329 bits)"
        )

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            require_finite("x", "1.0")

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            require_finite("x", math.nan)


class TestRequireInRange:
    def test_inclusive(self):
        assert require_in_range("x", 1.0, 1.0, 2.0) == 1.0

    def test_exclusive(self):
        with pytest.raises(ValueError):
            require_in_range("x", 1.0, 1.0, 2.0, inclusive=False)
        assert require_in_range("x", 1.5, 1.0, 2.0, inclusive=False) == 1.5

    def test_outside(self):
        with pytest.raises(ValueError, match=r"\[1.0, 2.0\]"):
            require_in_range("x", 3.0, 1.0, 2.0)


class TestRequireType:
    def test_ok(self):
        assert require_type("x", [1], list) == [1]

    def test_wrong_type(self):
        with pytest.raises(TypeError, match="must be a list"):
            require_type("x", (1,), list)
