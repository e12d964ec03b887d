import dataclasses
import math

import numpy as np
import pytest

from delaycontrol import coeffs as coeffs_module
from delaycontrol.core import ConfigurationError
from delaycontrol.coeffs import FAMILIES, make_coefficients
from oracles import check_derivative_consistency

FAMILY_SAMPLES = [
    ("constant", dict(b0=1.0, s0=-0.5, f0=2.0, phi0=3.0)),
    ("linear", dict(b0=0.1, bx=0.3, bx1=-0.2, bx2=0.5, bu=0.7, s0=0.2, sx=0.4,
                    sx1=0.1, sx2=-0.3, su=0.2, f0=1.0, fx=-1.0, fx1=0.5, fx2=0.2,
                    fy=-0.4, fz=0.6, fu=0.3, phi0=0.5, phix=1.5, phix1=-0.7)),
    ("bilinear", dict(bx=0.2, bxx1=0.9, bxx2=-0.4, sxx1=0.3, sxx2=0.5, clip=2.0,
                      fy=-0.2, phix=1.0)),
    ("linear_quadratic", dict(a=0.4, bu=0.6, b0=0.1, sigma0=0.25, q=0.5, r=0.5,
                              fy=-0.3, phi_quad=-0.4, phi_lin=0.2, phi0=0.1)),
]


@pytest.mark.parametrize("family,params", FAMILY_SAMPLES)
def test_derivatives_match_central_differences(family, params):
    coeffs = make_coefficients(family, lam=0.5, **params)
    assert check_derivative_consistency(coeffs, seed=1) <= 1e-6


def test_registry_names_complete():
    assert set(FAMILIES) == {"constant", "linear", "bilinear", "linear_quadratic"}


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError, match="unknown coefficient family"):
        make_coefficients("cubic")


def test_unknown_parameter_rejected():
    with pytest.raises(ConfigurationError, match="unknown parameters"):
        make_coefficients("constant", bx=1.0)


def test_vectorized_broadcasting():
    coeffs = make_coefficients("linear", lam=0.0, bx=2.0, bu=1.0)
    x = np.array([1.0, 2.0, 3.0])
    out = coeffs.b(0.0, x, 0.0, 0.0, 0.5)
    assert out == pytest.approx([2.5, 4.5, 6.5])
    assert np.shape(coeffs.sigma(0.0, x, 0.0, 0.0, 0.0)) == (3,)


def test_a_part_zeroes_cost_slots():
    coeffs = make_coefficients("linear", lam=0.0, f0=1.0, fx=2.0, fy=10.0, fz=-7.0)
    assert coeffs.a_part(0.0, 0.5, 0.0, 0.0, 0.0) == pytest.approx(2.0)


def test_bilinear_clamp_keeps_linear_growth():
    # the product terms saturate, so |b| grows at most linearly
    coeffs = make_coefficients("bilinear", lam=0.0, bxx1=1.0, clip=2.0)
    big = coeffs.b(0.0, 1e6, 1e6, 0.0, 0.0)
    assert abs(big) <= 2.0 * 2.0 + 1e-9


def test_bilinear_requires_positive_clip():
    with pytest.raises(ConfigurationError):
        make_coefficients("bilinear", clip=0.0)


def test_lq_shapes():
    coeffs = make_coefficients("linear_quadratic", lam=0.5, a=0.1, bu=0.5,
                               sigma0=0.2, q=0.15, r=1.0, phi_quad=-0.15)
    x = np.linspace(-1, 1, 5)
    assert coeffs.f(0.0, x, 0.0, 0.0, 0.0, 0.0, 0.5) == pytest.approx(
        -(0.15 * x ** 2 + 1.0 * 0.25))
    assert coeffs.phi_x(x, 0.0) == pytest.approx(-0.3 * x)
    assert np.all(coeffs.sigma(0.0, x, 0.0, 0.0, 0.0) == 0.2)


class TestRecordedConstants:
    def test_linear_slopes_are_recorded_as_their_values(self):
        coeffs = make_coefficients("linear", bx=0.3, sx2=-0.0, fy=-0.4)
        assert coeffs.constant("b_x") == 0.3 and coeffs.constant("f_y") == -0.4
        # stored as _fill pads it: -0.0 + 0.0 is +0.0
        c, padded = coeffs.constant("sigma_x2"), coeffs.sigma_x2(0.0, np.zeros(2), 0.0, 0.0, 0.0)
        assert c == 0.0 and math.copysign(1.0, c) == 1.0 and not np.signbit(padded).any()

    def test_infinite_slope_records_no_constant(self):
        coeffs = make_coefficients("linear", bx=float("inf"), sx=float("-inf"))
        assert coeffs.constant("b_x") is None and coeffs.constant("sigma_x") is None
        assert coeffs.constant("b_x1") == 0.0

    def test_state_dependent_and_replaced_slopes_are_evaluated(self):
        lq = make_coefficients("linear_quadratic", a=0.2, q=0.5, fy=-0.1)
        assert lq.constant("f_x") is None
        assert lq.constant("b_x") == 0.2 and lq.constant("f_y") == -0.1
        bil = make_coefficients("bilinear", bx=0.2, bxx1=0.5, fy=-0.1)
        assert bil.constant("b_x") is None and bil.constant("f_y") == -0.1
        # a replaced slot is evaluated, also by a callable that takes no weak reference
        swapped = dataclasses.replace(lq, b_x=lambda t, x, x1, x2, u: 0.2 + 0.0 * x,
                                      sigma_x=np.cos)
        assert swapped.constant("b_x") is None and swapped.constant("sigma_x") is None
        assert swapped.constant("b_x1") == 0.0

    def test_slope_reads_a_recorded_constant_without_evaluating(self, monkeypatch):
        coeffs = make_coefficients("linear", bx=0.3, fy=-0.4)

        def no_evaluation(*args):
            raise AssertionError("a recorded constant slope was evaluated")

        # every constant slope of the registry pads its number with _fill
        monkeypatch.setattr(coeffs_module, "_fill", no_evaluation)
        x = np.linspace(-1.0, 1.0, 5)
        assert coeffs.slope("b_x", 0.0, x, x, x, 0.0) == 0.3
        assert coeffs.slope("f_y", 0.0, x, x, x, x, x, 0.0) == -0.4
        with pytest.raises(AssertionError, match="was evaluated"):
            coeffs.b_x(0.0, x, x, x, 0.0)

    def test_slope_evaluates_state_dependent_and_replaced_slopes(self):
        rng = np.random.default_rng(5)
        t, x, x1, x2, u = rng.normal(size=(5, 8))
        bil = make_coefficients("bilinear", bx=0.2, bxx1=0.5, sxx2=-0.3)
        for slot in ("b_x", "b_x1", "sigma_x", "sigma_x2"):
            got = bil.slope(slot, t, x, x1, x2, u)
            assert np.array_equal(got, getattr(bil, slot)(t, x, x1, x2, u))
            assert np.ptp(got) > 0.0
        lin = make_coefficients("linear", bx=0.3)
        swapped = dataclasses.replace(lin, b_x=lambda t, x, x1, x2, u: 0.3 + x * x1)
        assert np.array_equal(swapped.slope("b_x", t, x, x1, x2, u), 0.3 + x * x1)
        assert swapped.slope("sigma_x", t, x, x1, x2, u) == 0.0
