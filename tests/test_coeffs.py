import dataclasses
import functools
import math

import numpy as np
import pytest

from delaycontrol import coeffs as coeffs_module
from delaycontrol.core import (ConfigurationError, ControlDomain, HistoryPath, Instance,
                               LinearDriver, TimeGrid)
from delaycontrol.coeffs import FAMILIES, CoefficientSet, make_coefficients
from delaycontrol.connect import girsanov_reduce
from delaycontrol.hjb import HjbGrid, default_probe_set, solve_hjb
from oracles import bilinear_term_by_term, check_derivative_consistency

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


def test_bilinear_product_rule_matches_term_by_term_form():
    # one product rule gives b, sigma and their six slopes the bits of the
    # evaluators that wrote each term out, NaN rows and broadcasting included
    params = dict(FAMILY_SAMPLES[2][1], b0=0.1, bx1=-0.2, bx2=0.3, bu=0.7, s0=0.2,
                  sx=0.4, sx1=0.1, sx2=-0.3, su=0.2)
    c = make_coefficients("bilinear", lam=0.5, **params)
    want = bilinear_term_by_term(coeffs_module._DEFAULTS | params)
    pts = np.random.default_rng(4).normal(0.0, 3.0, size=(64, 5))
    pts[[3, 17]] = np.nan
    pts[29, 2] = pts[40, 4] = np.nan
    t, x, x1, x2, u = pts.T
    for args in ((t, x, x1, x2, u), (t[:8, None], x[:8, None], x1[:8, None], x2[:8, None],
                                     u[None, 8:13])):
        for slot, fn in want.items():
            got, ref = getattr(c, slot)(*args), fn(*args)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), slot


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


SLOPES = ("b_x", "b_x1", "b_x2", "sigma_x", "sigma_x1", "sigma_x2",
          "f_x", "f_x1", "f_x2", "f_y", "f_z", "phi_x", "phi_x1")
# the slopes of FAMILY_SAMPLES that depend on the state, per family
EVALUATED = {"constant": (), "linear": (), "bilinear": SLOPES[:6],
             "linear_quadratic": ("f_x", "phi_x")}


def slope_reads(coeffs, n):
    """(slot, arguments) of each slope of ``coeffs`` at n random points."""
    t, x, x1, x2, y, z, u = np.random.default_rng(11).normal(size=(7, n))
    for slot in SLOPES:
        yield slot, ((x, x1) if slot.startswith("phi") else
                     (t, x, x1, x2, y, z, u) if slot.startswith("f") else (t, x, x1, x2, u))


class TestRecordedConstants:
    def test_linear_slopes_are_recorded_as_their_values(self):
        coeffs = make_coefficients("linear", bx=0.3, sx2=-0.0, fy=-0.4)
        assert coeffs.b_x == 0.3 and coeffs.f_y == -0.4
        # stored as _fill pads it: -0.0 + 0.0 is +0.0
        c, read = coeffs.sigma_x2, coeffs.slope("sigma_x2", 0.0, np.zeros(2), 0.0, 0.0, 0.0)
        assert c == 0.0 and math.copysign(1.0, c) == 1.0 and not np.signbit(read).any()

    @pytest.mark.parametrize("family,lam,params,bad", [
        ("linear", 0.0, dict(bx=float("inf"), sx=float("-inf"), fy=0.3), ["bx", "sx"]),
        ("linear_quadratic", float("nan"), dict(a=0.2, q=float("nan")), ["lam", "q"]),
        ("bilinear", float("inf"), dict(clip=3.0), ["lam"]),
        ("constant", 0.5, dict(b0=float("nan")), ["b0"]),
    ])
    def test_non_finite_values_are_refused(self, family, lam, params, bad):
        # every registry slope is then a finite number or an evaluator
        with pytest.raises(ConfigurationError) as err:
            make_coefficients(family, lam=lam, **params)
        assert str(err.value) == f"non-finite values for family {family!r}: {bad}"

    def test_state_dependent_and_replaced_slopes_are_evaluated(self):
        lq = make_coefficients("linear_quadratic", a=0.2, q=0.5, fy=-0.1)
        assert callable(lq.f_x)
        assert lq.b_x == 0.2 and lq.f_y == -0.1
        bil = make_coefficients("bilinear", bx=0.2, bxx1=0.5, fy=-0.1)
        assert all(callable(getattr(bil, s)) for s in ("b_x", "b_x1", "b_x2", "sigma_x",
                                                        "sigma_x1", "sigma_x2"))
        assert bil.f_y == -0.1
        # a replaced slot is evaluated, also by a callable that takes no weak reference
        swapped = dataclasses.replace(lq, b_x=lambda t, x, x1, x2, u: 0.2 + 0.0 * x,
                                      sigma_x=np.cos)
        x = np.linspace(-1.0, 1.0, 5)
        assert np.array_equal(swapped.slope("b_x", 0.0, x, x, x, 0.0), np.full(5, 0.2))
        assert swapped.sigma_x is np.cos and swapped.b_x1 == 0.0

    def test_slope_reads_a_recorded_constant_without_evaluating(self):
        coeffs = make_coefficients("linear_quadratic", a=0.3, q=0.5, fy=-0.4)
        calls = []

        def counted(slot):
            fn = getattr(coeffs, slot)
            return lambda *args: calls.append(slot) or fn(*args)

        # every callable slot counts its calls
        guarded = dataclasses.replace(coeffs, **{
            f.name: counted(f.name) for f in dataclasses.fields(coeffs)
            if callable(getattr(coeffs, f.name))})
        x = np.linspace(-1.0, 1.0, 5)
        assert guarded.slope("b_x", 0.0, x, x, x, 0.0) == 0.3
        assert guarded.slope("f_y", 0.0, x, x, x, x, x, 0.0) == -0.4
        assert guarded.slope("phi_x1", x, x) == 0.0
        assert calls == []
        assert np.array_equal(guarded.slope("f_x", 0.0, x, x, x, x, x, 0.0), -x)
        assert calls == ["f_x"]

    @pytest.mark.parametrize("family,params", FAMILY_SAMPLES)
    def test_registry_constant_slots_hold_floats(self, family, params):
        coeffs = make_coefficients(family, lam=0.5, **params)
        assert [s for s in SLOPES if callable(getattr(coeffs, s))] == list(EVALUATED[family])
        for slot, args in slope_reads(coeffs, 5):
            if slot not in EVALUATED[family]:
                assert type(getattr(coeffs, slot)) is float
                # the stored number itself: no evaluator ran
                assert coeffs.slope(slot, *args) is getattr(coeffs, slot)

    @pytest.mark.parametrize("family,params", FAMILY_SAMPLES)
    def test_wrapped_evaluators_keep_constant_slopes_numbers(self, family, params):
        # every callable replaced by a counting wrapper, as a traced run does
        coeffs = make_coefficients(family, lam=0.5, **params)
        calls = []

        def counted(fn):
            return lambda *args: calls.append(fn) or fn(*args)

        wrapped = dataclasses.replace(coeffs, **{
            f.name: counted(getattr(coeffs, f.name)) for f in dataclasses.fields(coeffs)
            if callable(getattr(coeffs, f.name))})
        for slot, args in slope_reads(wrapped, 5):
            got = wrapped.slope(slot, *args)
            if slot in EVALUATED[family]:
                assert np.array_equal(got, coeffs.slope(slot, *args))
            else:
                assert got is getattr(coeffs, slot)
        assert len(calls) == len(EVALUATED[family])

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


class TestX1Free:
    """x1_free holds only while b, sigma, f and phi are registry evaluators
    recorded as reading no x1."""

    LQ = dict(a=0.4, bu=0.6, b0=0.1, sigma0=0.25, q=0.5, r=0.5, fy=-0.3, phi_quad=-0.4)

    def test_linear_quadratic_set(self):
        assert make_coefficients("linear_quadratic", lam=0.5, **self.LQ).x1_free

    @pytest.mark.parametrize("family", ["constant", "linear", "bilinear"])
    def test_families_that_evaluate_x1_terms(self, family):
        # bx1 * x1 is evaluated even where bx1 is 0
        assert not make_coefficients(family, lam=0.5).x1_free

    @pytest.mark.parametrize("slot", ["b", "sigma", "f", "phi"])
    def test_replaced_or_wrapped_slot(self, slot):
        base = make_coefficients("linear_quadratic", lam=0.5, **self.LQ)
        fn = getattr(base, slot)
        assert not dataclasses.replace(base, **{slot: lambda *args: fn(*args)}).x1_free
        assert not dataclasses.replace(base, **{slot: functools.wraps(fn)(
            lambda *args: fn(*args))}).x1_free
        # the slopes are not read by the sweep's values
        assert dataclasses.replace(base, b_x1=base.sigma_x1).x1_free

    def test_measure_shifted_set(self):
        # an x1-free set whose f has the z-loading g, recorded as reading no
        # x1: the shifted drift b + sigma * g is a new evaluator all the same
        g = 0.3
        base = make_coefficients("linear_quadratic", lam=0.5, **self.LQ)

        def f(t, x, x1, x2, y, z, u):
            return base.f(t, x, x1, x2, y, z, u) + g * z

        coeffs_module._X1_FREE_EVALUATORS.add(f)
        coeffs = dataclasses.replace(base, f=f)
        assert coeffs.x1_free
        grid = TimeGrid(s=0.0, T=0.5, dt=0.01, delay_steps=5)
        inst = Instance(coeffs=coeffs, grid=grid, history=HistoryPath.constant(1.0, 5),
                        domain=ControlDomain(-1.0, 1.0, n_u=5),
                        driver=LinearDriver(fbar=-0.3, gbar=g))
        assert not girsanov_reduce(inst).instance.coeffs.x1_free

    def test_linear_set_with_x1_terminal_cost_varies_in_x1(self):
        coeffs = make_coefficients("linear", lam=0.5, bx=0.2, bu=0.5, s0=0.2, phix=0.3,
                                   phix1=-0.4)
        grid = HjbGrid(-3.0, 3.0, 21, -3.0, 3.0, 11, 40)
        tg = TimeGrid(s=0.0, T=1.0, dt=0.01, delay_steps=10)
        # x1-slope probes at zero: the x2 gate then passes
        p = default_probe_set(coeffs, grid, tg)
        vg = solve_hjb(coeffs, ControlDomain(-1.0, 1.0, n_u=7), grid, tg,
                       probes=dataclasses.replace(p, q=np.zeros_like(p.q)))
        assert not coeffs.x1_free
        assert np.ptp(vg.V[0], axis=1).min() > 0.5


class TestFamilyBuilder:
    """make_coefficients fills omitted parameters once; each family's builder
    only reads them."""

    SLOTS = [f.name for f in dataclasses.fields(CoefficientSet)
             if f.name not in ("name", "lam", "params")]
    CONSTANT = dict(b0=1.0, s0=-0.5, f0=2.0, phi0=3.0)

    @staticmethod
    def evaluations(coeffs, scale):
        rng = np.random.default_rng(17)
        t, x, x1, x2, y, z, u = rng.normal(0.0, scale, size=(7, 64))
        for slot in TestFamilyBuilder.SLOTS:
            args = ((x, x1) if slot.startswith("phi") else
                    (t, x, x1, x2, y, z, u) if slot.startswith("f") else (t, x, x1, x2, u))
            yield slot, coeffs.slope(slot, *args)

    def test_constant_is_linear_on_its_four_keys(self):
        const = make_coefficients("constant", lam=0.5, **self.CONSTANT)
        lin = make_coefficients("linear", lam=0.5, **self.CONSTANT)
        assert len(self.SLOTS) == 17
        assert const.name == "constant" and const.params == self.CONSTANT
        for (slot, got), (_, want) in zip(self.evaluations(const, 2.0),
                                          self.evaluations(lin, 2.0)):
            assert np.array_equal(got, want), slot
            assert callable(getattr(const, slot)) == callable(getattr(lin, slot)), slot
        assert (const.time_free, const.x1_free) == (lin.time_free, lin.x1_free) == (True, False)
        assert make_coefficients("constant").params == {}

    def test_bilinear_clip_defaults_to_three(self):
        params = dict(bx=0.2, bxx1=0.9, bxx2=-0.4, sxx1=0.3, sxx2=0.5, fy=-0.2, phix=1.0)
        default = make_coefficients("bilinear", **params)
        explicit = make_coefficients("bilinear", clip=3.0, **params)
        assert default.params == params
        # states spread well past the clip bound, where the saturation shows
        for (slot, got), (_, want) in zip(self.evaluations(default, 5.0),
                                          self.evaluations(explicit, 5.0)):
            assert np.array_equal(got, want), slot

    @pytest.mark.parametrize("family,key", [("constant", "bx"), ("linear", "clip"),
                                            ("bilinear", "q"), ("linear_quadratic", "bx")])
    def test_unknown_key_message(self, family, key):
        # keys another family reads are rejected as before
        with pytest.raises(ConfigurationError) as err:
            make_coefficients(family, **{key: 1.0, "zz": 2.0})
        assert str(err.value) == f"unknown parameters for family {family!r}: {sorted([key, 'zz'])}"
