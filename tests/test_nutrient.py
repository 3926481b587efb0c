import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from tumordyn import (
    ConstantSchedule,
    FourierSchedule,
    ModelParams,
    PiecewiseLinearSchedule,
    ScheduleError,
    SinusoidSchedule,
    periodic,
    schedule_from_spec,
)


class TestConstant:
    def test_value_and_stats(self):
        s = ConstantSchedule(period=2.0, value=1.5)
        assert s(0.3) == 1.5
        assert s(100.7) == 1.5
        assert (s.mean, s.maximum, s.minimum) == (1.5, 1.5, 1.5)

    def test_vectorized(self):
        s = ConstantSchedule(period=1.0, value=2.0)
        out = s(np.array([0.0, 0.5, 3.25]))
        assert out.shape == (3,)
        assert np.all(out == 2.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_positivity(self, bad):
        with pytest.raises(ScheduleError):
            ConstantSchedule(period=1.0, value=bad)

    @pytest.mark.parametrize("bad_period", [0.0, -1.0, float("nan")])
    def test_period_validation(self, bad_period):
        with pytest.raises(ScheduleError):
            ConstantSchedule(period=bad_period, value=1.0)


class TestSinusoid:
    def test_values(self):
        s = SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=0.5)
        assert s(0.0) == pytest.approx(1.0)
        assert s(0.25) == pytest.approx(1.5)
        assert s(0.75) == pytest.approx(0.5)

    def test_periodicity_no_phase_drift(self):
        s = SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=0.5)
        assert s(0.1) == pytest.approx(s(1e3 + 0.1), abs=1e-12)

    def test_stats(self):
        s = SinusoidSchedule(period=1.0, mean_level=2.0, amplitude=-0.7)
        assert (s.mean, s.maximum, s.minimum) == (2.0, 2.7, 1.3)

    def test_positivity(self):
        with pytest.raises(ScheduleError):
            SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=1.0)


class TestFourier:
    def test_reduces_to_sinusoid(self):
        f = FourierSchedule(period=1.0, mean_level=1.0, sin_coeffs=(0.5,))
        s = SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=0.5)
        tt = np.linspace(0.0, 3.0, 50)
        assert np.allclose(f(tt), s(tt), atol=1e-14)

    def test_mean_is_constant_term(self):
        f = FourierSchedule(
            period=2.0, mean_level=1.3, cos_coeffs=(0.2, -0.1), sin_coeffs=(0.3,)
        )
        assert f.mean == 1.3

    def test_extrema_refined(self):
        f = FourierSchedule(period=1.0, mean_level=1.0, cos_coeffs=(0.4,))
        assert f.maximum == pytest.approx(1.4, abs=1e-10)
        assert f.minimum == pytest.approx(0.6, abs=1e-10)

    def test_extrema_closed_form(self):
        # one harmonic: mean +- hypot(a, b), attained between scan samples
        f = FourierSchedule(period=1.7, mean_level=1.0, cos_coeffs=(0.3,), sin_coeffs=(0.4,))
        assert f.maximum == pytest.approx(1.5, rel=1e-15)
        assert f.minimum == pytest.approx(0.5, rel=1e-15)

    def test_extrema_against_dense_scan(self):
        f = FourierSchedule(
            period=2.0, mean_level=1.0, cos_coeffs=(0.2, -0.15, 0.05), sin_coeffs=(0.1, 0.07)
        )
        vals = f(np.linspace(0.0, 2.0, 400_001))
        # the scan misses the extremum by at most |Phi''| * h^2 / 8 ~ 1e-11
        assert 0.0 <= f.maximum - vals.max() <= 1e-11
        assert 0.0 <= vals.min() - f.minimum <= 1e-11

    def test_positivity(self):
        with pytest.raises(ScheduleError):
            FourierSchedule(period=1.0, mean_level=1.0, cos_coeffs=(1.2,))


class TestPiecewiseLinear:
    def make(self):
        return PiecewiseLinearSchedule(
            period=1.0, knot_times=(0.0, 0.25, 0.75, 1.0), knot_values=(1.0, 2.0, 0.5, 1.0)
        )

    def test_interpolation(self):
        s = self.make()
        assert s(0.125) == pytest.approx(1.5)
        assert s(0.25) == pytest.approx(2.0)
        assert s(1.25) == pytest.approx(2.0)  # wraps

    def test_trapezoid_mean(self):
        s = self.make()
        expected = (
            0.25 * (1.0 + 2.0) / 2 + 0.5 * (2.0 + 0.5) / 2 + 0.25 * (0.5 + 1.0) / 2
        )
        assert s.mean == pytest.approx(expected)
        assert s.maximum == 2.0
        assert s.minimum == 0.5

    def test_must_close(self):
        with pytest.raises(ScheduleError):
            PiecewiseLinearSchedule(
                period=1.0, knot_times=(0.0, 0.5, 1.0), knot_values=(1.0, 2.0, 3.0)
            )

    def test_must_span_period(self):
        with pytest.raises(ScheduleError):
            PiecewiseLinearSchedule(
                period=1.0, knot_times=(0.0, 0.5), knot_values=(1.0, 1.0)
            )
        with pytest.raises(ScheduleError):
            PiecewiseLinearSchedule(
                period=1.0, knot_times=(0.1, 1.0), knot_values=(1.0, 1.0)
            )

    def test_strictly_increasing_times(self):
        with pytest.raises(ScheduleError):
            PiecewiseLinearSchedule(
                period=1.0, knot_times=(0.0, 0.5, 0.5, 1.0), knot_values=(1.0, 2.0, 2.0, 1.0)
            )

    def test_positivity(self):
        with pytest.raises(ScheduleError):
            PiecewiseLinearSchedule(
                period=1.0, knot_times=(0.0, 0.5, 1.0), knot_values=(1.0, -0.5, 1.0)
            )


FORMS = [
    ConstantSchedule(period=1.5, value=1.3),
    SinusoidSchedule(period=2.0, mean_level=1.0, amplitude=0.5),
    FourierSchedule(
        period=0.7, mean_level=1.0, cos_coeffs=(0.2, -0.1), sin_coeffs=(0.15, 0.05, 0.02)
    ),
    PiecewiseLinearSchedule(
        period=1.0, knot_times=(0.0, 0.25, 0.6, 1.0), knot_values=(1.0, 1.8, 0.4, 1.0)
    ),
]


@pytest.mark.parametrize("schedule", FORMS, ids=lambda s: type(s).__name__)
def test_float_path_bit_equal_to_array_path(schedule):
    """A float skips the array machinery in __call__; both paths give the same bits."""
    T = schedule.period
    knots = np.array([k * T + x for k in range(4) for x in getattr(schedule, "knot_times", ())])
    knots = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
    t = np.concatenate([np.linspace(-0.5 * T, 4.0 * T, 4001), [0.0, T, 2.0 * T, 3.0 * T], knots])
    scalar = [schedule(float(x)) for x in t]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(
        np.array(scalar).view(np.int64), np.asarray(schedule(t), dtype=np.float64).view(np.int64)
    )
    assert schedule(3) == schedule(3.0)


@pytest.mark.parametrize("schedule", FORMS, ids=lambda s: type(s).__name__)
def test_float_float64_and_one_element_array_agree(schedule):
    """Phi at one time has the same bits as a Python float, an np.float64 and
    a 1-element array, through __call__ and through _value's float branch
    (math.sin and math.cos against numpy's, on 10^6 random times too)."""
    T = schedule.period
    for x in np.linspace(0.0, 3.0 * T, 301).tolist() + list(getattr(schedule, "knot_times", ())):
        want = np.asarray(schedule(np.array([x])), dtype=np.float64)[0].view(np.int64)
        for one in (x, np.float64(x)):
            assert np.float64(schedule(one)).view(np.int64) == want, x
        tau = x % T
        for one in (tau, np.float64(tau), np.array([tau])):
            got = np.asarray(schedule._value(one), dtype=np.float64).ravel()[0]
            assert got.view(np.int64) == np.float64(schedule(tau)).view(np.int64), tau
    rng = np.random.default_rng(24)
    for period in (0.7, 2.0, 5.286):
        knots = getattr(schedule, "knot_times", None)
        scaled = {"knot_times": [x * period / T for x in knots]} if knots else {}
        s = replace(schedule, period=period, **scaled)
        tau = rng.uniform(0.0, period, 333_334)
        got = np.array(list(map(s._value, tau.tolist())))
        assert np.array_equal(got.view(np.int64), s._value(tau).view(np.int64)), period


class TestStatistics:
    """mean, maximum and minimum are set at construction, outside __init__ and ==."""

    def test_replace_recomputes(self):
        s = SinusoidSchedule(period=1.0, mean_level=2.0, amplitude=0.5)
        t = replace(s, amplitude=-1.5)
        assert (t.mean, t.maximum, t.minimum) == (2.0, 3.5, 0.5)
        f = FourierSchedule(period=1.0, mean_level=1.0, cos_coeffs=(0.4,))
        g = replace(f, cos_coeffs=(0.2,))
        assert g.maximum == pytest.approx(1.2, abs=1e-10)
        assert g.minimum == pytest.approx(0.8, abs=1e-10)
        with pytest.raises(ScheduleError):
            replace(s, amplitude=2.5)

    @pytest.mark.parametrize("name", ["mean", "maximum", "minimum"])
    def test_not_constructor_arguments(self, name):
        with pytest.raises(TypeError):
            ConstantSchedule(period=1.0, value=1.0, **{name: 2.0})
        with pytest.raises(ValueError):
            replace(ConstantSchedule(period=1.0, value=1.0), **{name: 2.0})

    @pytest.mark.parametrize("schedule", FORMS, ids=lambda s: type(s).__name__)
    def test_not_in_eq_hash_or_repr(self, schedule):
        twin = replace(schedule)
        object.__setattr__(twin, "mean", schedule.mean + 1.0)
        object.__setattr__(twin, "maximum", schedule.maximum + 1.0)
        assert twin == schedule and hash(twin) == hash(schedule)
        assert "mean=" not in repr(schedule) and "minimum" not in repr(schedule)

    def test_params_stay_one_cache_key(self, monkeypatch):
        solves = []
        integrate = periodic.integrate

        def counted(*args, **kwargs):
            solves.append(args[1])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(periodic, "integrate", counted)
        periodic._one_period.cache_clear()
        a = ModelParams(1.0, 0.9, 1.0, SinusoidSchedule(period=1.0, amplitude=0.5))
        b = ModelParams(1.0, 0.9, 1.0, SinusoidSchedule(period=1.0, amplitude=0.5))
        assert a == b and hash(a) == hash(b)
        assert periodic.poincare_map(a, 1.3) == periodic.poincare_map(b, 1.3)
        assert solves == [1.3]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "spec",
    [
        {"form": "constant", "period": 1.0, "value": NAN},
        {"form": "constant", "period": 1.0, "value": INF},
        {"form": "constant", "period": INF, "value": 1.0},
        {"form": "constant", "period": "x", "value": 1.0},
        {"form": "constant", "period": 1.0, "value": "1.0"},
        {"form": "sinusoid", "period": 1.0, "mean": NAN, "amplitude": 0.5},
        {"form": "sinusoid", "period": 1.0, "mean": 1.0, "amplitude": NAN},
        {"form": "sinusoid", "period": 1.0, "mean": INF, "amplitude": 0.5},
        {"form": "sinusoid", "period": 1.0, "mean": 1.7e308, "amplitude": 1e308},
        {"form": "fourier", "period": 1.0, "mean": NAN, "sin": [0.3]},
        {"form": "fourier", "period": 1.0, "mean": 1.0, "cos": [0.1, NAN]},
        {"form": "fourier", "period": 1.0, "mean": 1.0, "sin": [INF]},
        {"form": "fourier", "period": 1.0, "mean": 1.0, "sin": 0.3},
        {"form": "fourier", "period": 1.0, "mean": 1.0, "cos": ["a"]},
        {"form": "piecewise", "period": 1.0, "times": [0.0, NAN, 1.0], "values": [1.0, 2.0, 1.0]},
        {"form": "piecewise", "period": 1.0, "times": [0.0, 0.5, 1.0], "values": [1.0, INF, 1.0]},
        {"form": "piecewise", "period": 1.0, "times": [0.0, 0.5, 1.0], "values": [NAN, 2.0, NAN]},
        {"form": "piecewise", "period": 1.0, "times": 1.0, "values": [1.0, 1.0]},
    ],
)
def test_non_finite_parameters_rejected(spec):
    with pytest.raises(ScheduleError):
        schedule_from_spec(spec)


@pytest.mark.parametrize(
    "make",
    [
        lambda b: ConstantSchedule(period=b, value=1.0),
        lambda b: ConstantSchedule(period=1.0, value=b),
        lambda b: SinusoidSchedule(period=1.0, mean_level=b, amplitude=0.5),
        lambda b: SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=b),
        lambda b: FourierSchedule(period=1.0, mean_level=b),
        lambda b: FourierSchedule(period=1.0, mean_level=1.0, cos_coeffs=(0.1, b)),
        lambda b: FourierSchedule(period=1.0, mean_level=1.0, sin_coeffs=[b]),
        lambda b: PiecewiseLinearSchedule(period=1.0, knot_times=(0.0, b), knot_values=(1.0, 1.0)),
        lambda b: PiecewiseLinearSchedule(period=1.0, knot_times=(0.0, 1.0), knot_values=(b, b)),
    ],
    ids=["period", "value", "mean", "amplitude", "fourier-mean", "cos", "sin", "times", "values"],
)
@pytest.mark.parametrize("b", [True, False, np.True_], ids=["true", "false", "np-true"])
def test_bool_is_not_a_number(make, b):
    with pytest.raises(ScheduleError, match="must be a finite number"):
        make(b)


class TestFromSpec:
    def test_all_forms(self):
        assert isinstance(
            schedule_from_spec({"form": "constant", "period": 1.0, "value": 1.0}),
            ConstantSchedule,
        )
        assert isinstance(
            schedule_from_spec(
                {"form": "sinusoid", "period": 1.0, "mean": 1.0, "amplitude": 0.5}
            ),
            SinusoidSchedule,
        )
        assert isinstance(
            schedule_from_spec({"form": "fourier", "period": 1.0, "mean": 1.0, "sin": [0.3]}),
            FourierSchedule,
        )
        assert isinstance(
            schedule_from_spec(
                {
                    "form": "piecewise",
                    "period": 1.0,
                    "times": [0.0, 0.5, 1.0],
                    "values": [1.0, 2.0, 1.0],
                }
            ),
            PiecewiseLinearSchedule,
        )

    def test_unknown_form(self):
        with pytest.raises(ScheduleError):
            schedule_from_spec({"form": "square"})

    def test_missing_key(self):
        with pytest.raises(ScheduleError):
            schedule_from_spec({"form": "sinusoid", "period": 1.0})

    def test_not_a_mapping(self):
        with pytest.raises(ScheduleError):
            schedule_from_spec("constant")


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda x: FourierSchedule(period=1.0, mean_level=1.0, cos_coeffs=(0.1, x)), "cos_coeffs[1]"),
        (lambda x: FourierSchedule(period=1.0, mean_level=1.0, sin_coeffs=[x]), "sin_coeffs[0]"),
        (lambda x: PiecewiseLinearSchedule(period=1.0, knot_times=(0.0, x, 1.0), knot_values=(1.0, 2.0, 1.0)),
         "knot_times[1]"),
        (lambda x: PiecewiseLinearSchedule(period=1.0, knot_times=(0.0, 1.0), knot_values=(x, 1.0)),
         "knot_values[0]"),
    ],
    ids=["cos", "sin", "times", "values"],
)
@pytest.mark.parametrize("x", ["0.5", b"0.5", None, [0.5]], ids=["str", "bytes", "none", "list"])
def test_tuple_element_must_be_a_number(make, name, x):
    """A numeric string is not a number either: each element is checked by its index."""
    with pytest.raises(ScheduleError, match=rf"{re.escape(name)} must be a finite number, got "):
        make(x)


def test_numpy_numbers_are_numbers():
    s = PiecewiseLinearSchedule(period=1.0, knot_times=(0, np.float32(0.5), np.int64(1)),
                                knot_values=[np.float64(1.0), 2, 1.0])
    assert s.knot_times == (0.0, 0.5, 1.0) and all(type(t) is float for t in s.knot_times)
    assert s.knot_values == (1.0, 2.0, 1.0)


@pytest.mark.parametrize("make", [
    lambda T: ConstantSchedule(period=T, value=1.0),
    lambda T: SinusoidSchedule(period=T, mean_level=1.0, amplitude=0.5),
    lambda T: FourierSchedule(period=T, mean_level=1.0, cos_coeffs=(0.1,)),
    lambda T: PiecewiseLinearSchedule(period=T, knot_times=(0.0, T), knot_values=(1.0, 1.0)),
], ids=["constant", "sinusoid", "fourier", "piecewise"])
def test_period_range(make):
    # t / T keeps its digits while T is a normal float, and 2 pi t / T is
    # finite for every t < T while 2 pi T is; Phi is then finite throughout
    smallest, largest = sys.float_info.min, sys.float_info.max / (2.0 * math.pi)
    for T in (smallest, largest):
        s = make(T)
        assert math.isfinite(s(0.5 * T)) and math.isfinite(s(math.nextafter(T, 0.0)))
    for T in (math.nextafter(smallest, 0.0), 5e-324, math.nextafter(largest, math.inf), 1e308):
        with pytest.raises(ScheduleError, match=r"period must be within \[2.2e-308, float max / \(2 pi\)\], got "):
            make(T)
