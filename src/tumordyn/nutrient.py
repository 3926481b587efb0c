"""T-periodic, strictly positive nutrient supply schedules.

Four concrete forms are supported: constant, sinusoid, truncated Fourier
series, and a periodic piecewise-linear table.  Every form reduces time
modulo the period before evaluating, so long integrations accrue no phase
drift, and every form has a closed-form period mean.  Finite parameters and
positivity are enforced at construction.

A plain number is evaluated without building arrays (the radius ODE calls the
schedule once per right-hand-side evaluation); each form's ``_value`` writes
its one formula for floats and arrays alike, so a float and an array of the
same times give the same bits.  A float calls ``math.sin``/``math.cos`` where
an array calls ``np.sin``/``np.cos``: numpy's float64 sin and cos are the C
library's (numpy 2.4.6 on x86-64 with AVX-512: no bit differs on 10^6
arguments in [0, 60]), whereas numpy's own SIMD tanh differs from
``math.tanh`` on 65,591 of them, so ``specfun`` keeps ``np.tanh`` for floats.
A schedule's ``breakpoints`` are the times in (0, T) where Phi has a kink: a
piecewise table's interior knots, none for the smooth forms.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScheduleError
from .roots import refine_extremum

_SCAN_SAMPLES = 4096


@dataclass(frozen=True)
class NutrientSchedule:
    """Base class; each form fills in the in-period evaluation and sets the
    period statistics and the kinks of Phi in (0, T) once (``_set_stats``),
    outside ``__init__`` and ``==``."""

    period: float
    mean: float = field(init=False, repr=False, compare=False)
    maximum: float = field(init=False, repr=False, compare=False)
    minimum: float = field(init=False, repr=False, compare=False)
    breakpoints: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check_finite(period=self.period)
        if not self.period > 0.0:
            raise ScheduleError(f"period must be positive, got {self.period}")
        # a normal float, so t / T keeps its digits, with 2 pi T finite, so the phase 2 pi t / T is
        if not (self.period >= np.finfo(float).tiny and math.isfinite(2.0 * math.pi * self.period)):
            raise ScheduleError(f"period must be within [2.2e-308, float max / (2 pi)], got {self.period!r}")

    def __call__(self, t):
        if isinstance(t, (float, int)):
            return self._value(float(t) % self.period)
        tau = np.asarray(t, dtype=float) % self.period
        out = self._value(tau)
        return float(out) if np.isscalar(t) else out

    def _value(self, tau):
        raise NotImplementedError

    def _check_finite(self, **values):
        for name, value in values.items():
            try:
                ok = not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
            except (TypeError, OverflowError):
                ok = False
            if not ok:
                raise ScheduleError(
                    f"{type(self).__name__} {name} must be a finite number, got {value!r}"
                )

    def _finite_tuple(self, name, values) -> tuple[float, ...]:
        try:
            # anything but a number (a bool, a string) is kept for _check_finite to reject by its index
            number = (int, float, np.integer, np.floating)
            out = tuple(float(x) if isinstance(x, number) and not isinstance(x, bool) else x for x in values)
        except (TypeError, OverflowError):
            raise ScheduleError(
                f"{type(self).__name__} {name} must be a sequence of numbers, got {values!r}"
            ) from None
        self._check_finite(**{f"{name}[{i}]": x for i, x in enumerate(out)})
        return out

    def _set_stats(self, mean: float, maximum: float, minimum: float, breakpoints=()):
        """Store the period mean, max and min (all finite, min > 0) and the
        kinks of Phi in (0, T)."""
        self._check_finite(mean=mean, maximum=maximum, minimum=minimum)
        if minimum <= 0.0:
            raise ScheduleError(
                f"{type(self).__name__} schedule is not strictly positive "
                f"(min = {minimum})"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "maximum", maximum)
        object.__setattr__(self, "minimum", minimum)
        object.__setattr__(self, "breakpoints", breakpoints)


@dataclass(frozen=True)
class ConstantSchedule(NutrientSchedule):
    value: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        self._check_finite(value=self.value)
        self._set_stats(self.value, self.value, self.value)

    def _value(self, tau):
        return self.value + 0.0 * tau  # tau's type and shape


@dataclass(frozen=True)
class SinusoidSchedule(NutrientSchedule):
    """mean + amplitude * sin(2*pi*t/period)."""

    mean_level: float = 1.0
    amplitude: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        self._check_finite(mean=self.mean_level, amplitude=self.amplitude)
        a = abs(self.amplitude)
        self._set_stats(self.mean_level, self.mean_level + a, self.mean_level - a)

    def _value(self, tau):
        sin = math.sin if isinstance(tau, float) else np.sin
        return self.mean_level + self.amplitude * sin(2.0 * math.pi * tau / self.period)


@dataclass(frozen=True)
class FourierSchedule(NutrientSchedule):
    """mean + sum_k cos_coeffs[k-1]*cos(2*pi*k*t/T) + sin_coeffs[k-1]*sin(...)."""

    mean_level: float = 1.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        self._check_finite(mean=self.mean_level)
        object.__setattr__(self, "cos_coeffs", self._finite_tuple("cos_coeffs", self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", self._finite_tuple("sin_coeffs", self.sin_coeffs))
        self._set_stats(*self._scan_extrema())

    def _value(self, tau):
        cos, sin = (math.cos, math.sin) if isinstance(tau, float) else (np.cos, np.sin)
        w = 2.0 * math.pi * tau / self.period
        out = self.mean_level + 0.0 * w  # w's type and shape
        for k, a in enumerate(self.cos_coeffs, start=1):
            out = out + a * cos(k * w)
        for k, b in enumerate(self.sin_coeffs, start=1):
            out = out + b * sin(k * w)
        return out

    def _scan_extrema(self):
        # zero-mean harmonics: the period mean is exactly the constant term; a value past
        # the float range is left to _set_stats, and an overflowing Brent step bisects
        tau = np.linspace(0.0, self.period, _SCAN_SAMPLES, endpoint=False)
        with np.errstate(all="ignore"):
            vals = self._value(tau)
            h = self.period / _SCAN_SAMPLES
            hi, lo = (
                refine_extremum(self._slope, self._value, tau[i] - h, tau[i] + h, vals[i], pick, 1e-13)
                for i, pick in ((int(np.argmax(vals)), max), (int(np.argmin(vals)), min))
            )
        return (self.mean_level, float(hi), float(lo))

    def _slope(self, tau):
        """dPhi/dt at tau, up to the positive factor 2*pi/T."""
        w = 2.0 * math.pi * tau / self.period
        down = sum(k * a * math.sin(k * w) for k, a in enumerate(self.cos_coeffs, start=1))
        return sum(k * b * math.cos(k * w) for k, b in enumerate(self.sin_coeffs, start=1)) - down


@dataclass(frozen=True)
class PiecewiseLinearSchedule(NutrientSchedule):
    """Periodic linear interpolation of (time, value) knots spanning [0, T]."""

    knot_times: tuple[float, ...] = ()
    knot_values: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        t = self._finite_tuple("knot_times", self.knot_times)
        v = self._finite_tuple("knot_values", self.knot_values)
        object.__setattr__(self, "knot_times", t)
        object.__setattr__(self, "knot_values", v)
        if len(t) < 2 or len(t) != len(v):
            raise ScheduleError("piecewise table needs matching times/values, >= 2 knots")
        if t[0] != 0.0 or abs(t[-1] - self.period) > 1e-12 * self.period:
            raise ScheduleError("piecewise table must span [0, period]")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ScheduleError("piecewise knot times must be strictly increasing")
        if v[0] != v[-1]:
            raise ScheduleError(
                "piecewise table must close periodically (first value == last value)"
            )
        self._set_stats(float(np.trapezoid(v, t) / self.period), max(v), min(v), t[1:-1])

    def _value(self, tau):
        if not isinstance(tau, float):
            return np.interp(tau, self.knot_times, self.knot_values)
        # np.interp's own formula: the knot's value on a knot, the last value
        # from the last knot on, else slope * (tau - t_j) + v_j; tau >= t_0 = 0
        t, v = self.knot_times, self.knot_values
        j = bisect.bisect_right(t, tau) - 1
        if j >= len(t) - 1:
            return v[-1]
        if t[j] == tau:
            return v[j]
        return (v[j + 1] - v[j]) / (t[j + 1] - t[j]) * (tau - t[j]) + v[j]


def schedule_from_spec(spec: dict) -> NutrientSchedule:
    """Build a schedule from a config mapping (see the CLI config schema)."""
    if not isinstance(spec, dict) or "form" not in spec:
        raise ScheduleError("schedule spec must be a mapping with a 'form' key")
    form = spec["form"]
    period = spec.get("period", 1.0)
    try:
        if form == "constant":
            return ConstantSchedule(period=period, value=spec["value"])
        if form == "sinusoid":
            return SinusoidSchedule(
                period=period,
                mean_level=spec["mean"],
                amplitude=spec["amplitude"],
            )
        if form == "fourier":
            return FourierSchedule(
                period=period,
                mean_level=spec["mean"],
                cos_coeffs=spec.get("cos", ()),
                sin_coeffs=spec.get("sin", ()),
            )
        if form == "piecewise":
            return PiecewiseLinearSchedule(
                period=period,
                knot_times=spec["times"],
                knot_values=spec["values"],
            )
    except KeyError as exc:
        raise ScheduleError(f"schedule form {form!r} missing key {exc}") from exc
    raise ScheduleError(f"unknown schedule form {form!r}")
