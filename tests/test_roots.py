import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumordyn import SolverError
from tumordyn.roots import find_root

SHAPES = [
    lambda x, r: x - r,
    lambda x, r: math.log(x / r),
    lambda x, r: (x / r) ** 3 - 1.0,
    lambda x, r: r / x - 1.0,
]


@settings(max_examples=200, deadline=None)
@given(
    log_root=st.floats(min_value=-8.0, max_value=8.0),
    below=st.floats(min_value=0.01, max_value=8.0),
    above=st.floats(min_value=0.01, max_value=8.0),
    shape=st.sampled_from(range(len(SHAPES))),
    decreasing=st.booleans(),
)
def test_converges_on_wide_brackets(log_root, below, above, shape, decreasing):
    r = 10.0**log_root
    sign = -1.0 if decreasing else 1.0

    def f(x):
        return sign * SHAPES[shape](x, r)

    a, b = r * 10.0**-below, r * 10.0**above
    x = find_root(f, a, b, f(a), f(b), rtol=1e-12)
    assert a <= x <= b
    assert x == pytest.approx(r, rel=4e-12)


@pytest.mark.parametrize("decreasing", [False, True])
def test_ftol_stops_early(decreasing):
    sign = -1.0 if decreasing else 1.0

    def f(x):
        return sign * (x - 2.0)

    x = find_root(f, 0.0, 1e6, f(0.0), f(1e6), ftol=1e-3)
    assert abs(f(x)) <= 1e-3


def test_exact_zero_at_either_end():
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    assert find_root(f, 1.0, 5.0, 0.0, 4.0) == 1.0
    assert find_root(f, -3.0, 1.0, -4.0, 0.0) == 1.0
    assert calls == []


@pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -0.5), (float("nan"), 1.0)])
def test_not_bracketed(fa, fb):
    with pytest.raises(SolverError):
        find_root(lambda x: x, 0.0, 1.0, fa, fb)
