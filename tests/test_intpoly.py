import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective_lab.errors import NonIntegralQuotient, TooLarge, ZeroPolynomialError
from intersective_lab.intpoly import IntPoly
from intersective_lab.numutil import (
    HORNER_BOUND,
    RESIDUE_GUARD,
    int_nth_root,
    roots_mod,
    values_mod,
)

X2 = IntPoly([0, 0, 1])
X2M1 = IntPoly([-1, 0, 1])


def naive_eval(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def test_evaluate_examples():
    assert X2.evaluate(3) == 9
    assert X2M1.evaluate(1) == 0
    assert IntPoly([0, 1, 0, 3]).evaluate(-2) == -26  # 3x^3 + x at -2


def test_evaluate_matches_naive_power_loop():
    rng = random.Random(1)
    for _ in range(200):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 7))]
        x = rng.randint(-30, 30)
        assert IntPoly(coeffs).evaluate(x) == naive_eval(coeffs, x)


def test_normalization_and_degree():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    z = IntPoly([0, 0])
    assert z.is_zero() and z.degree() == -1
    p = IntPoly([5, 0, 7])
    assert p.degree() == len(p.coeffs) - 1


def test_derivative():
    assert IntPoly([0, 0, 0, 1]).derivative().coeffs == (0, 0, 3)
    assert IntPoly([7]).derivative().is_zero()
    assert X2M1.derivative().coeffs == (0, 2)


def test_content():
    assert IntPoly([3, 4, 2]).content() == 2  # 2x^2+4x+3: gcd(2,4), a_0 excluded
    assert X2.content() == 1
    assert IntPoly([5, 0, 9, 6]).content() == 3
    with pytest.raises(ZeroPolynomialError):
        IntPoly([7]).content()
    with pytest.raises(ZeroPolynomialError):
        IntPoly([]).content()


def test_shift_scale_divide_examples():
    assert X2.shift_scale_divide(0, 3, 9).coeffs == (0, 0, 1)
    assert X2.shift_scale_divide(0, 1, 1) == X2
    got = X2M1.shift_scale_divide(-5, 6, 6)
    assert got.coeffs == (4, -10, 6)
    for x in range(1, 21):
        assert 6 * got.evaluate(x) == X2M1.evaluate(-5 + 6 * x)


def test_shift_scale_divide_cross_eval():
    rng = random.Random(2)
    for _ in range(100):
        h = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))])
        if h.is_zero():
            continue
        r, d = rng.randint(-10, 10), rng.randint(1, 6)
        out = h.shift_scale_divide(r, d, 1)
        for x in range(-3, 4):
            assert out.evaluate(x) == h.evaluate(r + d * x)


def test_shift_scale_divide_non_integral():
    with pytest.raises(NonIntegralQuotient) as ei:
        X2.shift_scale_divide(0, 3, 2)
    assert ei.value.index == 2


def test_coeff_stats():
    assert X2.coeff_stats() == (1, 1)
    assert IntPoly([4, -10, 6]).coeff_stats() == (6, 20)
    assert IntPoly([0, 1, 0, -2]).coeff_stats() == (-2, 3)
    with pytest.raises(ZeroPolynomialError):
        IntPoly([]).coeff_stats()


small_polys = st.lists(st.integers(-30, 30), min_size=1, max_size=6).filter(
    lambda cs: any(cs)
)


@settings(max_examples=60, deadline=None)
@given(small_polys)
def test_identity_shift(cs):
    h = IntPoly(cs)
    assert h.shift_scale_divide(0, 1, 1) == h


@settings(max_examples=60, deadline=None)
@given(small_polys, st.integers(-8, 8), st.integers(1, 5), st.integers(-8, 8), st.integers(1, 5))
def test_composition_associative(cs, r1, d1, r2, d2):
    h = IntPoly(cs)
    nested = h.shift_scale_divide(r1, d1, 1).shift_scale_divide(r2, d2, 1)
    single = h.shift_scale_divide(r1 + d1 * r2, d1 * d2, 1)
    assert nested == single


@settings(max_examples=60, deadline=None)
@given(small_polys, st.integers(-8, 8), st.integers(1, 6))
def test_leading_coefficient_scaling(cs, r, d):
    h = IntPoly(cs)
    k = h.degree()
    b, _ = h.shift_scale_divide(r, d, 1).coeff_stats()
    assert b == h.leading() * d**k


def test_second_difference_via_taylor_shift():
    # p(x0+1) - 2 p(x0) + p(x0-1) = 2 * sum of even-index Taylor coefficients >= 2
    rng = random.Random(3)
    for _ in range(50):
        p = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(2, 6))])
        if p.is_zero():
            continue
        x0 = rng.randint(-15, 15)
        q = p.shift_scale_divide(x0, 1, 1)  # q(t) = p(x0 + t)
        lhs = p.evaluate(x0 + 1) - 2 * p.evaluate(x0) + p.evaluate(x0 - 1)
        rhs = 2 * sum(c for i, c in enumerate(q.coeffs) if i >= 2 and i % 2 == 0)
        assert lhs == rhs


# moduli on both sides of the int64 Horner bound 2^31, a few well past it
moduli = st.one_of(
    st.integers(1, 2**31 - 1),
    st.integers(2**31, 2**31 + 1000),
    st.integers(2**31, 2**70),
    st.sampled_from([2**31 - 1, 2**31, 3_037_000_500, 2**63 + 5]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**30), 10**30), max_size=7),
    moduli,
    st.lists(st.integers(0, 2**70), max_size=12),
)
def test_values_mod_matches_evaluate_mod(coeffs, m, xs):
    # the oracle is exact evaluation reduced once
    s = [x % m for x in xs]
    got = values_mod(coeffs, np.array(s, dtype=np.int64 if m <= 2**63 else object), m)
    assert [int(v) for v in got] == [IntPoly(coeffs).evaluate(x) % m for x in s]
    assert (got.dtype == np.int64) == (m < HORNER_BOUND)


def test_values_mod_full_residue_range():
    g = IntPoly([-5, 0, 0, 7, 1])
    for m in (1, 2, 97, 2**15 + 3):
        got = values_mod(g.coeffs, np.arange(m, dtype=np.int64), m)
        assert got.tolist() == [g.evaluate(x) % m for x in range(m)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**3000), st.integers(1, 12))
def test_int_nth_root_is_exact_floor(n, k):
    r = int_nth_root(n, k)
    assert r**k <= n < (r + 1) ** k


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(10**12), 10**12), max_size=6), st.integers(1, 3000))
def test_roots_mod_is_the_residue_scan(coeffs, m):
    g = IntPoly(coeffs)
    assert roots_mod(coeffs, m) == [s for s in range(m) if g.evaluate(s) % m == 0]


def test_roots_mod_guard():
    with pytest.raises(TooLarge, match="RESIDUE_GUARD"):
        roots_mod((0, 1), RESIDUE_GUARD + 1)
