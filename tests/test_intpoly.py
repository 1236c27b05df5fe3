import contextlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective_lab import numutil
from intersective_lab.errors import NonIntegralQuotient, TooLarge, ZeroPolynomialError
from intersective_lab.intpoly import IntPoly
from intersective_lab.numutil import (
    HORNER_BOUND,
    KERNEL_PRIME,
    PRIME_GUARD,
    RESIDUE_GUARD,
    int_nth_root,
    primes_up_to,
    roots_mod,
    roots_mod_primes,
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


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_from_roots(lead, roots, extra=(1,)):
    """lead * prod (x - r) * extra, as coefficients."""
    out = [lead]
    for r in roots:
        out = _times(out, [-r, 1])
    return _times(out, list(extra))


@contextlib.contextmanager
def scan_work(value):
    """roots_mod_primes with SCAN_WORK = value: -1 runs the kernel on every batch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numutil, "SCAN_WORK", value)
        yield


SMALL_PRIMES = primes_up_to(20_000)
kernel_polys = st.one_of(
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=9).filter(lambda cs: cs[-1] != 0),
    # repeated and shared roots: p divides the discriminant
    st.builds(
        poly_from_roots,
        st.integers(-(10**6), 10**6).filter(bool),
        st.lists(st.integers(-40, 40), max_size=8),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    kernel_polys,
    st.lists(st.sampled_from(SMALL_PRIMES), max_size=12),
    st.sampled_from(["scan", "kernel", "kernel by rows"]),
)
def test_roots_mod_primes_matches_roots_mod(coeffs, extra, path):
    # 2, 3 and the primes up to the degree always, where f can vanish on all of F_p
    primes = [p for p in sorted({2, 3, 5, 7, *extra}) if coeffs[-1] % p]
    with scan_work(10**9 if path == "scan" else -1), pytest.MonkeyPatch.context() as mp:
        if path == "kernel by rows":
            mp.setattr(numutil, "_TABLE_ENTRIES", 1)  # one prime per kernel call
        got = roots_mod_primes(coeffs, primes)
    assert got == [roots_mod(coeffs, p) for p in primes]


BIG_PRIMES = [9_999_901, 9_999_937, 9_999_971, 9_999_973, 9_999_991, 16_777_199, 16_777_213]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 30), max_size=7),
    st.lists(st.sampled_from(BIG_PRIMES), min_size=1, max_size=4, unique=True),
    st.integers(1, 3),
    st.integers(1, 10**40),
)
def test_roots_mod_primes_near_the_int64_bound(offsets, primes, k, lead):
    # roots p - 1 - offset sit where residues, and so every product, are
    # largest; x^2 - n with n a non-residue adds no root, (x^2 - n)^k and
    # repeated offsets make p divide the discriminant
    primes = [p for p in sorted(primes) if lead % p]
    for p in primes:
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        roots = [p - 1 - o for o in offsets]
        extra = [1]
        for _ in range(k):
            extra = _times(extra, [-n, 0, 1])
        coeffs = poly_from_roots(lead, roots, extra)
        got = roots_mod_primes(coeffs, [p, *[q for q in primes if q != p]])[0]
        assert got == sorted(set(roots))


def test_roots_mod_primes_kernel_bound_and_bad_input():
    assert PRIME_GUARD < KERNEL_PRIME == 1 << 24
    assert roots_mod_primes([1, 2, 3], []) == []
    assert roots_mod_primes([5], [2, 3, 7]) == [[], [], []]
    with pytest.raises(ValueError, match="leading coefficient"):
        roots_mod_primes([1, 0, 3], [2, 3])
    with pytest.raises(ValueError, match="below"):
        roots_mod_primes([1, 1], [KERNEL_PRIME + 43])
    with pytest.raises(ValueError, match="nonzero"):
        roots_mod_primes([], [5])
    # past KERNEL_DEGREE, whose power tables would not fit, each prime is scanned
    f = [-1] + [0] * numutil.KERNEL_DEGREE + [1]  # x^(KERNEL_DEGREE + 1) - 1
    primes = primes_up_to(600)
    assert roots_mod_primes(f, primes) == [roots_mod(f, p) for p in primes]
