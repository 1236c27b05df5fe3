import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersective_lab.energy import FreqSet, additive_energy, ch_check, newbm_check
from intersective_lab.errors import PreconditionViolated, TooLarge


def naive_energy(values, m, delta):
    """Full 2m-fold loop oracle with exact torus-norm test.

    Rational values are taken as integer numerators t over their common
    denominator D, where ||t / D|| <= delta reads min(t, D - t) <= delta D.
    """
    count = 0
    if all(isinstance(v, Fraction) for v in values):
        D = math.lcm(*(v.denominator for v in values))
        nums = [v.numerator * (D // v.denominator) for v in values]
        delta = Fraction(delta)
        lhs_scale, rhs = delta.denominator, delta.numerator * D
        for tup in itertools.product(nums, repeat=2 * m):
            t = (sum(tup[:m]) - sum(tup[m:])) % D
            if min(t, D - t) * lhs_scale <= rhs:
                count += 1
        return count
    for tup in itertools.product(values, repeat=2 * m):
        s = sum(tup[:m]) - sum(tup[m:])
        d = s - math.floor(s)
        if min(d, 1 - d) <= delta:
            count += 1
    return count


def F(a, b):
    return Fraction(a, b)


def test_examples():
    assert additive_energy(FreqSet.build([F(0, 1)], 3, 0)) == 1
    assert additive_energy(FreqSet.build([F(1, 3), F(2, 3)], 1, 0)) == 2
    assert additive_energy(FreqSet.build([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], 2, 0)) == 52


def test_meet_in_middle_equals_naive():
    rng = random.Random(21)
    for trial in range(50):
        m = rng.randint(1, 3)
        size = rng.randint(1, 8)
        den = rng.randint(2, 40)
        nums = rng.sample(range(den), min(size, den))
        vals = [F(n, den) for n in nums]
        delta = rng.choice([Fraction(0), Fraction(1, 2 * rng.randint(10, 1000))])
        fs = FreqSet.build(vals, m, delta)
        assert additive_energy(fs) == naive_energy(vals, m, delta), (trial, vals, m, delta)


def test_monotone_in_delta_and_set():
    vals = [F(1, 7), F(2, 7), F(5, 7)]
    base = additive_energy(FreqSet.build(vals, 2, 0))
    wider = additive_energy(FreqSet.build(vals, 2, F(1, 50)))
    assert base <= wider
    bigger = additive_energy(FreqSet.build(vals + [F(3, 7)], 2, 0))
    assert base <= bigger


def test_permutation_invariance():
    vals = [F(1, 9), F(4, 9), F(7, 9), F(2, 9)]
    e1 = additive_energy(FreqSet.build(vals, 2, 0))
    e2 = additive_energy(FreqSet.build(list(reversed(vals)), 2, 0))
    assert e1 == e2


def test_diagonal_lower_bound():
    rng = random.Random(22)
    for _ in range(20):
        den = rng.randint(5, 60)
        size = rng.randint(1, 6)
        vals = [F(n, den) for n in rng.sample(range(den), size)]
        m = rng.randint(1, 3)
        assert additive_energy(FreqSet.build(vals, m, 0)) >= size**m


def test_work_guard():
    vals = [F(i, 97) for i in range(1, 9)]
    with pytest.raises(TooLarge):
        additive_energy(FreqSet.build(vals, 6, 0))  # 8^12 > 1e9


def test_work_guard_never_builds_the_power():
    # 2^(2*4e5) would have 240k digits; the exponent test refuses it at once
    with pytest.raises(TooLarge, match="WORK_GUARD"):
        additive_energy(FreqSet.build([F(1, 3), F(2, 3)], 400_000, 0))
    # |S| = 1 passes the |S|^(2m) guard for any m; the m passes do not
    with pytest.raises(TooLarge, match="FOLD_GUARD"):
        additive_energy(FreqSet.build([F(0, 1)], 30_000_000, 0))
    assert additive_energy(FreqSet.build([F(1, 2)], 100_000, F(1, 3))) == 1


def test_delta_must_be_a_number():
    with pytest.raises(ValueError, match="delta"):
        FreqSet.build([F(1, 3)], 1, math.nan)


@st.composite
def mixed_denominators(draw):
    """Distinct rationals with reduced denominators d1, d2 and their divisors,
    where neither of d1, d2 divides the other: the lcm is none of them."""
    d1, d2 = draw(
        st.tuples(st.integers(2, 24), st.integers(2, 24)).filter(
            lambda ds: ds[0] % ds[1] and ds[1] % ds[0]
        )
    )
    more = draw(st.lists(st.tuples(st.integers(0, 23), st.sampled_from([d1, d2])), max_size=3))
    return sorted({Fraction(1, d1), Fraction(1, d2)} | {Fraction(a % d, d) for a, d in more})


deltas = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from([F(1, 2), F(2, 3), F(1, 1), F(5, 2), 0.5, 7.0]),  # every pair
    st.integers(3, 80).map(lambda k: F(1, k)),  # windows that wrap past 0
    st.sampled_from([0.1, 0.25, 1e-3]),  # float tolerance on rational points
)


@settings(max_examples=120, deadline=None)
@given(mixed_denominators(), st.integers(1, 2), deltas)
@example([F(1, 4), F(1, 6), F(5, 6)], 2, F(1, 12))  # D = 12 = lcm(4, 6)
@example([F(0, 1), F(1, 10), F(14, 15)], 1, F(1, 15))
def test_integer_numerator_energy_matches_naive(vals, m, delta):
    D = math.lcm(*(v.denominator for v in vals))
    assert all(v.denominator < D for v in vals)
    assert additive_energy(FreqSet.build(vals, m, delta)) == naive_energy(vals, m, delta)


def test_distinctness_required():
    with pytest.raises(ValueError):
        FreqSet.build([F(1, 3), F(2, 6)], 2, 0)


def test_float_fallback_matches_naive():
    rng = random.Random(23)
    for _ in range(20):
        vals = [round(rng.random(), 6) for _ in range(rng.randint(2, 5))]
        m = rng.randint(1, 2)
        fs = FreqSet.build(vals, m, 1e-7)
        assert additive_energy(fs) == naive_energy(vals, m, 1e-7)


def test_newbm_trivial():
    assert newbm_check(FreqSet.build([F(1, 8)], 2, 0), 8, 1) == (1, 64.0)


def test_newbm_distinct_prime_denominators():
    primes = [11, 13, 17, 19]
    vals = [F(1, p) for p in primes]
    fs = FreqSet.build(vals, 2, 0)
    lhs, rhs_shape = newbm_check(fs, 20, 1)
    assert lhs == naive_energy(vals, 2, Fraction(0))
    # multiset coincidences only: 2t^2 - t ordered quadruples
    t = len(vals)
    assert lhs == 2 * t * t - t
    assert lhs <= 3 * rhs_shape


def test_newbm_oracle_equivalence():
    vals = [F(a, q) for q in range(2, 9) for a in range(1, q) if math.gcd(a, q) == 1]
    vals = sorted(set(v for v in vals if v <= F(1, 16)))
    fs = FreqSet.build(vals, 2, 0)
    lhs, _ = newbm_check(fs, 8, 1)
    assert lhs == naive_energy(vals, 2, Fraction(0))


def test_newbm_preconditions():
    with pytest.raises(PreconditionViolated):
        newbm_check(FreqSet.build([F(1, 50)], 2, 0), 10, 1)  # denominator > Q
    with pytest.raises(PreconditionViolated):
        newbm_check(FreqSet.build([F(1, 7), F(2, 7)], 2, 0), 10, 1)  # 2 per denominator
    with pytest.raises(PreconditionViolated):
        newbm_check(FreqSet.build([F(1, 16), F(9, 16)], 2, 0), 16, 1)  # arc too long
    with pytest.raises(PreconditionViolated):
        newbm_check(FreqSet.build([F(1, 8)], 1, 0), 8, 1)  # m < 2


def test_ch_trivial_case():
    res = ch_check(range(1, 101), 100, FreqSet.build([F(0, 1)], 1, 0))
    assert abs(res.lhs - 100) < 1e-9
    assert abs(res.ratio - 1.0) < 1e-9


def test_ch_spike_case():
    N = 1000
    A = [n for n in range(1, N + 1) if n % 5 == 0]
    S = FreqSet.build([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], 2, 0)
    res = ch_check(A, N, S)
    assert abs(res.lhs - 4 * len(A)) < 1e-6
    assert res.ratio > 0


def test_ch_random_instances_bounded():
    rng = random.Random(24)
    worst = 0.0
    for _ in range(30):
        N = 500
        A = sorted(rng.sample(range(1, N + 1), rng.randint(10, 250)))
        den = rng.randint(3, 50)
        size = rng.randint(1, min(6, den - 1))
        S = FreqSet.build(
            [F(a, den) for a in rng.sample(range(1, den), size)], rng.randint(1, 3), 0
        )
        res = ch_check(A, N, S)
        worst = max(worst, res.ratio)
    assert worst <= 10.0
