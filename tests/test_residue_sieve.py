import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective_lab import numutil
from intersective_lab.errors import TooLarge, ZeroDerivative
from intersective_lab.intpoly import IntPoly
from intersective_lab.numutil import PRIME_GUARD, padic_valuation, primes_up_to
from intersective_lab.residue_sieve import (
    LOOP_GUARD,
    MARK_GUARD,
    PrimeData,
    SieveProfile,
    expected_density,
    fixed_divisor,
    gamma_exponent,
    root_count,
    sieve_count,
)

X2 = IntPoly([0, 0, 1])
X2M1 = IntPoly([-1, 0, 1])
X3 = IntPoly([0, 0, 0, 1])


def test_gamma_exponent():
    assert gamma_exponent(X3, 2) == 1
    assert gamma_exponent(X2, 2) == 2
    assert gamma_exponent(X3, 3) == 2
    with pytest.raises(ZeroDerivative):
        gamma_exponent(IntPoly([5]), 3)


def test_gamma_function_vanishing_not_coefficient_vanishing():
    # h = x^4 - 2x^2: h' = 4x^3 - 4x = 4(x^3 - x) vanishes as a *function*
    # mod 3 (Fermat) though its coefficients are nonzero mod 3
    h = IntPoly([0, 0, -2, 0, 1])
    assert any(c % 3 for c in h.derivative().coeffs)
    assert gamma_exponent(h, 3) == 2


def vanishes_identically(f, m):
    """Does f(n) = 0 (mod m) for every n?  Newton's forward differences mod m."""
    vals = [f.evaluate(i) % m for i in range(f.degree() + 1)]
    for _ in range(len(vals)):
        if vals[0] % m:
            return False
        vals = [(b - a) % m for a, b in zip(vals, vals[1:])]
    return True


def loop_gamma(g, p):
    """gamma(g; p) by testing p, p^2, ... one power at a time."""
    dg = g.derivative()
    gamma = 1
    while vanishes_identically(dg, p**gamma):
        gamma += 1
    return gamma


def test_fixed_divisor_examples():
    assert fixed_divisor(IntPoly([0, -1, 0, 1])) == 6  # x^3 - x
    assert fixed_divisor(IntPoly([0, 1, 1])) == 2  # x^2 + x
    assert fixed_divisor(IntPoly([0, -4, 0, 4])) == 24  # the g' of x^4 - 2x^2
    assert fixed_divisor(IntPoly([7])) == 7
    assert fixed_divisor(IntPoly([])) == 0


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=2, max_size=10).filter(lambda cs: any(cs[1:])),
    st.sampled_from([1, 2, 3, 4, 8, 9, 12, 27, 120, 5**3 * 7]),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_gamma_exponent_matches_forward_difference_loop(coeffs, scale, p):
    g = IntPoly([scale * c for c in coeffs])
    assert gamma_exponent(g, p) == loop_gamma(g, p)


def test_root_count():
    assert root_count(X2, 2) == (2, (0, 2))
    assert root_count(X3, 3) == (3, (0, 3, 6))
    assert root_count(X2M1, 5) == (1, (0,))


def test_membership():
    prof = SieveProfile.build(X2, 3)
    assert prof.in_W(1) is True
    assert prof.in_W(2) is False
    empty = SieveProfile.build(X2, 1.5)
    assert all(empty.in_W(n) for n in range(-5, 50))


def test_membership_wq():
    prof = SieveProfile.build(X2, 5)
    assert prof.in_Wq(4, 2) is False
    assert prof.in_Wq(2, 2) is True  # gamma_2 = 2 and 4 does not divide 2
    assert all(prof.in_Wq(1, n) for n in range(30))
    prof3 = SieveProfile.build(X3, 10)
    assert prof3.in_Wq(9, 3) is False


def test_expected_density():
    assert expected_density(SieveProfile.build(X2, 3), exact=True) == Fraction(1, 3)
    assert expected_density(SieveProfile.build(X2, 1.0)) == 1.0
    assert expected_density(SieveProfile.build(X2M1, 5), exact=True) == Fraction(4, 15)


def test_sieve_count_exhaustive_example():
    prof = SieveProfile.build(X2, 3)
    for method in ("wheel", "mark", "loop"):
        sc = sieve_count(prof, 12, method=method)
        assert sc.count == 4
        assert sc.rel_error == 0.0
    empty = SieveProfile.build(X2, 1.0)
    assert sieve_count(empty, 100, method="mark").count == 100


def test_sieve_methods_agree():
    rng = random.Random(5)
    for g in (X2, X3, X2M1):
        prof = SieveProfile.build(g, 13)
        for X in (50, 377, 1000):
            counts = {m: sieve_count(prof, X, method=m).count for m in ("mark", "loop")}
            if prof.period() <= X:
                counts["wheel"] = sieve_count(prof, X, method="wheel").count
            assert len(set(counts.values())) == 1


def test_periodicity():
    prof = SieveProfile.build(X3, 7)
    L = prof.period()
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(-500, 500)
        assert prof.in_W(n) == prof.in_W(n + L)


def test_monotone_in_Y():
    lo = SieveProfile.build(X3, 5)
    hi = SieveProfile.build(X3, 50)
    rng = random.Random(7)
    for _ in range(10_000):
        n = rng.randint(1, 10**6)
        if hi.in_W(n):
            assert lo.in_W(n)


def test_wq_with_full_period_equals_w():
    prof = SieveProfile.build(X2, 7)
    L = prof.period()
    for n in range(1, 400):
        assert prof.in_Wq(L, n) == prof.in_W(n)


def test_exact_density_times_period_is_period_count():
    for g in (X2, X3, X2M1):
        prof = SieveProfile.build(g, 7)
        L = prof.period()
        w = expected_density(prof, exact=True)
        exact_count = sum(1 for n in range(L) if prof.in_W(n))
        assert w * L == exact_count


def test_small_X_warns():
    prof = SieveProfile.build(X3, 50)
    with pytest.warns(UserWarning):
        sieve_count(prof, 30, method="mark")


sieve_polys = st.lists(st.integers(-20, 20), min_size=2, max_size=5).filter(
    lambda cs: any(cs[1:])
)


@settings(max_examples=80, deadline=None)
@given(sieve_polys, st.integers(0, 30), st.integers(0, 400))
def test_mask_matches_in_W(coeffs, Y, X):
    prof = SieveProfile.build(IntPoly(coeffs), Y)
    assert prof.mask(X).tolist() == [prof.in_W(n) for n in range(X)]


@settings(max_examples=80, deadline=None)
@given(sieve_polys, st.integers(0, 30), st.integers(1, 400))
def test_mask_mod_matches_in_Wq(coeffs, Y, q):
    prof = SieveProfile.build(IntPoly(coeffs), Y)
    assert prof.mask_mod(q).tolist() == [prof.in_Wq(q, n) for n in range(q)]


def test_prime_and_mark_guards_sit_above_targets():
    # benchmark sizes X <= 1e7, B <= 8000, Y <= 9000; the B = 4e4 and
    # Y = 1e6 targets; and complete sums at q up to RESIDUE_GUARD = 1e7
    assert MARK_GUARD >= 10**7
    assert PRIME_GUARD >= 10**7
    with pytest.raises(TooLarge, match="PRIME_GUARD"):
        primes_up_to(PRIME_GUARD + 1)
    with pytest.raises(TooLarge, match="PRIME_GUARD"):
        primes_up_to(float("inf"))
    prof = SieveProfile.build(IntPoly([0, -2, 1, 1]), 30)
    assert prof.period() > MARK_GUARD + 1
    with pytest.raises(TooLarge, match="MARK_GUARD"):
        sieve_count(prof, MARK_GUARD + 1, method="mark")


def literal_build(g, Y):
    """SieveProfile.build with gamma and the bad residues found per prime.

    g' vanishes mod p^k everywhere once it does on 0..deg g' (every forward
    difference is an integer combination of those values), so gamma is
    1 + min v_p(g'(n)) over them; the bad residues are a scan of [0, p^gamma).
    """
    dg = g.derivative()
    data = {}
    for p in primes_up_to(Y):
        vals = [dg.evaluate(n) for n in range(dg.degree() + 1)]
        gamma = 1 + min(padic_valuation(v, p) for v in vals if v)
        m = p**gamma
        bad = [s for s in range(m) if dg.evaluate(s) % m == 0]
        data[p] = PrimeData(gamma, m, len(bad), frozenset(bad))
    return data


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-(10**4), 10**4), min_size=2, max_size=8).filter(lambda cs: any(cs[1:])),
    st.integers(0, 60),
    st.booleans(),
)
def test_build_matches_per_prime_scan(coeffs, Y, kernel):
    # SCAN_WORK = -1 puts every batch through Cantor-Zassenhaus
    with pytest.MonkeyPatch.context() as mp:
        if kernel:
            mp.setattr(numutil, "SCAN_WORK", -1)
        prof = SieveProfile.build(IntPoly(coeffs), Y)
    assert prof.per_prime == literal_build(IntPoly(coeffs), Y)


@pytest.mark.parametrize("coeffs", [(0, -2, 1, 1), (-48841, 0, 6851, 0, -251, 0, 1), (7, 0, 0, 0, 12)])
def test_build_matches_per_prime_scan_past_scan_work(coeffs):
    g = IntPoly(coeffs)
    assert sum(primes_up_to(3000)) * (len(coeffs) - 1) > numutil.SCAN_WORK
    assert SieveProfile.build(g, 3000).per_prime == literal_build(g, 3000)


def test_loop_guard():
    prof = SieveProfile.build(X2, 10)
    with pytest.raises(TooLarge, match="LOOP_GUARD"):
        sieve_count(prof, LOOP_GUARD // 4 + 1, method="loop")
    # no primes at all still counts as one membership test per n
    with pytest.raises(TooLarge, match="LOOP_GUARD"):
        sieve_count(SieveProfile.build(X2, 1), LOOP_GUARD + 1, method="loop")
