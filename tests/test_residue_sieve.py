import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersective_lab import numutil, residue_sieve
from intersective_lab.errors import TooLarge, ZeroDerivative
from intersective_lab.intpoly import IntPoly
from intersective_lab.numutil import PRIME_GUARD, padic_valuation, primes_up_to, roots_mod
from intersective_lab.residue_sieve import (
    MARK_GUARD,
    PrimeData,
    SieveProfile,
    expected_density,
    fixed_divisor,
    gamma_exponent,
    sieve_count,
)

X2 = IntPoly([0, 0, 1])
X2M1 = IntPoly([-1, 0, 1])
X3 = IntPoly([0, 0, 0, 1])
X3X2M2X = IntPoly([0, -2, 1, 1])


def root_count(g, p):
    """(j, bad): count and sorted residues s mod p^gamma with g'(s) = 0."""
    bad = tuple(roots_mod(g.derivative().coeffs, p ** gamma_exponent(g, p)))
    return len(bad), bad


def in_W(prof, n):
    """Membership of n in W(g; Y), prime by prime: the oracle of mask."""
    for pd in prof.per_prime.values():
        if n % pd.modulus in pd.bad:
            return False
    return True


def in_Wq(prof, q, n):
    """Membership of n in W^q(g; Y), only primes with p^gamma | q: the oracle of mask_mod."""
    for pd in prof.per_prime.values():
        if q % pd.modulus == 0 and n % pd.modulus in pd.bad:
            return False
    return True


def strike_oracle(length, prime_data):
    """Flags on [0, length): one strided store per (modulus, bad residue) over the whole array."""
    adm = np.ones(length, dtype=bool)
    for pd in prime_data:
        for b in pd.bad:
            adm[b :: pd.modulus] = False
    return adm


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
    assert in_W(prof, 1) is True
    assert in_W(prof, 2) is False
    empty = SieveProfile.build(X2, 1.5)
    assert all(in_W(empty, n) for n in range(-5, 50))


def test_membership_wq():
    prof = SieveProfile.build(X2, 5)
    assert in_Wq(prof, 4, 2) is False
    assert in_Wq(prof, 2, 2) is True  # gamma_2 = 2 and 4 does not divide 2
    assert all(in_Wq(prof, 1, n) for n in range(30))
    prof3 = SieveProfile.build(X3, 10)
    assert in_Wq(prof3, 9, 3) is False


def test_expected_density():
    assert expected_density(SieveProfile.build(X2, 3), exact=True) == Fraction(1, 3)
    assert expected_density(SieveProfile.build(X2, 1.0)) == 1.0
    assert expected_density(SieveProfile.build(X2M1, 5), exact=True) == Fraction(4, 15)


sieve_polys = st.lists(st.integers(-20, 20), min_size=2, max_size=5).filter(
    lambda cs: any(cs[1:])
)


def loop_count(prof, X):
    """|[1, X] cap W|: the literal membership loop, the oracle of sieve_count."""
    return sum(1 for n in range(1, X + 1) if in_W(prof, n))


def test_sieve_count_exhaustive_example():
    prof = SieveProfile.build(X2, 3)
    sc = sieve_count(prof, 12)
    assert (sc.count, sc.rel_error, sc.method, sc.period) == (4, 0.0, "wheel", 12)
    assert loop_count(prof, 12) == 4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residue_sieve, "WHEEL_CAP", 0)
        sc = sieve_count(prof, 12)
    assert (sc.count, sc.rel_error, sc.method) == (4, 0.0, "mark")
    empty = SieveProfile.build(X2, 1.0)
    assert sieve_count(empty, 100).count == 100


def test_sieve_methods_agree():
    for g in (X2, X3, X2M1):
        prof = SieveProfile.build(g, 13)
        for X in (50, 377, 1000):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(residue_sieve, "WHEEL_CAP", 0)
                marked = sieve_count(prof, X)
            assert marked.method == "mark"
            assert marked.count == loop_count(prof, X)
            # the periods, 60060 and 90090, lie above every X here
            assert sieve_count(prof, X) == marked


@pytest.mark.filterwarnings("ignore:X=.* is small for Y=:UserWarning")  # small X is asked for here
@settings(max_examples=60, deadline=None)
@given(sieve_polys, st.integers(0, 8), st.integers(1, 3000))
def test_sieve_count_matches_loop(coeffs, Y, X):
    # wheel exactly when the period L <= X; the density is w(Y) as a float
    prof = SieveProfile.build(IntPoly(coeffs), Y)
    sc = sieve_count(prof, X)
    assert sc.method == ("wheel" if prof.period() <= X else "mark")
    assert sc.count == loop_count(prof, X)
    assert sc.density == expected_density(prof) == float(expected_density(prof, exact=True))
    assert sc.main_term == X * sc.density


def test_periodicity():
    prof = SieveProfile.build(X3, 7)
    L = prof.period()
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(-500, 500)
        assert in_W(prof, n) == in_W(prof, n + L)


def test_monotone_in_Y():
    lo = SieveProfile.build(X3, 5)
    hi = SieveProfile.build(X3, 50)
    rng = random.Random(7)
    for _ in range(10_000):
        n = rng.randint(1, 10**6)
        if in_W(hi, n):
            assert in_W(lo, n)


def test_wq_with_full_period_equals_w():
    prof = SieveProfile.build(X2, 7)
    L = prof.period()
    for n in range(1, 400):
        assert in_Wq(prof, L, n) == in_W(prof, n)


def test_exact_density_times_period_is_period_count():
    for g in (X2, X3, X2M1):
        prof = SieveProfile.build(g, 7)
        L = prof.period()
        w = expected_density(prof, exact=True)
        exact_count = sum(1 for n in range(L) if in_W(prof, n))
        assert w * L == exact_count


def test_small_X_warns():
    prof = SieveProfile.build(X3, 50)
    with pytest.warns(UserWarning):
        sieve_count(prof, 30)


@settings(max_examples=80, deadline=None)
@given(sieve_polys, st.integers(0, 30), st.integers(0, 400))
def test_mask_matches_in_W(coeffs, Y, X):
    prof = SieveProfile.build(IntPoly(coeffs), Y)
    assert prof.mask(X).tolist() == [in_W(prof, n) for n in range(X)]


@settings(max_examples=80, deadline=None)
@given(sieve_polys, st.integers(0, 30), st.integers(1, 400))
def test_mask_mod_matches_in_Wq(coeffs, Y, q):
    prof = SieveProfile.build(IntPoly(coeffs), Y)
    assert prof.mask_mod(q).tolist() == [in_Wq(prof, q, n) for n in range(q)]


def strike_tiers(prime_data, length):
    """The tiers of residue_sieve._strike that flags on [0, length) pass through."""
    mods = sorted(pd.modulus for pd in prime_data if pd.bad)
    P, k = 1, 0
    while k < len(mods) and P * mods[k] <= min(residue_sieve.PATTERN_CAP, length):
        P *= mods[k]
        k += 1
    small = residue_sieve.SEGMENT // 128
    used = {"pattern"} if k else set()
    used |= {"segment" if m <= small else "whole" for m in mods[k:]}
    return used | ({"boundary"} if length > residue_sieve.SEGMENT else set())


def test_strike_tiers_match_oracles():
    # x^3+x^2-2x at Y = 40 has bad moduli 2, 3, 7, 19, 29, 31, 37; q = 2*3*7*29
    # puts them under mask_mod too.  PATTERN_CAP 1 leaves 2, 3, 7 to the
    # segments, 60 pre-sieves them; 19 and up are struck whole.
    hit = set()

    @settings(max_examples=60, deadline=None)
    @given(sieve_polys, st.integers(0, 40), st.integers(0, 3000), st.sampled_from([1, 60]))
    @example([0, -2, 1, 1], 40, 1218, 1)
    @example([0, -2, 1, 1], 40, 1218, 60)
    def check(coeffs, Y, length, cap):
        prof = SieveProfile.build(IntPoly(coeffs), Y)
        q = max(length, 1)
        dividing = [pd for pd in prof.per_prime.values() if q % pd.modulus == 0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(residue_sieve, "SEGMENT", 1024)
            mp.setattr(residue_sieve, "PATTERN_CAP", cap)
            adm, adm_q = prof.mask(length), prof.mask_mod(q)
            hit.update(("mask", t) for t in strike_tiers(prof.per_prime.values(), length))
            hit.update(("mask_mod", t) for t in strike_tiers(dividing, q))
        assert np.array_equal(adm, strike_oracle(length, prof.per_prime.values()))
        assert adm.tolist() == [in_W(prof, n) for n in range(length)]
        assert np.array_equal(adm_q, strike_oracle(q, dividing))
        assert adm_q.tolist() == [in_Wq(prof, q, n) for n in range(q)]

    check()
    tiers = ("pattern", "segment", "whole", "boundary")
    assert hit == {(f, t) for f in ("mask", "mask_mod") for t in tiers}


def test_mask_at_arith_size_matches_oracle():
    # 3e6 + 1 flags span three SEGMENTs at the default constants
    prof = SieveProfile.build(X3X2M2X, 5000)
    X = 3 * 10**6
    assert X > 2 * residue_sieve.SEGMENT
    assert np.array_equal(prof.mask(X + 1), strike_oracle(X + 1, prof.per_prime.values()))


@settings(max_examples=40, deadline=None)
@given(sieve_polys, st.integers(0, 3000))
def test_product_tree_matches_left_to_right_product(coeffs, Y):
    prof = SieveProfile.build(IntPoly(coeffs), Y)
    w, L = Fraction(1), 1
    for pd in prof.per_prime.values():
        w *= Fraction(pd.modulus - pd.j, pd.modulus)
        L *= pd.modulus
    assert expected_density(prof, exact=True) == w
    assert expected_density(prof).hex() == float(w).hex()
    assert prof.period() == L


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
        sieve_count(prof, MARK_GUARD + 1)


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
