import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersective_lab.arcs_fourier import TorusPoint
from intersective_lab.errors import NotCoprime, TooLarge
from intersective_lab.expsum import (
    PHASE_GUARD,
    SCAN_GUARD,
    PhaseSumSpec,
    cancellation_scan,
    complete_sum,
    fitted_C,
    main_term_check,
    normalized_S,
    phase_sum,
    profile_for,
)
from intersective_lab.intersective import AuxFamily
from intersective_lab.intpoly import IntPoly
from intersective_lab.numutil import _egcd, values_mod
from test_residue_sieve import in_W, in_Wq

X2 = IntPoly([0, 0, 1])
X3 = IntPoly([0, 0, 0, 1])
X3PX = IntPoly([0, 1, 0, 1])


def naive_full_sum(g, a, q):
    return sum(cmath.exp(2j * math.pi * ((a * g.evaluate(s)) % q) / q) for s in range(q))


def test_complete_sum_examples():
    r = complete_sum(X2, 1, 3, 1)
    assert cmath.isclose(r.value, 1j * math.sqrt(3), abs_tol=1e-12)
    assert abs(abs(r.value) - math.sqrt(3)) < 1e-12
    assert complete_sum(X3, 1, 1, 1).value == 1
    r5 = complete_sum(X2, 1, 5, 1)
    assert abs(abs(r5.value) - math.sqrt(5)) < 1e-12


def test_complete_sum_not_coprime():
    with pytest.raises(NotCoprime):
        complete_sum(X2, 2, 4, 1)


def test_trivial_bound_invariant():
    rng = random.Random(15)
    for _ in range(60):
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 5))])
        if g.degree() < 1:
            continue
        q = rng.randint(1, 60)
        a = rng.choice([a for a in range(1, q + 1) if math.gcd(a, q) == 1])
        r = complete_sum(g, a, q, rng.choice([1, 5, None]))
        assert abs(r.value) <= r.trivial_bound + 1e-6


def test_conjugation_symmetry():
    rng = random.Random(16)
    for _ in range(40):
        q = rng.randint(2, 80)
        a = rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1])
        g = IntPoly([rng.randint(-5, 5) for _ in range(4)] + [1])
        r1 = complete_sum(g, a, q, None)
        r2 = complete_sum(g, q - a, q, None)
        assert cmath.isclose(r2.value, r1.value.conjugate(), abs_tol=1e-9)


def test_crt_multiplicativity_full_sums():
    rng = random.Random(17)
    pairs = [(3, 4), (5, 7), (8, 9), (11, 13), (16, 25), (27, 32), (49, 81)]
    for q1, q2 in pairs:
        q = q1 * q2
        a = rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1])
        g = IntPoly([rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)])
        _, q2_inv, _ = _egcd(q2 % q1, q1)
        _, q1_inv, _ = _egcd(q1 % q2, q2)
        left = complete_sum(g, a, q, 1).value
        right = (
            complete_sum(g, (a * q2_inv) % q1 if q1 > 1 else 1, q1, 1).value
            * complete_sum(g, (a * q1_inv) % q2 if q2 > 1 else 1, q2, 1).value
        )
        assert cmath.isclose(left, right, abs_tol=1e-8)


def test_phase_exactness_invariance():
    # adding q x^j to g cannot change the sum: phases are exact residues
    rng = random.Random(18)
    for _ in range(30):
        q = rng.randint(2, 50)
        a = rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1])
        g = IntPoly([rng.randint(-9, 9) for _ in range(4)] + [1])
        j = rng.randint(0, 4)
        shifted = IntPoly(
            [c + (q if i == j else 0) for i, c in enumerate(g.coeffs)]
        )
        assert complete_sum(g, a, q, None).value == complete_sum(shifted, a, q, None).value


def test_phase_sum_examples():
    spec = PhaseSumSpec.for_poly(X2, 4, 16, 1, TorusPoint.rational(0, 1))
    assert cmath.isclose(phase_sum(spec), 4.0)
    spec = PhaseSumSpec.for_poly(X2, 3, 9, 1, TorusPoint.rational(1, 2))
    assert cmath.isclose(phase_sum(spec), -1.0, abs_tol=1e-12)
    spec = PhaseSumSpec.for_poly(X2, 3, 9, 1, TorusPoint.rational(1, 4), weighted=True)
    assert cmath.isclose(phase_sum(spec), 4 + 8j, abs_tol=1e-12)
    assert phase_sum(PhaseSumSpec.for_poly(X2, 0, 1, 1, TorusPoint.rational(1, 4))) == 0


def test_phase_sum_trivial_bound():
    fam = AuxFamily(X2, bound=50)
    rng = random.Random(19)
    for _ in range(20):
        gamma = TorusPoint(None, rng.random())
        spec = PhaseSumSpec.for_family(fam, 1, 10_000, 5, gamma, weighted=True)
        prof = profile_for(spec.g, 5)
        dg = spec.g.derivative()
        bound = sum(abs(dg.evaluate(m)) for m in range(1, spec.M + 1) if in_W(prof, m))
        assert abs(phase_sum(spec)) <= bound + 1e-6
    at_zero = phase_sum(PhaseSumSpec.for_family(fam, 1, 10_000, 5, TorusPoint.rational(0, 1), weighted=True))
    prof = profile_for(fam.aux_poly(1), 5)
    exact = sum(2 * m for m in range(1, 101) if in_W(prof, m))
    assert cmath.isclose(at_zero, exact)


def test_normalized_S_near_one_at_zero():
    fam = AuxFamily(X2, bound=50)
    M = 1000
    spec = PhaseSumSpec.for_family(fam, 1, M * M, 1, TorusPoint.rational(0, 1), weighted=True)
    val = normalized_S(spec)
    assert abs(val.imag) < 1e-9
    assert abs(val.real - 1.0) <= 2.0 / M + 1e-9


def test_normalized_S_requires_family():
    spec = PhaseSumSpec.for_poly(X2, 10, 100, 1, TorusPoint.rational(0, 1))
    with pytest.raises(ValueError):
        normalized_S(spec)


def test_normalized_S_minor_below_major_peak():
    # |S(gamma)| on a minor-arc point sits below the gamma = 0 major peak
    fam = AuxFamily(X2, bound=50)
    N = 10**6
    major = abs(
        normalized_S(
            PhaseSumSpec.for_family(fam, 1, N, 3, TorusPoint.rational(0, 1), weighted=True)
        )
    )
    rng = random.Random(27)
    for _ in range(10):
        gamma = TorusPoint(None, rng.uniform(0.05, 0.95))
        minor = abs(
            normalized_S(PhaseSumSpec.for_family(fam, 1, N, 3, gamma, weighted=True))
        )
        assert minor < major


def test_unsieved_scan_gauss_bound():
    # full quadratic sums: |S| = sqrt(q) for odd q, sqrt(2q) if 4 | q, 0 if q = 2 mod 4
    rows = cancellation_scan(X2, 100, 1)
    for r in rows:
        assert r.ratio_sqrt <= math.sqrt(2) + 1e-9
        if r.q % 2 == 1 and r.q > 1:
            assert abs(r.ratio_sqrt - 1.0) < 1e-9
        elif r.q % 4 == 2:
            assert r.max_abs < 1e-9
    assert rows[0].q == 1 and rows[0].max_abs == 1.0


def test_scan_row_matches_complete_sum():
    rows = cancellation_scan(X3, 30, None)
    for row in rows:
        if row.q < 2:
            continue
        best = max(
            abs(complete_sum(X3, a, row.q, None).value)
            for a in range(1, row.q)
            if math.gcd(a, row.q) == 1
        )
        assert abs(best - row.max_abs) < 1e-8


def test_main_term_closed_form_case():
    fam = AuxFamily(X2, bound=50)
    res = main_term_check(fam, 1, 1, 1, 1, 10**6)
    M = 1000
    assert abs(res.direct - M * (M + 1)) < 1e-6
    assert abs(res.predicted - M * M) < 1e-6
    assert abs(res.rel_error - M / 10**6) < 1e-9


def test_main_term_examples():
    fam = AuxFamily(X2, bound=50)
    assert main_term_check(fam, 1, 1, 4, 3, 10**6).rel_error < 0.1
    fam2 = AuxFamily(X3PX, bound=50)
    assert main_term_check(fam2, 1, 2, 5, 5, 10**6).rel_error < 0.1


def test_main_term_not_coprime():
    fam = AuxFamily(X2, bound=50)
    with pytest.raises(NotCoprime):
        main_term_check(fam, 1, 2, 4, 3, 10**4)


def literal_phase_sum(spec):
    """The per-m definition: membership by in_W, exact g(m), one term at a time."""
    prof = profile_for(spec.g, spec.Y)
    dg = spec.g.derivative()
    gamma = spec.gamma
    if gamma.frac is not None:
        a, q, off = gamma.frac.numerator, gamma.frac.denominator, gamma.offset
    else:
        a, q, off = 0, 1, gamma.value()
    reals, imags, size = [], [], 0.0
    for m in range(1, spec.M + 1):
        if not in_W(prof, m):
            continue
        hm = spec.g.evaluate(m)
        ph = ((hm * a) % q) / q + hm * off
        w = float(dg.evaluate(m)) if spec.weighted else 1.0
        ang = 2.0 * math.pi * math.fmod(ph, 1.0)
        reals.append(w * math.cos(ang))
        imags.append(w * math.sin(ang))
        size += abs(w)
    return complex(math.fsum(reals), math.fsum(imags)), size


def sieve_friendly_polys(bound):
    """Coefficients up to bound, with g'(0) = c_1 in [1, 30] so every p^gamma
    stays small (a g' divisible by a large prime power has a huge modulus)."""
    big = st.integers(-bound, bound)
    return st.builds(
        lambda c0, c1, rest: IntPoly([c0, c1, *rest]),
        big, st.integers(1, 30), st.lists(big, max_size=3),
    )


phase_gammas = st.one_of(
    st.builds(
        TorusPoint.rational,
        st.integers(0, 10**12),
        st.one_of(st.integers(1, 60), st.integers(2**31 - 5, 2**40)),
        st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3, allow_nan=False)),
    ),
    st.builds(TorusPoint.from_float, st.floats(0, 1, allow_nan=False, exclude_max=True)),
)


@settings(max_examples=120, deadline=None)
@given(
    sieve_friendly_polys(10**12),
    st.integers(1, 300),
    st.integers(0, 20),
    phase_gammas,
    st.booleans(),
)
# coefficients past 2^63: one block left empty by the sieve, one kept whole
@example(IntPoly([0, 3 * 2**63 + 1, 1]), 1, 5, TorusPoint.rational(1, 3), True)
@example(IntPoly([0, 3 * 2**63 + 1, 1]), 5, 0, TorusPoint.rational(1, 3, 1e-30), True)
def test_phase_sum_matches_literal_loop(g, M, Y, gamma, weighted):
    # coefficients up to 1e12 push g(m) and g'(m) past int64
    spec = PhaseSumSpec.for_poly(g, M, M, Y, gamma, weighted=weighted)
    want, size = literal_phase_sum(spec)
    assert abs(phase_sum(spec) - want) <= 1e-12 * max(1.0, size)


def test_phase_sum_across_blocks():
    g = IntPoly([3, -1, 0, 2])
    for gamma in (TorusPoint.rational(5, 17), TorusPoint.rational(2, 9, 1e-9)):
        spec = PhaseSumSpec.for_poly(g, 70_000, 70_000, 7, gamma, weighted=True)
        want, size = literal_phase_sum(spec)
        assert abs(phase_sum(spec) - want) <= 1e-12 * size


def literal_complete_sum(g, a, q, Y):
    prof = profile_for(g, Y, q)
    res = [(a * g.evaluate(s)) % q for s in range(q) if in_Wq(prof, q, s)]
    value = complex(
        math.fsum(math.cos(2 * math.pi * r / q) for r in res),
        math.fsum(math.sin(2 * math.pi * r / q) for r in res),
    )
    return value, len(res)


@settings(max_examples=150, deadline=None)
@given(
    sieve_friendly_polys(10**9),
    st.integers(1, 400),
    st.integers(-(10**6), 10**6),
    st.one_of(st.none(), st.integers(0, 40)),
)
def test_complete_sum_matches_literal_loop(g, q, a, Y):
    a = a if math.gcd(a, q) == 1 else 1
    want, count = literal_complete_sum(g, a, q, Y)
    got = complete_sum(g, a, q, Y)
    assert got.admissible == count
    assert abs(got.value - want) <= 1e-12 * max(1, count)


def test_guards_sit_above_benchmark_sizes():
    assert PHASE_GUARD >= 2 * 10**5
    assert SCAN_GUARD >= 1400 * 1401 // 2
    assert SCAN_GUARD >= 2000 * 2001 // 2  # the README's scan


def test_phase_and_scan_guards():
    spec = PhaseSumSpec.for_poly(X2, PHASE_GUARD + 1, 1, 3, TorusPoint.rational(1, 3))
    with pytest.raises(TooLarge, match="PHASE_GUARD"):
        phase_sum(spec)
    with pytest.raises(TooLarge, match="SCAN_GUARD"):
        cancellation_scan(X3, 10**8, None)


def literal_scan_row(g, prof, k, q):
    """The per-q definition: one histogram DFT of the residues mod q, max over units."""
    res = values_mod(g.coeffs, np.flatnonzero(prof.mask_mod(q)), q)
    if q == 1:
        m = float(res.size)
        return (1, 0, m, m, m, res.size)
    mags = np.abs(np.fft.fft(np.bincount(res, minlength=q).astype(np.float64)))
    coprime = np.gcd(np.arange(q), q) == 1
    coprime[0] = False
    max_abs = float(mags[coprime].max())
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]
    return (q, len(primes), max_abs, max_abs / math.sqrt(q), max_abs / q ** (1.0 - 1.0 / k), res.size)


def literal_scan(g, q_max, Y, squarefree_only):
    prof = profile_for(g, Y, q_max)
    k = max(1, g.degree())
    return [
        literal_scan_row(g, prof, k, q)
        for q in range(1, q_max + 1)
        if not squarefree_only or all(q % (d * d) for d in range(2, q + 1))
    ]


@settings(max_examples=60, deadline=None)
@given(
    sieve_friendly_polys(10**6),
    st.integers(1, 200),
    st.one_of(st.none(), st.just(1), st.integers(2, 12)),
    st.booleans(),
)
def test_cancellation_scan_matches_per_q_dft(g, q_max, Y, squarefree_only):
    got = cancellation_scan(g, q_max, Y, squarefree_only=squarefree_only)
    want = literal_scan(g, q_max, Y, squarefree_only)
    assert [(r.q, r.omega, r.admissible) for r in got] == [(w[0], w[1], w[5]) for w in want]
    for r, w in zip(got, want):
        for value, oracle in zip((r.max_abs, r.ratio_sqrt, r.ratio_weyl), w[2:5]):
            assert abs(value - oracle) <= 1e-9 * max(1.0, oracle)
