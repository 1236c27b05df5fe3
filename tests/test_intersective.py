import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intersective_lab import intersective, numutil
from intersective_lab.errors import LiftAmbiguous, PrimeOutOfRange, TooLarge
from intersective_lab.intersective import (
    LIFT_GUARD,
    AuxFamily,
    IntersectiveUpTo,
    NotIntersective,
    PAdicRootData,
    _integer_root,
    _lift_level,
    _precision_one_roots,
    _select_root,
    _singular_product,
    _squarefree_decomposition,
    check_intersective,
    default_precision,
    hensel_roots,
    resultant,
)
from intersective_lab.intpoly import IntPoly
from intersective_lab.numutil import HORNER_BOUND, factorize, padic_valuation, primes_up_to, roots_mod

X2 = IntPoly([0, 0, 1])
X2M1 = IntPoly([-1, 0, 1])
X3 = IntPoly([0, 0, 0, 1])
X3X2M2X = IntPoly([0, -2, 1, 1])
SEXTIC = IntPoly([-48841, 0, 6851, 0, -251, 0, 1])  # (x^2-13)(x^2-17)(x^2-221)

FAMILIES = [X2, X2M1, X3, X3X2M2X]


def brute_roots_extending(h, p, prec, slack):
    """Oracle: residues mod p^prec that extend to roots mod p^(prec+slack)."""
    deep = p ** (prec + slack)
    deep_roots = {r % p**prec for r in range(deep) if h.evaluate(r) % deep == 0}
    return sorted(deep_roots)


def test_hensel_examples():
    got = hensel_roots(X2, 5, 3)
    assert [(r.residue, r.multiplicity) for r in got] == [(0, 2)]
    got = hensel_roots(X2M1, 2, 4)
    assert [(r.residue, r.multiplicity) for r in got] == [(1, 1), (15, 1)]
    got = hensel_roots(X2M1, 7, 1)
    assert [(r.residue, r.multiplicity) for r in got] == [(1, 1), (6, 1)]


def test_hensel_against_extension_oracle():
    cases = [(X2M1, 2, 4), (X2M1, 3, 2), (X2, 3, 2), (X3X2M2X, 2, 3), (SEXTIC, 2, 2)]
    for h, p, prec in cases:
        got = sorted(r.residue for r in hensel_roots(h, p, prec))
        assert got == brute_roots_extending(h, p, prec, slack=6)


def test_hensel_residues_are_roots():
    for h in FAMILIES + [SEXTIC]:
        for p in (2, 3, 5, 7, 11):
            for rd in hensel_roots(h, p, 3):
                assert h.evaluate(rd.residue) % p**3 == 0


def test_resultant_small_cases():
    # Res(x^2-1, 2x) = 4 up to sign; Res of coprime linear pair
    assert abs(resultant(X2M1, X2M1.derivative())) == 4
    f = IntPoly([-1, 1])  # x - 1
    g = IntPoly([1, 1])  # x + 1
    assert abs(resultant(f, g)) == 2
    assert resultant(X2, X2) == 0


def test_check_intersective_x2_plus_1():
    v = check_intersective(IntPoly([1, 0, 1]), 10)
    assert isinstance(v, NotIntersective)
    assert v.witness_q == 3
    for n in range(3):
        assert (n * n + 1) % 3 != 0


def test_check_intersective_integer_root_certificate():
    v = check_intersective(X2, 100)
    assert isinstance(v, IntersectiveUpTo)
    assert v.bound is None and v.integer_root == 0
    # the per-prime data carried by the family: z_p = 0 with m_p = 2
    fam = AuxFamily(X2, bound=100)
    for p in (2, 3, 5, 97):
        rd = fam.root_data(p)
        assert rd.residue % p == 0 and rd.multiplicity == 2


def test_check_intersective_sextic():
    v = check_intersective(SEXTIC, 1000)
    assert isinstance(v, IntersectiveUpTo)
    assert v.bound == 1000 and v.integer_root is None
    assert set(v.roots) == set(primes_up_to(1000))
    for p, rd in v.roots.items():
        assert SEXTIC.evaluate(rd.residue) % p**rd.prec == 0


def test_witness_is_global_minimum():
    # x^2+1: p=2 fails only at 4, p=3 already at 3
    v = check_intersective(IntPoly([1, 0, 1]), 100)
    assert v.witness_q == 3
    # 2x+1 is odd for every x: witness 2
    v = check_intersective(IntPoly([1, 2]), 50)
    assert isinstance(v, NotIntersective) and v.witness_q == 2


def test_witness_at_prime_past_lift_guard():
    # 1000003x + 1 has a simple root at every smaller prime and none mod
    # 1000003 > LIFT_GUARD, which divides a_k
    v = check_intersective(IntPoly([1, 1000003]), 1000003)
    assert v == NotIntersective(1000003)


# (-24x^4+18x^3-24x^2+31x-57)(27x^4+18x^3-24x^2+31x-57): the two factors
# differ only in a_k and have 19-adically close roots, so hensel_roots'
# lift of the whole tree to depth max(prec + V, 2V + 1) holds 130322
# roots mod 19^8
@pytest.mark.xfail(raises=TooLarge, strict=True, reason="hensel_roots lifts every branch to full depth")
def test_close_factor_roots_stay_within_lift_guard():
    h = IntPoly([3249, -3534, 3697, -3540, 1521, -771, 252, 54, -648])
    check_intersective(h, 204)


def test_lambda_examples():
    fam = AuxFamily(X2, bound=100)
    assert fam.lambda_of(12) == 144
    assert fam.lambda_of(4) * fam.lambda_of(3) == 144
    assert fam.lambda_of(1) == 1
    fam2 = AuxFamily(X2M1, bound=100)
    assert fam2.lambda_of(6) == 6


def test_lambda_completely_multiplicative():
    rng = random.Random(4)
    for fam in (AuxFamily(X2M1, bound=200), AuxFamily(X3X2M2X, bound=200)):
        for _ in range(40):
            d, e = rng.randint(1, 60), rng.randint(1, 60)
            assert fam.lambda_of(d * e) == fam.lambda_of(d) * fam.lambda_of(e)


def test_lambda_divisibility_chain():
    for h in FAMILIES:
        fam = AuxFamily(h, bound=1100)
        k = fam.k
        for d in range(1, 1001):
            lam = fam.lambda_of(d)
            assert lam % d == 0 and d**k % lam == 0


def test_r_of():
    fam = AuxFamily(X2, bound=100)
    assert fam.r_of(10) == 0
    assert fam.r_of(1) == 0
    fam2 = AuxFamily(X2M1, bound=100)
    assert fam2.r_of(6) == -5  # z_p = 1 chosen at p = 2, 3
    for d in range(1, 80):
        r = fam2.r_of(d)
        assert -d < r <= 0
        for p, a in factorize(d):
            assert (r - fam2.root_residue(p, a)) % p**a == 0


def test_aux_poly_examples():
    fam = AuxFamily(X2, bound=100)
    assert fam.aux_poly(7) == X2
    assert fam.aux_poly(1) == X2
    fam2 = AuxFamily(X2M1, bound=100)
    assert fam2.aux_poly(6).coeffs == (4, -10, 6)
    assert fam2.aux_poly(1) == X2M1


def test_b_d_formula():
    for h in FAMILIES:
        fam = AuxFamily(h, bound=400)
        ak, k = h.leading(), h.degree()
        for d in range(1, 301):
            rec = fam.aux_record(d)
            assert rec.b == ak * d**k // rec.lam
            assert rec.b > 0


def test_effective_jb_bound_small():
    for h in FAMILIES:
        fam = AuxFamily(h, bound=400)
        ak = h.leading()
        const = sum(abs(c) * 2**i for i, c in enumerate(h.coeffs))
        for d in range(1, 301):
            rec = fam.aux_record(d)
            assert rec.J * ak <= const * rec.b


def test_verify_nesting_examples():
    fam = AuxFamily(X2, bound=100)
    assert fam.verify_nesting(2, 3, 50) == 0
    assert fam.verify_nesting(1, 1, 10) == 0
    fam2 = AuxFamily(X2M1, bound=100)
    assert fam2.verify_nesting(1, 6, 50) == -5


def test_prime_out_of_range():
    fam = AuxFamily(X2, bound=10)
    with pytest.raises(PrimeOutOfRange):
        fam.lambda_of(22)  # 11 > 10
    with pytest.raises(PrimeOutOfRange):
        fam.r_of(13)


def test_negative_leading_coefficient_normalized():
    fam = AuxFamily(IntPoly([1, 0, -1]), bound=50)  # -(x^2 - 1)
    assert fam.negated and fam.h == X2M1


def test_memo_concurrent_reads():
    fam = AuxFamily(X3X2M2X, bound=200)
    with ThreadPoolExecutor(max_workers=8) as ex:
        recs = list(ex.map(fam.aux_record, [12] * 64))
    assert all(r == recs[0] for r in recs)
    assert fam.aux_record(12).poly.coeffs == recs[0].poly.coeffs


def test_root_choice_coherent_across_precision():
    # extending the precision must refine the same chosen z_p
    fam = AuxFamily(SEXTIC, bound=100)
    low = fam.root_residue(13, 1)
    high = fam.root_residue(13, 4)
    assert high % 13 == low


def test_cross_choice_selector():
    # picking the other Z_p root of x^2 - 1 gives a different but equally
    # valid family: r_d flips, h_d stays integral, nesting still holds
    def largest_root(cands, p, prec):
        return max(cands, key=lambda rd: (rd.multiplicity, rd.residue))

    default = AuxFamily(X2M1, bound=100)
    alt = AuxFamily(X2M1, bound=100, selector=largest_root)
    assert default.r_of(6) == -5
    assert alt.r_of(6) == -1  # z_p = -1 at p = 2, 3
    got = alt.aux_poly(6)
    assert got.coeffs == (0, -2, 6)  # (6x-1)^2 - 1 = 36x^2 - 12x, over 6
    for x in range(1, 30):
        assert 6 * got.evaluate(x) == X2M1.evaluate(-1 + 6 * x)
    assert -6 < alt.verify_nesting(1, 6, 30) <= 0


def literal_lift(g, p, roots, j):
    """The residue loop: every candidate r + t p^(j-1) evaluated on its own."""
    pj, pj1 = p**j, p ** (j - 1)
    return [r + t * pj1 for r in roots for t in range(p) if g.evaluate(r + t * pj1) % pj == 0]


class OverBudget(Exception):
    """A literal root-tree walk would pass its evaluation budget."""


def literal_hensel_roots(h, p, prec):
    """hensel_roots with the lifting and the derivative test done per residue."""
    found = {}
    for f in _squarefree_decomposition(h.coeffs):
        V = padic_valuation(f.disc, p) if f.disc % p == 0 else 0
        E = max(prec + V, 2 * V + 1)
        roots = [r for r in range(p) if f.g.evaluate(r) % p == 0]
        for j in range(2, E + 1):
            roots = literal_lift(f.g, p, roots, j)
        for r in roots:
            val = f.dg.evaluate(r) % p**E
            v = padic_valuation(val, p) if val else E
            if E <= 2 * v:
                raise LiftAmbiguous(r)
            t = r % p**prec
            found[t] = max(found.get(t, 0), f.mult)
    return [PAdicRootData(p, t, prec, m) for t, m in sorted(found.items())]


small_polys = st.lists(st.integers(-60, 60), min_size=2, max_size=5).map(IntPoly).filter(
    lambda g: g.degree() >= 1
)


@settings(max_examples=80, deadline=None)
# 46349^2 is just past the int64 Horner bound 2^31, as are 2^j and 3^j for large j
@given(small_polys, st.sampled_from([2, 3, 5, 7, 13, 46349]), st.integers(2, 40))
def test_lift_level_matches_residue_loop(g, p, depth):
    roots = roots_mod(g.coeffs, p)
    budget = 60_000  # literal evaluations per example; one root mod 46349 fits
    for j in range(2, depth + 1):
        budget -= len(roots) * p
        if not roots or budget < 0:
            break
        want = literal_lift(g, p, roots, j)
        assert _lift_level(g, p, roots, j) == want
        roots = want


def test_lift_level_reaches_object_path():
    # x^2 - 17 has two 2-adic roots; lifting to 2^40 passes 2^31 on the way
    g = IntPoly([-17, 0, 1])
    roots = roots_mod(g.coeffs, 2)
    for j in range(2, 41):
        want = literal_lift(g, 2, roots, j)
        roots = _lift_level(g, 2, roots, j)
        assert roots == want
    assert 2**40 > HORNER_BOUND and len(roots) == 4


def poly_mul(a, b):
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPoly(out)


@settings(max_examples=80, deadline=None)
@given(
    small_polys,
    st.integers(1, 2),
    st.one_of(st.none(), small_polys),
    st.sampled_from([2, 3, 5, 7, 13]),
    st.integers(1, 34),
)
@example(IntPoly([-17, 0, 1]), 1, None, 2, 34)
def test_hensel_roots_match_residue_loop(f1, m, f2, p, prec):
    # f1^m f2 gives factors of multiplicity 1 and 2
    h = poly_mul(f1, f1) if m == 2 else f1
    h = poly_mul(h, f2) if f2 is not None else h
    while p**prec > 2**40:  # keeps the literal loop short; 2^34 and 3^25 pass 2^31
        prec -= 1
    try:
        want = literal_hensel_roots(h, p, prec)
    except LiftAmbiguous:
        with pytest.raises(LiftAmbiguous):
            hensel_roots(h, p, prec)
        return
    assert hensel_roots(h, p, prec) == want


def test_hensel_roots_past_int64():
    # at depth E = 64 the residues mix values below and above 2^63, which
    # numpy turns into float64 unless they are held as Python integers;
    # for the cubic (V = 8) that is prec = 56
    cubic = poly_mul(IntPoly([-17, 0, 1]), IntPoly([-3, 1]))
    for h in (IntPoly([-17, 0, 1]), cubic, SEXTIC):
        for prec in range(50, 67):
            assert hensel_roots(h, 2, prec) == literal_hensel_roots(h, 2, prec)


def test_resultant_once_per_squarefree_factor(monkeypatch):
    calls = []

    def counting(f, g):
        calls.append(f)
        return resultant(f, g)

    monkeypatch.setattr(intersective, "resultant", counting)
    # (x^2-2)^2 (x^2-3)(x^2-6) splits into two squarefree factors
    two_factors = poly_mul(poly_mul(IntPoly([-2, 0, 1]), IntPoly([-2, 0, 1])), IntPoly([18, 0, -9, 0, 1]))
    for h, B, factors in ((SEXTIC, 1000, 1), (two_factors, 200, 2)):
        _squarefree_decomposition.cache_clear()
        calls.clear()
        check_intersective(h, B)
        assert len(_squarefree_decomposition(h.coeffs)) == factors
        assert len(calls) == factors


def test_lift_guard_refuses_before_allocating():
    with pytest.raises(TooLarge, match="LIFT_GUARD"):
        _lift_level(IntPoly([0, 1]), 2, list(range(LIFT_GUARD // 2 + 1)), 30)


def literal_integer_root(h):
    """The rational-root test: divisors d = 1, 2, ... of a_0 up to its square root."""
    if h.evaluate(0) == 0:
        return 0
    a0 = abs(h.coeffs[0])
    d = 1
    while d * d <= a0:
        if a0 % d == 0:
            for c in (d, -d, a0 // d, -(a0 // d)):
                if h.evaluate(c) == 0:
                    return c
        d += 1
    return None


def literal_witness(h, p, budget):
    """Smallest p^j with no root of h mod p^j: h's own root tree, residue by residue."""
    roots = [r for r in range(p) if h.evaluate(r) % p == 0]
    j = 1
    while roots:
        j += 1
        budget -= len(roots) * p
        if budget < 0:
            raise OverBudget
        roots = literal_lift(h, p, roots, j)
    return p**j


def literal_check_intersective(h, B, budget=200_000):
    """check_intersective as one prime loop with the per-residue root step;
    the witness walk of each prime may take `budget` evaluations."""
    n0 = literal_integer_root(h)
    if n0 is not None:
        return IntersectiveUpTo(None, {}, integer_root=n0)
    roots, best = {}, None
    for p in primes_up_to(B):
        if best is not None and p > best:
            break
        prec = default_precision(h, p)
        cands = literal_hensel_roots(h, p, prec)
        if cands:
            roots[p] = _select_root(cands, p, prec)
        else:
            w = literal_witness(h, p, budget)
            best = w if best is None else min(best, w)
    return NotIntersective(best) if best is not None else IntersectiveUpTo(B, roots)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (LiftAmbiguous, TooLarge) as exc:
        return type(exc)


# primitive, so that the content c is the only one; a content stacks
# v_p(c) full levels on every root tree
primitive_polys = small_polys.map(lambda g: IntPoly([c // math.gcd(*g.coeffs) for c in g.coeffs]))


@settings(max_examples=80, deadline=None)
@given(
    primitive_polys,
    st.integers(1, 2),
    st.one_of(st.none(), primitive_polys),
    st.sampled_from([1, 1, 1, 4, 6, 9]),
    st.integers(1, 300),
    st.booleans(),
)
# (27x^2+26x+11)^2 (12-24x): the tree of h holds 4096 residues mod 2^16
# above its witness 2^17; the tree of the squared factor ends at 2^8
@example(IntPoly([11, 26, 27]), 2, IntPoly([12, -24]), 1, 2, False)
@example(IntPoly([11, 26, 27]), 2, IntPoly([1, -2]), 4, 5, True)
def test_check_intersective_matches_prime_loop(f1, m, f2, c, B, kernel):
    h = poly_mul(f1, f1) if m == 2 else f1
    h = poly_mul(h, f2) if f2 is not None else h
    h = poly_mul(h, IntPoly([c]))
    try:
        want = _outcome(literal_check_intersective, h, B)
    except OverBudget:
        assume(False)
    # SCAN_WORK = -1 puts every batch through Cantor-Zassenhaus
    with pytest.MonkeyPatch.context() as mp:
        if kernel:
            mp.setattr(numutil, "SCAN_WORK", -1)
        assert _outcome(check_intersective, h, B) == want


@settings(max_examples=80, deadline=None)
@given(
    primitive_polys,
    st.integers(1, 3),
    st.one_of(st.none(), primitive_polys),
    st.integers(2, 400),
    st.booleans(),
)
def test_precision_one_batch_matches_hensel_roots(f1, m, f2, B, kernel):
    # at the primes dividing neither a_k nor any Res(g_i, g_i') the batch
    # is what hensel_roots gives at precision 1, multiplicities included
    h = f1
    for _ in range(m - 1):
        h = poly_mul(h, f1)
    h = poly_mul(h, f2) if f2 is not None else h
    R = _singular_product(h)
    good = [p for p in primes_up_to(B) if R % p]
    with pytest.MonkeyPatch.context() as mp:
        if kernel:
            mp.setattr(numutil, "SCAN_WORK", -1)
        batch = _precision_one_roots(h, good)
    assert list(batch) == good
    assert [batch[p] for p in good] == [hensel_roots(h, p, 1) for p in good]


@pytest.mark.parametrize("p, q", [(13, 17), (29, 53), (3, 7), (3, 19)])
def test_check_intersective_matches_prime_loop_past_scan_work(p, q):
    # intersective, fails only at 2 (witness 32) and fails at odd primes
    h = IntPoly([-((p * q) ** 2), 0, p * q * (1 + p + q), 0, -(p + q + p * q), 0, 1])
    assert sum(primes_up_to(1500)) * len(h.coeffs) > numutil.SCAN_WORK
    assert check_intersective(h, 1500) == literal_check_intersective(h, 1500)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(st.integers(-50, 50), max_size=4),
    st.one_of(st.none(), small_polys),
    st.booleans(),
)
def test_integer_root_matches_divisor_order(c, roots, g, flip):
    h = IntPoly([c])
    for r in roots:
        h = poly_mul(h, IntPoly([-r, 1]))
    if g is not None:
        h = poly_mul(h, g)
    h = h.neg() if flip else h
    if h.degree() >= 1:
        assert _integer_root(h) == literal_integer_root(h)


def test_integer_root_without_trial_division():
    # |a_0| = 2e20 and 1e40: trial division would run to 1.4e10 and 1e20
    assert _integer_root(IntPoly([-(2 * 10**20), 0, 1])) is None
    assert _integer_root(IntPoly([-(10**40), 0, 1])) == 10**20
    assert _integer_root(IntPoly([-(10**40), 0, 7])) is None
    # the divisor order meets -2 (d = 2) before 3 and 6
    assert _integer_root(poly_mul(poly_mul(IntPoly([-6, 1]), IntPoly([2, 1])), IntPoly([-3, 1]))) == -2
