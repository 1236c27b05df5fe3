"""Intersectivity testing and the auxiliary polynomial family h_d.

A polynomial h is intersective when h(n) = 0 (mod q) is solvable for every
q, equivalently when h has a p-adic integer zero z_p for every prime p.
Fixing one z_p per prime (with multiplicity m_p) yields

    lambda(d) = prod p^(alpha * m_p)  over p^alpha || d   (completely multiplicative),
    r_d       = the unique integer in (-d, 0] with r_d = z_p (mod p^alpha),
    h_d(x)    = h(r_d + d x) / lambda(d),

which has integer coefficients and satisfies the nesting
lambda(q) h_{dq}(N) subset h_d(N).  Everything here is exact integer /
rational arithmetic; p-adic roots are decided by squarefree decomposition
plus branch lifting to a resultant-bounded resolution depth, at which point
strong Hensel lifting certifies each surviving residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    LiftAmbiguous,
    NestingViolation,
    NotIntersectiveError,
    PrimeOutOfRange,
    TooLarge,
)
from .intpoly import IntPoly
from .numutil import (
    crt,
    factorize,
    padic_valuation,
    primes_up_to,
    roots_mod,
    roots_mod_primes,
    values_mod,
)

LIFT_GUARD = 10**6  # candidates r + t p^(j-1) of one lifting level, held in one array
# check_intersective takes the primes up to this before the rest, so a small
# witness (a 2-adic one reaches 2^7 on the sextics (x^2-p)(x^2-q)(x^2-pq))
# ends the check before the batch of larger primes is computed
SMALL_PRIMES = 1 << 7


@dataclass(frozen=True)
class PAdicRootData:
    """Truncation of a chosen Z_p zero of h: h(residue) = 0 (mod p^prec)."""

    p: int
    residue: int
    prec: int
    multiplicity: int


@dataclass(frozen=True)
class NotIntersective:
    """Witness modulus q with h(n) mod q != 0 for all n."""

    witness_q: int


@dataclass(frozen=True)
class IntersectiveUpTo:
    """p-adic solvability certified for all p <= bound.

    bound is None when an integer root certifies intersectivity outright.
    """

    bound: int | None
    roots: dict[int, PAdicRootData]
    integer_root: int | None = None


IntersectivityVerdict = NotIntersective | IntersectiveUpTo


# ----------------------------------------------------------------------
# Rational-coefficient helpers (gcd, Yun squarefree split, resultant)
# ----------------------------------------------------------------------

def _q_divmod(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        c = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = c
        for i, dc in enumerate(den):
            num[shift + i] -= c * dc
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    while q and q[-1] == 0:
        q.pop()
    return q, num


def _strip(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _q_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _strip(a[:]), _strip(b[:])
    while b:
        _, r = _q_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _q_deriv(a: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(a)][1:]


def _primitive(fracs: list[Fraction]) -> IntPoly:
    """Clear denominators and contents; normalize to positive leading coeff."""
    den = math.lcm(*[f.denominator for f in fracs])
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*[abs(c) for c in ints])
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPoly(ints)


@dataclass(frozen=True)
class _SquarefreeFactor:
    """One factor g^mult of Yun's split, with dg = g' and disc = Res(g, g')."""

    g: IntPoly
    mult: int
    dg: IntPoly
    disc: int


@lru_cache(maxsize=256)
def _squarefree_decomposition(coeffs: tuple[int, ...]) -> tuple[_SquarefreeFactor, ...]:
    """Yun's algorithm: factors g_i^i with h = unit * prod g_i^i.

    Each g_i is primitive, squarefree, with positive leading coefficient;
    degree-0 parts are dropped (they carry no roots).  Every p-adic step
    reads g_i', Res(g_i, g_i') from here, so one resultant is taken per
    factor per polynomial, not per prime.
    """
    h = [Fraction(c) for c in coeffs]
    if len(h) <= 1:
        return ()
    out = []
    g = _q_gcd(h, _q_deriv(h))
    if len(g) == 1:
        out.append((_primitive(h), 1))
    else:
        w, _ = _q_divmod(h, g)
        y, _ = _q_divmod(_q_deriv(h), g)
        z = _strip([yc - wc for yc, wc in _pairwise(y, _q_deriv(w))])
        i = 1
        while len(w) > 1:
            gi = _q_gcd(w, z)
            if len(gi) > 1:
                out.append((_primitive(gi), i))
            w, _ = _q_divmod(w, gi)
            y, _ = _q_divmod(z, gi)
            z = _strip([yc - wc for yc, wc in _pairwise(y, _q_deriv(w))])
            i += 1
    return tuple(
        _SquarefreeFactor(g, i, g.derivative(), resultant(g, g.derivative())) for g, i in out
    )


def _pairwise(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) via fraction-free (Bareiss) elimination of the Sylvester matrix."""
    m, n = f.degree(), g.degree()
    if m < 0 or n < 0:
        return 0
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    mat = [[0] * size for _ in range(size)]
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        mat[i][i : i + m + 1] = fc
    for i in range(m):
        mat[n + i][i : i + n + 1] = gc
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, size):
                if mat[r][k]:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


# ----------------------------------------------------------------------
# Root enumeration modulo prime powers
# ----------------------------------------------------------------------

def _lift_guard(roots: int, p: int, j: int) -> None:
    if roots * p > LIFT_GUARD:
        raise TooLarge(
            f"{roots} roots mod {p}^{j} give more lift candidates than the LIFT_GUARD of {LIFT_GUARD}"
        )


def _lift_level(g: IntPoly, p: int, roots: list[int], j: int) -> list[int]:
    """Roots of g mod p^j from the roots mod p^(j-1), in the order of the
    candidates r + t p^(j-1), r in roots, t in [0, p).

    For j >= 2 Taylor's formula gives g(r + t p^(j-1)) = g(r) + t p^(j-1) g'(r)
    (mod p^j), so one values_mod call for g(r) mod p^j and one for
    g'(r) mod p decide all p candidates of a root: one t when p does not
    divide g'(r), else every t or none as p^j divides g(r) or not.
    """
    _lift_guard(len(roots), p, j - 1)
    pj1 = p ** (j - 1)
    r = np.array(roots, dtype=object)
    quot = (values_mod(g.coeffs, r, pj1 * p) // pj1).tolist()
    slope = values_mod(g.derivative().coeffs, r % p, p).tolist()
    out = []
    for root, c, d in zip(roots, quot, slope):
        if d:
            out.append(root + (-c * pow(d, -1, p)) % p * pj1)
        elif c == 0:
            out.extend(root + t * pj1 for t in range(p))
    return out


def hensel_roots(h: IntPoly, p: int, prec: int) -> list[PAdicRootData]:
    """Truncations mod p^prec of the Z_p zeros of h, with multiplicities.

    Works factor by factor on the Yun squarefree decomposition: a squarefree
    factor g with V = v_p(Res(g, g')) is lifted to depth
    E = max(prec + V, 2V + 1); at that depth every surviving residue r has
    v_p(g'(r)) <= V, so strong Hensel gives a unique Z_p zero congruent to r
    mod p^(E - v), and E - v >= prec makes the truncation well defined.
    Residues that merge at the requested precision are reported once with the
    largest multiplicity.
    """
    if h.is_zero():
        raise ValueError("hensel_roots needs a nonzero polynomial")
    if prec < 1:
        raise ValueError("prec must be >= 1")
    found: dict[int, int] = {}
    for f in _squarefree_decomposition(h.coeffs):
        if f.disc == 0:
            raise LiftAmbiguous(f"squarefree factor with zero discriminant: {f.g}")
        V = padic_valuation(f.disc, p)
        E = max(prec + V, 2 * V + 1)
        roots = roots_mod(f.g.coeffs, p)
        for j in range(2, E + 1):
            if not roots:
                break
            roots = _lift_level(f.g, p, roots, j)
        # with V = 0, g and g' share no root mod p, so v_p(g'(r)) = 0 for all r
        if V:
            vals = values_mod(f.dg.coeffs, np.array(roots, dtype=object), p**E)
            for r, val in zip(roots, vals.tolist()):
                v = padic_valuation(val, p) if val else E
                if E <= 2 * v:
                    raise LiftAmbiguous(
                        f"residue {r} mod {p}^{E} fails the strong Hensel criterion"
                    )
        for r in roots:
            t = r % p**prec
            if found.get(t, 0) < f.mult:
                found[t] = f.mult
    return [
        PAdicRootData(p, t, prec, m) for t, m in sorted(found.items())
    ]


def _first_power_without_root(h: IntPoly, p: int) -> int:
    """Smallest p^j such that h has no root mod p^j, for h with no Z_p root.

    h = +-c * prod g_i^m_i over its squarefree factors, c the content (the
    g_i are primitive, so is their product), so
    v_p(h(x)) = v_p(c) + sum m_i v_p(g_i(x)) and the answer is
    p^(1 + max v_p(h(x))).  The walk lifts the union of the root trees of
    the g_i: a residue x mod p^t at which no g_i vanishes mod p^t has every
    v_p(g_i(x)) < t, so its score v_p(h(x)) holds for every lift of x and it
    is a leaf.  No residue of the tree of g_i survives to p^(2V_i + 1),
    V_i = v_p(Res(g_i, g_i')): strong Hensel would lift it to a Z_p root.
    The walk starts at the factor roots mod p: every other residue is a
    leaf scoring v_p(c), the least score of any leaf.
    """
    factors = _squarefree_decomposition(h.coeffs)
    base = padic_valuation(math.gcd(*h.coeffs), p)
    roots = sorted({r for f in factors for r in roots_mod(f.g.coeffs, p)})
    best, nodes, t = base, np.array(roots, dtype=object), 1
    while len(nodes):
        _lift_guard(len(nodes), p, t)
        cands = (nodes[:, None] + np.arange(p, dtype=object) * p**t).ravel()
        t += 1
        vals = [values_mod(f.g.coeffs, cands, p**t) for f in factors]
        leaf = np.all([v != 0 for v in vals], axis=0)
        if leaf.any():
            score = base + sum(
                f.mult * (v[leaf] % p**k == 0) for f, v in zip(factors, vals) for k in range(1, t)
            )
            best = max(best, int(np.max(score)))
        nodes = cands[~leaf]
    return p ** (best + 1)


def _integer_root(h: IntPoly) -> int | None:
    """Some integer root of h, or None.

    Every integer root r lies within the Cauchy bound C = 1 + max|a_i / a_k|
    and reduces mod a prime p dividing neither a_k nor any Res(g_i, g_i') to
    a simple root of a squarefree factor g_i, whose Hensel lift to p^e > 2C
    has r as its symmetric residue.  So the symmetric residues of those lifts
    are the only candidates.  Of several roots, the one returned is the one
    the divisor order d = 1, 2, ... of the rational-root test meets first:
    the least min(|r|, |a_0 / r|), then d, -d, a_0/d, -a_0/d.
    """
    if h.is_zero():
        return None
    if h.evaluate(0) == 0:
        return 0
    a0 = abs(h.coeffs[0])
    bound = h.root_bound()
    R = _singular_product(h)
    # the primes up to x multiply to at least 2^(x/2), so R >= 1 misses one
    # of those up to 2 log2(R) + 3
    p = next(q for q in primes_up_to(2 * R.bit_length() + 3) if R % q)
    found = []
    for f in _squarefree_decomposition(h.coeffs):
        for r in roots_mod_primes(f.g.coeffs, [p])[0]:
            m = p
            while m <= 2 * bound:
                m *= m
                r = (r - f.g.evaluate(r) * pow(f.dg.evaluate(r), -1, m)) % m
            c = r if 2 * r <= m else r - m
            if h.evaluate(c) == 0:
                d = min(abs(c), a0 // abs(c))
                found.append(((d, (d, -d, a0 // d, -(a0 // d)).index(c)), c))
    return min(found)[1] if found else None


def _singular_product(h: IntPoly) -> int:
    """|a_k| * prod |Res(g_i, g_i')| over the squarefree factors g_i of h."""
    R = abs(h.leading())
    for f in _squarefree_decomposition(h.coeffs):
        R *= abs(f.disc)
    return R


def default_precision(h: IntPoly, p: int) -> int:
    """Lifting precision e_p: enough to resolve singular branches.

    e_p = v_p(Res(h_sf, h_sf') * a_k) + k + 1 when p divides that product,
    else 1 (plain Hensel suffices).
    """
    R = _singular_product(h)
    if R % p:
        return 1
    return padic_valuation(R, p) + h.degree() + 1


def check_intersective(h: IntPoly, B: int) -> IntersectivityVerdict:
    """Decide p-adic solvability for every prime p <= B.

    An integer root certifies intersectivity outright (bound None).
    Otherwise a prime with no Z_p root yields the smallest failing prime
    power as witness, minimized over all failing primes <= B.
    """
    if h.degree() < 1:
        raise ValueError("check_intersective needs a nonconstant polynomial")
    n0 = _integer_root(h)
    if n0 is not None:
        return IntersectiveUpTo(None, {}, integer_root=n0)
    roots: dict[int, PAdicRootData] = {}
    best_witness = math.inf
    R = _singular_product(h)
    primes = primes_up_to(B)
    for chunk in ([p for p in primes if p <= SMALL_PRIMES], [p for p in primes if p > SMALL_PRIMES]):
        chunk = [p for p in chunk if p <= best_witness]
        batch = _precision_one_roots(h, [p for p in chunk if R % p])
        for p in chunk:
            if p > best_witness:
                break
            chosen = _chosen_root(h, p, batch=batch)
            if chosen is not None:
                roots[p] = chosen
            else:
                best_witness = min(best_witness, _first_power_without_root(h, p))
    if best_witness < math.inf:
        return NotIntersective(best_witness)
    return IntersectiveUpTo(B, roots)


def _precision_one_roots(h: IntPoly, primes: list[int]) -> dict[int, list[PAdicRootData]]:
    """hensel_roots(h, p, 1) for primes p dividing neither a_k nor any Res(g_i, g_i').

    There every root mod p of a squarefree factor g_i is simple, so the list
    holds the roots mod p of the g_i, each with the largest multiplicity i
    among the factors it is a root of: one roots_mod_primes batch per factor.
    Yun's factors come in increasing multiplicity, so a later one overwrites.
    """
    found: dict[int, dict[int, int]] = {p: {} for p in primes}
    for f in _squarefree_decomposition(h.coeffs):
        for p, rs in zip(primes, roots_mod_primes(f.g.coeffs, primes)):
            found[p].update(dict.fromkeys(rs, f.mult))
    return {p: [PAdicRootData(p, r, 1, m) for r, m in sorted(rm.items())] for p, rm in found.items()}


def _select_root(cands: list[PAdicRootData], p: int, prec: int) -> PAdicRootData:
    """Deterministic choice: maximal multiplicity, then p-adically
    lexicographically smallest digit sequence (least-significant first).

    The first digit is the residue mod p, matching the stated tie-break; the
    deeper digits pin down one fixed element of Z_p so that choices at
    different precisions are truncations of the same root.
    """
    return min(cands, key=lambda rd: (-rd.multiplicity, [rd.residue // p**i % p for i in range(prec)]))


def _chosen_root(h: IntPoly, p: int, min_prec=1, selector=_select_root, batch=None) -> PAdicRootData | None:
    """The selector's pick among hensel_roots(h, p, prec), prec = max(min_prec, e_p),
    or None when h has no Z_p root.  `batch` may hold those lists for prec 1
    (from _precision_one_roots).
    """
    prec = max(min_prec, default_precision(h, p))
    cands = batch.get(p) if batch and prec == 1 else None
    cands = hensel_roots(h, p, prec) if cands is None else cands
    return selector(cands, p, prec) if cands else None


# ----------------------------------------------------------------------
# The auxiliary family
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AuxRecord:
    r: int
    lam: int
    poly: IntPoly
    b: int
    J: int


class AuxFamily:
    """An intersective h with its per-prime root data and memoized h_d.

    Root data is materialized lazily per prime (up to `bound`) and the d
    memo fills on demand.  h is negated on construction if its leading
    coefficient is negative (`negated` records this).

    Downstream quantities (r_d, h_d, the sieve data) depend on which z_p is
    fixed per prime; `selector` exposes that choice for cross-comparison.
    A custom selector must be coherent across precisions (pick truncations
    of one fixed Z_p root), as the default is.
    """

    def __init__(self, h: IntPoly, bound: int = 1000, selector=None):
        if h.degree() < 1:
            raise ValueError("AuxFamily needs a nonconstant polynomial")
        self.negated = h.leading() < 0
        self.h = h.neg() if self.negated else h
        self.bound = bound
        self.k = self.h.degree()
        self._selector = selector or _select_root
        self._roots: dict[int, PAdicRootData] = {}
        self._memo: dict[int, AuxRecord] = {}

    # -- per-prime root data -------------------------------------------------

    def root_data(self, p: int, min_prec: int = 1) -> PAdicRootData:
        """Chosen z_p truncated to at least min_prec digits."""
        if p > self.bound:
            raise PrimeOutOfRange(p, self.bound)
        cur = self._roots.get(p)
        if cur is not None and cur.prec >= min_prec:
            return cur
        chosen = _chosen_root(self.h, p, min_prec, self._selector)
        if chosen is None:
            raise NotIntersectiveError(f"{self.h!r} has no {p}-adic root; not intersective")
        self._roots[p] = chosen
        return chosen

    @property
    def roots(self) -> dict[int, PAdicRootData]:
        return dict(self._roots)

    def multiplicity(self, p: int) -> int:
        return self.root_data(p).multiplicity

    def root_residue(self, p: int, alpha: int) -> int:
        """z_p mod p^alpha."""
        return self.root_data(p, min_prec=alpha).residue % p**alpha

    # -- lambda, r_d, h_d ------------------------------------------------------

    def lambda_of(self, d: int) -> int:
        """lambda(d) = prod p^(alpha * m_p) over p^alpha || d."""
        if d < 1:
            raise ValueError("d must be >= 1")
        lam = 1
        for p, a in factorize(d):
            lam *= p ** (a * self.multiplicity(p))
        return lam

    def r_of(self, d: int) -> int:
        """The unique r in (-d, 0] with r = z_p (mod p^alpha) for p^alpha || d."""
        if d < 1:
            raise ValueError("d must be >= 1")
        if d == 1:
            return 0
        pairs = [(self.root_residue(p, a), p**a) for p, a in factorize(d)]
        x, _ = crt(pairs)
        return x - d if x > 0 else x

    def aux_record(self, d: int) -> AuxRecord:
        rec = self._memo.get(d)
        if rec is None:
            r = self.r_of(d)
            lam = self.lambda_of(d)
            poly = self.h.shift_scale_divide(r, d, lam)
            b, J = poly.coeff_stats()
            rec = self._memo[d] = AuxRecord(r, lam, poly, b, J)
        return rec

    def aux_poly(self, d: int) -> IntPoly:
        """h_d(x) = h(r_d + d x) / lambda(d), memoized.

        A NonIntegralQuotient escaping from here means the root data is
        wrong; it is deliberately not caught.
        """
        return self.aux_record(d).poly

    def verify_nesting(self, d: int, q: int, n_max: int = 50) -> int:
        """Check lambda(q) h_{dq}(n) = h_d(s + qn) for n = 1..n_max; returns s.

        s = (r_{dq} - r_d) / d must be an integer in (-q, 0].
        """
        rd = self.r_of(d)
        rdq = self.r_of(d * q)
        s, rem = divmod(rdq - rd, d)
        if rem != 0 or not (-q < s <= 0):
            raise NestingViolation(d, q, 0)
        lam_q = self.lambda_of(q)
        hd = self.aux_poly(d)
        hdq = self.aux_poly(d * q)
        for n in range(1, n_max + 1):
            if lam_q * hdq.evaluate(n) != hd.evaluate(s + q * n):
                raise NestingViolation(d, q, n)
        return s
