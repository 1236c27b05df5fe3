"""Admissible residues: where the derivative g' survives modulo prime powers.

For each prime p, gamma(g; p) is the least exponent with g' not identically
zero as a function mod p^gamma, j(g; p) counts the roots of g' at that
modulus, and

    W(g; Y)   = { n : g'(n) != 0 (mod p^gamma) for all p <= Y },
    W_q(g; Y) = same, but only primes with p^gamma | q,
    w(Y)      = prod_{p <= Y} (1 - j(g;p) / p^gamma(g;p)).

Restricting exponential sums to these residues is what restores square-root
cancellation for degree >= 3.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TooLarge, ZeroDerivative
from .intpoly import IntPoly
from .numutil import padic_valuation, primes_up_to, roots_mod, roots_mod_primes, trial_divide

WHEEL_CAP = 10**8  # L: the flags [0, L) of one wheel period
MARK_GUARD = 10**8  # X: the flags [0, X] of one mark segment
SEGMENT = 1 << 20  # flags per cache block of _strike: 1 MiB, inside a 2 MiB L2
PATTERN_CAP = 10**5  # P: the period of the smallest moduli, struck once and tiled


def fixed_divisor(f: IntPoly) -> int:
    """The largest m with f(n) = 0 (mod m) for every integer n (0 when f = 0).

    f(n) = sum_{i <= deg f} C(n, i) Delta^i f(0), so m | f(n) for all n iff
    m divides every Delta^i f(0).  (Not the coefficients: x^p - x vanishes mod p.)
    """
    vals = [f.evaluate(i) for i in range(f.degree() + 1)]
    D = 0
    while vals:
        D = math.gcd(D, vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return D


def _gamma(D: int, p: int) -> int:
    """gamma(g; p) = v_p(D) + 1 from the fixed divisor D of g'."""
    if D == 0:
        raise ZeroDerivative("g is constant")
    return padic_valuation(D, p) + 1 if D % p == 0 else 1


def gamma_exponent(g: IntPoly, p: int) -> int:
    """Least gamma >= 1 with g' not identically zero mod p^gamma."""
    return _gamma(fixed_divisor(g.derivative()), p)


@dataclass(frozen=True)
class PrimeData:
    gamma: int
    modulus: int  # p^gamma
    j: int
    bad: frozenset[int]


def _product(xs: list[int]) -> int:
    """prod xs by a balanced tree: operands of equal size keep big products fast."""
    while len(xs) > 1:
        xs = [math.prod(xs[i : i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def _strike(length: int, prime_data) -> np.ndarray:
    """Flags on [0, length): False at every bad residue of every PrimeData.

    The moduli are pairwise coprime, taken in ascending order in three tiers.
    The smallest, with product P <= min(PATTERN_CAP, length), are struck once
    into one period of their P-periodic flags, which is tiled over the
    output.  Each modulus up to SEGMENT // 128 is then struck one SEGMENT at
    a time, while the segment sits in cache.  The larger moduli hit a segment
    only a few times each, so they are struck over the whole array at once.
    """
    pds = sorted((pd for pd in prime_data if pd.bad), key=lambda pd: pd.modulus)
    cap = min(PATTERN_CAP, length)
    P, k = 1, 0
    while k < len(pds) and P * pds[k].modulus <= cap:
        P *= pds[k].modulus
        k += 1
    split = k
    while split < len(pds) and pds[split].modulus <= SEGMENT // 128:
        split += 1
    pattern = np.ones(P, dtype=bool)
    for pd in pds[:k]:
        for b in pd.bad:
            pattern[b :: pd.modulus] = False
    # np.tile(pattern, reps)[:length], without its fixed cost on small strikes
    adm = pattern.reshape(1, P).repeat(-(-length // P), axis=0).reshape(-1)[:length]
    steps = [pd.modulus for pd in pds[k:split] for _ in pd.bad]
    if steps:
        mods = np.array(steps, dtype=np.int64)
        bads = np.array([b for pd in pds[k:split] for b in pd.bad], dtype=np.int64)
        for lo in range(0, length, SEGMENT):
            seg = adm[lo : lo + SEGMENT]
            for off, m in zip(((bads - lo) % mods).tolist(), steps):
                seg[off::m] = False
    for pd in pds[split:]:
        for b in pd.bad:
            adm[b :: pd.modulus] = False
    return adm


@dataclass(frozen=True)
class SieveProfile:
    """Per-prime data for all p <= Y; mask and mask_mod sieve W and W^q."""

    g: IntPoly
    Y: float
    per_prime: dict[int, PrimeData]

    @classmethod
    def build(cls, g: IntPoly, Y: float) -> "SieveProfile":
        """gamma(g; p) for every p comes from the fixed divisor of g', taken
        once.  Roots of g' mod p for all primes with gamma = 1 that do not
        divide its leading coefficient come from one roots_mod_primes batch;
        the other moduli p^gamma are scanned one by one."""
        dg = g.derivative()
        primes = primes_up_to(Y)
        D = fixed_divisor(dg)
        gammas = [_gamma(D, p) for p in primes]
        batch = [p for p, gamma in zip(primes, gammas) if gamma == 1 and dg.leading() % p]
        found = dict(zip(batch, roots_mod_primes(dg.coeffs, batch)))
        data = {}
        for p, gamma in zip(primes, gammas):
            m = p**gamma
            bad = found[p] if p in found else roots_mod(dg.coeffs, m)
            data[p] = PrimeData(gamma, m, len(bad), frozenset(bad))
        return cls(g, Y, data)

    def mask(self, X: int) -> np.ndarray:
        """W(g; Y) flags on [0, X): entry n is True iff n is in W."""
        return _strike(X, self.per_prime.values())

    def mask_mod(self, q: int) -> np.ndarray:
        """W^q flags on [0, q) for q >= 1: only primes with p^gamma | q are
        sieved.  They divide q, so trial division finds them without a pass
        over every prime up to Y."""
        fac, _ = trial_divide(q, math.floor(self.Y))
        return _strike(q, [self.per_prime[p] for p, e in fac if self.per_prime[p].gamma <= e])

    def period(self) -> int:
        """L = prod p^gamma; W is L-periodic."""
        return _product([pd.modulus for pd in self.per_prime.values()])


def _admissible_per_period(profile: SieveProfile) -> int:
    """|W(g; Y) cap [0, L)| = prod (p^gamma - j_p), by CRT."""
    return _product([pd.modulus - pd.j for pd in profile.per_prime.values()])


def expected_density(profile: SieveProfile, exact: bool = False):
    """w(Y) = prod (1 - j_p / p^gamma_p), as float or exact Fraction.

    One division of prod (p^gamma - j_p) by the period: int true division is
    correctly rounded, so the float equals that of the reduced Fraction.
    """
    num, den = _admissible_per_period(profile), profile.period()
    return Fraction(num, den) if exact else num / den


@dataclass(frozen=True)
class SieveCount:
    count: int
    main_term: float
    rel_error: float
    method: str
    period: int
    density: float  # w(Y), so main_term = X * density


def sieve_count(profile: SieveProfile, X: int) -> SieveCount:
    """Exact |[1, X] cap W(g; Y)| with the main term X * w(Y).

    When the period L = prod p^gamma is at most min(X, WHEEL_CAP), method
    wheel sieves one period and counts X // L full periods plus the boundary
    segment; otherwise method mark sieves the segment [1, X] itself, which
    MARK_GUARD bounds.
    """
    Y = profile.Y
    if Y > math.e and math.log(X) < math.log(Y) * math.log(math.log(Y)):
        warnings.warn(
            f"X={X} is small for Y={Y}: log X < log Y log log Y; "
            "the main-term approximation may be poor",
            stacklevel=2,
        )
    L = profile.period()
    if L <= min(X, WHEEL_CAP):
        method = "wheel"
        adm = profile.mask(L)
        full, rem = divmod(X, L)
        count = full * int(np.count_nonzero(adm)) + int(np.count_nonzero(adm[1 : rem + 1]))
    else:
        method = "mark"
        if X > MARK_GUARD:
            raise TooLarge(f"X={X} exceeds the MARK_GUARD of {MARK_GUARD} for method mark")
        count = int(np.count_nonzero(profile.mask(X + 1)[1:]))
    w = _admissible_per_period(profile) / L  # expected_density, reusing L
    main = X * w
    rel = abs(count - main) / main if main > 0 else math.inf
    return SieveCount(count, main, rel, method, L, w)
