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
from .numutil import padic_valuation, primes_up_to, roots_mod, roots_mod_primes

WHEEL_CAP = 10**8  # L: the flags [0, L) of one wheel period
MARK_GUARD = 10**8  # X: the flags [0, X] of one mark segment


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


def root_count(g: IntPoly, p: int) -> tuple[int, tuple[int, ...]]:
    """(j, bad): count and sorted residues s mod p^gamma with g'(s) = 0."""
    bad = tuple(roots_mod(g.derivative().coeffs, p ** gamma_exponent(g, p)))
    return len(bad), bad


@dataclass(frozen=True)
class PrimeData:
    gamma: int
    modulus: int  # p^gamma
    j: int
    bad: frozenset[int]


def _strike(length: int, prime_data) -> np.ndarray:
    """Flags on [0, length): False at every bad residue of every PrimeData."""
    adm = np.ones(length, dtype=bool)
    for pd in prime_data:
        for b in pd.bad:
            adm[b :: pd.modulus] = False
    return adm


@dataclass(frozen=True)
class SieveProfile:
    """Per-prime data for all p <= Y; mask/mask_mod sieve, in_W/in_Wq are their oracles."""

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
        """W^q flags on [0, q): only primes with p^gamma | q are sieved."""
        return _strike(q, [pd for pd in self.per_prime.values() if q % pd.modulus == 0])

    def in_W(self, n: int) -> bool:
        for pd in self.per_prime.values():
            if n % pd.modulus in pd.bad:
                return False
        return True

    def in_Wq(self, q: int, n: int) -> bool:
        for pd in self.per_prime.values():
            if q % pd.modulus == 0 and n % pd.modulus in pd.bad:
                return False
        return True

    def period(self) -> int:
        """L = prod p^gamma; in_W is L-periodic."""
        L = 1
        for pd in self.per_prime.values():
            L *= pd.modulus
        return L


def expected_density(profile: SieveProfile, exact: bool = False):
    """w(Y) = prod (1 - j_p / p^gamma_p), as float or exact Fraction."""
    w = Fraction(1)
    for pd in profile.per_prime.values():
        w *= Fraction(pd.modulus - pd.j, pd.modulus)
    return w if exact else float(w)


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
        count = full * int(adm.sum()) + int(adm[1 : rem + 1].sum())
    else:
        method = "mark"
        if X > MARK_GUARD:
            raise TooLarge(f"X={X} exceeds the MARK_GUARD of {MARK_GUARD} for method mark")
        count = int(profile.mask(X + 1)[1:].sum())
    w = expected_density(profile)
    main = X * w
    rel = abs(count - main) / main if main > 0 else math.inf
    return SieveCount(count, main, rel, method, L, w)
