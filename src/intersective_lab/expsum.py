"""Complete exponential sums over sieved residues and weighted phase sums.

The complete sum  S(a, q) = sum_{s in [0,q) cap W^q(g;Y)} e(a g(s) / q)
exhibits square-root cancellation once the residues where g' degenerates are
sieved out; the weighted phase sum

    S(gamma) = sum_{m <= M, m in W(g;Y)} g'(m) e(g(m) gamma)

has trivial bound w(Y) * N and is the object the arc analysis normalizes.
Phases are always computed from exact integer residues mod q; floats enter
only in the final unit-circle evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Optional

import numpy as np

from .arcs_fourier import TorusPoint
from .errors import NotCoprime, TooLarge
from .intersective import AuxFamily
from .intpoly import IntPoly
from .numutil import factorize, int_nth_root, prime_guard, residue_guard, values_mod
from .residue_sieve import SieveProfile, expected_density

PHASE_GUARD = 10**7  # M: the terms m <= M of one phase sum
SCAN_GUARD = 2 * 10**8  # q_max (q_max + 1) / 2: the residues one scan visits
_CHUNK = 1 << 16  # m values per phase_sum block


@lru_cache(maxsize=128)
def _cached_profile(coeffs: tuple[int, ...], y_floor: int) -> SieveProfile:
    return SieveProfile.build(IntPoly(coeffs), y_floor)


def profile_for(g: IntPoly, Y: Optional[float], q: int = 0) -> SieveProfile:
    """Profile for cutoff Y; Y=None is the all-primes-<=q sentinel."""
    y = Y if Y is not None else q
    prime_guard(y)
    return _cached_profile(g.coeffs, max(0, math.floor(y)))


@dataclass(frozen=True)
class ExpSumResult:
    value: complex
    trivial_bound: float
    ratio_sqrt: float
    ratio_weyl: float
    a: int
    q: int
    Y: Optional[float]
    admissible: int


def _admissible_values(g: IntPoly, prof: SieveProfile, q: int) -> np.ndarray:
    """g(s) mod q for s in [0, q) cap W^q(g; Y), in ascending s."""
    residue_guard(q)
    return values_mod(g.coeffs, np.flatnonzero(prof.mask_mod(q)), q)


def complete_sum(g: IntPoly, a: int, q: int, Y: Optional[float]) -> ExpSumResult:
    """Exact-phase sum of e(a g(s)/q) over s in [0, q) cap W^q(g; Y)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(a, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) != 1")
    residues = (_admissible_values(g, profile_for(g, Y, q), q) * (a % q)) % q
    ang = 2.0 * math.pi * residues / q
    value = complex(math.fsum(np.cos(ang).tolist()), math.fsum(np.sin(ang).tolist()))
    k = max(1, g.degree())
    mag = abs(value)
    return ExpSumResult(
        value=value,
        trivial_bound=float(len(residues)),
        ratio_sqrt=mag / math.sqrt(q),
        ratio_weyl=mag / q ** (1.0 - 1.0 / k),
        a=a,
        q=q,
        Y=Y,
        admissible=len(residues),
    )


@dataclass(frozen=True)
class PhaseSumSpec:
    """Weighted phase sum description; build via for_family or for_poly.

    For family-based specs M = floor((N / b_d)^(1/k)) exactly.
    """

    g: IntPoly
    N: int
    M: int
    Y: float
    gamma: TorusPoint
    weighted: bool
    fam: Optional[AuxFamily] = None
    d: Optional[int] = None

    @classmethod
    def for_family(
        cls,
        fam: AuxFamily,
        d: int,
        N: int,
        Y: float,
        gamma: TorusPoint,
        weighted: bool = True,
    ) -> "PhaseSumSpec":
        rec = fam.aux_record(d)
        M = int_nth_root(N // rec.b, fam.k)
        return cls(rec.poly, N, max(1, M), Y, gamma, weighted, fam, d)

    @classmethod
    def for_poly(
        cls, g: IntPoly, M: int, N: int, Y: float, gamma: TorusPoint, weighted: bool = False
    ) -> "PhaseSumSpec":
        return cls(g, N, M, Y, gamma, weighted)


def _float_values(poly: IntPoly, m: np.ndarray) -> np.ndarray:
    """float(poly(m)) of the exact integer value, for an int64 array m >= 0.

    Horner runs in Python integers (an object array), so no partial value
    overflows whatever the coefficients; each value is rounded to float
    once, at the end, and one past the float range raises TooLarge.
    """
    x = m.astype(object)
    acc = np.zeros(m.shape, dtype=object)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    try:
        return acc.astype(np.float64)
    except OverflowError:
        raise TooLarge(f"a polynomial value at m <= {m.max()} is past the float range") from None


def phase_sum(spec: PhaseSumSpec) -> complex:
    """Sum over m = 1..M in W(g; Y) of g'(m) e(g(m) gamma), in blocks of m.

    The rational part a/q of gamma enters through the exact residues
    a g(m) mod q; a float offset (or a float-only gamma) multiplies the
    float of the exact g(m), and a weight is the float of the exact g'(m).
    Terms are summed with fsum.
    """
    M = spec.M
    if M > PHASE_GUARD:
        raise TooLarge(f"M={M} phase terms exceed the PHASE_GUARD of {PHASE_GUARD}")
    g, gamma = spec.g, spec.gamma
    if gamma.frac is not None:
        a, q, off = gamma.frac.numerator, gamma.frac.denominator, gamma.offset
    else:
        a, q, off = 0, 1, gamma.value()
    dg = g.derivative()
    adm = profile_for(g, spec.Y).mask(M + 1)
    reals, imags = [], []
    for lo in range(1, M + 1, _CHUNK):
        m = lo + np.flatnonzero(adm[lo : lo + _CHUNK])
        r = (values_mod(g.coeffs, m, q) * (a % q)) % q
        ph = np.asarray(r / q, dtype=np.float64)
        if off:
            ph = ph + _float_values(g, m) * off
        ang = 2.0 * math.pi * np.fmod(ph, 1.0)
        w = _float_values(dg, m) if spec.weighted else 1.0
        reals.append(w * np.cos(ang))
        imags.append(w * np.sin(ang))
    return complex(
        math.fsum(chain.from_iterable(t.tolist() for t in reals)),
        math.fsum(chain.from_iterable(t.tolist() for t in imags)),
    )


def normalized_S(spec: PhaseSumSpec) -> complex:
    """phase_sum / (w_d(Y) N): the trivial bound scales the sum to O(1)."""
    if not spec.weighted or spec.fam is None:
        raise ValueError("normalized_S needs a weighted, family-based spec")
    w = expected_density(profile_for(spec.g, spec.Y))
    return phase_sum(spec) / (w * spec.N)


@dataclass(frozen=True)
class ScanRow:
    q: int
    omega: int
    max_abs: float
    ratio_sqrt: float
    ratio_weyl: float
    admissible: int


def _prime_power_row(g: IntPoly, prof: SieveProfile, p: int, pe: int) -> tuple[float, int]:
    """(max over a prime to p of |S(a, p^e)|, |W^{p^e}|) for pe = p^e.

    The exact residues g(s) mod p^e reduce to a histogram whose real DFT
    gives |S(a, p^e)| for every a at once; magnitudes are conjugation
    symmetric, so a in [1, p^e / 2] covers every unit up to sign.
    """
    res = _admissible_values(g, prof, pe)
    mags = np.abs(np.fft.rfft(np.bincount(res, minlength=pe).astype(np.float64)))
    return float(mags[np.arange(mags.size) % p != 0].max()), res.size


def cancellation_scan(
    g: IntPoly,
    q_max: int,
    Y: Optional[float],
    squarefree_only: bool = False,
) -> list[ScanRow]:
    """max_a |S(a, q)| over a coprime to q, for each q <= q_max.

    Complete sums are multiplicative in q.  For coprime q1, q2, CRT splits
    W^{q1 q2} into W^{q1} x W^{q2} and gives
    S(a, q1 q2) = S(a q2', q1) S(a q1', q2) with q2' = q2^-1 mod q1 and
    q1' = q1^-1 mod q2, and a -> (a q2', a q1') is a bijection on units.
    So max |S| and the admissible count are products over p^e || q: a DFT
    runs once per prime power and every other row is a product.  Rows come
    in ascending q.
    """
    if q_max * (q_max + 1) // 2 > SCAN_GUARD:
        raise TooLarge(f"q_max={q_max} scans more residues than the SCAN_GUARD of {SCAN_GUARD}")
    k = max(1, g.degree())
    prof = profile_for(g, Y, q_max)
    local: dict[int, tuple[float, int]] = {}
    rows = []
    for q in range(1, q_max + 1):
        fac = factorize(q)
        if squarefree_only and any(e > 1 for _, e in fac):
            continue
        max_abs, admissible = 1.0, 1
        for p, e in fac:
            pe = p**e
            if pe not in local:
                local[pe] = _prime_power_row(g, prof, p, pe)
            m, c = local[pe]
            max_abs *= m
            admissible *= c
        ratio_weyl = max_abs / q ** (1.0 - 1.0 / k)
        rows.append(ScanRow(q, len(fac), max_abs, max_abs / math.sqrt(q), ratio_weyl, admissible))
    return rows


def fitted_C(rows: list[ScanRow]) -> float:
    """max over rows with omega >= 1 of (max|S|/sqrt(q))^(1/omega)."""
    vals = [r.ratio_sqrt ** (1.0 / r.omega) for r in rows if r.omega >= 1]
    return max(vals) if vals else 0.0


@dataclass(frozen=True)
class MainTermResult:
    direct: complex
    predicted: complex
    rel_error: float


def main_term_check(
    fam: AuxFamily, d: int, a: int, q: int, Y: float, N: int
) -> MainTermResult:
    """Beta = 0 instance of the main-term factorization.

    direct    = sum_{m <= M, m in W} h_d'(m) e(a h_d(m) / q)
    predicted = (w_qc / q) * S(a, q) * (h_d(M) - h_d(0)),
    where w_qc multiplies (1 - j_p/p^gamma) over p <= Y with p^gamma not
    dividing q, and h_d(M) - h_d(0) is the exact integral of h_d' over [0, M].
    The error is measured relative to the trivial bound w(Y) * N.
    """
    if math.gcd(a, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) != 1")
    rec = fam.aux_record(d)
    spec = PhaseSumSpec.for_family(fam, d, N, Y, TorusPoint.rational(a, q), weighted=True)
    direct = phase_sum(spec)
    prof = profile_for(rec.poly, Y)
    w_qc = 1.0
    for pd in prof.per_prime.values():
        if q % pd.modulus != 0:
            w_qc *= 1.0 - pd.j / pd.modulus
    cs = complete_sum(rec.poly, a, q, Y)
    integral = float(rec.poly.evaluate(spec.M) - rec.poly.evaluate(0))
    predicted = (w_qc / q) * cs.value * integral
    w_full = expected_density(prof)
    rel = abs(direct - predicted) / (w_full * N)
    return MainTermResult(direct, predicted, rel)
