"""Seeded job lists for the three benchmark workloads.

A workload is an endless sequence of rounds; round r is a pure function of
(workload, seed, r), and a run executes whole rounds.  Inside a round every
size parameter is stratified: its range is cut into as many strata as the
round has jobs of that kind, with one point in each, at an offset that
moves from round to round along a seed-shifted low-discrepancy sequence
(_Offsets, _strata).  Which job gets which stratum is fixed, so every round
carries nearly the same work and the same spread of job sizes, for every
seed, while the inputs themselves differ.  That keeps run-to-run spread
low without repeating inputs.

A job is one CLI invocation (argv without --out) or one call into the public
API for the two Fourier checks that have no subcommand.  Jobs run in the
order they are listed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("survey", "arith", "extremal")

# The four acceptance families: coefficient lists, constant term first.
FAMILIES = {
    "x^2": (0, 0, 1),
    "x^2-1": (-1, 0, 1),
    "x^3": (0, 0, 0, 1),
    "x^3+x^2-2x": (0, -2, 1, 1),
}

# Greedy h-free density sigma(N) at N = 5e3, 2e4, 1e5, measured once with
# greedy_h_free.  It is used only to pick --kappa so that the surveyed range
# q_max = kappa / sigma^(k+1) lands where intended; the program recomputes
# sigma itself.
_GREEDY_DENSITY = {
    "x^2": (0.0706, 0.04555, 0.02781),
    "x^2-1": (0.0614, 0.03605, 0.0194),
    "x^3": (0.1908, 0.15105, 0.13003),
    "x^3+x^2-2x": (0.1876, 0.1267, 0.08368),
}
_DENSITY_AT = (5e3, 2e4, 1e5)

# survey: N log-uniform over five octaves; the FFT grid 2^ceil(log2(32 N))
# then runs from 2^17 to 2^21 complex points (2 to 32 MiB), from the 2 MiB
# per-core L2 upward.  Octave edges are stratum edges, so every round puts
# the same number of jobs on each grid size.
SURVEY_N = (2**11, 2**16)
# survey: nominal arc range q_max.  A survey near the 4096 clamp takes 30 s
# or more per job at the commit that introduced this benchmark (one Python
# object per surviving arc), so a run could not hold the 100 jobs its p90
# needs; the range stops where a job still takes well under a second.
SURVEY_Q = (8, 256)
SURVEY_PER_FAMILY = 5

# arith
ARITH_GROUPS = 8
CI_PRIMES = (3, 60)  # lifting at a prime dividing the discriminant costs ~p
CI_BOUND = (300, 8_000)
# sieve --Y is capped below 1e4: at Y >= ~9.9e3 the period L = prod p^gamma
# has more than 4300 decimal digits and the CLI's JSON report raises
# ValueError (int-to-str limit) after the count is done.  This is a program
# defect at the commit that introduced the benchmark; the cap keeps the
# workload free of failing operations until it is fixed.
SIEVE_Y = (1_000, 9_000)
SIEVE_X = (1_000_000, 10_000_000)
SCAN_QMAX = (200, 1_400)
MAIN_TERM_M = (20_000, 200_000)
MAIN_TERM_Y = 50

# extremal
EXTREMAL_GROUPS = 4
MAXSET_N = (40, 60)
ENERGY_DENOMS = (360, 720, 2520, 5040)  # each >= the largest |S| below
WORK_GUARD = 10**9  # energy.WORK_GUARD: |S|^(2m) may not exceed it
# N for ch_check, circle_l2_mass and energy's delta = 1/(2N).  Every round
# holds one circle job at the upper end, where the FFT of length 32 N is at
# its slowest and largest; the range stops at 5e4 so that this job (about
# 0.6 s) leaves room for a dozen rounds in a run.
FOURIER_N = (1_000, 50_000)


@dataclass(frozen=True)
class Job:
    """One unit of work; `params` holds what the output checks need."""

    kind: str
    argv: Optional[tuple[str, ...]] = None
    params: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.argv is not None


_GOLDEN = (math.sqrt(5) - 1) / 2


class _Offsets:
    """Where each size column of round r sits inside its strata.

    Column c of round r is offset by frac(s_c + r * golden ratio), where
    the shift s_c comes from the seed alone.  Over the rounds of a run the
    offsets fill every stratum evenly (an additive low-discrepancy
    sequence), so the sizes a run covers hardly depend on the seed or on
    how many rounds fit, while the seed still moves every size.
    """

    def __init__(self, workload: str, seed: int, r: int):
        self._shifts = random.Random(f"{workload}:{seed}:shift")
        self._r = r

    def __call__(self) -> float:
        return (self._shifts.random() + self._r * _GOLDEN) % 1.0


def _strata(u: float, n: int, step: int = 1, top: bool = False) -> list[float]:
    """n points in [0, 1]: entry g lies in stratum (g * step) mod n.

    Stratum i holds its point at offset frac(u + i / n): the offsets of one
    round are spread evenly, so no round is heavier than another, and as u
    moves by the golden ratio from round to round each stratum's offsets
    fill it evenly.  step must be coprime to n.  Giving two parameters of
    one job different steps pairs their strata by a fixed permutation
    instead of by rank.  With top, the top stratum's point is 1 itself, so
    every round holds the largest input of the range.
    """
    assert math.gcd(step, n) == 1
    pts = [(i + (u + i / n) % 1.0) / n for i in range(n)]
    if top:
        pts[-1] = 1.0
    return [pts[g * step % n] for g in range(n)]


def _int_in(lo: int, hi: int, u: float) -> int:
    """Integer in [lo, hi], uniform for u uniform in [0, 1]."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _greedy_density(family: str, N: int) -> float:
    """Log-log interpolation (and extrapolation) of the density table."""
    xs = [math.log(x) for x in _DENSITY_AT]
    ys = [math.log(y) for y in _GREEDY_DENSITY[family]]
    x = math.log(N)
    i = 0 if x < xs[1] else 1
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return math.exp(ys[i] + t * (ys[i + 1] - ys[i]))


def render(coeffs: tuple[int, ...]) -> str:
    """Polynomial expression in the CLI grammar, highest degree first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if i == 0 else ("" if mag == 1 else str(mag)) + ("x" if i == 1 else f"x^{i}")
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


def _survey_round(rng: random.Random, off: _Offsets) -> list[Job]:
    jobs = []
    n = SURVEY_PER_FAMILY
    for family, coeffs in FAMILIES.items():
        k = len(coeffs) - 1
        for u, v in zip(_strata(off(), n), _strata(off(), n, step=2)):
            N = round(_log_uniform(*SURVEY_N, u))
            q_target = _log_uniform(*SURVEY_Q, v)
            kappa = f"{q_target * _greedy_density(family, N) ** (k + 1):.6g}"
            argv = ("increment", "--poly", family, "--N", str(N), "--set", "greedy", "--kappa", kappa)
            jobs.append(Job("increment", argv, {"h": coeffs, "N": N}))
    return jobs


def _legendre(a: int, p: int) -> int:
    return pow(a % p, (p - 1) // 2, p)


def local_failures(p: int, q: int) -> set[int]:
    """Primes l at which (x^2 - p)(x^2 - q)(x^2 - pq) has no l-adic root.

    For distinct odd primes p, q.  At a prime l not dividing 2pq one of p,
    q, pq is a square mod l, and Hensel lifts it.  At l = p the factors
    x^2 - p and x^2 - pq have no p-adic root, so q must be a square mod p;
    likewise p mod q.  At l = 2 a unit is a 2-adic square iff it is 1 mod 8.
    The polynomial is intersective iff the set is empty.
    """
    fails = set()
    if _legendre(q, p) != 1:
        fails.add(p)
    if _legendre(p, q) != 1:
        fails.add(q)
    if not any(x % 8 == 1 for x in (p, q, p * q)):
        fails.add(2)
    return fails


def sextic(p: int, q: int) -> tuple[int, ...]:
    """Coefficients of (x^2 - p)(x^2 - q)(x^2 - pq), constant term first."""
    a = p + q + p * q
    b = p * q * (1 + p + q)
    return (-(p * q) ** 2, 0, b, 0, -a, 0, 1)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _prime_pair(rng: random.Random, kind: str) -> tuple[int, int]:
    """Primes p < q whose sextic is intersective, fails only at 2, or fails
    only at odd primes >= 29.

    Failing at 2 leaves a witness <= 2^7, so check_intersective stops after
    the primes up to it.  Failing at an odd l leaves the witness l^3 > 2e4,
    so the scan runs to the bound as it does for an intersective pair.
    """
    lo = 29 if kind == "odd" else CI_PRIMES[0]
    primes = [n for n in range(lo, CI_PRIMES[1] + 1) if _is_prime(n)]
    while True:
        p, q = sorted(rng.sample(primes, 2))
        fails = local_failures(p, q)
        if {"intersective": not fails, "two": fails == {2}, "odd": fails and 2 not in fails}[kind]:
            return p, q


def _arith_round(rng: random.Random, off: _Offsets) -> list[Job]:
    n = ARITH_GROUPS  # even: half the pairs intersective, half not
    half = n // 2
    bounds = _strata(off(), half) + _strata(off(), half)
    cols = [_strata(off(), n, step) for step in (1, 3, 5, 7, 3)]
    jobs = []
    for g in range(n):
        kind = "intersective" if g < half else ("two", "odd")[g % 2]
        p, q = _prime_pair(rng, kind)
        h = sextic(p, q)
        poly = render(h)
        B = round(_log_uniform(*CI_BOUND, bounds[g]))
        jobs.append(Job(
            "check-intersective",
            ("check-intersective", "--poly", poly, "--bound", str(B)),
            {"h": h, "B": B, "p": p, "q": q},
        ))
        Y = round(_log_uniform(*SIEVE_Y, cols[0][g]))
        X = round(_log_uniform(*SIEVE_X, cols[1][g]))
        jobs.append(Job(
            "sieve", ("sieve", "--poly", poly, "--Y", str(Y), "--X", str(X)), {"h": h, "Y": Y, "X": X}
        ))
        q_max = round(_log_uniform(*SCAN_QMAX, cols[2][g]))
        threads = 1 + g % 2
        jobs.append(Job(
            "expsum-scan",
            ("expsum-scan", "--poly", poly, "--q-max", str(q_max), "--threads", str(threads)),
            {
                "h": h, "q_max": q_max, "threads": threads,
                "probe": rng.randrange(2, min(q_max, 200) + 1),
                # re-run at the other thread count outside the timed region
                "cross_threads": g % 4 == 0,
            },
        ))
        M = round(_log_uniform(*MAIN_TERM_M, cols[3][g]))
        mod = _int_in(2, 60, cols[4][g])
        a = rng.choice([x for x in range(1, mod) if math.gcd(x, mod) == 1])
        N = M ** (len(h) - 1)  # leading coefficient 1, so M = floor(N^(1/6)) exactly
        jobs.append(Job(
            "main-term",
            ("main-term", "--poly", poly, "--a", str(a), "--q", str(mod), "--Y", str(MAIN_TERM_Y), "--N", str(N)),
            {"h": h, "a": a, "q": mod, "Y": MAIN_TERM_Y, "N": N, "M": M},
        ))
    return jobs


def _freqs(rng: random.Random, n: int, D: int) -> tuple[int, ...]:
    """n distinct numerators a of frequencies a/D."""
    return tuple(sorted(rng.sample(range(D), n)))


def _max_size(m: int) -> int:
    n = 1
    while (n + 1) ** (2 * m) <= WORK_GUARD:
        n += 1
    return n


def _extremal_round(rng: random.Random, off: _Offsets) -> list[Job]:
    n = EXTREMAL_GROUPS
    fams = list(FAMILIES.items())
    cols = [_strata(off(), n, step) for step in (1, 1, 3, 5, 1, 3)]
    # the largest circle job sets the run's peak memory, so it is fixed
    circle_n = _strata(off(), n, top=True)
    # exact search time grows ~6x per 12 steps of N and ~3x between families;
    # step 3 gives each family one low and one high stratum and keeps the two
    # slowest families off the top one
    maxset_n = _strata(off(), n, step=3)
    jobs = []
    for g in range(n):
        family, coeffs = fams[g % len(fams)]
        N = _int_in(*MAXSET_N, maxset_n[g])
        jobs.append(Job(
            "maxset",
            ("maxset", "--poly", family, "--N", str(N), "--exact", "--limit", str(MAXSET_N[1])),
            {"h": coeffs, "N": N},
        ))
        for m, u in ((2, cols[0][g]), (3, cols[1][g])):
            size = _int_in(2, _max_size(m), u)
            D = ENERGY_DENOMS[(g + m) % len(ENERGY_DENOMS)]
            nums = _freqs(rng, size, D)
            delta_den = 2 * round(_log_uniform(*FOURIER_N, cols[2][g])) if (g + m) % 2 else 0
            elems = ",".join(f"{a}/{D}" for a in nums)
            delta = f"1/{delta_den}" if delta_den else "0"
            jobs.append(Job(
                "energy",
                ("energy", "--elems", elems, "--m", str(m), "--delta", delta),
                {"D": D, "nums": nums, "m": m, "delta_den": delta_den},
            ))
        N = round(_log_uniform(*FOURIER_N, cols[3][g]))
        m = 2 + g % 2
        D = ENERGY_DENOMS[g % len(ENERGY_DENOMS)]
        nums = _freqs(rng, _int_in(4, _max_size(m), cols[4][g]), D)
        size_A = max(1, min(N // 5, 200_000 // len(nums)))
        A = tuple(sorted(rng.sample(range(1, N + 1), size_A)))
        jobs.append(Job("ch_check", None, {"A": A, "N": N, "D": D, "nums": nums, "m": m}))
        # prime N: the FFT length 32 N then has one large prime factor, the
        # slowest kind of length, and its cost is a smooth function of N
        N = _next_prime(round(_log_uniform(*FOURIER_N, circle_n[g])))
        size_A = max(1, round(N * (0.01 + 0.29 * cols[5][g])))
        A = tuple(sorted(rng.sample(range(1, N + 1), size_A)))
        jobs.append(Job("circle", None, {"A": A, "N": N}))
    return jobs


_ROUNDS = {"survey": _survey_round, "arith": _arith_round, "extremal": _extremal_round}


def make_round(workload: str, seed: int, r: int) -> list[Job]:
    """Job list of round r; depends on nothing but its arguments."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    return _ROUNDS[workload](rng, _Offsets(workload, seed, r))
