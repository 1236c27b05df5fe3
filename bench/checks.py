"""Output checks for benchmark jobs.

Every check recomputes what it can by a route that does not go through the
code being timed: Legendre symbols instead of p-adic lifting, closed-form
roots of the derivative instead of residue scans, a direct DFT instead of
the histogram FFT, circular convolution of integer numerators instead of the
Fraction histogram, forward blocking instead of the library's greedy.  They
run outside the timed region.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from jobs import Job, local_failures

REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def _close(x: float, y: float, scale: float, what: str, tol: float = REL_TOL) -> None:
    _require(abs(x - y) <= tol * max(scale, 1.0), f"{what}: {x!r} != {y!r}")


def _cplx(v) -> complex:
    return complex(v[0], v[1])


# ----------------------------------------------------------------------
# Polynomials and residues
# ----------------------------------------------------------------------

def _eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deriv(coeffs) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def _eval_mod_array(coeffs, s: np.ndarray, m: int) -> np.ndarray:
    """coeffs(s) mod m for an int64 array s with 0 <= s < m <= 3e9."""
    acc = np.zeros(s.shape, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * s + c % m) % m
    return acc


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if flags[i]]


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def bad_classes_scan(coeffs, p: int) -> tuple[int, frozenset[int]]:
    """(p^gamma, residues s mod p^gamma with g'(s) = 0) by scanning residues.

    gamma is the least exponent at which g' is not zero on every residue.
    """
    dg = _deriv(coeffs)
    m = p
    while True:
        s = np.arange(m, dtype=np.int64)
        zero = _eval_mod_array(dg, s, m) == 0
        if not zero.all():
            return m, frozenset(int(x) for x in np.nonzero(zero)[0])
        m *= p


def sqrt_mod(a: int, p: int) -> list[int]:
    """All x mod an odd prime p with x^2 = a (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return [0]
    if pow(a, (p - 1) // 2, p) != 1:
        return []
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return sorted({r, p - r})


def bad_classes_sextic(h, p: int) -> tuple[int, frozenset[int]]:
    """bad_classes_scan for h = x^6 - a x^4 + b x^2 - c, in closed form for p > 7.

    h' = 2x (3y^2 - 2a y + b) with y = x^2.  For p > 7, h' mod p is a nonzero
    polynomial of degree 5 < p, so gamma = 1, and its roots are x = 0 and the
    square roots of the roots y = (a +- sqrt(a^2 - 3b)) / 3.
    """
    if p <= 7:
        return bad_classes_scan(h, p)
    _require(h[1] == h[3] == h[5] == 0 and h[6] == 1, f"not an even monic sextic: {h}")
    a, b = -h[4], h[2]
    inv3 = pow(3, -1, p)
    roots = {0}
    for s in sqrt_mod(a * a - 3 * b, p):
        for x in sqrt_mod((a + s) * inv3, p):
            roots.add(x)
    return p, frozenset(roots)


def _admissible_mask(s: np.ndarray, classes) -> np.ndarray:
    mask = np.ones(s.shape, dtype=bool)
    for m, bad in classes:
        if bad:
            mask &= ~np.isin(s % m, np.fromiter(bad, dtype=np.int64))
    return mask


# ----------------------------------------------------------------------
# Per-kind checks
# ----------------------------------------------------------------------

def forbidden_values(coeffs, N: int) -> list[int]:
    """{h(n) : n >= 1} cap [1, N-1] for h increasing from n = 2 on."""
    out = set()
    n = 1
    while True:
        v = _eval(coeffs, n)
        if 1 <= v <= N - 1:
            out.add(v)
        if n >= 2 and v > N - 1:
            return sorted(out)
        n += 1


def greedy_size(coeffs, N: int) -> int:
    """Size of the greedy h-free set, by blocking n + f for each kept n."""
    forb = forbidden_values(coeffs, N)
    blocked = bytearray(N + 1)
    size = 0
    for n in range(1, N + 1):
        if blocked[n]:
            continue
        size += 1
        for f in forb:
            if n + f > N:
                break
            blocked[n + f] = 1
    return size


def check_increment(job: Job, res: dict) -> None:
    traj = res["trajectory"]
    N = job.params["N"]
    _require(res["steps"] == len(traj) - 1 >= 0, "steps does not match the trajectory")
    first = traj[0]
    _require(first["N_i"] == N and first["d_i"] == 1, "state 0 is not (N, 1)")
    size0 = greedy_size(job.params["h"], N)
    _require(first["size_A"] == size0, f"|A_0| = {first['size_A']}, greedy oracle {size0}")
    prev = None
    for i, st in enumerate(traj):
        _require(st["i"] == i, "state indices are not 0, 1, ...")
        _require(1 <= st["size_A"] <= st["N_i"], "|A_i| outside [1, N_i]")
        sigma = Fraction(st["size_A"], st["N_i"])
        _close(st["sigma_i"], float(sigma), 1.0, "sigma_i")
        if prev is not None:
            _require(sigma > prev[0], "sigma is not strictly increasing")
            _require(st["d_i"] == prev[1]["q_used"] * prev[1]["d_i"], "d_(i+1) != q_used * d_i")
        last = i == len(traj) - 1
        _require((st["q_used"] is None) == last, "q_used must be set on every state but the last")
        _require(last or st["q_used"] >= 1, "q_used < 1")
        prev = (sigma, st)


def check_intersective(job: Job, res: dict) -> None:
    h = job.params["h"]
    expected = not local_failures(job.params["p"], job.params["q"])
    if res["verdict"] == "not_intersective":
        _require(not expected, "not_intersective, but every local condition holds")
        w = res["witness"]
        fac = factor(w)
        _require(len(fac) == 1, f"witness {w} is not a prime power")
        for lo in range(0, w, 1 << 16):
            s = np.arange(lo, min(w, lo + (1 << 16)), dtype=np.int64)
            _require(bool((_eval_mod_array(h, s, w) != 0).all()), f"h has a root mod the witness {w}")
        return
    _require(res["verdict"] == "intersective_up_to" and expected, f"verdict {res['verdict']}")
    _require(res["bound"] == job.params["B"] and res["integer_root"] is None, "bound or integer root")
    roots = res["roots"]
    _require(sorted(int(p) for p in roots) == primes_up_to(job.params["B"]), "primes with roots != primes <= B")
    for p, rd in roots.items():
        mod = int(p) ** rd["prec"]
        _require(rd["prec"] >= 1 and 0 <= rd["residue"] < mod, f"bad root record at p={p}")
        _require(_eval(h, rd["residue"]) % mod == 0, f"h(residue) != 0 mod {p}^{rd['prec']}")


def check_sieve(job: Job, res: dict) -> None:
    h, Y, X = job.params["h"], job.params["Y"], job.params["X"]
    classes = [bad_classes_sextic(h, p) for p in primes_up_to(Y)]
    adm = np.ones(X + 1, dtype=bool)  # index n, n = 0 excluded below
    adm[0] = False
    density = Fraction(1)
    period = 1
    for m, bad in classes:
        for b in bad:
            adm[b::m] = False
        density *= Fraction(m - len(bad), m)
        period *= m
    count = int(adm.sum())
    del adm
    _require(res["count"] == count, f"count {res['count']} != oracle {count}")
    _require(res["period"] == period, "period != prod p^gamma")
    _require(res["method"] == ("wheel" if period <= min(X, 10**8) else "mark"), "auto picked the wrong method")
    _close(res["density"], float(density), float(density), "density")
    _close(res["main_term"], X * float(density), X * float(density), "main_term")


def check_scan(job: Job, res: dict, rerun: Optional[Callable[[tuple], dict]] = None) -> None:
    h, q_max = job.params["h"], job.params["q_max"]
    k = len(h) - 1
    rows = res["rows"]
    _require([r["q"] for r in rows] == list(range(1, q_max + 1)), "rows are not q = 1..q_max")
    classes = {p: bad_classes_scan(h, p) for p in primes_up_to(q_max)}
    best_C = 0.0
    for r in rows:
        q = r["q"]
        fac = factor(q)
        _require(r["omega"] == len(fac), f"omega({q})")
        adm = Fraction(q)
        for p in fac:
            m, bad = classes[p]
            if q % m == 0:
                adm *= Fraction(m - len(bad), m)
        _require(r["admissible"] == adm, f"admissible count at q={q}")
        _close(r["ratio_sqrt"], r["max_abs"] / math.sqrt(q), r["ratio_sqrt"], f"ratio_sqrt at q={q}")
        _close(r["ratio_weyl"], r["max_abs"] / q ** (1 - 1 / k), r["ratio_weyl"], f"ratio_weyl at q={q}")
        if r["omega"] >= 1:
            best_C = max(best_C, r["ratio_sqrt"] ** (1 / r["omega"]))
    _close(res["fitted_C"], best_C, best_C, "fitted_C")
    q = job.params["probe"]
    s = np.arange(q, dtype=np.int64)
    keep = _admissible_mask(s, [classes[p] for p in factor(q) if q % classes[p][0] == 0])
    resid = _eval_mod_array(h, s[keep], q)
    best = 0.0
    for a in range(1, q):
        if math.gcd(a, q) == 1:
            best = max(best, abs(np.exp(2j * np.pi * ((a * resid) % q) / q).sum()))
    _close(rows[q - 1]["max_abs"], best, q, f"max_abs at q={q} against a direct sum")
    if rerun is not None:
        argv = list(job.argv)
        i = argv.index("--threads")
        argv[i + 1] = str(3 - job.params["threads"])
        other = rerun(tuple(argv))
        _require(other == res, "--threads 1 and --threads 2 give different results")


def _phase_sum_direct(h, M: int, a: int, q: int, classes) -> tuple[complex, float]:
    """(sum over admissible m <= M of h'(m) e(a h(m) / q), sum of |h'(m)|)."""
    m = np.arange(1, M + 1, dtype=np.int64)
    keep = _admissible_mask(m, classes)
    m = m[keep]
    phase = (_eval_mod_array(h, m % q, q) * a) % q
    w = np.zeros(m.size, dtype=np.float64)
    for c in reversed(_deriv(h)):
        w = w * m + c
    return complex((w * np.exp(2j * np.pi * phase / q)).sum()), float(np.abs(w).sum())


def check_main_term(job: Job, res: dict) -> None:
    h, a, q, Y, N, M = (job.params[k] for k in ("h", "a", "q", "Y", "N", "M"))
    classes = [bad_classes_scan(h, p) for p in primes_up_to(Y)]
    direct, trivial = _phase_sum_direct(h, M, a, q, classes)
    _close(abs(_cplx(res["direct"]) - direct), 0.0, trivial, "direct phase sum")
    w_full, w_qc = 1.0, 1.0
    for m, bad in classes:
        w_full *= 1 - len(bad) / m
        if q % m:
            w_qc *= 1 - len(bad) / m
    s = np.arange(q, dtype=np.int64)
    keep = _admissible_mask(s, [(m, bad) for m, bad in classes if q % m == 0])
    resid = (_eval_mod_array(h, s[keep], q) * a) % q
    S = complex(np.exp(2j * np.pi * resid / q).sum())
    integral = float(_eval(h, M) - _eval(h, 0))
    predicted = (w_qc / q) * S * integral
    bound = w_qc / q * int(keep.sum()) * abs(integral)
    _close(abs(_cplx(res["predicted"]) - predicted), 0.0, bound, "predicted main term")
    rel = abs(_cplx(res["direct"]) - _cplx(res["predicted"])) / (w_full * N)
    _close(res["rel_error"], rel, 1.0, "rel_error")


def check_maxset(job: Job, res: dict) -> None:
    N = job.params["N"]
    wit = res["witness"]
    _require(res["mode"] == "exact" and res["size"] == len(wit), "size != |witness|")
    _require(wit == sorted(set(wit)) and all(1 <= x <= N for x in wit), "witness not a subset of [1, N]")
    forb = set(forbidden_values(job.params["h"], N))
    for x, y in itertools.combinations(wit, 2):
        _require(y - x not in forb, f"witness not h-free: {y} - {x} = h(n)")
    _require(res["size"] >= greedy_size(job.params["h"], N), "exact maximum smaller than the greedy set")


def energy_oracle(D: int, nums, m: int, delta_den: int) -> int:
    """E_{2m} of {a/D} at delta = 1/delta_den (0: delta = 0), exactly.

    r = m-fold circular convolution of the numerators' indicator mod D;
    E = sum over pairs (u, v) of m-fold sums within delta of r(u) r(v).
    """
    r = np.zeros(D, dtype=np.int64)
    r[0] = 1
    for _ in range(m):
        r = sum(np.roll(r, a) for a in nums)
    if not delta_den:
        return int((r * r).sum())
    w = D // delta_den  # t / D <= 1 / delta_den  <=>  t <= D // delta_den
    if 2 * w + 1 >= D:
        return int(r.sum()) ** 2
    window = sum(np.roll(r, t) for t in range(-w, w + 1))
    return int((r * window).sum())


def energy_naive(D: int, nums, m: int, delta_den: int) -> int:
    """The literal 2m-fold loop; only for tiny sets."""
    count = 0
    for tup in itertools.product(nums, repeat=2 * m):
        t = (sum(tup[:m]) - sum(tup[m:])) % D
        d = min(t, D - t)
        count += d == 0 if not delta_den else d * delta_den <= D
    return count


def check_energy(job: Job, res: dict) -> None:
    D, nums, m, den = (job.params[k] for k in ("D", "nums", "m", "delta_den"))
    n = len(nums)
    _require(res["m"] == m and res["size"] == n, "echoed m or size")
    E = energy_oracle(D, nums, m, den)
    _require(res["E"] == E, f"E = {res['E']}, oracle {E}")
    if not den:
        _require(E >= n**m, "E < n^m at delta = 0")
    if n ** (2 * m) <= 50_000:
        _require(E == energy_naive(D, nums, m, den), "oracle disagrees with the naive loop")


def check_ch(job: Job, res: dict) -> None:
    A, N, D, nums, m = (job.params[k] for k in ("A", "N", "D", "nums", "m"))
    arr = np.array(A, dtype=np.int64)
    lhs = sum(abs(np.exp(2j * np.pi * ((arr * a) % D) / D).sum()) for a in nums)
    E = energy_oracle(D, nums, m, 2 * N)
    sigma = len(A) / N
    rhs = len(A) * sigma ** (-1 / (2 * m)) * E ** (1 / (2 * m))
    _close(res["lhs"], lhs, lhs, "lhs")
    _close(res["rhs"], rhs, rhs, "rhs")
    _close(res["ratio"], lhs / rhs, lhs / rhs, "ratio")


def check_circle(job: Job, res: dict) -> None:
    A, N = job.params["A"], job.params["N"]
    exact = len(A) * (1 - len(A) / N)
    _close(res["parseval"], exact, exact, "parseval_total")
    _close(res["mass"], exact, exact, "circle_l2_mass against Parseval", tol=1e-6)


_CHECKS = {
    "increment": check_increment,
    "check-intersective": check_intersective,
    "sieve": check_sieve,
    "expsum-scan": check_scan,
    "main-term": check_main_term,
    "maxset": check_maxset,
    "energy": check_energy,
    "ch_check": check_ch,
    "circle": check_circle,
}


def check(job: Job, res: dict, rerun: Optional[Callable[[tuple], dict]] = None) -> None:
    """Raise CheckFailed unless `res` is a correct result for `job`.

    `rerun(argv)` runs a CLI invocation and returns its result section; it
    is used only by the --threads cross-check of scans marked for it.
    """
    if job.kind == "expsum-scan":
        check_scan(job, res, rerun if job.params.get("cross_threads") else None)
    else:
        _CHECKS[job.kind](job, res)

