"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from intersective_lab.arcs_fourier import circle_l2_mass, parseval_total
from intersective_lab.cli import main as cli_main
from intersective_lab.energy import FreqSet, additive_energy, ch_check
from intersective_lab.expsum import cancellation_scan, complete_sum, fitted_C, main_term_check
from intersective_lab.hfree import HFreeInstance, greedy_h_free, is_h_free, max_h_free_exact
from intersective_lab.increment import find_increment, run_iteration
from intersective_lab.intersective import AuxFamily
from intersective_lab.intpoly import IntPoly
from intersective_lab.residue_sieve import SieveProfile, sieve_count
from test_residue_sieve import in_W

X2 = IntPoly([0, 0, 1])
X2M1 = IntPoly([-1, 0, 1])
X3 = IntPoly([0, 0, 0, 1])
X3X2M2X = IntPoly([0, -2, 1, 1])
X3PX = IntPoly([0, 1, 0, 1])

FAMILY_POLYS = [X2, X2M1, X3, X3X2M2X]


def report(num, text, t0):
    print(f"[PASS] criterion {num:>2}: {text} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_01_intersectivity_cli(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "c1.json"
    code = cli_main(
        ["check-intersective", "--poly", "x^2+1", "--bound", "100", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["verdict"] == "not_intersective"
    assert doc["result"]["witness"] == 3
    assert time.perf_counter() - t0 < 1.0
    report(1, "check-intersective x^2+1 returns witness 3", t0)


def test_criterion_02_aux_integrality():
    t0 = time.perf_counter()
    checked = 0
    for h in FAMILY_POLYS:
        fam = AuxFamily(h, bound=10_000)
        for d in range(1, 10_001):
            rec = fam.aux_record(d)  # shift_scale_divide raises on any non-integer
            assert rec.poly.leading() > 0
            checked += 1
    assert checked == 40_000
    report(2, "h_d integral for 4 families, all d <= 1e4", t0)


def test_criterion_03_nesting_identity():
    t0 = time.perf_counter()
    checked = 0
    for h in FAMILY_POLYS:
        fam = AuxFamily(h, bound=300)
        for d in range(1, 201):
            for q in range(1, 200 // d + 1):
                s = fam.verify_nesting(d, q, n_max=50)
                assert -q < s <= 0
                checked += 1
    report(3, f"nesting lambda(q) h_dq(n) = h_d(s+qn) on {checked} (d,q) pairs", t0)


def test_criterion_04_effective_jb():
    t0 = time.perf_counter()
    for h in FAMILY_POLYS:
        fam = AuxFamily(h, bound=10_000)
        ak = h.leading()
        const = sum(abs(c) * 2**i for i, c in enumerate(h.coeffs))
        for d in range(1, 10_001):
            rec = fam.aux_record(d)
            assert rec.J * ak <= const * rec.b, (h, d)
    report(4, "J_d <= (sum |a_j| 2^j / a_k) b_d for 4 families, d <= 1e4", t0)


def test_criterion_05_sieve_main_term():
    t0 = time.perf_counter()
    fam = AuxFamily(X3X2M2X, bound=100)
    X = 10**6
    for d in (1, 6, 30):
        prof = SieveProfile.build(fam.aux_poly(d), 50)
        marked = sieve_count(prof, X)
        looped = sum(1 for n in range(1, X + 1) if in_W(prof, n))
        assert marked.method == "mark" and marked.count == looped, d
        assert marked.rel_error <= 0.05, (d, marked.rel_error)
    assert time.perf_counter() - t0 < 60
    report(5, "sieve count (mark and the membership loop agree) within 5% of X*w_d(50), d in {1,6,30}", t0)


def test_criterion_06_sqrt_cancellation():
    t0 = time.perf_counter()
    rows = cancellation_scan(X3, 2000, 2000, squarefree_only=True)
    C = fitted_C(rows)
    assert C <= 4.0, C
    for r in rows:
        if r.omega >= 1:
            assert r.ratio_sqrt <= C**r.omega + 1e-9
    unsieved = cancellation_scan(X3, 2000, 1, squarefree_only=True)
    big = [r for r in unsieved if r.ratio_sqrt >= r.q ** (1 / 6) / 2 and r.q > 1]
    assert big, "unsieved scan must exhibit weak-cancellation rows"
    assert time.perf_counter() - t0 < 300
    report(
        6,
        f"sieved x^3 fit C={C:.2f} <= 4; unsieved has {len(big)} rows >= q^(1/6)/2",
        t0,
    )


def test_criterion_07_gauss_sum_exactness():
    t0 = time.perf_counter()
    from intersective_lab.numutil import primes_up_to

    for q in primes_up_to(997):
        if q == 2:
            continue
        r = complete_sum(X2, 1, q, 1)  # Y < 2: full residue sum
        assert abs(abs(r.value) - math.sqrt(q)) <= 1e-9 * math.sqrt(q), q
    assert time.perf_counter() - t0 < 5
    report(7, "full quadratic Gauss sums |S| = sqrt(q) to 1e-9, odd primes q <= 997", t0)


def test_criterion_08_main_term_agreement():
    # Y = 5 for the k=3 pair: at Y=10 its W-wheel period (210) exceeds
    # M = 100, outside the regime log(M/q) >> log Y loglog Y where the
    # factorization is valid.  The off-regime value is printed below.
    t0 = time.perf_counter()
    cases = [(X2, 4, 10.0), (X3PX, 5, 5.0), (X2M1, 9, 10.0)]
    worst = 0.0
    for h, q, Y in cases:
        fam = AuxFamily(h, bound=100)
        res = main_term_check(fam, 1, 1, q, Y, 10**6)
        worst = max(worst, res.rel_error)
        assert res.rel_error <= 0.1, (h, q, res.rel_error)
    off_regime = main_term_check(AuxFamily(X3PX, bound=100), 1, 1, 5, 10.0, 10**6)
    assert time.perf_counter() - t0 < 60
    report(
        8,
        f"main term worst rel err {worst:.4f} <= 0.1 "
        f"(x^3+x off-regime Y=10 diagnostic: {off_regime.rel_error:.3f})",
        t0,
    )


def test_criterion_09_parseval_quadrature():
    t0 = time.perf_counter()
    rng = random.Random(90)
    N = 10_000
    for _ in range(20):
        A = sorted(rng.sample(range(1, N + 1), rng.randint(50, N // 2)))
        got = circle_l2_mass(A, N, oversample=32)
        exact = parseval_total(A, N)
        assert abs(got - exact) <= 0.01 * exact
    assert time.perf_counter() - t0 < 30
    report(9, "whole-circle |g-hat|^2 quadrature = |A|(1-sigma) within 1%, 20 sets", t0)


def _brute_max(inst):
    N = inst.N
    forb = set(inst.forbidden)
    adj = [0] * (N + 1)
    for v in range(1, N + 1):
        for u in range(1, N + 1):
            if u != v and abs(u - v) in forb:
                adj[v] |= 1 << (u - 1)
    indep = bytearray(1 << N)
    indep[0] = 1
    best = 0
    for mask in range(1, 1 << N):
        low = mask & -mask
        v = low.bit_length()
        rest = mask ^ low
        if indep[rest] and not (adj[v] & rest):
            indep[mask] = 1
            pc = mask.bit_count()
            if pc > best:
                best = pc
    return best


def test_criterion_10_extremal_oracle():
    t0 = time.perf_counter()
    for h in (X2, X2M1, X3):
        for N in range(1, 23):
            inst = HFreeInstance.build(h, N)
            size, witness = max_h_free_exact(inst)
            assert size == _brute_max(inst), (h, N)
            assert is_h_free(witness, inst) is None
    assert max_h_free_exact(HFreeInstance.build(X2, 5))[0] == 2
    assert time.perf_counter() - t0 < 120
    report(10, "exact solver matches 2^N brute force, N <= 22, three families", t0)


def test_criterion_11_increment_soundness():
    t0 = time.perf_counter()
    fam_by_poly = {
        X2: AuxFamily(X2, bound=1000),
        X2M1: AuxFamily(X2M1, bound=1000),
        X3: AuxFamily(X3, bound=1000),
        X3X2M2X: AuxFamily(X3X2M2X, bound=1000),
    }
    cases = []
    # greedy sets, q in {1, 2}, across the four families and several sizes
    for h, N, q, K in [
        (X2, 1500, 1, 1.0), (X2, 2000, 2, 1.0), (X2, 2500, 2, 0.5),
        (X2M1, 1500, 1, 1.0), (X2M1, 2000, 2, 1.0), (X2M1, 2500, 3, 0.5),
        (X3, 2000, 1, 1.0), (X3, 2500, 2, 0.25),
        (X3X2M2X, 2000, 1, 1.0), (X3X2M2X, 2500, 2, 0.5), (X3X2M2X, 1500, 3, 0.25),
    ]:
        A = greedy_h_free(HFreeInstance.build(h, N))
        cases.append((h, A, N, q, K))
    # structured pullbacks along lambda(q) progressions (monomial families)
    for h, lam, quot, q, K in [
        (X2, 4, 400, 2, 1.0), (X2, 4, 600, 2, 0.5), (X2, 9, 700, 3, 0.5),
        (X2, 9, 1000, 3, 0.5), (X3, 8, 300, 2, 0.5), (X3, 8, 500, 2, 0.25),
        (X3, 27, 400, 3, 0.25), (X2, 16, 400, 4, 0.5), (X3, 64, 200, 4, 0.125),
    ]:
        T = greedy_h_free(HFreeInstance.build(h, quot))
        A = [lam * t + 1 for t in T]
        cases.append((h, A, lam * quot + 2, q, K))
    assert len(cases) == 20
    returned = 0
    for h, A, N, q, K in cases:
        fam = fam_by_poly[h]
        res = find_increment(A, N, fam, 1, q, K=K)
        if res is None:
            continue
        returned += 1
        sigma = Fraction(len(A), N)
        assert res.sigma_star > sigma, (h, N, q)
        inst = HFreeInstance.build(fam.aux_poly(q), res.N_star)
        assert is_h_free(res.A_star, inst) is None, (h, N, q)
    assert returned >= 10, f"only {returned} of 20 cases produced an increment"

    # full driver: structured x^2 set (increments) and greedy x^2-1 set
    fam = fam_by_poly[X2]
    T = greedy_h_free(HFreeInstance.build(X2, 220))
    A = [9 * t + 1 for t in T]
    N = 9 * 220 + 2
    sig = len(A) / N
    states = run_iteration(fam, A, N, max_steps=6, kappa=12 * sig**3, oversample=128)
    assert len(states) >= 2
    trajectories = [states]
    fam2 = fam_by_poly[X2M1]
    A2 = greedy_h_free(HFreeInstance.build(X2M1, 2000))
    sig2 = len(A2) / 2000
    trajectories.append(
        run_iteration(fam2, A2, 2000, max_steps=5, kappa=16 * sig2**3)
    )
    for states_i in trajectories:
        for prev, cur in zip(states_i, states_i[1:]):
            assert cur.sigma > prev.sigma
            assert cur.d == prev.q_used * prev.d
    assert time.perf_counter() - t0 < 300
    report(
        11,
        f"{returned}/20 increments sound (A* h_qd-free, sigma up); trajectories monotone",
        t0,
    )


def _naive_energy(values, m, delta):
    """The literal 2m-fold loop on integer numerators t over the common
    denominator D: ||t / D|| <= delta reads min(t, D - t) <= delta D."""
    D = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (D // v.denominator) for v in values]
    count = 0
    for tup in itertools.product(nums, repeat=2 * m):
        t = (sum(tup[:m]) - sum(tup[m:])) % D
        if min(t, D - t) * delta.denominator <= delta.numerator * D:
            count += 1
    return count


def test_criterion_12_energy_oracle():
    t0 = time.perf_counter()
    rng = random.Random(12)
    N = 500
    for trial in range(50):
        m = rng.randint(1, 3)
        size = rng.randint(1, 8)
        den = rng.randint(2, 30)
        vals = [Fraction(n, den) for n in rng.sample(range(den), min(size, den))]
        delta = rng.choice([Fraction(0), Fraction(1, 2 * N)])
        assert additive_energy(FreqSet.build(vals, m, delta)) == _naive_energy(
            vals, m, delta
        ), (trial, vals, m, delta)
    worked = additive_energy(
        FreqSet.build([Fraction(a, 5) for a in (1, 2, 3, 4)], 2, 0)
    )
    assert worked == 52
    assert time.perf_counter() - t0 < 60
    report(12, "meet-in-the-middle = naive 2m-loop on 50 draws; E_4(S;0) = 52", t0)


def test_criterion_13_ch_inequality():
    t0 = time.perf_counter()
    rng = random.Random(13)
    N = 1000
    worst = 0.0
    for _ in range(50):
        A = sorted(rng.sample(range(1, N + 1), rng.randint(20, 500)))
        den = rng.randint(3, 60)
        size = rng.randint(1, min(8, den - 1))
        m = rng.randint(1, 3)
        S = FreqSet.build(
            [Fraction(a, den) for a in rng.sample(range(1, den), size)], m, 0
        )
        res = ch_check(A, N, S)
        worst = max(worst, res.ratio)
    assert worst <= 10.0
    assert time.perf_counter() - t0 < 60
    report(13, f"large-values inequality ratio max {worst:.3f} <= 10 on 50 draws", t0)


def _cli_result(tmp_path, name, args):
    out = tmp_path / name
    code = cli_main([*args, "--out", str(out)])
    assert code == 0
    return json.dumps(json.loads(out.read_text())["result"], sort_keys=True)


def test_criterion_14_determinism(tmp_path):
    t0 = time.perf_counter()
    runs = {
        "sieve": ["sieve", "--poly", "x^3+x^2-2x", "--d", "6", "--Y", "50",
                  "--X", "1000000"],
        "scan": ["expsum-scan", "--poly", "x^3", "--q-max", "2000", "--Y", "2000",
                 "--squarefree"],
        "increment": ["increment", "--poly", "x^2-1", "--N", "1500",
                      "--set", "greedy", "--kappa", "0.01", "--max-steps", "4"],
    }
    for name, args in runs.items():
        r1 = _cli_result(tmp_path, f"{name}_t1.json", args + ["--threads", "1"])
        r8 = _cli_result(tmp_path, f"{name}_t8.json", args + ["--threads", "8"])
        assert r1 == r8, name
    report(14, "criteria 5/6/11 CLI runs byte-identical at --threads 1 vs 8", t0)
