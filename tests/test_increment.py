import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intersective_lab import increment
from intersective_lab.arcs_fourier import fft_grid_size
from intersective_lab.hfree import HFreeInstance, greedy_h_free, is_h_free
from intersective_lab.errors import SetOutOfRange, TooLarge
from intersective_lab.increment import (
    _entries,
    _set_magnitude,
    _unfold,
    GammaSelection,
    Increment,
    SmallFibers,
    cor0_dichotomy,
    find_increment,
    measured_nu,
    run_iteration,
    select_gamma,
)
from intersective_lab.intersective import AuxFamily
from intersective_lab.intpoly import IntPoly
from test_arcs_fourier import arc_l2_mass

X2 = IntPoly([0, 0, 1])
X3 = IntPoly([0, 0, 0, 1])
X2M1 = IntPoly([-1, 0, 1])


def pullback(h, lam, quotient_N):
    """{lam*n + 1 : n in greedy h-free quotient}; h-free for monomial h."""
    T = greedy_h_free(HFreeInstance.build(h, quotient_N))
    return [lam * t + 1 for t in T]


@pytest.fixture(scope="module")
def fam_x2():
    return AuxFamily(X2, bound=1000)


def test_find_increment_structured(fam_x2):
    # A filling one class mod 9 (thinned to be x^2-free); q = 3, lambda = 9
    A = pullback(X2, 9, 1000)
    N = 9 * 1000 + 2
    assert is_h_free(A, HFreeInstance.build(X2, N)) is None
    res = find_increment(A, N, fam_x2, 1, 3, K=0.5)
    assert res is not None
    assert res.sigma_star > Fraction(len(A), N)
    assert is_h_free(res.A_star, HFreeInstance.build(fam_x2.aux_poly(3), res.N_star)) is None


def test_find_increment_full_density_returns_none():
    fam = AuxFamily(IntPoly([100, 0, 1]), bound=100)  # forbidden empty at this N
    A = list(range(1, 51))
    assert find_increment(A, 50, fam, 1, 1, K=1.0) is None


def test_find_increment_rejects_non_free(fam_x2):
    with pytest.raises(ValueError):
        find_increment([1, 2], 10, fam_x2, 1, 2, K=1.0)


def test_find_increment_greedy_postconditions(fam_x2):
    A = greedy_h_free(HFreeInstance.build(X2, 2000))
    res = find_increment(A, 2000, fam_x2, 1, 2, K=1.0)
    assert res is not None
    sigma = Fraction(len(A), 2000)
    assert res.sigma_star > sigma
    inst = HFreeInstance.build(fam_x2.aux_poly(2), res.N_star)
    assert is_h_free(res.A_star, inst) is None
    assert all(1 <= n <= res.N_star for n in res.A_star)


def test_find_increment_q1_interval_restriction(fam_x2):
    # q = 1: lambda = 1, progressions are intervals; A* is a shifted window of A
    A = greedy_h_free(HFreeInstance.build(X2, 1500))
    res = find_increment(A, 1500, fam_x2, 1, 1, K=1.0)
    assert res is not None
    Aset = set(A)
    recovered = {n + res.offset for n in res.A_star}
    assert recovered <= Aset
    assert is_h_free(res.A_star, HFreeInstance.build(X2, res.N_star)) is None


def test_find_increment_offset_consistency(fam_x2):
    A = pullback(X2, 4, 300)
    N = 4 * 300 + 2
    res = find_increment(A, N, fam_x2, 1, 2, K=1.0)
    assert res is not None
    lam = fam_x2.lambda_of(2)
    Aset = set(A)
    for n in res.A_star:
        assert lam * n + res.offset in Aset
    # and nothing in the window was missed
    expected = sum(1 for n in range(1, res.N_star + 1) if lam * n + res.offset in Aset)
    assert expected == len(res.A_star)


def _selection(arcs, B, size_A=10):
    """Selection of B over arcs (a, q) or (a, q, mass), peaks 1.0."""
    a = [arc[0] for arc in arcs]
    q = [arc[1] for arc in arcs]
    mass = [arc[2] if len(arc) > 2 else 1.0 for arc in arcs]
    return GammaSelection(B, 1.0, _entries(a, q, [1.0] * len(a), mass), Fraction(1, 2), size_A)


def dichotomy_by_dict(sel, nu):
    """cor0_dichotomy as a dict count over the records."""
    fibers = {}
    for e in sel.entries:
        fibers[e.q] = fibers.get(e.q, 0) + 1
    if not fibers:
        return SmallFibers(0)
    max_fiber = max(fibers.values())
    if max_fiber <= nu * sel.B**2:
        return SmallFibers(max_fiber)
    q = min(q for q, c in fibers.items() if c == max_fiber)
    return Increment(q)


def nu_by_python_sum(sel):
    """measured_nu as a Python sum over the records."""
    if not len(sel.entries) or sel.size_A == 0:
        return 0.0
    mean = sum(float(e.mass) for e in sel.entries) / len(sel.entries)
    return min(0.999, mean / (float(sel.sigma) * sel.size_A))


def test_dichotomy_examples():
    assert cor0_dichotomy(_selection([], 1.0), 0.5) == SmallFibers(0)
    sel = _selection([(a, 5) for a in (1, 2, 3, 4)], B=2.0)
    # nu B^2 = 2 < 4 entries at q=5
    assert cor0_dichotomy(sel, 0.5) == Increment(5)
    spread = _selection([(1, q) for q in (3, 4, 5)], B=1.0)
    assert cor0_dichotomy(spread, 1.0) == SmallFibers(1)


def test_dichotomy_smallest_q_tie():
    sel = _selection([(1, 7), (2, 7), (1, 5), (2, 5)], B=1.0)
    assert cor0_dichotomy(sel, 0.5) == Increment(5)


@settings(max_examples=200, deadline=None)
@given(
    arcs=st.lists(
        st.tuples(
            st.integers(1, 63),
            st.integers(1, 64),
            st.floats(0.0, 1e6, allow_nan=False) | st.sampled_from([0.1, 0.2, 0.3]),
        ),
        max_size=40,
    ),
    tie=st.integers(0, 3),
    B=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
    nu=st.floats(0.0, 0.999),
    size_A=st.integers(0, 50),
)
def test_columnar_dichotomy_and_nu_match_oracles(arcs, tie, B, nu, size_A):
    # append `tie` arcs at each of two denominators so fibers tie
    arcs = arcs + [(a, 60, 1.0) for a in range(tie)] + [(a, 7, 1.0) for a in range(tie)]
    sel = _selection(sorted(arcs, key=lambda arc: arc[1::-1]), B, size_A)
    assert cor0_dichotomy(sel, nu) == dichotomy_by_dict(sel, nu)
    assert measured_nu(sel) == nu_by_python_sum(sel)


def test_select_gamma_full_interval_empty(fam_x2):
    sel = select_gamma(range(1, 1001), 1000, fam_x2, 1, kappa=1.0)
    assert len(sel.entries) == 0


def test_select_gamma_progression_spikes(fam_x2):
    # spec example: A = {n = 1 mod 5} at N = 1e4 concentrates Gamma at q = 5
    A = [n for n in range(1, 10001) if n % 5 == 1]
    sel = select_gamma(A, 10000, fam_x2, 1, kappa=1.0)
    assert len(sel.entries)
    assert {e.q for e in sel.entries} == {5}
    assert sorted(e.a for e in sel.entries) == [1, 2, 3, 4]
    # peaks at the exact spikes are essentially |A|
    for e in sel.entries:
        assert e.peak >= 0.95 * len(A)


def test_select_gamma_bucket_invariants(fam_x2):
    rng = random.Random(25)
    A = sorted(rng.sample(range(1, 2001), 500))
    sel = select_gamma(A, 2000, fam_x2, 1, kappa=1.0)
    if not len(sel.entries):
        pytest.skip("selection empty for this draw")
    sf = float(sel.sigma)
    for e in sel.entries:
        assert sel.Q <= e.q < 2 * sel.Q
        x = math.sqrt(e.mass)
        assert sf * math.sqrt(2000) / sel.B <= x < 2 * sf * math.sqrt(2000) / sel.B + 1e-12
        assert math.gcd(e.a, e.q) == 1


def test_unfold_matches_full_fft():
    # |X|^2 of a real grid with columns r <= P/2 of the (M, P) node layout
    # filled, unfolded to the whole grid and padded
    rng = np.random.default_rng(31)
    for G in (2, 4, 16, 64, 1024):
        for M in sorted({1, 2, G // 4 or 1, G}):
            P = G // M
            x = np.zeros(G)
            x[:M] = rng.random(M) - 0.3
            full = np.abs(np.fft.fft(x)) ** 2
            for pad in (0, 1, G // 2, G):
                buf = np.full(G + pad, np.nan)
                buf[:G].reshape(M, P)[:, : P // 2 + 1] = full.reshape(M, P)[:, : P // 2 + 1]
                _unfold(buf, G, M)
                assert np.allclose(buf[:G], full, rtol=1e-12, atol=1e-12)
                assert np.array_equal(buf[G:], buf[:pad])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3000),
    st.sampled_from([1, 2, 3, 32]),
    st.randoms(use_true_random=False),
)
@example(1, 32, random.Random(0))
@example(1024, 1, random.Random(5))  # N = G
def test_set_magnitude_matches_indicator_fft(N, oversample, rng):
    # |1_A-hat| from the transform of g = 1_A - sigma 1_[1, N] and the closed
    # interval transform, at a random node set, against the FFT of 1_A
    G = fft_grid_size(N, oversample)
    A = rng.sample(range(1, N + 1), rng.randint(1, N))
    sf = len(A) / N
    x = np.zeros(G)
    x[np.array(A) % G] = 1.0
    want = np.abs(np.fft.fft(x))
    x[1 : N + 1] -= sf
    if N == G:
        x[0] -= sf  # n = N sits on node 0
    yhat = np.fft.fft(x)
    nodes = np.array(sorted({0, G // 2, G - 1, *rng.choices(range(G), k=40)}))
    got = _set_magnitude(yhat[nodes], sf, N, G, nodes)
    assert np.allclose(got, want[nodes], rtol=0, atol=1e-12 * len(A))


def two_fft_survey(A, N, k, kappa, oversample=32, q_cap=4096):
    """select_gamma as two real FFTs of the whole grid, one of 1_A for the
    peaks and one of g for the masses, with the 64 peak offsets taken arc
    by arc; returns (B, Q, a, q, peak, mass) and the number of arcs above
    the threshold."""
    elems = np.array(sorted(set(A)), dtype=np.int64)
    sf = len(elems) / N
    K = kappa / sf
    q_max = min(q_cap, max(1, math.floor(kappa / sf ** (k + 1))))
    G = fft_grid_size(N, oversample)

    def magnitude(x):
        half = np.abs(np.fft.rfft(x))
        return np.concatenate([half, half[-2:0:-1]])

    x = np.zeros(G)
    x[elems % G] = 1.0
    magA = magnitude(x)
    x[np.arange(1, N + 1) % G] -= sf
    magg2 = magnitude(x) ** 2
    arcs = [(1, 1)] + [(a, q) for q in range(2, q_max + 1) for a in range(1, q) if math.gcd(a, q) == 1]
    a_arr = np.array([a for a, _ in arcs], dtype=np.int64)
    q_arr = np.array([q for _, q in arcs], dtype=np.int64)
    centers = a_arr / q_arr
    j_lo = np.ceil((centers - K / N) * G - 1e-12).astype(np.int64)
    count = np.floor((centers + K / N) * G + 1e-12).astype(np.int64) - j_lo + 1
    j_lo = np.mod(j_lo, G)
    turns, rem = np.divmod(count, G)
    pad = min(int(count.max(initial=2)), G)
    csum = np.concatenate([[0.0], np.cumsum(np.pad(magg2, (0, pad), mode="wrap"))])
    ends = magg2[j_lo] + magg2[(j_lo + count - 1) % G]
    mass = (turns * csum[G] + (csum[j_lo + rem] - csum[j_lo]) - 0.5 * ends) / G
    threshold = sf ** (3 * k + 5) * N / math.log(N)
    keep = np.flatnonzero((count >= 2) & (mass > threshold) & (mass > 0.0))
    frac = np.linspace(0.0, 1.0, increment.PEAK_POINTS)
    peak = np.array(
        [magA[(j_lo[i] + np.round(frac * (count[i] - 1)).astype(np.int64)) % G].max() for i in keep]
    )
    mass, q_keep = mass[keep], q_arr[keep]
    bexp = np.ceil(np.log2(sf * math.sqrt(N) / np.sqrt(mass))).astype(np.int64)
    qexp = np.frexp(q_keep.astype(np.float64))[1] - 1
    totals = {}
    for b, qe, score in zip(bexp.tolist(), qexp.tolist(), (peak * np.sqrt(mass / q_keep)).tolist()):
        totals[b, qe] = totals.get((b, qe), 0.0) + score
    if not totals:
        return (0.0, 0.0, [], [], [], []), keep.size
    best = max(totals.values())
    b, qe = min(key for key, total in totals.items() if total == best)
    win = (bexp == b) & (qexp == qe)
    chosen = (a_arr[keep][win], q_keep[win], peak[win], mass[win])
    return (2.0**b, 2.0**qe, *chosen), keep.size


# (h, N, kappa) -> (B, Q, entries) on the greedy h-free set of [1, N].  The
# winning buckets were recorded before select_gamma became array-native
# (two complex FFTs and one Python object per surviving arc); long entry
# lists are pinned by their count and the sha256 of repr([(a, q), ...]).
SELECT_PINS = [
    (X2, 300, 0.05, 4.0, 4.0, [(2, 5), (3, 5)]),
    (X2, 2500, 0.002, 1024.0, 1.0, [(1, 1)]),
    (X2M1, 2500, 0.01, 8.0, 8.0, [(2, 11), (9, 11)]),
    (X2M1, 1000, 0.002, 0.0, 0.0, []),
    (X3, 300, 0.2, 2.0, 4.0, [(3, 7), (4, 7)]),
    (IntPoly([0, -2, 1, 1]), 300, 0.2, 8.0, 16.0,
     [(1, 16), (3, 16), (5, 16), (11, 16), (13, 16), (15, 16),
      (1, 17), (16, 17), (1, 18), (17, 18), (2, 19), (17, 19)]),
    (IntPoly([0, -2, 1, 1]), 1000, 0.2, 4.0, 32.0,
     [(7, 37), (30, 37), (2, 39), (37, 39), (2, 41), (39, 41),
      (3, 50), (47, 50), (4, 53), (10, 53), (43, 53), (49, 53)]),
    (X2, 300, 0.2, 4.0, 16.0, (34, "0936dcfa86e8c2aa")),
    (X2, 2500, 0.05, 16.0, 32.0, (270, "52bd0dafe1005369")),
    (X2M1, 1000, 0.2, 8.0, 64.0, (1642, "eabb74e20069c4e4")),
    (IntPoly([0, -2, 1, 1]), 2500, 0.2, 8.0, 64.0, (66, "291553d57ac48110")),
]


def _arcs(sel):
    return list(zip(sel.entries.a.tolist(), sel.entries.q.tolist()))


def _digest(arcs):
    return len(arcs), hashlib.sha256(repr(arcs).encode()).hexdigest()[:16]


@pytest.mark.parametrize("h, N, kappa, B, Q, expected", SELECT_PINS)
def test_select_gamma_pinned(h, N, kappa, B, Q, expected):
    A = greedy_h_free(HFreeInstance.build(h, N))
    sel = select_gamma(A, N, AuxFamily(h, bound=100), 1, kappa=kappa)
    got = _arcs(sel)
    assert (sel.B, sel.Q) == (B, Q)
    if isinstance(expected, tuple):
        assert _digest(got) == expected
    else:
        assert got == expected


# (h, N, kappa, oversample, branch): the SELECT_PINS inputs, then a survey
# whose few survivors take |1_A-hat| at their sampled nodes only, one that
# evaluates every node the spectrum rows hold, and one on a grid of exactly N points
SURVEY_CASES = [(h, N, kappa, 32, None) for h, N, kappa, *_ in SELECT_PINS] + [
    (X2, 20000, 0.01, 32, "sparse"),
    (X2M1, 1000, 0.2, 32, "dense"),
    (X2, 1024, 0.2, 1, None),
]


@pytest.mark.parametrize("h, N, kappa, oversample, branch", SURVEY_CASES)
def test_select_gamma_matches_two_fft_survey(h, N, kappa, oversample, branch):
    A = greedy_h_free(HFreeInstance.build(h, N))
    fam = AuxFamily(h, bound=100)
    sel = select_gamma(A, N, fam, 1, kappa=kappa, oversample=oversample)
    (B, Q, a, q, peak, mass), survivors = two_fft_survey(A, N, fam.k, kappa, oversample)
    G = fft_grid_size(N, oversample)
    if branch is not None:
        assert (increment.PEAK_POINTS * survivors < G // 2) == (branch == "sparse")
    assert (sel.B, sel.Q) == (B, Q)
    assert sel.entries.a.tolist() == list(a)
    assert sel.entries.q.tolist() == list(q)
    assert np.allclose(sel.entries.mass, mass, rtol=1e-12, atol=0)
    assert np.allclose(sel.entries.peak, peak, rtol=1e-12, atol=0)


def test_select_gamma_tiny_N(fam_x2):
    # N = 1: A = [1, 1] and g = 0.  N = 2, A = {1}: K/N = 1, so each arc
    # wraps the circle twice, and the quadrature oracle agrees on its mass
    assert len(select_gamma([1], 1, fam_x2, 1).entries) == 0
    sel = select_gamma([1], 2, fam_x2, 1, kappa=1.0)
    assert len(sel.entries)
    for e in sel.entries:
        assert e.mass == pytest.approx(arc_l2_mass([1], 2, e.a, e.q, 2.0), rel=0.02)


def test_select_gamma_rejects_bad_input(fam_x2):
    with pytest.raises(SetOutOfRange):
        select_gamma([0, 3], 10, fam_x2, 1)
    for kappa in (0.0, -1000.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="kappa"):
            select_gamma([1, 3], 10, fam_x2, 1, kappa=kappa)
    for oversample in (0.5, 0):
        with pytest.raises(ValueError, match="oversample"):
            select_gamma([1, 3], 10, fam_x2, 1, oversample=oversample)


def test_select_gamma_arcs_wider_than_circle(fam_x2):
    # K/N ~ 5e3: each arc wraps the circle ~1e4 times, so its mass is the
    # number of whole turns times Parseval's |A|(1 - sigma), plus less than
    # one more turn; no grid that long is built
    A = greedy_h_free(HFreeInstance.build(X2, 100))
    sel = select_gamma(A, 100, fam_x2, 1, kappa=1e5, q_cap=16)
    assert len(sel.entries)
    turns = 2 * 1e5 / (len(A) / 100) / 100
    total = len(A) * (1 - len(A) / 100)
    for e in sel.entries:
        assert abs(e.mass - turns * total) <= total


def test_measured_nu_in_unit_range(fam_x2):
    A = [n for n in range(1, 10001) if n % 5 == 1]
    sel = select_gamma(A, 10000, fam_x2, 1, kappa=1.0)
    nu = measured_nu(sel)
    assert 0 < nu < 1
    assert 1.0 <= nu * sel.B**2 < 4.0 + 1e-9


def test_run_iteration_stops_on_full_set():
    fam = AuxFamily(IntPoly([1000, 0, 1]), bound=100)
    states = run_iteration(fam, range(1, 201), 200, max_steps=4)
    assert len(states) == 1
    assert states[0].sigma == 1


def test_run_iteration_structured_increments(fam_x2):
    # x^2-free pullback of one class mod 9: increments via q = 3
    A = pullback(X2, 9, 220)
    N = 9 * 220 + 2
    sigma = len(A) / N
    kappa = 12 * sigma**3
    states = run_iteration(fam_x2, A, N, max_steps=6, kappa=kappa, oversample=128)
    assert len(states) >= 2
    assert states[0].q_used in (3, 9)
    for prev, cur in zip(states, states[1:]):
        assert cur.sigma > prev.sigma
        assert cur.d == prev.q_used * prev.d
        inst = HFreeInstance.build(fam_x2.aux_poly(cur.d), cur.N)
        assert is_h_free(cur.A, inst) is None


def test_run_iteration_greedy_trajectory_invariants():
    fam = AuxFamily(X2M1, bound=1000)
    A = greedy_h_free(HFreeInstance.build(X2M1, 2000))
    sigma = len(A) / 2000
    states = run_iteration(fam, A, 2000, max_steps=5, kappa=16 * sigma**3)
    for prev, cur in zip(states, states[1:]):
        assert cur.sigma > prev.sigma
        assert cur.d == prev.q_used * prev.d
    for st in states:
        inst = HFreeInstance.build(fam.aux_poly(st.d), st.N)
        assert is_h_free(st.A, inst) is None


def test_run_iteration_rejects_non_free(fam_x2):
    with pytest.raises(ValueError):
        run_iteration(fam_x2, [1, 2], 10, max_steps=2)


def test_run_iteration_nu_formula_mode(fam_x2):
    A = pullback(X2, 9, 220)
    N = 9 * 220 + 2
    sigma = len(A) / N
    states = run_iteration(
        fam_x2, A, N, max_steps=3, kappa=12 * sigma**3, nu_formula=True, oversample=128
    )
    for prev, cur in zip(states, states[1:]):
        assert cur.sigma > prev.sigma
    # post-hoc step-count bound: t <= log(1/sigma_0) / log(1 + nu/73)
    from intersective_lab.increment import formula_nu

    nu = formula_nu(N, sigma)
    t = len(states) - 1
    assert t <= math.log(1 / sigma) / math.log(1 + nu / 73)


def test_survey_guards(fam_x2):
    # the N = 1e5 survey uses a 2^22-point grid
    assert increment.GRID_GUARD >= fft_grid_size(10**5, 32)
    with pytest.raises(TooLarge, match="GRID_GUARD"):
        select_gamma([1], 30_000_000, fam_x2, 1)
    # the winning bucket has no guard: at kappa = 1e5 every arc wraps the
    # circle, and a bucket of 238,856 arcs is returned as recorded before
    # the entries became columns (as in SELECT_PINS)
    A = greedy_h_free(HFreeInstance.build(X2, 100))
    sel = select_gamma(A, 100, fam_x2, 1, kappa=1e5, q_cap=1024)
    assert (sel.B, sel.Q) == (2.0**-7, 512.0)
    assert _digest(_arcs(sel)) == (238_856, "2c998168de8178fa")
