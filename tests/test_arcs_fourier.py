import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersective_lab.arcs_fourier import (
    ARC_GUARD,
    ArcSpec,
    TorusPoint,
    arc_list,
    blocked_spectrum,
    circle_l2_mass,
    classify,
    fft_grid_size,
    fourier_set,
    interval_transform_nodes,
    parseval_total,
)
from intersective_lab.errors import SetOutOfRange, TooLarge


def brute_classify(gamma, spec):
    """Oracle: scan every reduced a/q with q <= Q; smallest q, then a."""
    t = Fraction(spec.K) / spec.N
    v = gamma.exact()
    for a, q in sorted(arc_list(spec), key=lambda aq: (aq[1], aq[0])):
        d = abs(v - Fraction(a, q))
        if min(d, 1 - d) <= t:
            return (a, q)
    return None


def interval_transform(N, gamma):
    """Oracle: sum_{n=1}^{N} e(n gamma) in closed form (the Dirichlet kernel)."""
    v = gamma.value()
    if v == 0.0:
        return complex(N)
    s = math.sin(math.pi * v)
    ratio = math.sin(math.pi * N * v) / s
    return cmath.exp(1j * math.pi * (N + 1) * v) * ratio


def g_hat(A, N, gamma):
    """Oracle: the Fourier transform of g = 1_A - sigma 1_[N] at gamma."""
    elems = sorted(set(A))
    if elems and (elems[0] < 1 or elems[-1] > N):
        raise SetOutOfRange(f"A must lie in [1, {N}]")
    sigma = len(elems) / N
    return fourier_set(elems, gamma) - sigma * interval_transform(N, gamma)


def _g_hat_grid(A, N, nodes):
    """|g-hat| at an array of float torus points (vectorized, node-chunked)."""
    phase = np.empty(nodes.size, dtype=np.complex128)
    chunk = max(1, (1 << 22) // max(1, A.size))
    for lo in range(0, nodes.size, chunk):
        blk = nodes[lo : lo + chunk]
        phase[lo : lo + blk.size] = np.exp(2j * np.pi * np.outer(blk, A)).sum(axis=1)
    v = np.mod(nodes, 1.0)
    s = np.sin(np.pi * v)
    safe = np.where(s == 0.0, 1.0, s)
    ratio = np.sin(np.pi * N * v) / safe
    interval = np.exp(1j * np.pi * (N + 1) * v) * ratio
    interval = np.where(v == 0.0, complex(N), interval)
    sigma = len(A) / N
    return np.abs(phase - sigma * interval)


def arc_l2_mass(A, N, a, q, K, oversample=32):
    """Oracle: trapezoid quadrature of |g-hat|^2 over [a/q - K/N, a/q + K/N].

    oversample * ceil(2K) + 1 uniform nodes; g-hat is a trigonometric
    polynomial of degree <= N, so node spacing <= 1/(oversample*N) controls
    the error.
    """
    if math.gcd(a, q) != 1:
        raise ValueError("a/q must be reduced")
    elems = np.array(sorted(set(A)), dtype=np.int64)
    if elems.size and (elems[0] < 1 or elems[-1] > N):
        raise SetOutOfRange(f"A must lie in [1, {N}]")
    n_nodes = oversample * math.ceil(2 * K) + 1
    c = a / q
    nodes = np.linspace(c - K / N, c + K / N, n_nodes)
    vals = _g_hat_grid(elems, N, nodes) ** 2
    step = (nodes[-1] - nodes[0]) / (n_nodes - 1)
    return float((vals.sum() - 0.5 * (vals[0] + vals[-1])) * step)


def test_classify_examples():
    spec = ArcSpec(1000, 2, 10)
    assert classify(TorusPoint.rational(1, 3), spec) == (1, 3)
    assert classify(TorusPoint(None, 1 / 3 + 0.004), spec) is None
    assert classify(TorusPoint.rational(0, 1), spec) == (1, 1)


def test_classify_against_farey_oracle():
    rng = random.Random(8)
    spec = ArcSpec(500, 2, 12)
    for _ in range(300):
        gamma = TorusPoint(None, rng.random())
        assert classify(gamma, spec) == brute_classify(gamma, spec)
    # near-center points
    for _ in range(100):
        q = rng.randint(1, 12)
        a = rng.randint(1, q)
        if math.gcd(a, q) != 1:
            continue
        gamma = TorusPoint.rational(a, q, (rng.random() - 0.5) * 6 / 500)
        assert classify(gamma, spec) == brute_classify(gamma, spec)


def test_classify_exactness_invariant():
    spec = ArcSpec(800, 3, 9)
    rng = random.Random(9)
    for _ in range(200):
        gamma = TorusPoint(None, rng.random())
        got = classify(gamma, spec)
        if got is not None:
            a, q = got
            d = abs(gamma.exact() - Fraction(a, q))
            assert min(d, 1 - d) <= Fraction(spec.K) / spec.N
            assert q <= spec.Q and math.gcd(a, q) == 1


def test_arc_list_counts():
    assert len(arc_list(ArcSpec(10, 1, 4))) == 6
    assert arc_list(ArcSpec(10, 1, 1)) == [(1, 1)]
    assert len(arc_list(ArcSpec(10, 1, 5))) == 10
    def phi(q):
        return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)
    for Q in (7, 20, 50):
        assert len(arc_list(ArcSpec(10, 1, Q))) == sum(phi(q) for q in range(1, Q + 1))


def test_fourier_set_examples():
    N = 64
    assert fourier_set(range(1, N + 1), TorusPoint.rational(0, 1)) == N
    assert abs(fourier_set([1, 2, 3, 4], TorusPoint.rational(1, 2))) < 1e-12
    g = TorusPoint(None, 0.375)
    assert cmath.isclose(fourier_set([1], g), cmath.exp(2j * math.pi * 0.375))


def test_fourier_magnitude_bound():
    rng = random.Random(10)
    A = sorted(rng.sample(range(1, 500), 40))
    for _ in range(50):
        gamma = TorusPoint(None, rng.random())
        assert abs(fourier_set(A, gamma)) <= len(A) + 1e-9
    assert abs(fourier_set(A, TorusPoint.rational(0, 1))) == len(A)


def literal_fourier_set(A, gamma):
    """The per-element loop: exact residue n a mod q, math.cos and math.sin."""
    re, im = [], []
    for n in A:
        if gamma.frac is None:
            ph = n * gamma.offset
        else:
            a, q = gamma.frac.numerator, gamma.frac.denominator
            ph = ((n * a) % q) / q + n * gamma.offset
        re.append(math.cos(2.0 * math.pi * ph))
        im.append(math.sin(2.0 * math.pi * ph))
    return complex(math.fsum(re), math.fsum(im))


torus_points = st.one_of(
    st.builds(
        TorusPoint.rational,
        st.integers(-10**6, 10**6),
        st.one_of(st.integers(1, 10**4), st.integers(3 * 10**9, 10**13)),  # past int64 products
        st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
    ),
    st.floats(-10.0, 10.0).map(TorusPoint.from_float),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=60), torus_points)
@example([], TorusPoint.rational(1, 3))
@example([5, 7], TorusPoint.rational(2, 9, 1e-4))
def test_fourier_set_matches_literal_loop(A, gamma):
    # numpy's cos/sin may differ from libm's in the last bit on some machines
    tol = 1e-13 * max(1, len(A))
    want = literal_fourier_set(A, gamma)
    assert abs(fourier_set(A, gamma) - want) <= tol
    assert abs(fourier_set(np.array(A, dtype=np.int64), gamma) - want) <= tol


def test_fourier_set_inputs():
    gamma = TorusPoint.rational(3, 11, 2e-5)
    want = literal_fourier_set(range(1, 5001), gamma)
    assert abs(fourier_set(range(1, 5001), gamma) - want) <= 1e-9
    assert abs(fourier_set((n for n in range(1, 5001)), gamma) - want) <= 1e-9
    assert fourier_set([], TorusPoint(None, 0.3)) == 0
    assert fourier_set(range(0), TorusPoint.rational(1, 2)) == 0


def test_interval_transform_matches_direct():
    rng = random.Random(11)
    for _ in range(60):
        N = rng.randint(1, 200)
        gamma = TorusPoint(None, rng.random())
        direct = fourier_set(range(1, N + 1), gamma)
        assert cmath.isclose(interval_transform(N, gamma), direct, abs_tol=1e-8)
    assert interval_transform(7, TorusPoint.rational(0, 1)) == 7


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 23),
    st.integers(1, 1 << 18),
    st.lists(st.integers(0, 1 << 22), max_size=40),
)
@example(4, 1, [0, 8])  # G = 16, N = 1: j = 0 and j = G/2
@example(4, 16, [0, 1, 7, 8])  # N = G
@example(20, (1 << 15) + 3, [0, 1, 2, 3, 1 << 19])  # N near G/32
@example(23, 1 << 18, [0, 1, (1 << 22) - 1, 1 << 22])
def test_interval_transform_nodes_matches_closed_form(log_g, N, nodes):
    # the conjugate of interval_transform(N, j / G); the oracle takes its
    # phase pi (N + 1) j / G in floating point, so it is the less exact side
    # and the tolerance follows its rounding error, N ulp(1) (N + 1 / sin)
    G = 1 << log_g
    nodes = [j % (G // 2 + 1) for j in nodes] + [0, G // 2]
    got = interval_transform_nodes(N, G, np.array(nodes))
    for j, value in zip(nodes, got.tolist()):
        want = interval_transform(N, TorusPoint(None, j / G)).conjugate()
        tol = 0.0 if j == 0 else 1e-15 * N * (N + 1 / math.sin(math.pi * j / G))
        assert abs(value - want) <= tol, (G, N, j)


def test_interval_transform_nodes_matches_direct_sum():
    for G, N in ((16, 1), (16, 16), (64, 2), (1024, 31), (1024, 1000)):
        j = np.arange(G)
        direct = np.exp(-2j * np.pi * np.outer(j, np.arange(1, N + 1)) / G).sum(axis=1)
        assert np.allclose(interval_transform_nodes(N, G, j), direct, rtol=0, atol=1e-12 * N)
    assert interval_transform_nodes(5, 16, np.array([], dtype=np.int64)).size == 0


def test_interval_transform_nodes_rejects_bad_input():
    for G in (0, 1, 12, -16):
        with pytest.raises(ValueError, match="power of two"):
            interval_transform_nodes(3, G, np.array([0]))
    for nodes in ([-1], [16], [0, 3, 40]):
        with pytest.raises(ValueError, match="nodes"):
            interval_transform_nodes(3, 16, np.array(nodes))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 16, 32, 64]),
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
)
@example(1, 0, 0)  # G = M = 1
@example(2, 12, 1)
@example(64, 12, 2)
def test_blocked_spectrum_matches_rfft(P, log_m, seed):
    # rows[r, u] = X[P u + r] for r <= P/2, against the rfft of the
    # zero-padded grid mirrored by X[G - j] = conj X[j]
    M = 1 << log_m
    G = P * M
    rng = np.random.default_rng(seed)
    head = rng.standard_normal(M) * (rng.random(M) < 0.5)
    head[rng.integers(0, M + 1) :] = 0.0  # zero past some N, as the surveys pass it
    x = np.zeros(G)
    x[:M] = head
    half = np.fft.rfft(x)
    full = np.concatenate([half, np.conj(half[G - G // 2 - 1 : 0 : -1])])
    rows = blocked_spectrum(head, G)
    R = P // 2 + 1
    assert rows.shape == (R, M)
    want = full.reshape(M, P)[:, :R].T
    assert np.allclose(rows, want, rtol=0, atol=1e-12 * max(np.abs(head).sum(), 1.0))


def test_blocked_spectrum_rejects_bad_input():
    for M, G in ((3, 12), (4, 12), (8, 4), (0, 4)):
        with pytest.raises(ValueError, match="powers of two"):
            blocked_spectrum(np.zeros(M), G)


def test_g_hat_examples():
    N = 50
    for gamma in (TorusPoint(None, 0.21), TorusPoint.rational(1, 7)):
        assert abs(g_hat(range(1, N + 1), N, gamma)) < 1e-9
    assert abs(g_hat([3, 9, 17], N, TorusPoint.rational(0, 1))) < 1e-12
    assert cmath.isclose(g_hat([1], 2, TorusPoint.rational(1, 2)), -1.0)
    with pytest.raises(SetOutOfRange):
        g_hat([0, 3], 10, TorusPoint.rational(1, 2))


def test_parseval_whole_circle():
    rng = random.Random(12)
    for _ in range(10):
        N = rng.randint(100, 1000)
        A = sorted(rng.sample(range(1, N + 1), rng.randint(5, N // 2)))
        total = circle_l2_mass(A, N, oversample=32)
        exact = parseval_total(A, N)
        assert abs(total - exact) <= 0.01 * max(exact, 1e-12)


def _primes(lo, hi):
    return [p for p in range(lo, hi) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@st.composite
def sets_in_interval(draw):
    N = draw(st.one_of(st.sampled_from(_primes(2, 400) + [16, 64, 1024]), st.integers(1, 3000)))
    return N, sorted(draw(st.sets(st.integers(1, N), max_size=N)))


@settings(max_examples=80, deadline=None)
@given(sets_in_interval(), st.sampled_from([1, 2, 3, 32]))
@example((1, []), 1)
@example((1, [1]), 1)
@example((1024, [1, 1024]), 1)  # the grid is exactly N points long
def test_circle_l2_mass_is_parseval(NA, oversample):
    N, A = NA
    exact = parseval_total(A, N)
    assert abs(circle_l2_mass(A, N, oversample) - exact) <= 1e-12 * max(exact, 1)


def test_circle_l2_mass_prime_N():
    rng = random.Random(15)
    for N in (9973, 49999):
        A = rng.sample(range(1, N + 1), N // 7)
        exact = parseval_total(A, N)
        assert abs(circle_l2_mass(A, N) - exact) <= 1e-12 * exact


def test_fft_grid_size():
    # the formula select_gamma used before the helper, for every N it can see
    for oversample in (1, 2, 3, 32):
        for N in range(1, 3000):
            old = 1 << max(4, math.ceil(math.log2(oversample * N)))
            assert fft_grid_size(N, oversample) == old
    assert fft_grid_size(50_000, 32) == 1 << 21
    with pytest.raises(ValueError, match="N must be"):
        circle_l2_mass([], 0)


@pytest.mark.parametrize("oversample", [0.5, 0, -3, math.nan, math.inf])
def test_oversample_below_one_rejected(oversample):
    with pytest.raises(ValueError, match="oversample"):
        circle_l2_mass([1, 2], 10, oversample)


def test_arc_l2_mass_zero_for_full_interval():
    N = 300
    assert arc_l2_mass(range(1, N + 1), N, 1, 2, 2.0) < 1e-9


def test_quadrature_convergence():
    rng = random.Random(13)
    for _ in range(5):
        N = 1000
        A = sorted(rng.sample(range(1, N + 1), 150))
        m32 = arc_l2_mass(A, N, 1, 3, 2.0, oversample=32)
        m64 = arc_l2_mass(A, N, 1, 3, 2.0, oversample=64)
        assert abs(m64 - m32) <= 0.01 * max(m32, 1e-9)


def test_odd_set_mass_concentrates_at_half():
    N = 2000
    A = list(range(1, N + 1, 2))
    total = parseval_total(A, N)
    at_half = arc_l2_mass(A, N, 1, 2, 4.0)
    assert at_half >= 0.9 * total


def test_arc_partition_accounts_for_parseval():
    # disjoint arcs + grid complement recover the total within 2%
    rng = random.Random(14)
    N, K, Q = 512, 2.0, 8
    A = sorted(rng.sample(range(1, N + 1), 100))
    sigma = len(A) / N
    G = 32 * N
    x = np.zeros(G)
    np.add.at(x, np.arange(1, N + 1) % G, -sigma)
    np.add.at(x, np.array(A) % G, 1.0)
    vals = np.abs(np.fft.fft(x)) ** 2
    covered = np.zeros(G, dtype=bool)
    major = 0.0
    for a, q in arc_list(ArcSpec(N, K, Q)):
        major += arc_l2_mass(A, N, a, q, K)
        lo = math.ceil((a / q - K / N) * G)
        hi = math.floor((a / q + K / N) * G)
        covered[np.arange(lo, hi + 1) % G] = True
    minor = float(vals[~covered].sum() / G)
    total = parseval_total(A, N)
    assert abs((major + minor) - total) <= 0.02 * total


def test_torus_point_norm():
    assert TorusPoint.rational(1, 4).norm() == 0.25
    assert TorusPoint.rational(3, 4).norm() == 0.25
    assert TorusPoint.rational(0, 1).norm() == 0.0
    assert abs(TorusPoint(None, 0.9).norm() - 0.1) < 1e-12


def test_arcspec_validation():
    with pytest.raises(ValueError):
        ArcSpec(100, 0.5, 4)
    with pytest.raises(ValueError):
        ArcSpec(100, 2, 0.2)
    for K, Q in ((math.inf, 3), (math.nan, 3), (2, math.nan)):
        with pytest.raises(ValueError, match="a finite K"):
            ArcSpec(100, K, Q)
    # Q = inf leaves every denominator to classify
    assert classify(TorusPoint.rational(1, 3), ArcSpec(100, 2, math.inf)) == (1, 3)


def test_arc_guard():
    # Q(Q-1)/2 + 1 fractions a/q are tested; the guard acts before any is
    Q = (1 + math.isqrt(8 * ARC_GUARD - 7)) // 2
    assert Q * (Q - 1) // 2 + 1 <= ARC_GUARD < (Q + 1) * Q // 2 + 1
    assert len(arc_list(ArcSpec(10, 1, Q + 0.5))) <= ARC_GUARD
    for big in (Q + 1, 1e300, math.inf):
        with pytest.raises(TooLarge, match="ARC_GUARD"):
            arc_list(ArcSpec(10, 1, big))
