"""Core geometry and quadrature checks.

Derived expectations carry their oracle inline: the oracle is computed first
(a direct count, a Taylor bound, a symmetry argument) and the frozen literal
is asserted against the implementation.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilift import builders, core
from equilift.core import (
    Circle,
    CompactRegion,
    ComplexPoly,
    SampledFunction,
    Window,
    contour_integral,
    count_zeros,
    q26,
    refine_zero,
)
from equilift.builders import weierstrass
from equilift.divisors import Divisor, generate
from equilift.errors import (ContourThroughZero, EquiliftError,
                             HoleWitnessNotFound, NoConvergence)

UNIT_DISK = CompactRegion.disk(0, 1)


def dyadic(lo, hi):
    """Strategy: q26-quantized complex numbers in the square [lo, hi]^2."""
    coord = st.integers(int(lo * 64), int(hi * 64)).map(lambda n: n / 64)
    return st.tuples(coord, coord).map(lambda t: complex(t[0], t[1]))


# ---------------------------------------------------------------------------
# zero counting and refinement


def test_count_zeros_square():
    f = SampledFunction(evaluator=lambda z: z * z, dlog=lambda z: 2 / z)
    assert count_zeros(f, [Circle(0, 1)])[0].tolist() == [2]


def test_count_zeros_zero_free():
    f = SampledFunction(evaluator=np.exp, dlog=np.ones_like)
    assert count_zeros(f, [Circle(0.3 + 0.2j, 2.0)])[0].tolist() == [0]


def test_count_zeros_close_pair():
    # oracle: the roots are 0.3 and 0.31, both of modulus < 1, so the count is 2
    f = SampledFunction(evaluator=lambda z: (z - 0.3) * (z - 0.31),
                        dlog=lambda z: 1 / (z - 0.3) + 1 / (z - 0.31))
    assert count_zeros(f, [Circle(0, 1)])[0].tolist() == [2]


def test_count_zeros_contour_through_zero():
    f = SampledFunction(evaluator=lambda z: z, dlog=lambda z: 1 / z)
    with pytest.raises(ContourThroughZero):
        count_zeros(f, [Circle(1, 1)])


def test_count_zeros_counts_poles_negatively():
    f = SampledFunction(evaluator=lambda z: 1 / z, dlog=lambda z: -1 / z)
    assert count_zeros(f, [Circle(0, 1)])[0].tolist() == [-1]


@settings(max_examples=15, deadline=None)
@given(
    a=dyadic(-0.45, 0.45),
    b=dyadic(-0.45, 0.45),
)
def test_count_zeros_additive_over_products(a, b):
    f = SampledFunction(evaluator=lambda z: z - a, dlog=lambda z: 1 / (z - a))
    # second root outside the contour
    g = SampledFunction(evaluator=lambda z: (z - b) * (z - 3),
                        dlog=lambda z: (2 * z - b - 3) / ((z - b) * (z - 3)))
    # the product's dlog is its derivative over its value, not dlog f + dlog g
    fg = SampledFunction(
        evaluator=lambda z: f(z) * g(z),
        dlog=lambda z: ((z - b) * (z - 3) + (z - a) * (2 * z - b - 3))
        / ((z - a) * (z - b) * (z - 3)))
    C = [Circle(0, 1.25)]
    assert count_zeros(fg, C)[0] == count_zeros(f, C)[0] + count_zeros(g, C)[0]


def test_count_zeros_batch_matches_one_circle_at_a_time():
    d = generate("poisson", Window(-16, 16, -16, 16), seed=3, intensity=0.2)
    f = weierstrass(d)
    ks = range(0, len(d), 9)
    circles = [Circle(d.locs[k], 0.45 * float(np.min(np.abs(
        np.delete(d.locs, k) - d.locs[k])))) for k in ks]
    # one circle holds several zeros, at the radius that clears them most,
    # and one, off the window, holds none
    dist = np.abs(d.locs - (0.5 + 0.5j))
    r = max(np.arange(4, 6, 0.125), key=lambda r: np.min(np.abs(dist - r)))
    circles += [Circle(0.5 + 0.5j, r), Circle(40.0, 1.0)]
    counts, residuals = count_zeros(f, circles)
    assert counts.dtype.kind == "i" and counts.shape == residuals.shape
    for circle, n, res in zip(circles, counts, residuals):
        (n1,), (res1,) = count_zeros(f, [circle])
        assert n == n1 and abs(res - res1) <= 1e-14
    assert counts[:-2].tolist() == d.mults[list(ks)].tolist()
    assert counts[-2] == d.mults[dist < r].sum() > 1
    assert counts[-1] == 0


def test_count_zeros_raises_for_the_first_failing_circle():
    # zeros on a node of A (dlog not finite there), between two nodes of B
    # (the trapezoid sum is about 1/2 off an integer) and inside C
    on_b = 5 + np.exp(1j * np.pi / 512)
    f = SampledFunction(
        evaluator=lambda z: (z - 1) * (z - on_b) * (z + 5),
        dlog=lambda z: 1 / (z - 1) + 1 / (z - on_b) + 1 / (z + 5))
    a, b, c = Circle(0, 1), Circle(5, 1), Circle(-5, 1)
    assert count_zeros(f, [c])[0].tolist() == [1]
    with pytest.raises(ContourThroughZero, match="not finite"):
        count_zeros(f, [c, a, b])
    with pytest.raises(ContourThroughZero, match="exceeds 0.25"):
        count_zeros(f, [c, b, a])


def test_count_zeros_empty_batch():
    f = SampledFunction(evaluator=lambda z: z, dlog=lambda z: 1 / z)
    counts, residuals = count_zeros(f, [])
    assert counts.shape == residuals.shape == (0,)
    assert counts.dtype.kind == "i" and residuals.dtype.kind == "f"


def test_count_zeros_takes_only_circles():
    f = SampledFunction(evaluator=lambda z: z, dlog=lambda z: 1 / z)
    with pytest.raises(TypeError):
        count_zeros(f, [Circle(0, 1), (0, 1)])


def test_count_zeros_nodes_parameter():
    # the benchmark tracer reads `nodes` by name, or as the third
    # positional argument, with this default
    params = inspect.signature(count_zeros).parameters
    assert list(params)[2] == "nodes"
    assert params["nodes"].default == builders.CONTOUR_NODES


def test_refine_zero_linear():
    # oracle: the step -1 / dlog = -(z - 1/2) lands on the root
    f = SampledFunction(evaluator=lambda z: z - 0.5,
                        dlog=lambda z: 1 / (z - 0.5))
    z, _ = refine_zero(f, [0], [1])
    assert z[0] == pytest.approx(0.5, abs=1e-11)


def test_refine_zero_sine():
    # oracle: the zero lattice of sin(pi z) is the integers; nearest to the
    # guess 0.9 + 0.1i is 1.0
    f = SampledFunction(evaluator=lambda z: np.sin(np.pi * z),
                        dlog=lambda z: np.pi / np.tan(np.pi * z))
    z, _ = refine_zero(f, [0.9 + 0.1j], [1])
    assert abs(z[0] - 1.0) < 1e-10


def test_refine_zero_sqrt2():
    f = SampledFunction(evaluator=lambda z: z * z - 2,
                        dlog=lambda z: 2 * z / (z * z - 2))
    z, _ = refine_zero(f, [1], [1])
    assert abs(z[0] - math.sqrt(2)) < 1e-12


def test_refine_zero_no_convergence():
    # dlog = 0 has no Newton step
    with pytest.raises(NoConvergence):
        one = SampledFunction(evaluator=np.ones_like, dlog=np.zeros_like)
        refine_zero(one, [0], [1])


def test_refine_zero_gives_up_at_the_cap():
    # dlog = 1 (f = e^z) steps by -1 forever and never stagnates
    calls = []

    def dlog(z):
        calls.append(len(z))
        return np.ones_like(z)

    f = SampledFunction(evaluator=np.exp, dlog=dlog)
    with pytest.raises(NoConvergence):
        refine_zero(f, [0, 1j], [1, 1])
    assert calls == [2] * core.NEWTON_CAP


def test_refine_zero_counts_newton_steps():
    # oracle: for (z - 1/2)^2 the step -2 / dlog = -(z - 1/2) is exact on
    # dyadic numbers, so one step from 3/4 lands on the root, where dlog is
    # no longer finite and the refinement stops
    f = SampledFunction(evaluator=lambda z: (z - 0.5) ** 2,
                        dlog=lambda z: 2 / (z - 0.5),
                        log_eval=lambda z: 2 * np.log(z - 0.5))
    z, steps = refine_zero(f, [0.75], [2])
    assert z.tolist() == [0.5] and steps.tolist() == [1]


def test_refine_zero_array_matches_one_guess_at_a_time():
    # every guess follows the iterates it follows alone, whichever other
    # guesses share its dlog calls and whenever they stop
    f = weierstrass(Divisor.from_points(
        [(0j, 1), (1.5 + 0.25j, 2), (-2 - 1j, 1), (3j, 3)],
        Window(-8, 8, -8, 8)))
    guesses = [0.1 - 0.05j, 1.4 + 0.3j, -2.2 - 0.9j, 0.2 + 2.9j, 0.05j]
    mults = [1, 2, 1, 3, 1]
    roots, steps = refine_zero(f, guesses, mults)
    for k, (g, m) in enumerate(zip(guesses, mults)):
        root, step = refine_zero(f, [g], [m])
        assert abs(roots[k] - root[0]) <= 1e-15
        assert steps[k] == step[0]
    assert len(set(steps.tolist())) > 1


# ---------------------------------------------------------------------------
# Cauchy sums: near sources directly, far sources as one Taylor series


def loop_cauchy(u, b, w):
    """The per-offset loop with the term sizes sum_j |w_j / (u - b_j)|."""
    u = np.asarray(u, dtype=complex)
    with np.errstate(all="ignore"):
        terms = [wj / (u - bj) for bj, wj in zip(b, w)]
    return sum(terms, np.zeros(u.shape, complex)), sum(
        (np.abs(t) for t in terms), np.zeros(u.shape))


def far_mask(u, b):
    """Sources the far field takes for the block u."""
    u = np.asarray(u, dtype=complex)
    c = u.mean()
    return np.abs(b - c) > core.FAR_RATIO * np.abs(u - c).max()


def assert_cauchy_matches_loop(u, b, w):
    with np.errstate(all="ignore"):
        got = core.cauchy_sum(u, b, w)
    want, size = loop_cauchy(u, b, w)
    assert got.shape == np.shape(u)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    err = np.abs(got[finite] - want[finite])
    assert np.all(err <= 1e-13 * size[finite])
    return got


@pytest.fixture(scope="module")
def poisson_804():
    d = generate("poisson", Window(-32, 32, -32, 32), seed=3, intensity=0.2)
    assert len(d) == 804
    return d.locs, d.mults.astype(float)


def contour_circle(locs, k, nodes=512):
    """The separating circle of point k, as membership draws it."""
    gap = float(np.min(np.abs(np.delete(locs, k) - locs[k])))
    e = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return locs[k] + min(0.25, 0.45 * gap) * e


def test_far_order_is_the_least_with_the_bound():
    q = 1 / core.FAR_RATIO
    assert q ** core.FAR_ORDER / (1 - q) <= 2.0 ** -53
    assert q ** (core.FAR_ORDER - 1) / (1 - q) > 2.0 ** -53


def test_cauchy_sum_on_a_membership_circle(poisson_804):
    locs, w = poisson_804
    for k in (0, 401, 803):
        u = contour_circle(locs, k)
        far = far_mask(u, locs)
        assert far.sum() > 700 and (~far).sum() >= 1
        assert_cauchy_matches_loop(u, locs, w)


def test_cauchy_sum_on_a_window_side(poisson_804):
    # a straight segment through the cloud, nodes at the midpoints of 128
    # equal steps
    locs, w = poisson_804
    a, b = complex(-3.3, -2.1), complex(3.3, -2.1)
    u = a + (b - a) * (np.arange(128) + 0.5) / 128
    far = far_mask(u, locs)
    assert far.any() and not far.all()
    assert_cauchy_matches_loop(u, locs, w)


def test_cauchy_sum_every_source_far():
    rng = np.random.default_rng(11)
    b = 40 * np.exp(2j * np.pi * rng.uniform(size=300))
    w = rng.integers(1, 4, 300).astype(float)
    u = 0.5 + 0.25j + rng.uniform(-2, 2, 64) + 1j * rng.uniform(-2, 2, 64)
    assert far_mask(u, b).all()
    assert_cauchy_matches_loop(u, b, w)


def test_cauchy_sum_truncation_bound_at_the_far_edge():
    # the worst case of the bound: every source just beyond FAR_RATIO * rho
    # on one ray, and a target at distance rho towards them, so every term
    # of every series has the same sign and |t x_j| is close to q
    e = np.exp(2j * np.pi * np.arange(64) / 64)
    u = 1.0 + e
    b = 1.0 + core.FAR_RATIO * (1 + 1e-9 * np.arange(1, 6))
    w = np.ones(5)
    assert far_mask(u, b).all()
    got = assert_cauchy_matches_loop(u, b, w)
    want, size = loop_cauchy(u, b, w)
    q = 1 / core.FAR_RATIO
    bound = q ** core.FAR_ORDER / (1 - q) * np.sum(np.abs(w / (b - 1.0)))
    assert abs(got[0] - want[0]) <= bound + 8 * np.finfo(float).eps * size[0]


def test_cauchy_sum_no_source_far_is_the_direct_sum(poisson_804):
    locs, w = poisson_804
    u = Window(-30, 30, -30, 30).grid(2.0).ravel()
    assert not far_mask(u, locs).any()
    with np.errstate(all="ignore"):
        got = core.cauchy_sum(u, locs, w)
        direct = core.base_sum(lambda row: 1 / (row - locs[:, None]), u, w)
    assert np.array_equal(got, direct)
    assert_cauchy_matches_loop(u, locs, w)


def test_cauchy_sum_small_blocks_are_the_direct_sum(poisson_804):
    # no more targets than FAR_ORDER: bit for bit the direct sum, although
    # most sources would be far
    locs, w = poisson_804
    for size in (1, core.FAR_ORDER):
        u = contour_circle(locs, 5, nodes=size)
        assert far_mask(u, locs).any()
        got = core.cauchy_sum(u, locs, w)
        direct = core.base_sum(lambda row: 1 / (row - locs[:, None]), u, w)
        assert np.array_equal(got, direct)


@pytest.mark.parametrize("u", [0.3 - 1.7j, np.array(2.5 + 0.5j),
                               Window(-1, 1, -1, 1).grid(0.25),
                               np.zeros((0, 3), dtype=complex)],
                         ids=["scalar", "0-d", "2-D", "empty"])
def test_cauchy_sum_keeps_shapes(poisson_804, u):
    locs, w = poisson_804
    assert_cauchy_matches_loop(u, locs, w)


def test_cauchy_sum_target_on_a_near_source(poisson_804):
    locs, w = poisson_804
    u = contour_circle(locs, 401)
    u[17] = locs[401]
    assert far_mask(u, locs).any()
    got = assert_cauchy_matches_loop(u, locs, w)
    assert not np.isfinite(got[17]) and np.isfinite(np.delete(got, 17)).all()


def test_cauchy_sum_complex_weights(poisson_804):
    locs, _ = poisson_804
    rng = np.random.default_rng(2)
    w = rng.normal(size=len(locs)) + 1j * rng.normal(size=len(locs))
    u = contour_circle(locs, 222)
    assert far_mask(u, locs).any()
    assert_cauchy_matches_loop(u, locs, w)


# rows: every u is a batch of rows along its last axis, each summed alone


def direct_cauchy(u, b, w):
    """The direct sum of cauchy_sum's rows without far sources."""
    with np.errstate(all="ignore"):
        return core.base_sum(lambda row: 1 / (row - b[:, None]), u, w)


def row_chunk(b, nodes):
    """Rows per chunk of a 2-D cauchy_sum."""
    return core.BASE_SUM_BLOCK // max(len(b), nodes)


def membership_rows(locs, ks, nodes=512):
    return np.array([contour_circle(locs, k, nodes) for k in ks])


def assert_row_far_sets(monkeypatch, u, b, w):
    """The far sets cauchy_sum takes for a 2-D u, one per row, each the
    far_mask of its row alone; returns them stacked."""
    taken = []
    far_sources = core._far_sources

    def spy(block, sources):
        c, far = far_sources(block, sources)
        taken.append(np.broadcast_to(far, (len(block), len(sources))))
        return c, far

    monkeypatch.setattr(core, "_far_sources", spy)
    with np.errstate(all="ignore"):
        core.cauchy_sum(u, b, w)
    monkeypatch.undo()
    far = np.vstack(taken)
    rows = u.reshape(len(far), u.shape[-1])
    assert far.shape == (len(rows), len(b))
    for i, row in enumerate(rows):
        want = far_mask(row, b) if len(row) > core.FAR_ORDER else False
        assert np.array_equal(far[i], np.broadcast_to(want, len(b))), i
    return far


def test_cauchy_sum_rows_of_membership_circles(monkeypatch, poisson_804):
    locs, w = poisson_804
    ks = list(range(0, 804, 17))
    u = membership_rows(locs, ks)
    assert len(ks) % row_chunk(locs, 512) and len(ks) > row_chunk(locs, 512)
    far = assert_row_far_sets(monkeypatch, u, locs, w)
    # every row has its own far set
    assert len({f.tobytes() for f in far}) == len(ks)
    assert_cauchy_matches_loop(u, locs, w)
    # the leading axes are only a batch of rows
    assert_cauchy_matches_loop(u.reshape(2, -1, 512)[:, :4], locs, w)


def test_cauchy_sum_one_row_on_a_near_source(poisson_804):
    locs, w = poisson_804
    u = membership_rows(locs, [3, 401, 9, 700])
    u[1, 17] = locs[401]
    got = assert_cauchy_matches_loop(u, locs, w)
    bad = ~np.isfinite(got)
    assert bad[1, 17] and bad.sum() == 1


def test_cauchy_sum_rows_without_far_sources_are_the_direct_sum(
        monkeypatch, poisson_804):
    # a row without far sources is the direct base_sum of that row alone,
    # whatever the other rows of its chunk take
    locs, w = poisson_804
    big = np.exp(2j * np.pi * np.arange(512) / 512) * 30
    u = np.vstack([big, membership_rows(locs, [5, 6])])
    far = assert_row_far_sets(monkeypatch, u, locs, w)
    assert not far[0].any() and far[1].sum() > 700 and far[2].sum() > 700
    got = assert_cauchy_matches_loop(u, locs, w)
    assert np.array_equal(got[0], direct_cauchy(u[0], locs, w))
    # rows of no more than FAR_ORDER targets take no far source at all
    short = membership_rows(locs, [5, 6, 7], nodes=core.FAR_ORDER)
    assert not assert_row_far_sets(monkeypatch, short, locs, w).any()
    got = core.cauchy_sum(short, locs, w)
    for row, want in zip(short, got):
        assert np.array_equal(want, direct_cauchy(row, locs, w))
    # and so are empty rows
    empty = np.zeros((3, 0), dtype=complex)
    assert not assert_row_far_sets(monkeypatch, empty, locs, w).any()
    assert core.cauchy_sum(empty, locs, w).shape == (3, 0)


def test_cauchy_sum_rows_at_the_far_edge(monkeypatch):
    # rows with exact centres (0 and 1/2) and radius 1: a source at
    # distance exactly FAR_RATIO * rho from a row's centre is near it
    ring = np.tile([1, 1j, -1, -1j], 8)
    u = np.array([ring, 0.5 + ring])
    edge = core.FAR_RATIO
    b = np.array([edge, edge + 2.0 ** -20, -edge * 1j, edge + 0.5, 0.5 - edge])
    w = np.array([1.0, 2.0, 1.0, 3.0, 1.0])
    far = assert_row_far_sets(monkeypatch, u, b, w)
    assert far.tolist() == [[False, True, False, True, False],
                            [False, False, True, False, False]]
    assert_cauchy_matches_loop(u, b, w)


def test_cauchy_sum_one_dimensional_u_is_a_one_row_batch(poisson_804):
    # a membership circle (far sources) and a window-spanning block (none,
    # so the direct sum), with real and complex weights
    locs, w = poisson_804
    rng = np.random.default_rng(4)
    wc = rng.normal(size=len(locs)) + 1j * rng.normal(size=len(locs))
    circle = contour_circle(locs, 0, nodes=64)
    span = Window(-30, 30, -30, 30).grid(2.0).ravel()
    assert far_mask(circle, locs).any() and not far_mask(span, locs).any()
    for weights in (w, wc):
        for u in (circle, span):
            assert np.array_equal(core.cauchy_sum(u, locs, weights),
                                  core.cauchy_sum(u[None], locs, weights)[0])
        assert np.array_equal(core.cauchy_sum(span, locs, weights),
                              direct_cauchy(span, locs, weights))
    u = np.array(2.5 + 0.5j)
    assert np.array_equal(core.cauchy_sum(u, locs, w),
                          core.cauchy_sum(u.reshape(1, 1), locs, w)[0, 0])


# ---------------------------------------------------------------------------
# contour integrals (Laurent coefficients)


def test_contour_integral_residue():
    (val,) = contour_integral(lambda z: 1 / z, [Circle(0, 1)])[:, 1]
    assert abs(val - 1) < 1e-12


def test_contour_integral_holomorphic():
    (val,) = contour_integral(np.exp, [Circle(0, 1.7)])[:, 1]
    assert abs(val) < 1e-12


def test_contour_integral_double_pole():
    (val,) = contour_integral(lambda z: 1 / (z * z), [Circle(0, 1)],
                              orders=2)[:, 2]
    assert abs(val - 1) < 1e-12


def test_contour_integral_every_order_from_one_evaluation():
    # oracle: exp is entire, so its circle mean is exp(centre) and every
    # contour moment of order j >= 1 vanishes. 70 circles at 256 nodes make
    # two chunks of at most BASE_SUM_BLOCK nodes, and g sees each chunk once
    rng = np.random.default_rng(5)
    circles = [Circle(complex(*rng.uniform(-2, 2, 2)), rng.uniform(0.1, 2))
               for _ in range(70)]
    shapes = []

    def g(z):
        shapes.append(z.shape)
        return np.exp(z)

    moments = contour_integral(g, circles, orders=3)
    step = core.BASE_SUM_BLOCK // 256
    assert shapes == [(step, 256), (70 - step, 256)]
    assert moments.shape == (70, 4)
    centres = np.array([c.center for c in circles])
    assert np.max(np.abs(moments[:, 0] - np.exp(centres))) < 1e-12
    assert np.max(np.abs(moments[:, 1:])) < 1e-12


# ---------------------------------------------------------------------------
# complement topology fixtures


def test_complement_connected_single_disk():
    assert UNIT_DISK.complement_connected() is True


def test_complement_connected_two_disjoint_disks():
    K = CompactRegion([0j, 5 + 0j], [1.0, 1.0])
    assert K.complement_connected() is True


def test_complement_disconnected_ring():
    # eight unit disks on a circle of radius 2.5: adjacent centers are
    # 2 * 2.5 * sin(pi/8) ~ 1.913 < 2 apart, so the ring closes and encloses
    # a hole of inradius 1.5
    centers = [2.5 * np.exp(2j * np.pi * k / 8) for k in range(8)]
    ring = CompactRegion(centers, [1.0] * 8)
    assert ring.complement_connected() is False


def test_hole_witness_with_two_core_components():
    # a pocket-free cluster (three disks sharing a point: one filled
    # triangle) far from the eight-disk ring: the 2-core has two components,
    # E - V + C = 11 - 11 + 2 cycles against one triangle, so one cycle is
    # a pocket; taking C = 1 would balance the counts and miss it
    cluster = [20 + 0j, 21 + 0j, 20.5 + 0.75j]
    ring = [2.5 * np.exp(2j * np.pi * k / 8) for k in range(8)]
    assert core.hole_witness(cluster, [1.0] * 3) is None
    witness = core.hole_witness(cluster + ring, [1.0] * 11)
    assert witness is not None
    assert sorted(witness) == list(range(3, 11))
    for a, b in zip(witness, witness[1:] + witness[:1]):
        assert abs((cluster + ring)[a] - (cluster + ring)[b]) < 2
    K = CompactRegion(cluster + ring, [1.0] * 11)
    assert K.complement_connected() is False


def loop_hole_witness(centers, radii):
    """The loop form hole_witness replaced: edges and triangle candidates
    from Python loops over all pairs and triples of the 2-core."""
    c = np.asarray(centers, dtype=complex)
    r = np.asarray(radii, dtype=float)
    n = len(c)
    if n <= 2:
        return None
    dist = np.abs(c[:, None] - c[None, :])
    tol = 1e-9 * max(1.0, float(np.max(r)), float(np.max(dist)))
    adj = dist <= r[:, None] + r[None, :] + tol
    np.fill_diagonal(adj, False)
    alive = np.ones(n, dtype=bool)
    while True:
        deg = (adj & alive[None, :]).sum(axis=1)
        drop = alive & (deg <= 1)
        if not drop.any():
            break
        alive[drop] = False
    verts = np.flatnonzero(alive)
    if len(verts) == 0:
        return None
    sub = adj[np.ix_(verts, verts)]
    m = len(verts)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if sub[i, j]]
    parent, depth, seen, components = [-1] * m, [0] * m, [False] * m, 0
    for root in range(m):
        if seen[root]:
            continue
        components += 1
        seen[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in np.flatnonzero(sub[u]).tolist():
                if not seen[v]:
                    seen[v], parent[v], depth[v] = True, u, depth[u] + 1
                    queue.append(v)
    eidx = {e: k for k, e in enumerate(edges)}
    rows = []
    for i, j in edges:
        for k in range(j + 1, m):
            if sub[i, k] and sub[j, k] and core._disks_triple_meet(
                    c[verts[i]], r[verts[i]], c[verts[j]], r[verts[j]],
                    c[verts[k]], r[verts[k]], tol):
                row = np.zeros(len(edges), dtype=np.uint8)
                row[[eidx[(i, j)], eidx[(i, k)], eidx[(j, k)]]] = 1
                rows.append(row)
    d2 = (np.array(rows, dtype=np.uint8) if rows
          else np.zeros((0, len(edges)), dtype=np.uint8))
    ech, pivots = core._gf2_echelon(d2)
    if len(edges) - m + components == len(pivots):
        return None
    tree = {(min(u, parent[u]), max(u, parent[u])) for u in range(m)
            if parent[u] >= 0}
    rings = []
    for u, v in edges:
        if (u, v) in tree:
            continue
        pu, pv, left, right = u, v, [u], [v]
        while depth[pu] > depth[pv]:
            pu = parent[pu]
            left.append(pu)
        while depth[pv] > depth[pu]:
            pv = parent[pv]
            right.append(pv)
        while pu != pv:
            pu, pv = parent[pu], parent[pv]
            left.append(pu)
            right.append(pv)
        rings.append(left + right[-2::-1])
    rings.sort(key=lambda ring: (len(ring), ring))
    for ring in rings:
        vec = np.zeros(len(edges), dtype=np.uint8)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            vec[eidx[(min(a, b), max(a, b))]] = 1
        if not core._gf2_in_rowspace(vec, ech, pivots):
            return tuple(int(verts[i]) for i in ring)
    raise HoleWitnessNotFound("cycle space not spanned by fundamental cycles")


def random_family(rng, n, ring=0):
    """n dyadic disks scattered over a box that keeps them mostly meeting,
    plus (if ring) a closed ring of that many unit disks about the origin."""
    side = 1.6 * math.sqrt(n)
    centers = q26(rng.uniform(-side / 2, side / 2, n)
                  + 1j * rng.uniform(-side / 2, side / 2, n))
    radii = q26(rng.uniform(0.5, 1.25, n))
    if ring:
        rho = 0.9 / math.sin(math.pi / ring)
        centers = np.append(centers, q26(rho * np.exp(
            2j * np.pi * np.arange(ring) / ring)))
        radii = np.append(radii, np.ones(ring))
    return centers, radii


def test_hole_witness_matches_the_loop_form():
    rng = np.random.default_rng(17)
    outcomes = []
    for n in (3, 5, 8, 12, 20, 30, 45):
        for ring in (0, 0, 6, 9):
            centers, radii = random_family(rng, n, ring)
            witness = core.hole_witness(centers, radii)
            assert witness == loop_hole_witness(centers, radii), (n, ring)
            outcomes.append(witness is None)
    # the families hold both verdicts
    assert any(outcomes) and not all(outcomes)


def test_hole_without_witness_is_a_typed_error(monkeypatch):
    # exact GF(2) ranks never leave the pocket without a ringing cycle; a
    # row-space test that accepts every cycle forces the guard
    monkeypatch.setattr(core, "_gf2_in_rowspace", lambda vec, ech, pivots: True)
    centers = [2.5 * np.exp(2j * np.pi * k / 8) for k in range(8)]
    with pytest.raises(HoleWitnessNotFound) as err:
        core.hole_witness(centers, [1.0] * 8)
    assert isinstance(err.value, EquiliftError)


# ---------------------------------------------------------------------------
# region geometry


def test_region_accepts_a_disconnected_union():
    # two unit disks 5 apart: a union of disks is a region whether or not
    # its disks meet
    K = CompactRegion([0j, 5 + 0j], [1.0, 1.0])
    assert K.contains(0.5 + 0j) and K.contains(5.75 + 0j)
    assert not K.contains(2.5 + 0j)
    assert K.complement_connected() is True
    assert core.hole_witness(K.centers, K.radii) is None
    one, two = CompactRegion.disk(0j, 1.0), CompactRegion.disk(5 + 0j, 1.0)
    assert np.array_equal(K.boundary_samples(),
                          np.concatenate([one.boundary_samples(),
                                          two.boundary_samples()]))


@pytest.mark.parametrize("centers, radii", [
    ([0j, complex(math.nan, 0)], [1.0, 1.0]),
    ([0j, complex(0, math.inf)], [1.0, 1.0]),
    ([0j, 1 + 0j], [1.0, math.nan]),
    ([0j, 1 + 0j], [math.inf, 1.0]),
])
def test_region_refuses_non_finite_geometry(centers, radii):
    with pytest.raises(ValueError, match="finite"):
        CompactRegion(centers, radii)


def test_region_refuses_a_radius_that_quantizes_to_zero():
    # 1e-9 is positive but below half the 2**-26 step: stored, it would be
    # a disk of radius 0
    with pytest.raises(ValueError, match="positive"):
        CompactRegion([0j, 0.5], [1e-9, 1.0])


def test_contains_and_samples():
    K = CompactRegion([0j, 1.5 + 0j], [1.0, 1.0])
    s = K.boundary_samples(density=48)
    assert len(s) > 50
    # every sample lies in some disk up to a 1e-7 slack
    dist = np.abs(s[:, None] - K.centers[None, :])
    assert (dist <= K.radii[None, :] + 1e-7).any(axis=1).all()
    assert K.contains(0.75 + 0j)
    assert not K.contains(0 + 3j)


def test_sup_monotone_under_disk_extension():
    # boundary sample sets of disk-list extensions are supersets, so a sup
    # over them is monotone with no slack
    f = ComplexPoly((0.3, -1.2, 0.0, 2.5 + 1j))
    K = CompactRegion([0j, 1.5 + 0j], [1.0, 0.8])
    K2 = CompactRegion([0j, 1.5 + 0j, -0.5 + 1j], [1.0, 0.8, 1.1])
    s, s2 = K.boundary_samples(), K2.boundary_samples()
    assert np.array_equal(s2[:len(s)], s)
    assert np.max(np.abs(f(s))) <= np.max(np.abs(f(s2)))


def dense_area(region, h):
    """area's lattice, tested against every disk by contains."""
    bb, a = region.bounding_box(), region.anchor
    i0 = int(math.floor((bb.xmin - a.real) / h))
    i1 = int(math.ceil((bb.xmax - a.real) / h))
    j0 = int(math.floor((bb.ymin - a.imag) / h))
    j1 = int(math.ceil((bb.ymax - a.imag) / h))
    xs = (np.arange(i0, i1 + 1) + 0.5) * h
    ys = (np.arange(j0, j1 + 1) + 0.5) * h
    zz = a + xs[None, :] + 1j * ys[:, None]
    return float(np.count_nonzero(region.contains(zz))) * h * h


PITCHES = (1 / 8, 1 / 6, 1 / 4, 1 / 3, 1 / 2, 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_stamped_area_matches_contains(seed):
    rng = np.random.default_rng([seed, 5])
    for n in (1, 3, 9, 25):
        centers, radii = random_family(rng, n)
        K = CompactRegion(centers, radii)
        for h in PITCHES:
            assert K.area(h) == dense_area(K, h), (n, h)


def test_stamps_count_cells_on_a_circle():
    # both lattices put cells at odd multiples of 1/8, so the circle
    # |z - (1 + 1j) / 8| = 5/4 runs through cells such as 7/8 + 9/8 i
    # (a 3-4-5 triangle), which the closed predicate counts
    K = CompactRegion([0j, 0.125 + 0.125j], [0.5, 1.25])
    assert abs((0.875 + 1.125j) - K.centers[1]) == K.radii[1]
    for h in (1 / 8, 1 / 4):
        assert K.area(h) == dense_area(K, h)
        grid = Window(-2, 2, -2, 2).grid(h)
        assert np.array_equal(K.lattice_mask(grid), K.contains(grid))


@pytest.mark.parametrize("seed", range(4))
def test_lattice_mask_matches_contains(seed):
    # the lattice cuts through the family: disks overhang it on every side
    # and some miss it altogether
    rng = np.random.default_rng([seed, 6])
    centers, radii = random_family(rng, 30)
    K = CompactRegion(centers, radii)
    for h in PITCHES:
        grid = Window(-2.5, 1.75, -1.0, 3.0).grid(h)
        mask = K.lattice_mask(grid)
        assert mask.any() and not mask.all()
        assert np.array_equal(mask, K.contains(grid)), h
    assert np.array_equal(UNIT_DISK.lattice_mask(Window(4, 5, 4, 5).grid(1)),
                          np.zeros((2, 2), dtype=bool))


def test_contained_in_single_cover():
    small = CompactRegion.disk(0.25, 0.5)
    big = CompactRegion.disk(0, 1)
    assert small.contained_in(big)
    assert not big.contained_in(small)


def test_contained_in_arc_coverage():
    target = CompactRegion.disk(0, 1)
    covered = CompactRegion([-0.3 + 0j, 0.3 + 0j], [1.05, 1.05])
    not_covered = CompactRegion([-0.6 + 0j, 0.6 + 0j], [0.99, 0.99])
    assert target.contained_in(covered)
    assert not target.contained_in(not_covered)


def test_nearest_gaps():
    pts = np.array([0j, 1 + 0j, 1 + 0j, 3 + 0j, complex("nan")])
    # among themselves a repeated point is at gap 0; against a set the
    # point itself (distance 0) is skipped, and so is every NaN distance
    assert core.nearest_gaps(pts).tolist()[:4] == [1.0, 0.0, 0.0, 2.0]
    assert core.nearest_gaps(pts, pts).tolist()[:4] == [1.0, 1.0, 1.0, 2.0]
    assert core.nearest_gaps([5j], [5j]).tolist() == [math.inf]
    assert core.nearest_gaps([5j]).tolist() == [math.inf]
    assert core.nearest_gaps([], [1j]).shape == (0,)
    # chunks of rows give the dense table's answer
    rng = np.random.default_rng(8)
    z = rng.uniform(-9, 9, 1200) + 1j * rng.uniform(-9, 9, 1200)
    dense = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(dense, np.inf)
    assert np.array_equal(core.nearest_gaps(z), dense.min(axis=1))
    assert np.array_equal(core.nearest_gaps(z, z), dense.min(axis=1))


@settings(max_examples=20, deadline=None)
@given(w=dyadic(-8, 8))
def test_region_translate_is_exact(w):
    K = CompactRegion([0.125 + 0.25j, 1.0 + 0.25j], [0.75, 0.5])
    KT = K.translate(w)
    assert np.array_equal(KT.centers, K.centers + w)
    assert np.array_equal(KT.boundary_samples(32), K.boundary_samples(32) + w)


def test_q26_quantization():
    assert q26(0.5) == 0.5
    assert q26(1 + 2j) == 1 + 2j
    v = q26(0.37)
    assert v != 0.37 and abs(v - 0.37) < 2 ** -26


# ---------------------------------------------------------------------------
# polynomials


def test_poly_eval_and_derivative():
    p = ComplexPoly((1.0, 2.0, 3.0))  # 1 + 2z + 3z^2
    assert p(2.0) == pytest.approx(17.0)
    assert p.derivative()(2.0) == pytest.approx(14.0)


def test_poly_frame_and_json_roundtrip():
    p = ComplexPoly((1.0, 0.5j), center=2 - 1j, scale=3.0)
    q = ComplexPoly.from_json(p.to_json())
    zs = np.array([0.1, 2 + 2j, -5j])
    assert np.allclose(p(zs), q(zs))


def test_window_inner_margin():
    w = Window(-16, 16, -16, 16)
    inner = w.inner(0.15)
    assert inner.as_list() == [-11.2, 11.2, -11.2, 11.2]


def test_window_rejects_non_finite_bounds():
    # an infinite window would fail only later, inside Window.inner
    # (-inf + inf is NaN)
    for bounds in ((-math.inf, math.inf, -4, 4), (-4, 4, math.nan, 4),
                   (-4, 4, -4, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            Window(*bounds)
    dump = {"window": [-math.inf, math.inf, -4, 4],
            "points": [{"re": 0.0, "im": 0.0, "mult": 1}]}
    with pytest.raises(ValueError, match="finite"):
        Divisor.from_json(dump)
