"""Core geometry and quadrature checks.

Derived expectations carry their oracle inline: the oracle is computed first
(a direct count, a Taylor bound, a symmetry argument) and the frozen literal
is asserted against the implementation.
"""

import inspect
import math
import re

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
from conftest import traced_peak
from equilift.builders import weierstrass
from equilift.divisors import Divisor, generate
from equilift.errors import (ContourThroughZero, EquiliftError,
                             HoleWitnessNotFound, NoConvergence)

UNIT_DISK = CompactRegion.disk(0, 1)

# the two kinds of dlog that contour moments read: a plain callable is
# evaluated on every node, a PoleSum sums its smooth part on every node and
# only the near poles
MOMENT_PATHS = ("callable", "pole-sum")
ZERO = ComplexPoly((0j,))


def direct_dlog(smooth, b, w, origin=0j):
    """z -> smooth(u) + sum_j w_j / (u - b_j) in u = z - origin, one source
    at a time: the PoleSum's value as a plain callable."""
    def dlog(z):
        u = np.asarray(z, dtype=complex) - origin
        return smooth(u) + sum((wj / (u - bj) for bj, wj in zip(b, w)),
                               np.zeros(u.shape, complex))
    return dlog


def pole_dlog(path, b, w, smooth=ZERO):
    """smooth + sum_j w_j / (z - b_j) as the kind of dlog `path` names."""
    if path == "pole-sum":
        return core.PoleSum(smooth, b, w)
    return direct_dlog(smooth, b, w)


def contour_moments(path, circles, orders=1, nodes=256):
    """The contour moments j = 1..orders of 1/z through `path`."""
    return contour_integral(pole_dlog(path, [0j], [1.0]), circles, orders,
                            nodes)


def cauchy_function(path, b, w, smooth=ZERO):
    """A function with dlog smooth + sum_j w_j / (z - b_j) of the kind
    `path` names. count_zeros reads no value, so there is no evaluator."""
    b, w = np.asarray(b, dtype=complex), np.asarray(w, dtype=float)
    return SampledFunction(evaluator=None, dlog=pole_dlog(path, b, w, smooth))


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
    counts, residuals, _ = count_zeros(f, circles)
    assert counts.dtype.kind == "i" and counts.shape == residuals.shape
    for circle, n, res in zip(circles, counts, residuals):
        (n1,), (res1,), _ = count_zeros(f, [circle])
        assert n == n1 and abs(res - res1) <= 1e-14
    assert counts[:-2].tolist() == d.mults[list(ks)].tolist()
    assert counts[-2] == d.mults[dist < r].sum() > 1
    assert counts[-1] == 0


@pytest.mark.parametrize("path", MOMENT_PATHS)
def test_count_zeros_raises_for_the_first_failing_circle(path):
    # zeros on a node of A (dlog not finite there), between two nodes of B
    # (the trapezoid sum is about 1/2 off an integer) and inside C; each
    # circle passes through or beside a source near it
    on_b = 5 + np.exp(1j * np.pi / 512)
    f = cauchy_function(path, [1, on_b, -5], [1.0, 1.0, 1.0])
    a, b, c = Circle(0, 1), Circle(5, 1), Circle(-5, 1)
    assert count_zeros(f, [c])[0].tolist() == [1]
    with pytest.raises(ContourThroughZero, match="not finite"):
        count_zeros(f, [c, a, b])
    with pytest.raises(ContourThroughZero, match="exceeds 0.25"):
        count_zeros(f, [c, b, a])


def test_count_zeros_empty_batch():
    f = SampledFunction(evaluator=lambda z: z, dlog=lambda z: 1 / z)
    counts, residuals, _ = count_zeros(f, [])
    assert counts.shape == residuals.shape == (0,)
    assert counts.dtype.kind == "i" and residuals.dtype.kind == "f"


def test_count_zeros_first_moments():
    # the third value is sum m_k (z_k - c) over the zeros inside each circle
    a, b = 0.3 - 0.2j, -0.25 + 0.4j
    f = SampledFunction(evaluator=lambda z: (z - a) ** 2 * (z - b),
                        dlog=lambda z: 2 / (z - a) + 1 / (z - b))
    counts, _, moments = count_zeros(f, [Circle(0.1, 1.0), Circle(a, 0.1)])
    assert counts.tolist() == [3, 2]
    assert abs(moments[0] - (2 * (a - 0.1) + (b - 0.1))) < 1e-14
    assert abs(moments[1]) < 1e-15


@pytest.mark.parametrize("path", MOMENT_PATHS)
def test_count_zeros_takes_only_circles(path):
    f = cauchy_function(path, [0j], [1.0])
    with pytest.raises(TypeError):
        count_zeros(f, [Circle(0, 1), (0, 1)])
    with pytest.raises(TypeError):
        contour_moments(path, [Circle(0, 1), (0, 1)])


@pytest.mark.parametrize("path", MOMENT_PATHS)
@pytest.mark.parametrize("nodes", [-4, 0, 2.0, 2.5])
def test_count_zeros_refuses_nodes_that_are_not_a_positive_integer(path,
                                                                  nodes):
    # -4 used to count 0 zeros with residual 0, and 0 to divide by zero
    f = cauchy_function(path, [0j], [1.0])
    with pytest.raises(ValueError, match=f"nodes must be a positive integer, "
                                         f"not {nodes}"):
        count_zeros(f, [Circle(0, 1)], nodes=nodes)


@pytest.mark.parametrize("path", MOMENT_PATHS)
@pytest.mark.parametrize("centre, radius, refusal", [
    (2, 0.0, "radius must be finite and positive, not 0.0"),
    (2, -1.0, "radius must be finite and positive, not -1.0"),
    (2, math.nan, "radius must be finite and positive, not nan"),
    (2, math.inf, "radius must be finite and positive, not inf"),
    (math.inf, 1.0, "centre must be finite, not (inf+0j)"),
    (complex(0, -math.inf), 1.0, "centre must be finite, not -infj"),
    (complex(math.nan, 0), 1.0, "centre must be finite, not (nan+0j)")],
    ids=["radius-0", "radius-negative", "radius-nan", "radius-inf",
         "centre-inf", "centre-minus-inf-j", "centre-nan"])
def test_contour_moments_refuse_a_circle_not_finite(path, centre, radius,
                                                    refusal):
    # a zero radius used to give NaN moments, an infinite centre a count of
    # 0 with residual 0, and a NaN centre ContourThroughZero
    with pytest.raises(ValueError, match=re.escape(refusal)):
        contour_moments(path, [Circle(0, 1), Circle(centre, radius)])
    f = cauchy_function(path, [0j], [1.0])
    with pytest.raises(ValueError, match=re.escape(refusal)):
        count_zeros(f, [Circle(centre, radius)])


@pytest.mark.parametrize("path", MOMENT_PATHS)
@pytest.mark.parametrize("orders", [-1, 0, 1.5, "2", None])
def test_contour_moments_refuse_orders_not_a_positive_integer(path, orders):
    # -1 raised IndexError and 1.5 TypeError; 0 asks for no moment at all
    with pytest.raises(ValueError, match=re.escape(
            f"orders must be a positive integer, not {orders!r}")):
        contour_moments(path, [Circle(0, 1)], orders=orders)


def test_count_zeros_nodes_parameter(monkeypatch):
    # the benchmark tracer reads `nodes` by name, or as the third
    # positional argument, with its default; membership's per-point count
    # passes no node count, so that default is the one it runs at
    params = inspect.signature(count_zeros).parameters
    assert list(params)[2] == "nodes"
    assert params["nodes"].default == 512
    calls = []

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return count_zeros(*args, **kwargs)
    monkeypatch.setattr(builders, "count_zeros", spy)
    d = Divisor([0j, 1 + 0j, 3j], [1, 2, 1], Window(-4, 4, -4, 4))
    assert builders.verify_divisor_match(weierstrass(d), d)["matched"]
    assert calls[0] == (2, {})


def test_zero_counts_and_newton_refuse_a_function_without_dlog():
    # a missing dlog used to raise TypeError ("'NoneType' object is not
    # callable") from the first node; the refusal names it before any
    # value is read
    def evaluator(z):
        raise AssertionError("a value was read")
    f = SampledFunction(evaluator=evaluator)
    with pytest.raises(ValueError, match="has no dlog"):
        count_zeros(f, [Circle(0, 1)])
    with pytest.raises(ValueError, match="has no dlog"):
        count_zeros(f, [])
    with pytest.raises(ValueError, match="has no dlog"):
        refine_zero(f, [0.5], [1])


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
# pole sums: a call is the direct sum over every pole


def loop_cauchy(u, b, w):
    """The per-offset loop with the term sizes sum_j |w_j / (u - b_j)|."""
    u = np.asarray(u, dtype=complex)
    with np.errstate(all="ignore"):
        terms = [wj / (u - bj) for bj, wj in zip(b, w)]
    return sum(terms, np.zeros(u.shape, complex)), sum(
        (np.abs(t) for t in terms), np.zeros(u.shape))


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


def pole_sum_case(name, locs, w):
    """Targets, sources and weights of a `PoleSum` call on the 804-point
    fixture, or on its own sources where the name says so."""
    rng = np.random.default_rng(11)
    if name == "membership-circle":
        # more than 700 sources beyond FAR_RATIO radii of the circle
        return contour_circle(locs, 401), locs, w
    if name == "window-side":
        # a straight segment through the cloud, nodes at the midpoints of
        # 128 equal steps
        a, b = complex(-3.3, -2.1), complex(3.3, -2.1)
        return a + (b - a) * (np.arange(128) + 0.5) / 128, locs, w
    if name == "window-span":
        # Newton's batch: targets across the window, no source far
        return Window(-30, 30, -30, 30).grid(2.0).ravel(), locs, w
    if name == "every-source-far":
        b = 40 * np.exp(2j * np.pi * rng.uniform(size=300))
        u = 0.5 + 0.25j + rng.uniform(-2, 2, 64) + 1j * rng.uniform(-2, 2, 64)
        return u, b, rng.integers(1, 4, 300).astype(float)
    if name == "far-edge":
        # every source just beyond FAR_RATIO radii on one ray, so every
        # term has the same sign
        b = 1.0 + core.FAR_RATIO * (1 + 1e-9 * np.arange(1, 6))
        return 1.0 + np.exp(2j * np.pi * np.arange(64) / 64), b, np.ones(5)
    if name == "complex-weights":
        wc = rng.normal(size=len(locs)) + 1j * rng.normal(size=len(locs))
        return contour_circle(locs, 222), locs, wc
    if name == "target-on-a-source":
        # a batch of four membership circles, one node moved onto a source
        u = np.array([contour_circle(locs, k) for k in (3, 401, 9, 700)])
        u[1, 17] = locs[401]
        return u, locs, w
    return {"scalar": 0.3 - 1.7j, "0-d": np.array(2.5 + 0.5j),
            "2-D": Window(-1, 1, -1, 1).grid(0.25),
            "empty": np.zeros((0, 3), dtype=complex)}[name], locs, w


@pytest.mark.parametrize("name", [
    "membership-circle", "window-side", "window-span", "every-source-far",
    "far-edge", "complex-weights", "target-on-a-source", "scalar", "0-d",
    "2-D", "empty"])
def test_pole_sum_is_the_direct_sum(monkeypatch, poisson_804, name):
    # called outside np.errstate: a target on a pole gives a non-finite
    # value and no RuntimeWarning, which this suite turns into an error
    u, b, w = pole_sum_case(name, *poisson_804)

    def far_series(*args):
        raise AssertionError("a PoleSum call took a far series")
    for helper in ("_series_rows", "power_moments", "_horner"):
        monkeypatch.setattr(core, helper, far_series)
    got = core.PoleSum(ZERO, b, w)(u)
    with np.errstate(all="ignore"):
        direct = ZERO(u) + core.base_sum(lambda row: 1 / (row - b[:, None]),
                                         u, w)
    assert got.shape == direct.shape == np.shape(u)
    assert got.tobytes() == direct.tobytes()
    want, size = loop_cauchy(u, b, w)
    on_source = np.isin(u, b)
    assert np.array_equal(~np.isfinite(got), on_source)
    assert on_source.any() == (name == "target-on-a-source")
    err = np.abs(got[~on_source] - want[~on_source])
    assert np.all(err <= 1e-13 * size[~on_source])


# ---------------------------------------------------------------------------
# contour integrals (Laurent coefficients)


def test_contour_integral_residue():
    (val,) = contour_integral(lambda z: 1 / z, [Circle(0, 1)])[:, 0]
    assert abs(val - 1) < 1e-12


def test_contour_integral_holomorphic():
    (val,) = contour_integral(np.exp, [Circle(0, 1.7)])[:, 0]
    assert abs(val) < 1e-12


def test_contour_integral_double_pole():
    (val,) = contour_integral(lambda z: 1 / (z * z), [Circle(0, 1)],
                              orders=2)[:, 1]
    assert abs(val - 1) < 1e-12


def test_contour_integral_every_order_from_one_evaluation():
    # oracle: the residue theorem. exp(z) / z has one simple pole, at 0
    # with residue 1, so moment j of a circle (c, r) is (-c)^(j-1) when the
    # circle encloses 0 and 0 when it does not; every circle here keeps 0
    # at half its radius from it, or at twice its radius outside it. 70
    # circles at 256 nodes make two chunks of at most BASE_SUM_BLOCK nodes,
    # and g sees each chunk once
    rng = np.random.default_rng(5)
    centres = rng.uniform(-1, 1, 70) + 1j * rng.uniform(-1, 1, 70)
    inside = np.arange(70) % 2 == 0
    radii = np.abs(centres) * np.where(inside, 2.0, 0.5)
    circles = [Circle(c, r) for c, r in zip(centres, radii)]
    shapes = []

    def g(z):
        shapes.append(z.shape)
        return np.exp(z) / z

    moments = contour_integral(g, circles, orders=3)
    step = core.BASE_SUM_BLOCK // 256
    assert shapes == [(step, 256), (70 - step, 256)]
    assert moments.shape == (70, 3)
    want = np.where(inside[:, None], (-centres[:, None]) ** np.arange(3), 0)
    assert np.max(np.abs(moments - want)) < 1e-12


# contour moments of pole sums: a far pole adds nothing to any of them


def pole_moment_case(name, locs, mults):
    """(PoleSum, circles, orders, nodes) of a contour-moment case: the
    804-point membership circles or hand-made poles and circles."""
    smooth = ComplexPoly((0.5 - 0.25j, 0.01))
    if name == "membership-circles":
        # every seventh point's separating circle, as membership draws it
        gaps = np.abs(locs[::7, None] - locs)
        gaps[gaps == 0] = np.inf
        circles = [Circle(p, min(0.25, 0.45 * g))
                   for p, g in zip(locs[::7], gaps.min(axis=1))]
        return core.PoleSum(smooth, locs, mults), circles, 2, 512
    if name == "complex-weights":
        rng = np.random.default_rng(7)
        w = rng.normal(size=len(locs)) + 1j * rng.normal(size=len(locs))
        circles = [Circle(locs[k], 0.125) for k in (3, 222, 401, 700)]
        return core.PoleSum(smooth, locs, w), circles, 3, 512
    if name == "far-edge":
        # N - orders = FAR_ORDER, the fewest nodes with a far field; pole
        # 0 at exactly FAR_RATIO radii (near), five just beyond it on one
        # ray, so every dropped term has the same sign, and two at 2 and 4
        # radii, whose dropped parts would be about 2^-18 and 4^-18 of them
        r, orders = 0.5, 2
        b = np.concatenate([1.0 + core.FAR_RATIO * r * (
            1 + 1e-9 * np.arange(6)), [1.0 + 2 * r * 1j, 1.0 - 4 * r]])
        return (core.PoleSum(smooth, b, np.arange(1.0, 9.0)),
                [Circle(1.0, r), Circle(1.25 + 0.5j, 0.25)], orders,
                core.FAR_ORDER + orders)
    if name == "origin":
        # u = z - origin: the circles are given in z, the poles in u
        b = np.array([0.5 + 0.25j, -6.0 + 2.0j, 7.375 - 3.0j, 0.25 - 9.0j])
        circles = [Circle(3.75 - 1.25j, 0.5), Circle(-2.75 + 0.5j, 1.0),
                   Circle(10.5 - 4.5j, 0.25)]
        return (core.PoleSum(smooth, b, [1.0, 2.0, -1.0, 3.0], 3.25 - 1.5j),
                circles, 2, 256)
    if name == "node-on-a-near-pole":
        # node 0 of the circle (0, 1) is the pole at 1: that row alone is
        # not finite
        b = np.array([1.0, 0.25j, 20.0 + 5.0j])
        circles = [Circle(-3.0, 0.5), Circle(0, 1.0), Circle(0.25j, 0.125)]
        return core.PoleSum(smooth, b, [1.0, 1.0, 2.0]), circles, 2, 256
    if name == "no-poles":
        return (core.PoleSum(smooth), [Circle(0.5j, 2.0), Circle(3, 0.25)],
                3, 64)
    # N - orders < FAR_ORDER: every pole is summed on the nodes, even one
    # 40 radii away, whose dropped part would be about q^6 = 4e-6 of it
    b = np.array([20.0 + 0j, -0.25 + 0.25j, 0.125])
    return (core.PoleSum(smooth, b, [2.0, 1.0, 1.0]),
            [Circle(0, 0.5), Circle(0.5 + 0.5j, 0.25)], 2, 8)


@pytest.mark.parametrize("name", [
    "membership-circles", "complex-weights", "far-edge", "origin",
    "node-on-a-near-pole", "no-poles", "few-nodes"])
def test_pole_sum_moments_are_every_pole_on_the_nodes(monkeypatch,
                                                      poisson_804, name):
    # oracle: the trapezoid moments of the direct sum over every pole, as
    # a plain callable; a far pole's dropped part is below 2^-53 of its
    # terms, far inside 1e-13 of the term sizes, in every column 1..orders
    g, circles, orders, nodes = pole_moment_case(name, *poisson_804)
    near_rows = []
    near_sum = core._near_sum

    def spy(u, rows, sources, s):
        near_rows.extend(np.bincount(rows, minlength=len(u)))
        return near_sum(u, rows, sources, s)
    monkeypatch.setattr(core, "_near_sum", spy)
    got = contour_integral(g, circles, orders, nodes)
    monkeypatch.undo()
    plain = direct_dlog(g.smooth, g.b, g.w, g.origin)
    want = contour_integral(plain, circles, orders, nodes)
    assert got.shape == want.shape == (len(circles), orders)
    if name == "no-poles":
        assert not near_rows
        assert got.tobytes() == want.tobytes()
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert finite.all(axis=1).tolist() == [
        name != "node-on-a-near-pole" or k != 1 for k in range(len(circles))]
    assert not finite[~finite.all(axis=1)].any()
    e = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    for k, circle in enumerate(circles):
        if not finite[k].all():
            continue
        u = circle.center - g.origin + circle.radius * e
        size = np.max(np.abs(g.smooth(u)) + loop_cauchy(u, g.b, g.w)[1])
        err = np.abs(got[k] - want[k])
        assert np.all(err <= 1e-13 * size * circle.radius ** np.arange(
            1, orders + 1)), k
    if name == "membership-circles":
        # more than 700 poles are far from each circle, and the counts, the
        # residuals and the first moments are the direct sum's
        assert len(near_rows) == len(circles) and max(near_rows) < 804 - 700
        counts, res, first = count_zeros(
            SampledFunction(evaluator=None, dlog=g), circles)
        want = count_zeros(SampledFunction(evaluator=None, dlog=plain),
                           circles)
        assert counts.tolist() == want[0].tolist() == [1] * len(circles)
        assert np.max(np.abs(res - want[1])) < 1e-13
        assert np.max(np.abs(first - want[2])) < 1e-13
    if name == "few-nodes":
        assert max(near_rows) == len(g.b)


@pytest.mark.parametrize("b, w, refusal", [
    ([0j, complex("nan")], [1.0, 1.0], "pole must be finite, not (nan+0j)"),
    ([0j, complex("inf")], [1.0, 1.0], "pole must be finite, not (inf+0j)"),
    ([0j, 50 + 0j], [1.0, math.nan], "weight must be finite, not nan"),
    ([0j, 50 + 0j], [1.0, -math.inf], "weight must be finite, not -inf")])
def test_pole_sum_refuses_a_pole_or_weight_not_finite(b, w, refusal):
    # a NaN pole raised ContourThroughZero only because the far mask kept
    # it near, and a NaN weight on a far pole counted as nothing: the
    # circle (0, 0.25) counted 1 with the weights [1, nan]
    with pytest.raises(ValueError, match=re.escape(refusal)):
        core.PoleSum(ZERO, b, w)


def test_disk_pairs_of_no_disk_and_of_one():
    for n in (0, 1):
        i, j, dist = core._disk_pairs(np.full(n, 2 + 1j), np.ones(n), 0.0)
        assert i.shape == j.shape == dist.shape == (0,)
        assert i.dtype.kind == j.dtype.kind == "i" and dist.dtype.kind == "f"
    # a contour batch with no circles, and the membership of an empty
    # divisor, sweep no disk or only poles
    g = core.PoleSum(ZERO, [0j, 3 + 0j], [1.0, 2.0])
    assert contour_integral(g, [], 2, 512).shape == (0, 2)
    empty = Divisor(np.zeros(0, complex), np.zeros(0, int), Window(0, 1, 0, 1))
    report = builders.verify_divisor_match(weierstrass(empty), empty)
    assert report["matched"] and report["max_residual"] == 0.0


def test_contour_chunks_hold_circles_by_nodes_alone(monkeypatch):
    # 7,192 poles drawn uniformly over a 96 x 75 box, about the Poisson
    # membership input of that size, and 400 of their separating circles
    # at 512 nodes: a chunk holds BASE_SUM_BLOCK // 512 = 32 circles
    # whatever the pole count (a circles x poles far mask held 2), and the
    # count holds no circles x poles table
    rng = np.random.default_rng(11)
    b = rng.uniform(0, 96, 7192) + 1j * rng.uniform(0, 75, 7192)
    ks = rng.choice(7192, 400, replace=False)
    gaps = [np.partition(np.abs(b - b[k]), 1)[1] for k in ks]
    circles = [Circle(b[k], min(0.25, 0.45 * g)) for k, g in zip(ks, gaps)]
    f = SampledFunction(evaluator=None, dlog=core.PoleSum(ZERO, b, np.ones(
        len(b))))
    chunks = []
    near_sum = core._near_sum

    def spy(u, rows, sources, s):
        chunks.append(len(u))
        return near_sum(u, rows, sources, s)
    monkeypatch.setattr(core, "_near_sum", spy)
    (counts, _, _), peak = traced_peak(lambda: count_zeros(f, circles))
    assert chunks == [32] * 12 + [16]
    assert counts.tolist() == [1] * 400
    assert peak < 4e6


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


def gf2_echelon(mat):
    """Row echelon form of a uint8 matrix over GF(2): (reduced rows,
    [(pivot col, row)]), by dense numpy elimination."""
    a = mat.copy()
    pivots = []
    rows = a.shape[0]
    rank = 0
    for col in range(a.shape[1]):
        hit = np.flatnonzero(a[rank:, col])
        if len(hit) == 0:
            continue
        piv = hit[0] + rank
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        others = a[:, col].astype(bool)
        others[rank] = False
        a[others] ^= a[rank]
        pivots.append((col, rank))
        rank += 1
        if rank == rows:
            break
    return a[:rank], pivots


def gf2_in_rowspace(vec, ech, pivots):
    v = vec.copy()
    for col, row in pivots:
        if v[col]:
            v ^= ech[row]
    return not v.any()


def loop_hole_witness(centers, radii):
    """The loop form hole_witness replaced: edges and triangle candidates
    from Python loops over all pairs and triples of the 2-core, and the
    GF(2) algebra as a dense uint8 matrix in numpy elimination, not
    hole_witness's XOR basis on ints."""
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
    ech, pivots = gf2_echelon(d2)
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
        if not gf2_in_rowspace(vec, ech, pivots):
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
    for n in (3, 5, 8, 12, 20, 30, 45, 80, 160, 300):
        for ring in (0, 0, 6, 9):
            centers, radii = random_family(rng, n, ring)
            witness = core.hole_witness(centers, radii)
            assert witness == loop_hole_witness(centers, radii), (n, ring)
            outcomes.append(witness is None)
    # the families hold both verdicts
    assert any(outcomes) and not all(outcomes)


def test_hole_without_witness_is_a_typed_error(monkeypatch):
    # exact GF(2) ranks never leave the pocket without a ringing cycle; a
    # reduction that puts every vector in the span forces the guard
    monkeypatch.setattr(core, "_xor_reduce", lambda vec, basis: 0)
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


@pytest.mark.parametrize("bounds", [(1, 1, 0, 1), (2, 1, 0, 1),
                                    (0, 1, 1, 1), (0, 1, 2, 1)])
def test_window_refuses_an_empty_extent(bounds):
    with pytest.raises(ValueError, match="xmin < xmax"):
        Window(*bounds)


@pytest.mark.parametrize("centers, radii", [([0j, 1j], [1.0]), ([], [])])
def test_region_refuses_mismatched_or_empty_arrays(centers, radii):
    with pytest.raises(ValueError, match="matching nonempty"):
        CompactRegion(centers, radii)


@pytest.mark.parametrize("scale", [0.0, -1.0])
def test_poly_refuses_a_nonpositive_scale(scale):
    with pytest.raises(ValueError, match="scale must be positive"):
        ComplexPoly((1 + 0j,), scale=scale)


@pytest.mark.parametrize("z", [math.inf, -math.inf, complex(0, math.inf),
                               complex(0, -math.inf)])
def test_poly_constants_hold_at_infinite_points(z):
    # Horner starts from the leading nonzero coefficient; from a zero start
    # every constant read 0 * inf + c = NaN at an infinite point
    with np.errstate(all="ignore"):
        assert ComplexPoly((2 - 1j,))(z) == 2 - 1j
        assert ComplexPoly((2 - 1j, 0j, 0j), center=1, scale=2)(z) == 2 - 1j


def test_region_stores_q26_of_its_input_to_the_byte():
    # every sign class of each centre part, zeros and values that round to
    # a zero of either sign among them: the arrays q26 gives, signed zeros
    # included, and read-only
    parts = [0.0, -0.0, 1e-12, -1e-12, 1.5, -1.5, 0.1, -2.0 ** 20 - 0.3]
    re, im = np.meshgrid(parts, parts)
    centers = np.empty(re.size, dtype=complex)
    centers.real, centers.imag = re.ravel(), im.ravel()
    radii = np.resize([1.0, 0.3, 2.0 ** -20, 7.7], len(centers))
    for c, r in ((centers, radii), (centers[::-3], radii[::-3]),
                 (centers[:1], radii[:1])):
        region = CompactRegion(c, r)
        assert region.centers.tobytes() == q26(c).tobytes()
        assert region.radii.tobytes() == q26(r).tobytes()
        assert not (region.centers.flags.writeable
                    or region.radii.flags.writeable)


def test_region_refuses_a_radius_that_quantizes_to_zero():
    # 1e-9 is positive but below half the 2**-26 step: stored, it would be
    # a disk of radius 0
    with pytest.raises(ValueError, match="positive"):
        CompactRegion([0j, 0.5], [1e-9, 1.0])


@pytest.mark.parametrize("h", [-1.0, 0, 0.0, math.nan, math.inf])
def test_grid_and_area_refuse_a_pitch_not_finite_and_positive(h):
    # grid(-1.0) used to return a 2 x 2 grid, grid(0) and area(0) to divide
    # by zero and area(-0.1) to raise IndexError
    with pytest.raises(ValueError, match=f"pitch must be finite and "
                                         f"positive, not {h}"):
        Window(-1, 1, -1, 1).grid(h)
    with pytest.raises(ValueError, match="pitch"):
        UNIT_DISK.area(h)
    with pytest.raises(ValueError, match="pitch"):
        UNIT_DISK.area(-0.1)


def loop_boundary_samples(region, density):
    """The per-disk form of `boundary_samples`."""
    pts = []
    for c, r in zip(region.centers, region.radii):
        m = max(12, int(math.ceil(density * r)))
        theta = 2 * np.pi * np.arange(m) / m
        pts.append(c + core.q26_trunc(r * np.exp(1j * theta)))
    return np.concatenate(pts)


@pytest.mark.parametrize("seed", range(4))
def test_boundary_samples_match_the_per_disk_loop(seed):
    # radii below 12 / density (the 12-point floor) and off the dyadic
    # grid; the samples must agree bit for bit, in disk order
    rng = np.random.default_rng([seed, 11])
    k = int(rng.integers(1, 40))
    region = CompactRegion(rng.uniform(-9, 9, k) + 1j * rng.uniform(-9, 9, k),
                           rng.choice([0.01, 0.1, 1 / 3, 0.7, 2.9], k)
                           * rng.uniform(0.5, 1.5, k))
    for density in (16, 48, 64, 128, 256):
        want = loop_boundary_samples(region, density)
        got = region.boundary_samples(density)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def test_membership_radii_are_the_dense_gaps(monkeypatch):
    # oracle: the dense points x points table. Each separating circle has
    # radius min(0.25, 0.45 x the gap to the nearest other point of d, those
    # outside the window included); the sweep sees only the pairs within
    # 1.0, beyond which 0.45 x gap > 0.25. Pairs 1.0 apart and the two
    # lattice steps either side of 0.25 / 0.45 apart sit at the edges
    cloud = generate("poisson", Window(-8, 8, -8, 8), seed=4, intensity=1.0)
    lo, hi = np.floor(0.25 / 0.45 * 2 ** 26) / 2 ** 26, np.ceil(
        0.25 / 0.45 * 2 ** 26) / 2 ** 26
    assert 0.45 * lo < 0.25 < 0.45 * hi
    edges = np.array([12j, lo + 12j, 14j, hi + 14j, -12j, 1 - 12j,
                      12 + 0j, 12 + 1.5j])
    d = Divisor(np.concatenate([cloud.locs, edges]),
                np.ones(len(cloud) + len(edges), dtype=int),
                Window(-16, 16, -16, 16))
    locs = d.locs
    assert np.abs(locs[-8:-2:2] - locs[-7:-2:2]).tolist() == [lo, hi, 1.0]
    dense = np.abs(locs[:, None] - locs[None, :])
    np.fill_diagonal(dense, np.inf)
    radii = np.minimum(0.25, 0.45 * dense.min(axis=1))
    calls = []

    def spy(f, contours, **nodes):
        calls.append(contours)
        return count_zeros(f, contours, **nodes)
    monkeypatch.setattr(builders, "count_zeros", spy)
    for window in (None, Window(-16, 16, -10, 16)):
        keep = slice(None) if window is None else window.contains(locs)
        calls.clear()
        report = builders.verify_divisor_match(weierstrass(d), d, window)
        assert report["matched"]
        got = calls[0]
        assert [c.center for c in got] == locs[keep].tolist()
        assert np.array([c.radius for c in got]).tobytes() == (
            radii[keep].tobytes())
    assert len(got) == len(locs) - 2
    assert radii[-8:-2].tolist() == [0.45 * lo] * 2 + [0.25] * 4


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


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, 1e308,
                               complex(math.nan, 0), complex(0, -math.inf),
                               complex(1e308, 1)])
def test_q26_refuses_a_scalar_whose_lattice_multiple_is_not_finite(z):
    # inf raised OverflowError, NaN "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=re.escape(f"not {z!r}")):
        q26(z)


# both signs of zero, values that round to a zero of either sign, a tie
# that rounds to even, and values that round away from zero
Q26_PARTS = [0.0, -0.0, 1e-12, -1e-12, 2.0 ** -27, -2.0 ** -27,
             2.5 * 2.0 ** -26, -2.5 * 2.0 ** -26, 1.5, -1.5, 0.37, -0.37,
             -2.0 ** 20 - 0.3]


def test_q26_scalars_match_the_array_path():
    # the scalar paths once gave 0-1.5j for complex(-0.0, -1.5), where the
    # array path (what CompactRegion stores) gives -0-1.5j, and 0.0 for
    # -1e-12 against -0.0
    def as_bytes(v):
        return np.array([v]).tobytes()

    for re in Q26_PARTS:
        for im in Q26_PARTS:
            z = complex(re, im)
            out = q26(z)
            assert type(out) is complex
            assert as_bytes(out) == as_bytes(q26(np.array([z]))[0]), z
            assert as_bytes(q26(np.complex128(z))) == as_bytes(out), z
        out = q26(re)
        assert type(out) is float
        assert as_bytes(out) == as_bytes(q26(np.array([re]))[0]), re
        assert as_bytes(q26(np.float64(re))) == as_bytes(out), re


def test_disks_of_stores_what_one_region_each_would():
    centers = np.array([complex(re, im) for re in Q26_PARTS[::2]
                        for im in Q26_PARTS[1::2]])
    regions = CompactRegion.disks_of(centers, 0.37)
    assert len(regions) == len(centers)
    for c, region in zip(centers, regions):
        one = CompactRegion([c], [0.37])
        assert region.centers.tobytes() == one.centers.tobytes()
        assert region.radii.tobytes() == one.radii.tobytes()
        assert not (region.centers.flags.writeable
                    or region.radii.flags.writeable)
    with pytest.raises(ValueError, match="positive"):
        CompactRegion.disks_of(centers, 1e-9)


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
