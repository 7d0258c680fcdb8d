"""Complex-plane numerics: disk-union geometry, contour quadrature, zero
localization.

Conventions that the rest of the toolkit relies on:

* All geometric data (disk centers, radii, sample offsets) is quantized to the
  dyadic lattice 2**-26 * (Z + iZ) by ``q26``. Sums and differences of
  quantized values of moderate size are exact in float64, so translating a
  region by a quantized shift translates every derived sample point exactly.
  That is what makes the shift-covariance guarantees of the higher modules
  hold to the last bit rather than to a tolerance.
* Sample sets are deterministic functions of the disk list: per-circle
  equiangular boundary points, q26-quantized offsets from each center. Every
  function sampled on a region is analytic, zero-free analytic or harmonic
  there, so by the maximum principle its sup over the region sits on the
  boundary, and no interior points are sampled.
* Functions are wrapped in ``SampledFunction``: a vectorized evaluator plus
  optional logarithmic derivative and log-scale evaluator closures. Zero
  counting and zero refinement read the logarithmic derivative only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    ContourThroughZero,
    HoleWitnessNotFound,
    NoConvergence,
)

_Q = 2.0 ** 26


def q26(z):
    """Round to the 2**-26 lattice. Exact representation for |z| < 2**26."""
    if isinstance(z, np.ndarray):
        if np.iscomplexobj(z):
            return (np.round(z.real * _Q) + 1j * np.round(z.imag * _Q)) / _Q
        return np.round(z * _Q) / _Q
    if isinstance(z, complex):
        return complex(round(z.real * _Q) / _Q, round(z.imag * _Q) / _Q)
    return round(float(z) * _Q) / _Q


def q26_trunc(z):
    """Quantize a complex array toward zero: |q26_trunc(z)| <= |z|
    componentwise, so circle offsets stay inside the closed disk they were
    drawn from."""
    return (np.trunc(z.real * _Q) + 1j * np.trunc(z.imag * _Q)) / _Q


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class Window:
    """Axis-aligned closed rectangle [xmin, xmax] x [ymin, ymax]."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_list())):
            raise ValueError("window bounds must be finite")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("window must satisfy xmin < xmax and ymin < ymax")

    @property
    def width(self):
        return self.xmax - self.xmin

    @property
    def height(self):
        return self.ymax - self.ymin

    @property
    def diameter(self):
        return math.hypot(self.width, self.height)

    @property
    def area(self):
        return self.width * self.height

    def inner(self, margin=0.15):
        """Shrink by `margin` of each side length, per side."""
        dx = margin * self.width
        dy = margin * self.height
        return Window(self.xmin + dx, self.xmax - dx, self.ymin + dy, self.ymax - dy)

    def contains(self, z):
        x, y = np.real(z), np.imag(z)
        return (
            (x >= self.xmin)
            & (x <= self.xmax)
            & (y >= self.ymin)
            & (y <= self.ymax)
        )

    def translate(self, w):
        w = complex(w)
        return Window(self.xmin + w.real, self.xmax + w.real,
                      self.ymin + w.imag, self.ymax + w.imag)

    def grid(self, h):
        """Cell-center grid at resolution h, returned as a complex 2d array."""
        nx = max(2, int(math.ceil(self.width / h)))
        ny = max(2, int(math.ceil(self.height / h)))
        xs = self.xmin + (np.arange(nx) + 0.5) * (self.width / nx)
        ys = self.ymin + (np.arange(ny) + 0.5) * (self.height / ny)
        return xs[None, :] + 1j * ys[:, None]

    def as_list(self):
        return [self.xmin, self.xmax, self.ymin, self.ymax]

    @staticmethod
    def from_list(v):
        return Window(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float


class CompactRegion:
    """A finite union of closed disks, centres and radii on the 2^-26
    lattice.

    Complement connectivity is a checked predicate (``complement_connected``),
    not a construction invariant: verifiers need to build violating fixtures.
    """

    def __init__(self, centers, radii):
        centers = np.atleast_1d(np.asarray(centers, dtype=complex))
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if centers.shape != radii.shape or centers.ndim != 1 or len(centers) == 0:
            raise ValueError("centers and radii must be matching nonempty 1d arrays")
        if not (np.isfinite(centers).all() and np.isfinite(radii).all()):
            raise ValueError("centers and radii must be finite")
        self.centers = q26(centers)
        self.radii = q26(radii)
        # after quantizing: a radius below 2**-27 rounds to 0
        if np.any(self.radii <= 0):
            raise ValueError("radii must be positive")
        self.centers.setflags(write=False)
        self.radii.setflags(write=False)

    # -- construction helpers

    @staticmethod
    def disk(center, radius):
        return CompactRegion([complex(center)], [float(radius)])

    def disks(self):
        return list(zip(self.centers.tolist(), self.radii.tolist()))

    @cached_property
    def disk_set(self):
        """The (center, radius) pairs as a frozenset, hashed once per
        region: the arrays are read-only, so the set never goes stale."""
        return frozenset(self.disks())

    def __len__(self):
        return len(self.centers)

    # -- basic geometry

    @property
    def anchor(self):
        """Deterministic reference point: the first disk center."""
        return complex(self.centers[0])

    def bounding_box(self):
        xs, ys = self.centers.real, self.centers.imag
        return Window(
            float(np.min(xs - self.radii)), float(np.max(xs + self.radii)),
            float(np.min(ys - self.radii)), float(np.max(ys + self.radii)),
        )

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        out = np.zeros(flat.shape, dtype=bool)
        # chunk so that the pairwise distance table stays small
        step = max(1, int(4e6 // max(1, len(self.centers))))
        for i in range(0, len(flat), step):
            blk = flat[i:i + step]
            d = np.abs(blk[:, None] - self.centers[None, :])
            out[i:i + step] = (d <= self.radii[None, :]).any(axis=1)
        return out.reshape(z.shape) if z.shape else bool(out[0])

    def lattice_mask(self, grid):
        """``contains(grid)`` for a lattice ``xs[None, :] + 1j * ys[:, None]``
        with ascending xs and ys (as ``Window.grid`` and ``area`` build it).

        Each disk is stamped into its own bounding box of cells, found by
        ``searchsorted`` on the lattice's x and y, and tested there with the
        predicate of ``contains``, abs(z - c) <= r. The mask is therefore the
        same bit for bit, at the cost of the cells near each disk instead of
        every cell against every disk. ``contains`` stays dense: it takes
        arbitrary points, most often one at a time."""
        xs, ys = grid[0].real, grid[:, 0].imag
        mask = np.zeros(grid.shape, dtype=bool)
        for c, r in zip(self.centers, self.radii):
            # the slack is far above rounding, so a cell outside the padded
            # box has |x - c.real| > r or |y - c.imag| > r: abs(z - c) > r
            pad = r + 1e-9 * (r + abs(c))
            i0, i1 = np.searchsorted(xs, [c.real - pad, c.real + pad])
            j0, j1 = np.searchsorted(ys, [c.imag - pad, c.imag + pad])
            mask[j0:j1, i0:i1] |= np.abs(grid[j0:j1, i0:i1] - c) <= r
        return mask

    def translate(self, w):
        """Translate by w. Exact when w is q26-quantized (the usual case)."""
        return CompactRegion(self.centers + complex(w), self.radii)

    def intersects(self, other):
        d = np.abs(self.centers[:, None] - other.centers[None, :])
        return bool((d <= self.radii[:, None] + other.radii[None, :]).any())

    # -- sampling (deterministic, covariant)

    def boundary_samples(self, density=64):
        """Equiangular points on every disk circle, offsets q26-quantized.

        All per-circle points are kept, including those interior to another
        disk: sample sets of disk-list extensions are then supersets, which
        makes sups over them monotone under extension, exactly.
        """
        pts = []
        for c, r in zip(self.centers, self.radii):
            m = max(12, int(math.ceil(density * r)))
            theta = 2 * np.pi * np.arange(m) / m
            off = q26_trunc(r * np.exp(1j * theta))
            pts.append(c + off)
        return np.concatenate(pts)

    # -- topology checks

    def complement_connected(self):
        """Exact verdict: True iff the plane minus the disk union is connected.

        Resolution-free (see hole_witness): grid methods misjudge gaps
        narrower than their pitch, which real clustered data produces.
        """
        return hole_witness(self.centers, self.radii) is None

    def area(self, h):
        """Grid estimate of the union area at pitch h (deterministic)."""
        bb = self.bounding_box()
        a = self.anchor
        i0 = int(math.floor((bb.xmin - a.real) / h))
        i1 = int(math.ceil((bb.xmax - a.real) / h))
        j0 = int(math.floor((bb.ymin - a.imag) / h))
        j1 = int(math.ceil((bb.ymax - a.imag) / h))
        xs = (np.arange(i0, i1 + 1) + 0.5) * h
        ys = (np.arange(j0, j1 + 1) + 0.5) * h
        zz = a + xs[None, :] + 1j * ys[:, None]
        return float(np.count_nonzero(self.lattice_mask(zz))) * h * h

    # -- containment

    def covers_disk(self, c, r):
        """True iff the closed disk (c, r) lies in this union.

        Tests the circle |z - c| = r: one covering disk is the fast path,
        angular arc coverage by the disks the general case. With a
        connected complement (every toast region has one), boundary
        coverage implies that the whole disk is covered. One disk covers
        the circle whole when the circle leaves it by at most COVER_TOL."""
        return _circle_covered(c, r, self.centers, self.radii)

    def contained_in(self, other):
        """True iff every disk of self is covered by `other`
        (`other.covers_disk` for each)."""
        return all(other.covers_disk(c, r)
                   for c, r in zip(self.centers, self.radii))


def _gf2_echelon(mat):
    """Row echelon form over GF(2): (reduced rows, [(pivot col, row)]).

    Holes of planar compacts are torsion-free, so mod-2 ranks give the
    same Betti numbers as rational ones while staying exact in floats.
    """
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


def _gf2_in_rowspace(vec, ech, pivots):
    v = vec.copy()
    for col, row in pivots:
        if v[col]:
            v ^= ech[row]
    return not v.any()


def circle_crossings(c1, r1, c2, r2):
    """Crossing points of two circles; the radical-axis point (doubled) when
    tangent within rounding. Callers re-test membership, so spurious
    candidates from non-crossing circles are harmless."""
    d = abs(c2 - c1)
    if d == 0.0:
        return ()
    a = (d * d + r1 * r1 - r2 * r2) / (2 * d)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    u = (c2 - c1) / d
    base = c1 + a * u
    return (base + 1j * h * u, base - 1j * h * u)


def _disks_triple_meet(c1, r1, c2, r2, c3, r3, tol):
    """True iff three closed disks share a point.

    The common intersection is convex; if nonempty it contains a center or
    a pair-circle crossing point (a vertex of the intersection region, or a
    center when one disk sits inside the others), so testing those finitely
    many candidates is exact.
    """
    cand = [c1, c2, c3]
    cand += circle_crossings(c1, r1, c2, r2)
    cand += circle_crossings(c1, r1, c3, r3)
    cand += circle_crossings(c2, r2, c3, r3)
    for p in cand:
        if (abs(p - c1) <= r1 + tol and abs(p - c2) <= r2 + tol
                and abs(p - c3) <= r3 + tol):
            return True
    return False


def hole_witness(centers, radii):
    """Indices of disks ringing a complement pocket, or None if none exists.

    Disks are convex, so their union is homotopy equivalent to the nerve of
    the family (which only needs pairs and triples: a triple meet reduces to
    finitely many candidate points, and higher meets never affect first
    homology). A bounded complement component exists exactly when some
    1-cycle is not a mod-2 combination of triple-meet triangles; the witness
    returned is a shortest such fundamental cycle of the intersection graph,
    as a ring-ordered index tuple. The graph has E - V + C independent
    cycles (C its components, counted by the breadth-first forest the
    fundamental cycles come from), and only the triangles need a GF(2)
    elimination. Edges are the upper triangle of the 2-core's adjacency,
    in row-major order, and the triangle candidates of an edge (i, j) are
    the common neighbours k > j, read off as one row intersection; only
    those triples reach the exact meet test. Every decision uses pairwise
    differences only, so verdicts are exactly shift-covariant.

    Toast construction consults it only on the unions its Mayer-Vietoris
    rule cannot decide and on unions with a pocket fill (see `toast`); the
    axiom verifier runs it on every region.
    """
    c = np.asarray(centers, dtype=complex)
    r = np.asarray(radii, dtype=float)
    n = len(c)
    if n <= 2:
        return None
    dist = np.abs(c[:, None] - c[None, :])
    tol = 1e-9 * max(1.0, float(np.max(r)), float(np.max(dist)))
    adj = dist <= r[:, None] + r[None, :] + tol
    np.fill_diagonal(adj, False)
    # leaf disks are collapsible in the nerve: 1-cycles live in the 2-core
    alive = np.ones(n, dtype=bool)
    deg = adj.sum(axis=1)
    while True:
        drop = alive & (deg <= 1)
        if not drop.any():
            break
        alive[drop] = False
        deg -= adj[:, drop].sum(axis=1)
    verts = np.flatnonzero(alive)
    if len(verts) == 0:
        return None
    sub = adj[np.ix_(verts, verts)]
    m = len(verts)
    # edges in row-major order; eid[i, j] = eid[j, i] is the index of {i, j}
    iu, ju = np.nonzero(np.triu(sub, 1))
    edges = list(zip(iu.tolist(), ju.tolist()))
    eid = np.zeros((m, m), dtype=np.int64)
    eid[iu, ju] = eid[ju, iu] = np.arange(len(edges))
    neighbors = [np.flatnonzero(sub[i]).tolist() for i in range(m)]
    parent = [-1] * m
    depth = [0] * m
    seen = [False] * m
    components = 0
    for root in range(m):
        if seen[root]:
            continue
        components += 1
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    queue.append(v)
    # every vertex of the 2-core has degree >= 2, so there is a cycle
    cycles = len(edges) - m + components
    # triangle candidates of edge (i, j): the common neighbours k > j
    tri = []
    for e, (i, j) in enumerate(edges):
        for k in (np.flatnonzero(sub[i, j + 1:] & sub[j, j + 1:]) + j + 1):
            if _disks_triple_meet(c[verts[i]], r[verts[i]], c[verts[j]],
                                  r[verts[j]], c[verts[k]], r[verts[k]], tol):
                tri.append((e, eid[i, k], eid[j, k]))
    tri = np.array(tri, dtype=np.int64).reshape(-1, 3)
    d2 = np.zeros((len(tri), len(edges)), dtype=np.uint8)
    np.put_along_axis(d2, tri, 1, axis=1)
    ech, pivots = _gf2_echelon(d2)
    if cycles == len(pivots):
        return None
    # some pocket exists; fundamental cycles span the cycle space, so at
    # least one of them lies outside the triangle row space
    tree = {(min(u, parent[u]), max(u, parent[u])) for u in range(m)
            if parent[u] >= 0}
    candidates = []
    for (u, v) in edges:
        if (u, v) in tree:
            continue
        pu, pv = u, v
        left, right = [u], [v]
        while depth[pu] > depth[pv]:
            pu = parent[pu]
            left.append(pu)
        while depth[pv] > depth[pu]:
            pv = parent[pv]
            right.append(pv)
        while pu != pv:
            pu = parent[pu]
            pv = parent[pv]
            left.append(pu)
            right.append(pv)
        ring = left + right[-2::-1]
        candidates.append(ring)
    candidates.sort(key=lambda ring: (len(ring), ring))
    for ring in candidates:
        vec = np.zeros(len(edges), dtype=np.uint8)
        vec[eid[ring, ring[1:] + ring[:1]]] = 1
        if not _gf2_in_rowspace(vec, ech, pivots):
            return tuple(int(verts[i]) for i in ring)
    raise HoleWitnessNotFound("cycle space not spanned by fundamental cycles")


# absolute slack of a covering disk in `CompactRegion.covers_disk`
COVER_TOL = 1e-12


def _circle_covered(c, r, centers, radii):
    """Arc-coverage test: is the circle |z-c|=r inside union of closed disks?"""
    d = np.abs(centers - c)
    phi = np.angle(centers - c)
    # a disk covers the angular set { |theta - phi| <= psi } with
    # cos(psi) = (d^2 + r^2 - R^2) / (2 d r); degenerate cases first
    full = d + r <= radii + COVER_TOL
    if np.any(full):
        return True
    ivals = []
    with np.errstate(invalid="ignore", divide="ignore"):
        t = (d ** 2 + r ** 2 - radii ** 2) / (2 * d * r)
    for k in range(len(centers)):
        if d[k] > r + radii[k]:
            continue
        tk = t[k]
        if tk >= 1.0:
            continue
        tk = max(tk, -1.0)
        psi = math.acos(tk)
        ivals.append((phi[k] - psi, phi[k] + psi))
    if not ivals:
        return False
    # normalize starts to [0, 2pi), keep widths, merge with wrap-around
    segs = sorted((a % (2 * math.pi), (a % (2 * math.pi)) + (b - a)) for a, b in ivals)
    unrolled = segs + [(a + 2 * math.pi, b + 2 * math.pi) for a, b in segs]
    slack = 1e-10
    cover_to = segs[0][0]
    target = segs[0][0] + 2 * math.pi
    for a, b in unrolled:
        if a > cover_to + slack:
            return False
        cover_to = max(cover_to, b)
        if cover_to >= target - slack:
            return True
    return False


# ---------------------------------------------------------------------------
# function wrapper


@dataclass
class SampledFunction:
    """A function on the plane: vectorized evaluator plus optional
    closures: ``dlog`` (f'/f, all that zero counting and refinement read),
    ``log_eval`` (a value L with exp(L) = f, stable where |f| overflows).
    """

    evaluator: Callable
    dlog: Optional[Callable] = None
    log_eval: Optional[Callable] = None

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            out = np.asarray(self.evaluator(z), dtype=complex)
        return out


def log_modulus_arg(z):
    """The principal logarithm of z as log|z| + i arg z, in real arithmetic.

    On a 205 x 80 block (one core of an Intel Xeon, numpy 2.4.6) numpy's
    complex log takes about 1.2 ms, np.log(np.abs(z)) 0.06 ms and
    np.arctan2 0.09 ms. The modulus goes through np.abs (a hypot), which
    neither overflows nor underflows where re^2 + im^2 would, and the arg
    is np.arctan2(im, re), the principal branch of np.log with the same
    signed-zero cut: -pi < arg <= pi, and arg = -pi only on an imaginary
    part of -0.0."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    np.log(np.abs(z), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


# weight-by-u elements per block of a base sum: cache-sized temporaries, and
# memory that grows with neither the point count nor the input's size
BASE_SUM_BLOCK = 2 ** 14


def base_sum(term, u, weights):
    """sum_j weights[j] * term(u)[j] at every entry of u, shaped like u.

    `term` maps a row of u values (shape (1, r)) to a (len(weights), r)
    array, one row per weight. The entries of u are walked in blocks of at
    most BASE_SUM_BLOCK weight-by-u elements, each reduced with `weights @`.
    Real weights reduce the real and imaginary parts of a complex term
    apart, so a term whose real part is -inf (log 0 at a zero) gives -inf,
    not nan."""
    u = np.asarray(u, dtype=complex)
    flat = u.reshape(1, -1)
    cols = max(1, BASE_SUM_BLOCK // max(1, len(weights)))
    real_weights = not np.iscomplexobj(weights)
    parts = []
    # an empty u still runs one (empty) block, which fixes the result dtype
    for s in range(0, max(flat.size, 1), cols):
        t = term(flat[:, s:s + cols])
        if real_weights and np.iscomplexobj(t):
            parts.append((weights @ t.view(float)).view(complex))
        else:
            parts.append(weights @ t)
    return np.concatenate(parts).reshape(u.shape)


def nearest_gaps(points, others=None):
    """Least distance from each of `points` to `others`, skipping distance
    0 (the point itself); with `others` None, to the other entries of
    `points`, so that a repeated entry has gap 0. NaN distances are
    skipped. The table goes in chunks of rows of BASE_SUM_BLOCK elements."""
    points = np.asarray(points, dtype=complex)
    ref = points if others is None else np.asarray(others, dtype=complex)
    gaps = np.empty(len(points))
    step = max(1, BASE_SUM_BLOCK // max(1, len(ref)))
    for s in range(0, len(points), step):
        dist = np.abs(ref - points[s:s + step, None])
        if others is None:
            dist[np.arange(len(dist)), np.arange(s, s + len(dist))] = np.nan
        keep = dist >= 0 if others is None else dist > 0
        gaps[s:s + step] = np.where(keep, dist, np.inf).min(1, initial=np.inf)
    return gaps


# far field of cauchy_sum: a source is far from a row of targets when
# |b - c| > FAR_RATIO * rho, and its Taylor series keeps FAR_ORDER terms
FAR_RATIO = 8.0
FAR_ORDER = 18


def cauchy_sum(u, b, w):
    """sum_j w[j] / (u - b[j]) at every entry of u, shaped like u.

    u is a batch of rows of targets, one per slice along its last axis (a
    0-d or 1-D u is one row), and each row is summed on its own: its result
    depends on that row alone, so each separating circle of a batched zero
    count keeps its own centre, radius and far set. A row has centre c =
    mean(row) and radius rho = max |row - c|. A source with |b_j - c| >
    FAR_RATIO * rho is far: with t = u - c and x_j = 1 / (b_j - c), the
    far sources sum to the Taylor series -sum_k M_k t^k, M_k = sum_far w_j
    x_j^(k+1), evaluated by Horner. Since |t x_j| <= q = 1 / FAR_RATIO,
    cutting the series after p = FAR_ORDER terms leaves a tail of at most
    q^p / (1 - q) <= 2^-53 relative to sum_far |w_j x_j|; p = 18 is the
    least order with that bound at q = 1/8. The near sources are summed
    directly.

    A row with no far source is the direct `base_sum` over every source:
    an empty row, a row of no more than FAR_ORDER targets (where the
    FAR_ORDER moments of a far source cost as much as the reciprocals they
    replace) and a row whose targets span the sources. A target on a near
    source gives a non-finite value in its own row only; no target can lie
    on a far one. Rows go in chunks of at most BASE_SUM_BLOCK source-by-row
    elements, and at most as many targets, so the memory of a call grows
    with neither the source count nor the number of rows."""
    u = np.asarray(u, dtype=complex)
    b, w = np.asarray(b, dtype=complex), np.asarray(w)
    rows = u.reshape(math.prod(u.shape[:-1]), u.shape[-1] if u.ndim else 1)
    out = np.empty(rows.shape, dtype=complex)
    step = max(1, BASE_SUM_BLOCK // max(len(b), rows.shape[1]))
    for s in range(0, len(rows), step):
        out[s:s + step] = _cauchy_rows(rows[s:s + step], b, w)
    return out.reshape(u.shape)


def _far_sources(u, b):
    """Centre c (rows, 1) and far mask |b - c| > FAR_RATIO * rho (rows,
    len(b)) of each row of u; a row of no more than FAR_ORDER targets,
    an empty one included, has no far source and c = 0."""
    if u.shape[1] <= FAR_ORDER:
        return (np.zeros((len(u), 1), dtype=complex),
                np.zeros((len(u), len(b)), dtype=bool))
    c = u.mean(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        rho = np.abs(u - c).max(axis=1, keepdims=True)
        far = np.abs(b - c) > FAR_RATIO * rho
    return c, far


def _cauchy_rows(u, b, w):
    """cauchy_sum of a 2-D u, one row at a time."""
    c, far = _far_sources(u, b)
    out = np.empty(u.shape, dtype=complex)
    taylor = far.any(axis=1)
    for i in np.flatnonzero(~taylor):
        out[i] = base_sum(lambda row: 1 / (row - b[:, None]), u[i], w)
    if not taylor.any():
        return out
    u, c, far = u[taylor], c[taylor], far[taylor]
    near = np.zeros(u.shape, dtype=complex)
    # near (row, source) pairs in row order; the q-th near source of every
    # row that has one is summed in one step, so each step adds one term
    # per row (at most BASE_SUM_BLOCK elements) in source order
    ri, sj = np.nonzero(~far)
    rank = np.arange(len(ri)) - np.searchsorted(ri, ri)
    for q in range(rank.max(initial=-1) + 1):
        r, j = ri[rank == q], sj[rank == q]
        terms = 1 / (u[r] - b[j, None])
        terms *= w[j, None]
        near[r] += terms
    # x^(k+1) of every far source of each row, zero at the near ones
    x = np.divide(1, b - c, out=np.zeros(far.shape, dtype=complex), where=far)
    # converted once: `@` would convert a real w again at every order
    wc = w.astype(complex)
    moments = np.empty((FAR_ORDER, len(u), 1), dtype=complex)
    power = x.copy()
    for k in range(FAR_ORDER):
        moments[k, :, 0] = power @ wc
        if k + 1 < FAR_ORDER:
            power *= x
    t = u - c
    acc = np.repeat(moments[-1], u.shape[1], axis=1)
    for m in moments[-2::-1]:
        acc *= t
        acc += m
    out[taylor] = near - acc
    return out


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class ComplexPoly:
    """Polynomial sum c_k * u^k with u = (z - center)/scale, ascending coeffs.

    center=0, scale=1 reads as a plain polynomial in z. The frame exists for
    conditioning: approximation engines fit in recentred/rescaled coordinates
    and the certificate keeps the frame rather than expanding it (expansion of
    a degree ~60 frame into raw monomials is numerically destructive).
    """

    coeffs: tuple
    center: complex = 0.0
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "scale", float(self.scale))
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        u = (z - self.center) / self.scale
        out = np.zeros_like(u)
        for c in reversed(self.coeffs):
            out = out * u + c
        return out

    def derivative(self):
        if len(self.coeffs) <= 1:
            return ComplexPoly((0.0,), self.center, self.scale)
        cs = [k * c / self.scale for k, c in enumerate(self.coeffs)][1:]
        return ComplexPoly(tuple(cs), self.center, self.scale)

    def to_json(self):
        return {
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
            "center": [self.center.real, self.center.imag],
            "scale": self.scale,
        }

    @staticmethod
    def from_json(d):
        return ComplexPoly(
            tuple(complex(a, b) for a, b in d["coeffs"]),
            complex(d["center"][0], d["center"][1]),
            d["scale"],
        )


# ---------------------------------------------------------------------------
# contour quadrature


def contour_integral(g, circles, orders=1, nodes=256):
    """Trapezoid moments of g on every circle of the sequence `circles`:
    a complex array shaped (circles, orders + 1) whose entry j is
    mean_k g(z_k) (z_k - c)^j over `nodes` equiangular nodes z_k of the
    circle with centre c. Column 0 is the circle mean of g, and column
    j >= 1 is (1/2 pi i) times the contour integral of g(z) (z - c)^(j-1)
    dz. The rule is spectrally accurate for integrands analytic near the
    circle (Trefethen and Weideman, SIAM Review 56(3), 2014).

    g is evaluated once, with floating-point warnings off, on a (circles x
    nodes) array with one row per circle, in chunks of at most
    BASE_SUM_BLOCK nodes (one circle when it has more); every order is read
    from those same values. A non-finite value of g gives non-finite
    moments in its own row only."""
    circles = list(circles)
    if not all(isinstance(c, Circle) for c in circles):
        raise TypeError("contours must be Circles")
    centre = np.array([complex(c.center) for c in circles], dtype=complex)
    radius = np.array([float(c.radius) for c in circles], dtype=float)
    theta = 2 * np.pi * np.arange(nodes) / nodes
    e = np.exp(1j * theta)
    out = np.empty((len(circles), orders + 1), dtype=complex)
    step = max(1, BASE_SUM_BLOCK // nodes)
    for s in range(0, len(circles), step):
        re = radius[s:s + step, None] * e
        with np.errstate(all="ignore"):
            term = np.asarray(g(centre[s:s + step, None] + re), dtype=complex)
            out[s:s + step, 0] = np.sum(term, axis=1) / nodes
            for j in range(1, orders + 1):
                term = term * re
                out[s:s + step, j] = np.sum(term, axis=1) / nodes
    return out


def count_zeros(f, contours, nodes=512):
    """Argument-principle counts of zeros minus poles of f inside each
    circle of the sequence `contours`: column 1 of
    `contour_integral(f.dlog, contours, nodes=nodes)`, the contour integral
    of f.dlog by the trapezoid rule on `nodes` equiangular nodes per
    circle. A dlog built on `cauchy_sum` sums each row of that batch on
    its own.

    Returns the integer counts and the pre-rounding residuals, one per
    circle. A residual above 0.25, or a non-finite integral, raises
    ContourThroughZero for the first such circle in input order.
    """
    vals = contour_integral(f.dlog, contours, nodes=nodes)[:, 1]
    finite = np.isfinite(vals)
    counts = np.round(np.where(finite, vals.real, 0.0))
    residual = np.abs(vals - counts)
    bad = np.flatnonzero(~finite | (residual > 0.25))
    if len(bad):
        k = bad[0]
        if not finite[k]:
            raise ContourThroughZero(
                "logarithmic derivative not finite on contour")
        raise ContourThroughZero(
            f"argument-principle residual {residual[k]:.3g} exceeds 0.25")
    return counts.astype(int), residual


# Newton steps a guess may take before refine_zero gives up on it
NEWTON_CAP = 60
# a guess has converged once its step falls below this times max(1, |z|)
STEP_TOL = 5e-14


def refine_zero(f, guesses, multiplicities):
    """Newton refinement on f.dlog of every guess at once.

    A guess z of a zero of multiplicity m takes the step -m / dlog(z),
    which converges quadratically. It stops once a step other than its
    first falls below STEP_TOL * max(1, |z|), or when dlog is no longer
    finite (dlog blows up exactly at the root). The value of f is never
    read: a log-represented function's value scale is a free plateau
    factor, so |f| says nothing about the distance to a zero. A zero dlog,
    or a guess still moving after NEWTON_CAP steps, raises NoConvergence.
    Each step evaluates dlog once, on every guess still moving. Returns the
    roots and the number of Newton steps each guess took.
    """
    start = np.asarray(guesses, dtype=complex).reshape(-1)
    z = start.copy()
    m = np.maximum(1, np.asarray(multiplicities, dtype=int)).reshape(-1)
    steps = np.zeros(len(z), dtype=int)
    moving = np.arange(len(z))
    for _ in range(NEWTON_CAP):
        if not len(moving):
            break
        with np.errstate(all="ignore"):
            g = np.asarray(f.dlog(z[moving]), dtype=complex)
        if np.any(g == 0):
            raise NoConvergence("zero logarithmic derivative")
        moving, g = moving[np.isfinite(g)], g[np.isfinite(g)]
        step = -m[moving] / g
        z[moving] += step
        steps[moving] += 1
        done = (steps[moving] >= 2) & (
            np.abs(step) < STEP_TOL * np.maximum(1.0, np.abs(z[moving])))
        moving = moving[~done]
    if len(moving):
        raise NoConvergence(f"no zero found near {complex(start[moving[0]])} "
                            f"after {NEWTON_CAP} steps")
    return z, steps
