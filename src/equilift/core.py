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
  counting and zero refinement read the logarithmic derivative only, and a
  ``PoleSum`` logarithmic derivative carries its poles as data.
"""

from __future__ import annotations

import math
import numbers
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
    """Round to the 2**-26 lattice. Exact representation for |z| < 2**26.

    A Python scalar gives the bytes of the array path, signed zeros
    included: the array path rounds half to even and keeps the sign of a
    zero (np.rint), and its complex assembly leaves -0.0 in the real part
    only beside a negative imaginary part and never in the imaginary part.
    A scalar that is not finite, or whose 2**26 multiple overflows, is
    refused with a ValueError that names it; arrays are not checked (their
    callers check finiteness first)."""
    if isinstance(z, np.ndarray):
        if np.iscomplexobj(z):
            return (np.round(z.real * _Q) + 1j * np.round(z.imag * _Q)) / _Q
        return np.round(z * _Q) / _Q
    if isinstance(z, complex):
        re, im = _rint(z.real * _Q, z), _rint(z.imag * _Q, z)
        return complex((re + (-0.0 if im < 0 else 0.0)) / _Q, im / _Q + 0.0)
    return _rint(float(z) * _Q, z) / _Q


def _rint(x, z):
    """np.rint(x) for x, 2**26 times a part of the scalar z: half to even,
    with the sign of x. A non-finite x is refused, naming z."""
    if not math.isfinite(x):
        raise ValueError(f"q26 needs a finite 2**26 multiple, not {z!r}")
    return math.copysign(float(round(x)), x)


def _check_pitch(h):
    """Refuse a grid pitch h that is not finite and positive."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"grid pitch must be finite and positive, not {h!r}")


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
        _check_pitch(h)
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


def disks_meet(c1, r1, c2, r2):
    """True iff some closed disk of (c1, r1) meets some closed disk of (c2,
    r2), |c1 - c2| <= r1 + r2 (False when either is empty)."""
    d = np.abs(c1[:, None] - c2[None, :])
    return bool(np.any(d <= r1[:, None] + r2[None, :]))


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
        # q26 of the coordinates and radii in one array of lattice units
        units = np.empty((3, len(radii)))
        units[0], units[1], units[2] = centers.real, centers.imag, radii
        if not np.isfinite(units).all():
            raise ValueError("centers and radii must be finite")
        units = np.rint(units * _Q)
        # after quantizing: a radius below 2**-27 rounds to 0
        if (units[2] <= 0).any():
            raise ValueError("radii must be positive")
        # assembled as q26 assembles complex values, signed zeros included
        self.centers = (units[0] + 1j * units[1]) / _Q
        self.radii = units[2] / _Q
        self.centers.setflags(write=False)
        self.radii.setflags(write=False)

    # -- construction helpers

    @staticmethod
    def disk(center, radius):
        return CompactRegion([complex(center)], [float(radius)])

    @classmethod
    def disks_of(cls, centers, radius):
        """One one-disk region per centre, all of one radius, quantized and
        checked in one pass: region k holds the bytes that
        ``CompactRegion([centers[k]], [radius])`` would, as read-only views
        of the pass's arrays."""
        whole = cls(centers, np.full(len(centers), float(radius)))
        out = []
        for k in range(len(whole)):
            region = cls.__new__(cls)
            region.centers = whole.centers[k:k + 1]
            region.radii = whole.radii[k:k + 1]
            out.append(region)
        return out

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
        return disks_meet(self.centers, self.radii, other.centers, other.radii)

    # -- sampling (deterministic, covariant)

    def boundary_samples(self, density=64):
        """Equiangular points on every disk circle, offsets q26-quantized.

        All per-circle points are kept, including those interior to another
        disk: sample sets of disk-list extensions are then supersets, which
        makes sups over them monotone under extension, exactly. A disk of
        radius r gets max(12, ceil(density * r)) points, and all disks are
        sampled in one array pass, disk after disk.
        """
        m = np.maximum(12, np.ceil(density * self.radii)).astype(int)
        k = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
        theta = 2 * np.pi * k / np.repeat(m, m)
        off = q26_trunc(np.repeat(self.radii, m) * np.exp(1j * theta))
        return np.repeat(self.centers, m) + off

    # -- topology checks

    def complement_connected(self):
        """Exact verdict: True iff the plane minus the disk union is connected.

        Resolution-free (see hole_witness): grid methods misjudge gaps
        narrower than their pitch, which real clustered data produces.
        """
        return hole_witness(self.centers, self.radii) is None

    def area(self, h):
        """Grid estimate of the union area at pitch h (deterministic)."""
        _check_pitch(h)
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


# candidate pairs per chunk of the disk-pair sweep and `_max_dist`: a
# sweep chunk's temporaries take about 110 bytes per candidate, so about
# 2 MB, whatever the disk count
NERVE_CHUNK = 1 << 14


def _disk_pairs(c, r, pad):
    """(i, j, dist): the pairs i < j of the disks (c, r) in row-major order
    with dist - (r_i + r_j) <= pad, and their centre distances, each the
    one a dense n x n table held, though no such table is built; three
    empty arrays when there are no disks. At pad 0 the test is
    `disks_meet`'s.

    Such a pair's shadows on an axis, c_i +- (r_i + pad / 2), overlap. So
    the disks are swept along the longer side of their bounding box in the
    order of their shadows' left ends, each taking as candidates the disks
    whose shadow starts inside its own (widened far past rounding), and the
    exact test decides. A disk of radius 64 among unit disks meets only the
    candidates its own shadow reaches, where one uniform grid would put it
    in many cells."""
    n = len(c)
    if not n:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    x, y = c.real, c.imag
    if y.max() - y.min() > x.max() - x.min():
        x = y
    w = (r + pad / 2) * (1 + 2.0 ** -20) + 2.0 ** -40 * float(np.abs(x).max())
    order = (x - w).argsort(kind="stable")
    left = (x - w)[order]
    # the candidates of sorted place p are the count[p] places after it,
    # numbered first[p] .. last[p] - 1 in one list over all places
    count = left.searchsorted((x + w)[order], "right") - np.arange(1, n + 1)
    last = np.cumsum(count)
    first = last - count
    out = []
    s = 0
    while s < n:
        # whole runs of candidates, about NERVE_CHUNK at a time
        e = max(s + 1, int(last.searchsorted(first[s] + NERVE_CHUNK, "right")))
        p = np.arange(s, e).repeat(count[s:e])
        q = order[p]
        k = order[p + 1 + np.arange(first[s], last[e - 1]) - first[p]]
        dist = np.abs(c[q] - c[k])
        near = dist - (r[q] + r[k]) <= pad
        out.append((np.minimum(q, k)[near], np.maximum(q, k)[near],
                    dist[near]))
        s = e
    i, j, dist = map(np.concatenate, zip(*out))
    srt = (i * n + j).argsort()
    return i[srt], j[srt], dist[srt]


def _nerve(c, r, guard=0.0):
    """The intersection graph of the disks (c, r), n >= 1, as both pocket
    tests read it, from the pairs that can meet: (i, j, dist, adj, tol).

    tol = 1e-9 * max(1, max r, max dist) over every pair of centres
    (`_max_dist`). The pairs (i, j), i < j in row-major order, are every
    adjacent pair and every pair with dist - (r_i + r_j) <= tol + guard;
    dist holds their centre distances and adj their adjacency dist <= r_i +
    r_j + tol: from `_disk_pairs`, its pad widened past the rounding of
    these tests, each number as a dense n x n table held it."""
    tol = 1e-9 * max(1.0, float(r.max()), _max_dist(c))
    i, j, dist = _disk_pairs(c, r, (tol + guard) * (1 + 2.0 ** -10))
    reach = r[i] + r[j]
    adj = dist <= reach + tol
    near = adj | (dist - reach <= tol + guard)
    return i[near], j[near], dist[near], adj[near], tol


def _max_dist(c):
    """max |c_i - c_j| over every pair, the value a dense table's max held,
    from the centres that can reach it. With m the centre of c's bounding
    box, |c_i - c_j| <= |c_i - m| + max |c - m|, so a pair above the
    distance `lower` of one pair needs |c_i - m| >= lower - max |c - m|;
    those centres, with a margin far past rounding, are scanned pair by
    pair in blocks. On a roughly round union they lie in a thin rim."""
    x, y = c.real, c.imag
    m = complex((x.min() + x.max()) / 2, (y.min() + y.max()) / 2)
    rad = np.abs(c - m)
    far = int(rad.argmax())
    lower = float(np.abs(c - c[far]).max())
    slack = 1e-9 * (lower + float(rad[far]) + abs(m))
    rim = c[rad >= lower - float(rad[far]) - slack]
    step = max(1, NERVE_CHUNK // len(rim))
    for s in range(0, len(rim), step):
        lower = max(lower, float(np.abs(rim[s:s + step, None]
                                        - rim[None, :]).max()))
    return lower


def _xor_reduce(vec, basis):
    """vec (an int, one bit per edge) reduced by an XOR basis {leading bit:
    row}: 0 exactly when vec lies in the basis' span over GF(2)."""
    while vec and vec.bit_length() - 1 in basis:
        vec ^= basis[vec.bit_length() - 1]
    return vec


def hole_witness(centers, radii):
    """Indices of disks ringing a complement pocket, or None if none exists.

    Disks are convex, so their union is homotopy equivalent to the nerve of
    the family (`_nerve`; it only needs pairs and triples: a triple meet
    reduces to finitely many candidate points, and higher meets never affect
    first homology). A bounded complement component exists exactly when
    some 1-cycle is not a mod-2 combination of triple-meet triangles; the
    witness returned is a shortest such fundamental cycle of the
    intersection graph, as a ring-ordered index tuple. The graph has E - V
    + C independent cycles (C its components, counted by the breadth-first
    forest the fundamental cycles come from). Holes of planar compacts are
    torsion-free, so mod-2 ranks give the same Betti numbers as rational
    ones. Each triangle boundary and each cycle is a Python int whose set
    bits are its edge ids; the triangles are kept as an XOR basis {leading
    bit: row}, whose size is their rank, and a cycle is a pocket when it
    does not reduce to 0. That algebra is exact, and neither the rank nor
    the span depends on which basis is kept. Edges are the nerve's adjacent
    pairs inside the 2-core, in row-major order, and the triangle candidates
    of an edge (i, j) are the common neighbours k > j, one intersection of
    two neighbour sets; only those triples reach the exact meet test. No
    table over all pairs is built: the work and memory follow the pairs
    `_nerve` finds. Every decision uses pairwise differences only, so
    verdicts are exactly shift-covariant.

    Toast construction consults it only on the unions its Mayer-Vietoris
    rule cannot decide and on unions with a pocket fill (see `toast`); the
    axiom verifier runs it on every region.
    """
    c = np.asarray(centers, dtype=complex)
    r = np.asarray(radii, dtype=float)
    n = len(c)
    if n <= 2:
        return None
    i, j, _, adj, tol = _nerve(c, r)
    i, j = i[adj], j[adj]
    # leaf disks are collapsible in the nerve: 1-cycles live in the 2-core
    alive = np.ones(n, dtype=bool)
    deg = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    while True:
        drop = alive & (deg <= 1)
        if not drop.any():
            break
        alive[drop] = False
        deg -= (np.bincount(i[drop[j]], minlength=n)
                + np.bincount(j[drop[i]], minlength=n))
    verts = np.flatnonzero(alive)
    if len(verts) == 0:
        return None
    m = len(verts)
    # the 2-core's edges, renumbered in order, so still row-major; eid[i,
    # j] (i < j) is the index of {i, j}
    at = np.cumsum(alive) - 1
    both = alive[i] & alive[j]
    edges = list(zip(at[i[both]].tolist(), at[j[both]].tolist()))
    eid = {e: k for k, e in enumerate(edges)}
    # row-major order lists each vertex's lower neighbours, then its higher
    # ones, each ascending
    neighbors = [[] for _ in range(m)]
    higher = [set() for _ in range(m)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
        higher[u].add(v)
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
    basis = {}
    for e, (i, j) in enumerate(edges):
        for k in sorted(higher[i] & higher[j]):
            if _disks_triple_meet(c[verts[i]], r[verts[i]], c[verts[j]],
                                  r[verts[j]], c[verts[k]], r[verts[k]], tol):
                row = _xor_reduce(
                    (1 << e) | (1 << eid[i, k]) | (1 << eid[j, k]), basis)
                if row:
                    basis[row.bit_length() - 1] = row
    if cycles == len(basis):
        return None
    # some pocket exists; fundamental cycles span the cycle space, so at
    # least one of them lies outside the triangle span
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
        # a fundamental cycle is simple: its edges are distinct bits
        vec = sum(1 << eid[min(a, b), max(a, b)]
                  for a, b in zip(ring, ring[1:] + ring[:1]))
        if _xor_reduce(vec, basis):
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
    closures: ``dlog`` (f'/f, all that zero counting and refinement read)
    and ``log_eval`` (a value L with exp(L) = f, stable where |f|
    overflows). A ``dlog`` that is a `PoleSum` carries its poles as data:
    ``count_zeros`` then sums on each contour's nodes only the poles near
    it (psi in the product mode and `builders.EntireApprox` have one). Any
    other callable is evaluated whole on every node.
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


# the far field of a source sum: a source is far from a tile of targets
# (centre c, radius rho) when |b - c| > FAR_RATIO * rho, and from a contour
# circle (c, r) when |b - c| > FAR_RATIO * r. FAR_ORDER is the least p with
# q^p / (1 - q) <= 2^-53 at q = 1 / FAR_RATIO: the tail of a geometric
# series in q cut after p terms, relative to its first term. Tiles of no
# more than FAR_ORDER targets sum every source directly
FAR_RATIO = 8.0
FAR_ORDER = 18


@dataclass(frozen=True)
class SourceSum:
    """sum_j weights[j] * term(u, b_j) over the sources b_j, with the Taylor
    series of its far sources when `tiled_sum` evaluates it; no weights
    (None) when the terms carry them.

    `term(u, j)` maps targets u (shape (k, r), or (1, r) broadcast) and a
    column of source indices j (shape (k, 1)) to the terms of those sources
    at u. `taylor(x, far, c)` maps a block of rows, with centres c
    (rows, 1), far masks (rows, sources) and x = 1 / (b - c) at the far
    sources (0 at the near ones), to the coefficients a_k (order, rows) of
    sum_far weights[j] * term(u, b_j) = sum_k a_k (u - c)^k; its kernel
    states the series length and the tail bound. A sum that is only
    summed directly or near contour circles has no series (None)."""

    sources: np.ndarray
    weights: Optional[np.ndarray]
    term: Callable
    taylor: Optional[Callable] = None

    def direct(self, u):
        """The direct `base_sum` over every source."""
        j = np.arange(len(self.sources))[:, None]
        weights = self.weights
        if weights is None:
            weights = np.ones(len(self.sources))
        return base_sum(lambda row: self.term(row, j), u, weights)

    def weighted(self, u, j):
        """weights[j] * term(u, j) for a column j of source indices."""
        t = self.term(u, j)
        if self.weights is not None:
            t *= self.weights[j]
        return t


def power_moments(x, weights, count):
    """sum_j x[:, j]^e weights[j] for e = 1..count, shaped (count, rows) plus
    the trailing shape of `weights` (one column per weight column)."""
    # converted once: `@` would convert real weights again at every power
    wc = np.asarray(weights).astype(complex)
    out = np.empty((count, len(x)) + wc.shape[1:], dtype=complex)
    power = x.copy()
    for e in range(count):
        out[e] = power @ wc
        if e + 1 < count:
            power *= x
    return out


def _horner(coeffs, t):
    """sum_k coeffs[k][:, None] t^k for rows of t, by Horner."""
    acc = np.repeat(coeffs[-1][:, None], t.shape[1], axis=1)
    for a in coeffs[-2::-1]:
        acc *= t
        acc += a[:, None]
    return acc


def _cauchy_kernel(b, w):
    """The source sum of w_j / (u - b_j), with no far series: a `PoleSum`
    sums it directly, and `contour_integral` only near each circle."""
    return SourceSum(b, w, term=lambda v, j: 1 / (v - b[j]))


@dataclass(frozen=True, eq=False)
class PoleSum:
    """smooth(u) + sum_j w[j] / (u - b[j]) in u = z - origin: a
    logarithmic derivative that carries its simple poles b_j (the zeros of
    its function, of multiplicity w_j) as data, so that `contour_integral`
    can leave each circle's far poles out of its nodes. A pole or weight
    that is not finite is refused with a ValueError naming the first.

    A call sums every pole directly (`base_sum`, in blocks of at most
    BASE_SUM_BLOCK pole-by-target elements, so its memory grows with
    neither the pole count nor the size of z) with floating-point warnings
    off; a target on a pole gives a non-finite value at that target only.
    Newton reads it so: its batch of every counted point spans the window
    and leaves no pole for a far field to take. Compares by identity
    (arrays have no single truth value)."""

    smooth: Callable
    b: np.ndarray = ()
    w: np.ndarray = ()
    origin: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=complex))
        object.__setattr__(self, "w", np.asarray(self.w))
        for name, v in (("pole", self.b), ("weight", self.w)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite, not "
                                 f"{v[~np.isfinite(v)][0]}")

    def __call__(self, z):
        u = np.asarray(z, dtype=complex) - self.origin
        with np.errstate(all="ignore"):
            return self.smooth(u) + _cauchy_kernel(self.b, self.w).direct(u)


# targets per tile of a `tiled_sum`
TILE_TARGETS = 64


def tiled_sum(u, s: SourceSum):
    """The source sum `s` at every entry of u, shaped like u, through a far
    field per tile of targets.

    The finite targets are grouped into square tiles of about TILE_TARGETS
    targets over their bounding box, from the values of u alone; each tile
    is one row of `_series_rows`, with its own centre, radius, far set and
    series, its near sources summed directly. A tile of no more
    than FAR_ORDER targets, every non-finite target, and a batch of no
    more than FAR_ORDER finite targets go to the direct `base_sum` (a batch
    of nothing but such targets is exactly `s.direct(u)`). Tiles go in
    chunks of at most BASE_SUM_BLOCK tile-by-source elements, so memory
    grows with neither the source count nor the size of u."""
    u = np.asarray(u, dtype=complex)
    flat = u.reshape(-1)
    finite = np.isfinite(flat)
    if np.count_nonzero(finite) <= FAR_ORDER:
        return s.direct(u)
    members, valid, rest = _tiles(flat, finite)
    out = np.empty(flat.shape, dtype=complex)
    step = _rows_per_chunk(len(s.sources), members.shape[1])
    for i in range(0, len(members), step):
        at, keep = members[i:i + step], valid[i:i + step]
        out[at[keep]] = _series_rows(flat[at], s)[keep]
    if len(rest):
        out[rest] = s.direct(flat[rest])
    return out.reshape(u.shape)


def _tiles(z, finite):
    """Square tiles of about TILE_TARGETS of the finite entries of z: the
    positions of the entries of tiles of more than FAR_ORDER as rows, each
    padded with its last entry, the mask of the unpadded entries, and the
    positions of the other entries, the non-finite ones included."""
    at = np.flatnonzero(finite)
    x, y = z.real[at], z.imag[at]
    x0, y0 = x.min(), y.min()
    w, h = float(x.max() - x0), float(y.max() - y0)
    k = len(at) / TILE_TARGETS
    side = max(math.sqrt(w * h / k), max(w, h) / k)
    nx = ny = 1
    if 0 < side < math.inf:
        nx, ny = max(1, round(w / side)), max(1, round(h / side))
    key = np.zeros(len(at), dtype=int)
    for v, v0, size, cells, scale in ((y, y0, h, ny, nx), (x, x0, w, nx, 1)):
        if cells > 1:
            cell = ((v - v0) * (cells / size)).astype(int)
            key += scale * np.minimum(cell, cells - 1, out=cell)
    order = at[np.argsort(key, kind="stable")]
    counts = np.bincount(key, minlength=nx * ny)
    counts = counts[counts > 0]
    starts = np.cumsum(counts) - counts
    big = counts > FAR_ORDER
    width = int(counts[big].max(initial=0))
    span = np.arange(width)
    pos = starts[big, None] + np.minimum(span, counts[big, None] - 1)
    rest = np.concatenate([order[np.repeat(~big, counts)],
                           np.flatnonzero(~finite)])
    return order[pos], span < counts[big, None], rest


def _rows_per_chunk(sources, width):
    """Rows of `width` targets per chunk of a source sum over `sources`
    sources: at most BASE_SUM_BLOCK source-by-row elements, and at most as
    many targets."""
    return max(1, BASE_SUM_BLOCK // max(sources, width))


def _series_rows(u, s):
    """The source sum `s` of a 2-D u, one row at a time: near sources
    directly, far ones as the row's Taylor series, and a row without far
    sources as the direct sum. A row has centre c = mean(row) and radius
    rho = max |row - c|, and a source is far from it when |b - c| >
    FAR_RATIO * rho."""
    c = u.mean(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        rho = np.abs(u - c).max(axis=1, keepdims=True)
        far = np.abs(s.sources - c) > FAR_RATIO * rho
    out = np.empty(u.shape, dtype=complex)
    taylor = far.any(axis=1)
    for i in np.flatnonzero(~taylor):
        out[i] = s.direct(u[i])
    if not taylor.any():
        return out
    rows = np.flatnonzero(taylor)
    u, c, far = u[rows], c[rows], far[rows]
    x = np.divide(1, s.sources - c, out=np.zeros(far.shape, dtype=complex),
                  where=far)
    out[rows] = (_near_sum(u, *np.nonzero(~far), s)
                 + _horner(s.taylor(x, far, c), u - c))
    return out


def _near_sum(u, rows, sources, s):
    """The source sum `s` over the near sources of each row of a 2-D u,
    given as (row, source) pairs in row-major order, term by term in
    source order; a row without pairs sums to 0."""
    # rows by their count of near sources, most first: the rows with a q-th
    # near source are then a leading slice, and step q adds the term of
    # that source to each of them (at most BASE_SUM_BLOCK elements)
    sizes = np.bincount(rows, minlength=len(u))
    nearest = np.zeros((len(u), sizes.max(initial=0)), dtype=int)
    nearest[rows, np.arange(len(rows)) - rows.searchsorted(rows)] = sources
    by_size = np.argsort(-sizes, kind="stable")
    sizes, nearest = sizes[by_size], nearest[by_size]
    near = np.zeros(u.shape, dtype=complex)
    sorted_u = u[by_size]
    for q in range(nearest.shape[1]):
        m = np.count_nonzero(sizes > q)
        near[:m] += s.weighted(sorted_u[:m], nearest[:m, q, None])
    out = np.empty_like(near)
    out[by_size] = near
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

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        u = (z - self.center) / self.scale
        # Horner from the leading nonzero coefficient: a zero start times an
        # infinite u would be NaN, so even a constant would be lost at inf
        *rest, top = np.trim_zeros(self.coeffs, "b") or (0j,)
        out = np.full_like(u, top)
        for c in reversed(rest):
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


def _circle_batch(circles, nodes):
    """Centres and radii of the sequence `circles`, and the unit roots
    e^(i theta_k) of `nodes` equiangular nodes, after the checks that every
    circle quadrature makes: each contour a Circle (TypeError), its centre
    finite, its radius finite and positive, and `nodes` a positive integer
    (ValueError naming the value)."""
    circles = list(circles)
    if not all(isinstance(c, Circle) for c in circles):
        raise TypeError("contours must be Circles")
    if not (isinstance(nodes, numbers.Integral) and nodes > 0):
        raise ValueError(f"nodes must be a positive integer, not {nodes!r}")
    centre = np.array([complex(c.center) for c in circles], dtype=complex)
    radius = np.array([float(c.radius) for c in circles], dtype=float)
    bad = np.flatnonzero(~np.isfinite(centre))
    if len(bad):
        raise ValueError(f"circle centre must be finite, not {centre[bad[0]]}")
    bad = np.flatnonzero(~(np.isfinite(radius) & (radius > 0)))
    if len(bad):
        raise ValueError(f"circle radius must be finite and positive, not "
                         f"{float(radius[bad[0]])}")
    theta = 2 * np.pi * np.arange(nodes) / nodes
    return centre, radius, np.exp(1j * theta)


def contour_integral(g, circles, orders=1, nodes=256):
    """Contour integrals of g on every circle of the sequence `circles`: a
    complex array shaped (circles, orders) whose column j - 1, for j = 1
    .. orders, is the trapezoid moment mean_k g(z_k) (z_k - c)^j over
    `nodes` equiangular nodes z_k of the circle with centre c, that is
    (1/2 pi i) times the contour integral of g(z) (z - c)^(j-1) dz. The
    rule is spectrally accurate for integrands analytic near the circle
    (Trefethen and Weideman, SIAM Review 56(3), 2014). Contours must be
    Circles (TypeError); centres finite, radii finite and positive, and
    `orders` and `nodes` positive integers (ValueError).

    A g that is not a `PoleSum` is read as PoleSum(g), with no poles. Its
    smooth part is evaluated once, with floating-point warnings off, on
    every node, every order read from those same values, so a smooth part
    that swamps the poles in rounding still shows in the integrals. The
    circle (c, r) has the nodes (c - origin) + r e^(i theta_k) in u,
    exact when c and origin lie on the 2^-26 lattice. Of the poles, each
    circle sums on its nodes only the near ones (`_near_sum`, the near
    loop of `tiled_sum`'s tiles), the poles within FAR_RATIO * r of c.
    One `_disk_pairs` sweep at pad 0 finds them, each circle a disk
    (c - origin, FAR_RATIO * r) and each pole a point. A far pole adds
    almost nothing: with t = u - c and x_k = 1 / (b_k - c), w_k / (u -
    b_k) = -w_k x_k sum_m (t x_k)^m, and on N equiangular nodes the
    trapezoid mean of t^(m+j) is r^(m+j) when N divides m + j and 0
    otherwise. So far pole k adds -w_k x_k sum_{l >= 1} x_k^(lN-j) r^(lN)
    to column j, at most q^(N-j) / (1 - q^N) |w_k x_k| r^j with q = 1 /
    FAR_RATIO, and it is dropped. Once N - j >= FAR_ORDER that is below
    2^-53 sum_far |w_k x_k| r^j; with fewer nodes (N - orders <
    FAR_ORDER) every pole is summed on the nodes.

    The circles go in chunks of BASE_SUM_BLOCK // nodes (one circle when
    it has more nodes), whatever the pole count, and a non-finite node
    value (a node on a near pole) gives non-finite integrals in its own
    row only."""
    if not (isinstance(orders, numbers.Integral) and orders > 0):
        raise ValueError(f"orders must be a positive integer, not {orders!r}")
    centre, radius, e = _circle_batch(circles, nodes)
    g = g if isinstance(g, PoleSum) else PoleSum(g)
    centre = centre - g.origin
    n, b = len(centre), g.b
    if nodes - orders < FAR_ORDER or not len(b):
        rows, poles = np.divmod(np.arange(n * len(b)), max(1, len(b)))
    else:
        p, q, _ = _disk_pairs(np.concatenate([centre, b]), np.concatenate(
            [FAR_RATIO * radius, np.zeros(len(b))]), 0.0)
        keep = (p < n) & (q >= n)
        rows, poles = p[keep], q[keep] - n
    s = _cauchy_kernel(b, g.w)
    out = np.empty((n, orders), dtype=complex)
    step = max(1, BASE_SUM_BLOCK // nodes)
    for i in range(0, n, step):
        lo, hi = rows.searchsorted([i, i + step])
        c, r = centre[i:i + step, None], radius[i:i + step, None]
        re = r * e
        with np.errstate(all="ignore"):
            u = c + re
            term = np.asarray(g.smooth(u), dtype=complex)
            if len(b):  # adding no poles would turn -0.0 into +0.0
                term = term + _near_sum(u, rows[lo:hi] - i, poles[lo:hi], s)
            for k in range(orders):
                term = term * re
                out[i:i + step, k] = np.sum(term, axis=1) / nodes
    return out


def _dlog(f):
    """f.dlog, refused with a ValueError that names it when f has none."""
    if getattr(f, "dlog", None) is None:
        raise ValueError("f has no dlog to count or refine zeros on")
    return f.dlog


def count_zeros(f, contours, nodes=512):
    """Argument-principle counts of zeros minus poles of f inside each
    circle of the sequence `contours`: the first column (j = 1) of
    `contour_integral(f.dlog, contours, 2, nodes)`, the contour integral
    of f.dlog by the trapezoid rule on `nodes` equiangular nodes per
    circle. A `PoleSum` dlog (psi in the product mode and
    `builders.EntireApprox`) is summed on each circle's nodes only at the
    zeros within FAR_RATIO radii of its centre, which one disk sweep finds
    (no circles x zeros table); any other dlog is evaluated whole on every
    node. An f without a dlog is refused with a ValueError before any node
    is evaluated.

    Returns the integer counts, the pre-rounding residuals and the first
    moments, one per circle. The first moment is the second column (j =
    2) of the same call, sum m_k (z_k - c) over the zeros z_k
    (multiplicity m_k; a pole counts with its negative order) inside the
    circle with centre c: a lone zero of multiplicity m sits at c +
    moment / m (Delves and Lyness, Math. Comp. 21, 1967). A residual above
    0.25, or a non-finite integral, raises ContourThroughZero for the
    first such circle in input order.
    """
    vals, first = contour_integral(_dlog(f), contours, 2, nodes).T
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
    return counts.astype(int), residual, first


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
    Each step evaluates dlog once, on every guess still moving (a
    `PoleSum` dlog sums every pole directly). An f without a dlog is
    refused with a ValueError before any guess is read. Returns the roots
    and the number of Newton steps each guess took.
    """
    dlog = _dlog(f)
    start = np.asarray(guesses, dtype=complex).reshape(-1)
    z = start.copy()
    m = np.maximum(1, np.asarray(multiplicities, dtype=int)).reshape(-1)
    steps = np.zeros(len(z), dtype=int)
    moving = np.arange(len(z))
    for _ in range(NEWTON_CAP):
        if not len(moving):
            break
        with np.errstate(all="ignore"):
            g = np.asarray(dlog(z[moving]), dtype=complex)
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
