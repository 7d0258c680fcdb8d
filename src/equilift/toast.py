"""Covariant toast hierarchies: nested families of compact disk unions
anchored at divisor points, built level by level from local geometry only.

Every choice (marker selection, pruning, absorption) is a function of
difference vectors between divisor points, so translating the divisor by a
quantized shift translates the whole hierarchy exactly. Regions at one level
are pairwise disjoint; a region either gets absorbed into a next-level region
(its disks are adjoined verbatim, making nesting literal) or is re-listed at
the next level unchanged as a repeat, so every region has a parent.

The points are bucketed once per toast in a uniform grid (`_Grid`), and each
test reads only the cells it needs; no n x n table is built. Each level ranks
the points by the first few entries of their sorted distance rows, read once
per toast, reads whole rows only for points whose first entries tie
(`_ranks`), and forms difference vectors only for the rare points whose whole
rows tie. A point is beaten when a higher rank lies within the scale: a range
maximum over the cells inside its ball settles most points, pair tests the
rest (`_markers`). A marker within the spacing of a kept one is skipped; the
markers near each marker come from a grid over the markers alone
(`_spacing`).

Level 0 grows nothing: it has no pool, so each kept marker's region is its
own disk, and kept markers lie the spacing 2 r + GAP_FRACTION r apart, so
none cedes; the level's regions are made in one pass (`_base_level`).
Above it, a marker's union is grown as arrays of disks and returned as the
region itself (`_grow`). What it may absorb is the previous level's
regions, held as one array of disks (`_Pool`). They are pairwise disjoint,
so a region meets the union only through the marker's disk D or a pocket
fill: one array test of D against the pool's disks, and one of each fill,
finds all that the union absorbs. A grown region cedes when it meets a
kept one; only kept disks within its reach are tested. Every radius is put
on the 2^-26 lattice where it is made, the level radius and each pocket
fill's, so the meeting, pocket and ceding tests read the disks the regions
store.

Regions must stay simply connected. Before any pocket fill, a grown union is
the marker's disk D plus absorbed regions, each simply connected and pairwise
disjoint, so Mayer-Vietoris on the union's nerve decides it from the pieces
D ∩ x alone (`_no_pocket`): with no two regions adjacent, there is no pocket
when each region's pieces form one connected graph. The rule is undecided on
near-tangent pairs, where the nerve could differ from the one a region was
accepted under. An undecided union, and every union with a fill, goes to
`hole_witness` through `_pocket_filler`, so every witness and fill is the
one that check alone would give; `verify_axioms` always runs it. Both read
the union's nerve as the list of disk pairs that can meet (`core._nerve`),
so their memory follows the pairs, not the square of the disk count.
`verify_axioms` finds the regions that meet from one sweep over the disks
of every level (`_region_pairs`, on the sweep `_nerve` reads too).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (CompactRegion, Window, _disk_pairs, _disks_triple_meet,
                   _nerve, circle_crossings, disks_meet, hole_witness, q26)
from .divisors import Divisor, detect_stabilizer
from .errors import NonFreeInput, PocketFillExhausted, WindowTooSmall

GAP_FRACTION = 0.01      # pruning gap between genuine base disks, in units of r_n
NEIGHBOR_SCALE = 2.0     # signature neighborhood radius, in units of the level scale
REACH_SLACK = 1e-9       # relative slack of the reach test, far above rounding
GRID_CHUNK = 1 << 14     # candidate pairs per chunk of a grid query
ROW_PREFIX = 4           # distance-row columns every point is ranked on first


@dataclass(frozen=True)
class ToastLevel:
    n: int
    regions: dict            # anchor -> CompactRegion, insertion-ordered
    kinds: dict              # anchor -> "genuine" | "repeat"
    # construction tallies: markers, markers skipped for spacing, markers
    # that ceded to a senior, the absorptions and pocket fills of the
    # regions kept, and the unions grown (kept or ceded) that went to
    # hole_witness ("witnessed")
    counts: dict = field(default_factory=dict)

    @property
    def anchors(self):
        return tuple(self.regions.keys())

    def translate(self, w):
        w = complex(w)
        return ToastLevel(
            self.n,
            {a + w: r.translate(w) for a, r in self.regions.items()},
            {a + w: k for a, k in self.kinds.items()},
            dict(self.counts),
        )


@dataclass(frozen=True)
class ToastForest:
    """The levels and the one parent link of each region below the top;
    `children` and the safety radius `u0` derive from these."""

    levels: tuple             # ToastLevel for n = 0..N
    parents: dict             # (n, anchor) -> (n+1, anchor'), in the order
                              # the regions were absorbed or repeated
    divisor: Divisor
    r0: float
    gamma: float

    @property
    def depth(self):
        return len(self.levels) - 1

    @property
    def u0(self):
        """Radius of the safety disk every region holds about its anchor."""
        return self.r0 / 2

    @cached_property
    def children(self):
        """(n, anchor) -> tuple of (n-1, anchor''), the inverse of `parents`:
        an entry for every region, in level order, () for a region with no
        children, and each tuple in `parents` order, which is the order of
        absorption (a repeat's one child is itself). Links to a region the
        levels do not hold are left out."""
        kids = {(lv.n, a): [] for lv in self.levels for a in lv.regions}
        for child, parent in self.parents.items():
            if parent in kids:
                kids[parent].append(child)
        return {key: tuple(v) for key, v in kids.items()}

    def region(self, n, anchor):
        return self.levels[n].regions[anchor]

    def _clearances(self, n, x):
        """min |x - c| - r over each level-n region's disks, in level order,
        from one pass over the level's disks: <= 0 exactly when the region
        holds x (the test of `CompactRegion.contains`)."""
        regions = self.levels[n].regions.values()
        centers = np.concatenate([reg.centers for reg in regions])
        radii = np.concatenate([reg.radii for reg in regions])
        starts = np.cumsum([0] + [len(reg) for reg in regions])[:-1]
        return np.minimum.reduceat(np.abs(x - centers) - radii, starts)

    def locate(self, n, x):
        """Anchor of the first level-n region containing x, or None."""
        held = np.flatnonzero(self._clearances(n, x) <= 0)
        return self.levels[n].anchors[held[0]] if len(held) else None

    def nearest(self, n, x):
        """Anchor of the first level-n region of least clearance
        min |x - c| - r over its disks."""
        return self.levels[n].anchors[int(np.argmin(self._clearances(n, x)))]

    def translate(self, w):
        w = complex(w)
        return ToastForest(
            levels=tuple(lv.translate(w) for lv in self.levels),
            parents={(n, a + w): (m, b + w) for (n, a), (m, b) in self.parents.items()},
            divisor=self.divisor.translate(w, move_window=True),
            r0=self.r0, gamma=self.gamma,
        )


# ---------------------------------------------------------------------------
# construction


class _Grid:
    """A toast's points bucketed in square cells, built once per toast.

    The cell side h is a power of two near the mean point spacing, and the
    points are stored cell by cell in row-major cell order, index order
    within a cell, so the points of one cell row's run of cells are one
    slice (`order[start[c]:start[c1]]`). The points must lie on the 2^-26
    lattice, as a divisor's do: then x - xmin and its quotient by h are
    exact, and a point within distance rho < m * h of another lies within m
    cells of it on both axes. Every distance is the `abs` of the exact
    difference of two points, as a dense table would hold it, so each
    query reads only the cells it needs and still sees the same numbers."""

    def __init__(self, locs):
        self.locs = locs = np.asarray(locs, dtype=complex)
        n = len(locs)
        self.x0, self.y0 = float(locs.real.min()), float(locs.imag.min())
        width = float(locs.real.max()) - self.x0
        height = float(locs.imag.max()) - self.y0
        span = max(width, height)
        # about one point per cell, collinear points included
        area = max(width * height, span * span / n)
        self.h = 2.0 ** round(math.log2(math.sqrt(area / n))) if span else 1.0
        self.cx = np.floor((locs.real - self.x0) / self.h).astype(np.int64)
        self.cy = np.floor((locs.imag - self.y0) / self.h).astype(np.int64)
        self.ncx, self.ncy = int(self.cx.max()) + 1, int(self.cy.max()) + 1
        cell = self.cy * self.ncx + self.cx
        self.order = np.argsort(cell, kind="stable")
        self.start = np.searchsorted(cell[self.order],
                                     np.arange(self.ncx * self.ncy + 1))

    @cached_property
    def head(self):
        """The first ROW_PREFIX columns of every point's sorted distance
        row, which every level cuts at its own radius."""
        return self.rows(np.arange(len(self.locs)), ROW_PREFIX, np.inf)

    def block(self, idx, m):
        """(q, j) index arrays: every point j of the cells within m cells of
        idx[q]'s cell on both axes, q ascending. They come in chunks of
        whole queries, each chunk's query count times its largest pair
        count at most GRID_CHUNK unless one query alone has more."""
        idx = np.asarray(idx, dtype=np.int64)
        if 2 * m + 1 >= self.ncy:
            dy = np.arange(self.ncy)[None, :]          # every cell row
        else:
            dy = self.cy[idx, None] + np.arange(-m, m + 1)
        slab = max(1, GRID_CHUNK // dy.shape[1])
        for s0 in range(0, len(idx), slab):
            q = np.arange(s0, min(s0 + slab, len(idx)))
            rows = dy if dy.shape[0] == 1 else dy[q]
            ok = (rows >= 0) & (rows < self.ncy)
            base = np.where(ok, rows, 0) * self.ncx
            cx = self.cx[idx[q], None]
            lo = self.start[base + np.maximum(cx - m, 0)]
            count = np.where(ok, self.start[base + np.minimum(
                cx + m, self.ncx - 1) + 1] - lo, 0)
            per = count.sum(axis=1)
            a = 0
            while a < len(q):
                top = np.maximum.accumulate(per[a:a + GRID_CHUNK])
                fits = np.arange(1, len(top) + 1) * top <= GRID_CHUNK
                b = a + max(1, int(fits.sum()))
                lo_p, n_p = lo[a:b].ravel(), count[a:b].ravel()
                offset = np.repeat(lo_p - (np.cumsum(n_p) - n_p), n_p)
                yield (np.repeat(q[a:b], per[a:b]),
                       self.order[offset + np.arange(len(offset))])
                a = b

    def within(self, idx, radius):
        """(q, j, d) chunks: the points j with d = |locs[j] - locs[idx[q]]|
        <= radius, the query itself included."""
        whole = max(self.ncx, self.ncy)
        # radius < m * h, so the blocks hold every such point
        m = whole if radius >= whole * self.h else int(radius // self.h) + 1
        for q, j in self.block(idx, m):
            d = np.abs(self.locs[j] - self.locs[idx[q]])
            keep = d <= radius
            yield q[keep], j[keep], d[keep]

    def rows(self, idx, k, lim):
        """(len(idx), k) table: for each idx[q], the k smallest distances d
        with 0 < d <= lim to the other points, ascending and padded with -1,
        which is the first k columns of its sorted distance row cut at lim.

        Blocks grow from about 2k points by doubling m until a query's k-th
        distance, or lim, lies inside the block (below m * h). A chunk's
        distances are laid out one query per row and partitioned there."""
        idx = np.asarray(idx, dtype=np.int64)
        out = np.full((len(idx), k), -1.0)
        load = len(self.locs) / (self.ncx * self.ncy)
        m = max(1, math.ceil(math.sqrt(2 * k / (math.pi * load))))
        todo = np.arange(len(idx))
        while len(todo):
            tab = np.full((len(todo), k), np.inf)
            for q, j in self.block(idx[todo], m):
                d = np.abs(self.locs[j] - self.locs[idx[todo[q]]])
                keep = (d > 0) & (d <= lim)
                q, d = q[keep], d[keep]
                if not len(q):
                    continue
                place = _places(q)
                part = np.full((q[-1] - q[0] + 1, max(k, place.max() + 1)),
                               np.inf)
                part[q - q[0], place] = d
                part = np.partition(part, k - 1, axis=1)[:, :k]
                tab[q[0]:q[-1] + 1] = np.sort(part, axis=1)
            whole = m >= max(self.ncx, self.ncy)
            settled = whole | (np.minimum(tab[:, -1], lim) < m * self.h)
            out[todo[settled]] = np.where(tab[settled] < np.inf,
                                          tab[settled], -1.0)
            todo = todo[~settled]
            m *= 2
        return out

    def square_max(self, values, half):
        """Per point, the largest of `values` (nonnegative) over the cells
        that lie wholly inside the square of half side `half` about it, or
        -1 where that square holds no whole cell.

        A sparse table of the cells' maxima over 2^a x 2^b blocks answers
        each square with four overlapping blocks."""
        nx, ny = self.ncx, self.ncy
        cell = np.full(nx * ny, -1, dtype=np.int64)
        held = np.flatnonzero(np.diff(self.start))
        cell[held] = np.maximum.reduceat(values[self.order], self.start[held])
        table = np.full((nx.bit_length(), ny.bit_length(), ny, nx), -1,
                        dtype=np.int64)
        table[0, 0] = cell.reshape(ny, nx)
        for a in range(table.shape[0]):
            if a:
                w, s = nx - (1 << a) + 1, 1 << (a - 1)
                table[a, 0, :, :w] = np.maximum(table[a - 1, 0, :, :w],
                                                table[a - 1, 0, :, s:s + w])
            for b in range(1, table.shape[1]):
                t, s = ny - (1 << b) + 1, 1 << (b - 1)
                table[a, b, :t] = np.maximum(table[a, b - 1, :t],
                                             table[a, b - 1, s:s + t])
        x, y = self.locs.real - self.x0, self.locs.imag - self.y0
        x0 = np.maximum(np.ceil((x - half) / self.h), 0).astype(np.int64)
        x1 = np.minimum(np.floor((x + half) / self.h) - 1, nx - 1).astype(np.int64)
        y0 = np.maximum(np.ceil((y - half) / self.h), 0).astype(np.int64)
        y1 = np.minimum(np.floor((y + half) / self.h) - 1, ny - 1).astype(np.int64)
        ok = (x1 >= x0) & (y1 >= y0)
        x0, x1, y0, y1 = (np.where(ok, v, 0) for v in (x0, x1, y0, y1))
        a = np.frexp(x1 - x0 + 1)[1] - 1      # floor(log2(length))
        b = np.frexp(y1 - y0 + 1)[1] - 1
        xs, ys = x1 - (1 << a) + 1, y1 - (1 << b) + 1
        best = np.maximum(np.maximum(table[a, b, y0, x0], table[a, b, y0, xs]),
                          np.maximum(table[a, b, ys, x0], table[a, b, ys, xs]))
        return np.where(ok, best, -1)


def _places(q):
    """Each element's place in its run of equal values of q."""
    at = np.arange(len(q))
    start = np.ones(len(q), dtype=bool)
    start[1:] = q[1:] != q[:-1]
    return at - np.maximum.accumulate(np.where(start, at, 0))


def _ranks(grid, scale):
    """Integer rank per point that orders the points as their signature keys
    do, equal ranks exactly for equal keys.

    A point's key is its ascending distances to the neighbors within
    NEIGHBOR_SCALE * scale (lex-larger means more isolated), then its
    descending neighbor difference vectors, which separate swap-symmetric
    points while staying a function of differences only.

    The distance rows are compared through their first ROW_PREFIX columns
    (-1 after a row's end makes a strict prefix compare smaller, as in
    tuples). Only points that tie with another on them read their whole
    rows and, where those tie too, their difference vectors, each in one
    lexsort of a padded table. Such ties need local symmetry, so on
    generic inputs they are rare, and the tables stay small."""
    n = len(grid.locs)
    lim = NEIGHBOR_SCALE * scale
    # the rows cut at lim: their entries beyond it come last
    rows = np.where(grid.head <= lim, grid.head, -1.0)
    group = _dense(np.zeros(n, dtype=np.int64), rows)
    tie = np.flatnonzero((np.bincount(group)[group] > 1) & (rows[:, 0] >= 0))
    if not len(tie):
        return group * n
    q, j, d = map(np.concatenate, zip(*grid.within(tie, lim)))
    q, j, d = q[d > 0], j[d > 0], d[d > 0]
    # each tying point's whole row, one table row, ascending, -1 after it
    place = _places(q)
    whole = np.full((len(tie), int(place.max()) + 1), np.inf)
    whole[q, place] = d
    whole.sort(axis=1)
    whole[whole == np.inf] = -1.0
    sub = np.zeros(n, dtype=np.int64)
    sub[tie] = _dense(group[tie], whole)
    group = _dense(group, sub[:, None])
    # rank = n * (distance-row group) + (place of the vectors in the group)
    rank = group * n
    tied = np.bincount(group)[group[tie]] > 1
    if tied.any():
        keep = tied[q]
        at = np.cumsum(tied) - 1        # place among the tied points
        q, v = at[q[keep]], grid.locs[j[keep]] - grid.locs[tie[q[keep]]]
        del j, d, keep
        # each point's vectors in descending (re, im) order, one table row
        srt = np.lexsort((v.imag, v.real, q))[::-1]
        q, v = q[srt], v[srt]
        place = _places(q)
        table = np.zeros((int(tied.sum()), 2 * (int(place.max()) + 1)))
        table[q, 2 * place] = v.real
        table[q, 2 * place + 1] = v.imag
        rank[tie[tied]] += _dense(group[tie[tied]], table, within=True)
    return rank


def _dense(group, table, within=False):
    """Dense rank of the rows (group, table row), ordered by group and then
    lexicographically by the row; with `within`, the rank inside each
    group instead."""
    order = np.lexsort(table.T[::-1]) if table.shape[1] else np.arange(len(group))
    order = order[np.argsort(group[order], kind="stable")]
    srt, grp = table[order], group[order]
    first = np.ones(len(group), dtype=bool)    # a group's first row
    first[1:] = grp[1:] != grp[:-1]
    new = first.copy()
    new[1:] |= np.any(srt[1:] != srt[:-1], axis=1)
    dense = np.cumsum(new) - 1
    if within:
        dense -= dense[first][np.cumsum(first) - 1]
    out = np.empty(len(group), dtype=np.int64)
    out[order] = dense
    return out


def _markers(grid, scale):
    """Indices whose key strictly dominates every competitor within `scale`,
    most isolated first.

    Keys are compared through `_ranks`, which gives the order of the Python
    key tuples (distance tuple, vector tuple). A point is beaten when some
    competitor's rank is at least its own. Most points are beaten by a
    higher rank in a cell wholly inside their scale ball: a range maximum
    over the cells of the square inscribed in the ball finds those
    (`_Grid.square_max`), or one global maximum once the ball covers every
    point. Points it does not settle, and points whose rank another point
    shares, are checked pair by pair over the cells the ball meets.

    Competitors are scanned in index order. An exact key tie with the first
    competitor whose key is not smaller means the two points see identical
    difference-vector neighborhoods, i.e. a local translation symmetry the
    covariant rule cannot break. Markers with equal keys (never
    competitors) keep index order."""
    rank = _ranks(grid, scale)
    n = len(rank)
    locs = grid.locs
    # the ball wholly covers a cell, or every point, when it does so with
    # room for rounding to spare
    slack = 1e-9 * (scale + float(np.max(np.abs(locs))))
    diameter = math.hypot(float(np.ptp(locs.real)), float(np.ptp(locs.imag)))
    if diameter <= scale - slack:
        higher = rank < rank.max()
    else:
        higher = grid.square_max(rank, (scale - slack) / math.sqrt(2)) > rank
    _, inverse, counts = np.unique(rank, return_inverse=True,
                                   return_counts=True)
    shared = counts[inverse] > 1
    beaten = higher & ~shared
    check = np.flatnonzero(~beaten)
    first = np.full(n, n)    # the first competitor of rank >= rank[i], or n
    for q, j, d in grid.within(check, scale):
        i = check[q]
        rival = (d > 0) & (rank[j] >= rank[i])
        np.minimum.at(first, i[rival], j[rival])
    beaten[check] = first[check] < n
    tied = (first < n) & (rank[np.minimum(first, n - 1)] == rank)
    if tied.any():
        i = int(np.argmax(tied))
        raise NonFreeInput(
            f"points {locs[i]} and {locs[first[i]]} are locally "
            f"indistinguishable at scale {scale}"
        )
    out = np.flatnonzero(~beaten)
    return out[np.argsort(-rank[out], kind="stable")].tolist()


def _spacing(locs, spacing):
    """The markers closer than `spacing` to each of the markers at locs
    (itself included), as (j, bounds): marker k's are j[bounds[k]:bounds[k
    + 1]]. They come from a grid over the markers alone: markers lie more
    than a scale apart, so each has few within the spacing."""
    q, j, d = map(np.concatenate,
                  zip(*_Grid(locs).within(np.arange(len(locs)), spacing)))
    return j[d < spacing], np.searchsorted(q[d < spacing],
                                           np.arange(len(locs) + 1))


def _base_level(locs, radius, near):
    """Level 0: the markers at locs, in rank order, that no kept marker
    blocks, each as its own disk, anchor -> region.

    Level 0 has no pool, so a region is its marker's disk D(a, radius).
    Kept markers lie at least the spacing 2 r + GAP_FRACTION r apart, so no
    two of these disks meet and none cedes: no union is grown, and the
    level's ceded, absorptions, fills and witnessed stay 0."""
    j, bounds = near
    blocked = np.zeros(len(locs), dtype=bool)
    kept = []
    for k in range(len(locs)):
        if not blocked[k]:
            kept.append(k)
            blocked[j[bounds[k]:bounds[k + 1]]] = True
    anchors = locs[kept]
    return dict(zip(anchors.tolist(),
                    CompactRegion.disks_of(anchors, radius)))


def _pocket_filler(rel_centers, radii):
    """One covariant disk plugging (or splitting) a complement pocket.

    Absorption can close geometric rings around gap pockets, and regions
    must stay simply connected. Centers come in anchor-relative, so every
    decision is a function of difference data. A 3-ring pocket is the
    curvilinear gap between three mutually crossing circles; it lies inside
    the triangle of its pocket-side crossing points, so the circumscribed
    disk of those corners (with margin) covers it while staying at gap
    scale. No two disks of a 3-ring that hole_witness names are concentric:
    the smaller one's meet with the third disk would lie in the larger one,
    filling the triangle, so `circle_crossings` gives each pair its two
    points. A longer ring is split by bridging its shortest chord whose
    bridging disk is not in the union yet: bridging a chord that an earlier
    fill already bridged would return that fill again, and hole_witness can
    name the same ring after a bridge. Returns (relative center, radius),
    both on the 2^-26 lattice, or None when the union is already simply
    connected; raises PocketFillExhausted when every chord of the ring is
    bridged.
    """
    cyc = hole_witness(rel_centers, radii)
    if cyc is None:
        return None
    cs = [complex(rel_centers[i]) for i in cyc]
    rs = [float(radii[i]) for i in cyc]
    if len(cyc) == 3:
        m0 = (cs[0] + cs[1] + cs[2]) / 3
        corners = []
        for x, y, z in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            pts = circle_crossings(cs[x], rs[x], cs[y], rs[y])
            outside = [p for p in pts if abs(p - cs[z]) > rs[z]]
            pick = outside if outside else list(pts)
            corners.append(min(pick, key=lambda p: (abs(p - m0), p.real, p.imag)))
        m = q26(complex(np.mean(corners)))
        return m, q26(1.25 * max(abs(p - m) for p in corners) + 2.0 ** -20)
    k = len(cyc)
    # x = 0, y = k - 1 is a ring-adjacent pair, not a chord
    chords = sorted((abs(cs[x] - cs[y]), x, y) for x in range(k)
                    for y in range(x + 2, k - (x == 0)))
    present = set(zip(rel_centers.tolist(), radii.tolist()))
    for length, x, y in chords:
        disk = q26((cs[x] + cs[y]) / 2), q26(length / 2 * 1.05 + 2.0 ** -20)
        if disk not in present:
            return disk
    raise PocketFillExhausted(f"every chord of the ring {cyc} is bridged")


def _no_pocket(rel_centers, radii, source):
    """True when a union that `_grow` has not filled yet provably has no
    complement pocket, None when the pieces cannot decide it.

    Disk 0 is the marker's disk D (source -1), and every other disk belongs
    to the absorbed pool region named by its source. The regions are
    simply connected and pairwise disjoint. Split the union's nerve into the
    subcomplex on the region disks and the closed star of D; they meet in
    D's link. When no two disks of different regions are adjacent,
    Mayer-Vietoris gives rank H_1 = sum over regions of (c_i - 1), where
    c_i counts the components of the pieces D ∩ x, x in region i, two
    pieces joined when D, x and y meet. So every c_i = 1 means no pocket.

    The pairs, the adjacency and `tol` are hole_witness's: both read them
    from `core._nerve`, here on the relative centres, which also lists the
    pairs near tangency, and the triple meets are its `_disks_triple_meet`.
    D's adjacent pairs come first in the nerve's row-major order; with
    their distances they are all of D's row the rule reads. A pair whose
    piece lies inside D with margin meets D wherever it meets itself, so it
    needs no triple test. A pair of disks within tol + 2^-24 * max(1,
    r_max) of tangency makes the rule undecided, since there the nerve
    could differ from the one under which a region was accepted. Nothing
    is built over all pairs."""
    c, r, src = rel_centers, radii, source
    if len(c) <= 2:
        return True  # two convex disks ring no pocket, as in hole_witness
    guard = 2.0 ** -24 * max(1.0, float(np.max(r)))
    i, j, dist, adj, tol = _nerve(c, r, guard)
    if np.any(np.abs(dist - (r[i] + r[j])) <= tol + guard):
        return None
    i, j, dist = i[adj], j[adj], dist[adj]
    if np.any((i > 0) & (src[i] != src[j])):
        return None
    # every region has a piece: it was absorbed for meeting D or another
    # region, and the latter is excluded above. Pieces of different regions
    # never meet, so one union-find over all pieces is done when it is
    # down to one component per region
    row = i == 0
    hits = j[row]
    left = len(hits) - len(np.unique(src[1:]))
    if not left:
        return True
    root = list(range(len(hits)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    inside = dist[row] + r[hits] + tol <= r[0]
    # the adjacent pairs of pieces, numbered by place in hits
    at = np.full(len(c), -1)
    at[hits] = np.arange(len(hits))
    pair = (at[i] >= 0) & (at[j] >= 0)
    pi, pj = at[i[pair]], at[j[pair]]
    cheap = inside[pi] | inside[pj]
    for tested, need_meet in ((cheap, False), (~cheap, True)):
        for i, j in zip(pi[tested].tolist(), pj[tested].tolist()):
            ri, rj = find(i), find(j)
            x, y = hits[i], hits[j]
            if ri == rj or need_meet and not _disks_triple_meet(
                    c[0], r[0], c[x], r[x], c[y], r[y], tol):
                continue
            root[ri] = rj
            left -= 1
            if not left:
                return True
    return None


class _Pool(NamedTuple):
    """The previous level's regions as one array of disks, which a new
    region may absorb: the regions' own disks, concatenated in level
    order."""
    items: list          # (anchor, CompactRegion), in level order
    centers: np.ndarray  # every region's disks, in level order
    radii: np.ndarray
    owner: np.ndarray    # owner[k] = index of the region holding disk k

    @classmethod
    def of(cls, items):
        items = list(items)
        # the empty head lets a pool of no regions concatenate
        centers = np.concatenate([np.empty(0, dtype=complex)]
                                 + [r.centers for _, r in items])
        radii = np.concatenate([np.empty(0)] + [r.radii for _, r in items])
        owner = np.repeat(np.arange(len(items)), [len(r) for _, r in items])
        return cls(items, centers, radii, owner)


def _grow(a, radius, pool, free):
    """The region a marker at a claims: D(a, radius) plus every free pool
    region that meets D or a pocket fill, plus the pocket fills that keep
    it simply connected.

    The pool must be pairwise disjoint under `disks_meet`, as every level's
    regions are: genuine regions through the ceding test, a repeat because
    the grow that left it free found it meeting nothing, and level-0 disks
    because they lie at least 2.01 r apart. So a pool region meets the
    union only through D or a fill, never through a region adjoined before,
    and one array test of each new disk against the pool's disks finds
    every region it brings in: D's first, then each fill's, each group in
    index order. Each test reads the same `|c1 - c2| <= r1 + r2` that
    `disks_meet` does.

    The union is kept as arrays of centres, radii and sources (D, the pool
    index, or a fill). Every radius is on the 2^-26 lattice from the start
    (the level radius, the pool regions' and the fills'), so each test
    reads the disks the region stores. Before any fill, `_no_pocket`
    decides from the pieces D ∩ x whether the union is free of pockets;
    only a union it cannot decide, and every union with a fill, goes to
    `_pocket_filler` and so to hole_witness. Returns (region, absorbed pool
    indices in order, fills, witnessed), where witnessed says whether
    hole_witness was consulted."""
    centers = np.array([a], dtype=complex)
    radii = np.array([radius], dtype=float)
    source = np.array([-1])     # -1 for D, the pool index, or -2 for a fill
    absorbed = []
    fills = 0
    witnessed = False
    avail = free.copy()
    c, r = a, radius            # the disk adjoined last: D, then each fill
    while True:
        hit = np.zeros(len(avail), dtype=bool)
        hit[pool.owner[np.abs(c - pool.centers) <= r + pool.radii]] = True
        hit &= avail
        take = hit[pool.owner]
        centers = np.concatenate((centers, pool.centers[take]))
        radii = np.concatenate((radii, pool.radii[take]))
        source = np.concatenate((source, pool.owner[take]))
        absorbed += np.flatnonzero(hit).tolist()
        avail &= ~hit
        rel = centers - a
        if not fills and _no_pocket(rel, radii, source):
            break
        witnessed = True
        plug = _pocket_filler(rel, radii)
        if plug is None:
            break
        fills += 1
        if fills > 64:
            raise PocketFillExhausted(
                f"region at {a} still has pockets after 64 fills")
        c, r = a + plug[0], plug[1]
        centers = np.append(centers, c)
        radii = np.append(radii, r)
        source = np.append(source, -2)
    return CompactRegion(centers, radii), absorbed, fills, witnessed


def as_depth(N) -> int:
    """N as a hierarchy depth: numpy integers pass, 2.5 and 3.0 do not."""
    if not isinstance(N, numbers.Integral) or N < 0:
        raise ValueError(f"depth must be a nonnegative integer, not {N!r}")
    return int(N)


def build_covariant_toast(d: Divisor, N: int, r0=1.0, gamma=4.0) -> ToastForest:
    """Build the level-0..N hierarchy over d's points.

    Raises NonFreeInput when the configuration has a translation stabilizer
    (or an unbreakable local tie) and WindowTooSmall when the window cannot
    host even the base scale. Settings are refused with a ValueError before
    any level is built: r0 > 0, gamma > 1 and the top scale r0 * gamma**N
    must be finite floats, whatever N."""
    N = as_depth(N)
    # compared before any conversion: an integer r0 or gamma beyond the
    # float range would raise OverflowError on its way to float
    fits = 0 < r0 <= sys.float_info.max and 1 < gamma <= sys.float_info.max
    with np.errstate(over="ignore"):
        if not (fits and np.isfinite(r0 * np.float64(gamma) ** N)):
            raise ValueError(f"need finite r0 > 0, gamma > 1 and top scale "
                             f"r0 * gamma**N, not r0={r0!r}, gamma={gamma!r}, "
                             f"N={N}")
    if min(d.window.width, d.window.height) < 2 * r0:
        raise WindowTooSmall(
            f"window {d.window} cannot host base disks of radius {r0}"
        )
    rep = detect_stabilizer(d)
    if rep.kind != "free":
        raise NonFreeInput(f"divisor has a {rep.kind} stabilizer {rep.generators}")

    grid = _Grid(d.locs)
    cap = d.window.diameter
    levels = []
    parents = {}
    for n in range(N + 1):
        scale = r0 * gamma ** n
        radius = q26(min(scale, cap))
        marker_idx = _markers(grid, scale)
        near = _spacing(grid.locs[marker_idx], 2 * radius + GAP_FRACTION * radius)

        counts = {"markers": len(marker_idx), "skipped": 0, "ceded": 0,
                  "absorptions": 0, "fills": 0, "witnessed": 0}
        if not n:
            regions = _base_level(grid.locs[marker_idx], radius, near)
            kinds = dict.fromkeys(regions, "genuine")
            counts["skipped"] = len(marker_idx) - len(regions)
            levels.append(ToastLevel(n, regions, kinds, counts))
            continue
        pool = _Pool.of(levels[-1].regions.items())
        free = np.ones(len(pool.items), dtype=bool)

        regions = {}
        kinds = {}
        j, bounds = near
        # blocked[k]: marker k lies within spacing of a kept marker
        blocked = np.zeros(len(marker_idx), dtype=bool)
        # the disks of every region kept so far, for the ceding test
        kept_centers = np.empty(0, dtype=complex)
        kept_radii = np.empty(0, dtype=float)
        for k, i in enumerate(marker_idx):
            if blocked[k]:
                counts["skipped"] += 1
                continue
            a = complex(grid.locs[i])
            region, absorbed, fills, witnessed = _grow(a, radius, pool, free)
            counts["witnessed"] += witnessed
            # only kept disks within the region's reach about a can meet it
            reach = float((np.abs(region.centers - a) + region.radii).max())
            close = (np.abs(kept_centers - a)
                     <= (reach + kept_radii) * (1 + REACH_SLACK))
            if disks_meet(region.centers, region.radii,
                          kept_centers[close], kept_radii[close]):
                counts["ceded"] += 1
                continue  # junior cedes: seniors already took what they touch
            regions[a] = region
            kinds[a] = "genuine"
            blocked[j[bounds[k]:bounds[k + 1]]] = True
            kept_centers = np.concatenate((kept_centers, region.centers))
            kept_radii = np.concatenate((kept_radii, region.radii))
            counts["absorptions"] += len(absorbed)
            counts["fills"] += fills
            free[absorbed] = False
            for idx in absorbed:
                parents[(n - 1, pool.items[idx][0])] = (n, a)
        for idx in np.flatnonzero(free):
            pa, preg = pool.items[idx]
            regions[pa] = preg
            kinds[pa] = "repeat"
            parents[(n - 1, pa)] = (n, pa)
        levels.append(ToastLevel(n, regions, kinds, counts))

    return ToastForest(levels=tuple(levels), parents=parents, divisor=d,
                       r0=r0, gamma=gamma)


# ---------------------------------------------------------------------------
# verification (independent of the construction invariants)


def _disk_subset(lower: CompactRegion, upper: CompactRegion):
    return lower.disk_set <= upper.disk_set


def _contained(lower, upper):
    return _disk_subset(lower, upper) or lower.contained_in(upper)


def _region_pairs(forest):
    """The regions that meet, as pairs ((m, a, region), (n, b, region)),
    m <= n, in the order of loops over m, n >= m, a's place and b's (each
    pair once when m = n), from one `core._disk_pairs` sweep at pad 0, the
    test of `disks_meet`, over the disks of every level."""
    items = [(lv.n, a, reg) for lv in forest.levels
             for a, reg in lv.regions.items()]
    if not items:
        return []
    owner = np.repeat(np.arange(len(items)), [len(reg) for *_, reg in items])
    i, j, _ = _disk_pairs(np.concatenate([reg.centers for *_, reg in items]),
                          np.concatenate([reg.radii for *_, reg in items]),
                          0.0)
    # owner[i] <= owner[j], since the disks are numbered in region order
    key = np.unique((owner[i] * len(items) + owner[j])[owner[i] != owner[j]])
    lo, hi = key // len(items), key % len(items)
    level = np.array([n for n, *_ in items])
    srt = np.lexsort((hi, lo, level[hi], level[lo]))
    return [(items[x], items[y])
            for x, y in zip(lo[srt].tolist(), hi[srt].tolist())]


def verify_axioms(forest: ToastForest) -> dict:
    """Re-check the hierarchy axioms from the stored geometry alone.

    Returns {check: {"status": ..., "witnesses": [...]}} where status is
    pass | fail | undetermined (insufficient levels) | pass (finite)."""
    report = {}

    def entry(status, witnesses=()):
        return {"status": status, "witnesses": list(witnesses)[:8]}

    # checks 1 and 2 read one list of the region pairs that meet
    same, cross = [], []
    for (m, la, lreg), (n, ua, ureg) in _region_pairs(forest):
        if m == n:
            same.append((m, la, ua))
        elif not _contained(lreg, ureg):
            cross.append((m, la, n, ua))

    # 1: same-level regions pairwise disjoint
    report["same-level-disjoint"] = entry("fail" if same else "pass", same)

    # 1b: every region is simply connected (no complement pockets); a repeat
    # region is the same object at every level it is listed at, so each
    # object is decided once
    witnesses = []
    verdicts = {}
    for lv in forest.levels:
        for a, reg in lv.regions.items():
            if id(reg) not in verdicts:
                verdicts[id(reg)] = reg.complement_connected()
            if not verdicts[id(reg)]:
                witnesses.append((lv.n, a))
    report["simply-connected"] = entry("fail" if witnesses else "pass", witnesses)

    # 2: cross-level pairs disjoint or nested upward
    report["cross-level-nested"] = entry("fail" if cross else "pass", cross)

    # 3: every region below the top has a containing parent
    witnesses = []
    for m in range(forest.depth):
        for a, reg in forest.levels[m].regions.items():
            link = forest.parents.get((m, a))
            if link is None:
                witnesses.append((m, a, "no parent"))
                continue
            pn, pa = link
            parent = forest.levels[pn].regions.get(pa)
            if parent is None or not _contained(reg, parent):
                witnesses.append((m, a, "parent does not contain"))
    report["parent-exists"] = entry("fail" if witnesses else "pass", witnesses)

    # 4: directedness through the parent map: every inner region lies in
    # each of its ancestors up to the top level, so two regions whose
    # ancestor chains meet have that common ancestor as an upper bound;
    # chains ending in different top regions leave their pairs to more levels
    witnesses = []
    inner = forest.divisor.window.inner()
    roots = {}
    for lv in forest.levels:
        for a, reg in lv.regions.items():
            if not inner.contains(a):
                continue
            key, inside = (lv.n, a), True
            while inside and key in forest.parents:
                key = forest.parents[key]
                upper = forest.levels[key[0]].regions.get(key[1])
                inside = upper is not None and _contained(reg, upper)
            if inside and key[0] == forest.depth:
                roots.setdefault(key, (lv.n, a))
            else:
                witnesses.append(((lv.n, a), key))
    if witnesses:
        report["directed"] = entry("fail", witnesses)
    elif len(roots) > 1:
        firsts = list(roots.values())
        report["directed"] = entry("undetermined (insufficient levels)",
                                   zip(firsts, firsts[1:]))
    else:
        report["directed"] = entry("pass")

    # 5: every region contains the safety disk around its anchor, rounded
    # to the 2^-26 lattice like the regions' own disks (in one array); a
    # repeat region is the same object with the same anchor at every level
    # it is listed at, so each (object, anchor) is decided once
    listed = [(lv.n, a, reg) for lv in forest.levels
              for a, reg in lv.regions.items()]
    centres = q26(np.array([a for _, a, _ in listed], dtype=complex))
    u0 = q26(forest.u0)
    witnesses = []
    verdicts = {}
    for (n, a, reg), c in zip(listed, centres.tolist()):
        if (id(reg), a) not in verdicts:
            verdicts[id(reg), a] = reg.covers_disk(c, u0)
        if not verdicts[id(reg), a]:
            witnesses.append((n, a))
    report["anchor-disk"] = entry("fail" if witnesses else "pass", witnesses)

    # 6: top level covers the inner window
    grid = inner.grid(forest.r0 / 4)
    covered = np.zeros(grid.shape, dtype=bool)
    for reg in forest.levels[-1].regions.values():
        covered |= reg.lattice_mask(grid)
    missing = grid[~covered]
    report["top-cover"] = entry(
        "fail" if len(missing) else "pass",
        [complex(z) for z in missing[:8]],
    )

    # 7: countability is immediate for finite data
    report["countable"] = entry("pass (finite)")

    return report
