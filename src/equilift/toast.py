"""Covariant toast hierarchies: nested families of compact disk unions
anchored at divisor points, built level by level from local geometry only.

Every choice (marker selection, pruning, absorption) is a function of
difference vectors between divisor points, so translating the divisor by a
quantized shift translates the whole hierarchy exactly. Regions at one level
are pairwise disjoint; a region either gets absorbed into a next-level region
(its disks are adjoined verbatim, making nesting literal) or is re-listed at
the next level unchanged as a repeat, so every region has a parent.

The distance matrix is built once per toast: each level ranks the points by
prefixes of the sorted distance rows (`_markers`), and difference vectors are
formed only for the rare points whose distance rows tie.

A marker's union is grown as arrays of disks and returned as the region
itself (`_grow`). Every radius is put on the 2^-26 lattice where it is
made, the level radius and each pocket fill's, so the meeting, pocket and
ceding tests read the disks the regions store.

Regions must stay simply connected. Before any pocket fill, a grown union is
the marker's disk D plus absorbed regions, each simply connected and pairwise
disjoint, so Mayer-Vietoris on the union's nerve decides it from the pieces
D ∩ x alone (`_no_pocket`): with no two regions adjacent, there is no pocket
when each region's pieces form one connected graph. The rule is undecided on
near-tangent pairs, where the nerve could differ from the one a region was
accepted under. An undecided union, and every union with a fill, goes to
`hole_witness` through `_pocket_filler`, so every witness and fill is the
one that check alone would give; `verify_axioms` always runs it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (CompactRegion, Window, _disks_triple_meet, circle_crossings,
                   hole_witness, q26)
from .divisors import Divisor, detect_stabilizer
from .errors import NonFreeInput, PocketFillExhausted, WindowTooSmall

GAP_FRACTION = 0.01      # pruning gap between genuine base disks, in units of r_n
NEIGHBOR_SCALE = 2.0     # signature neighborhood radius, in units of the level scale
REACH_SLACK = 1e-9       # relative slack of the reach test, far above rounding


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
    levels: tuple             # ToastLevel for n = 0..N
    parents: dict             # (n, anchor) -> (n+1, anchor')
    children: dict            # (n, anchor) -> tuple of (n-1, anchor'')
    divisor: Divisor
    r0: float
    gamma: float
    u0: float

    @property
    def depth(self):
        return len(self.levels) - 1

    def region(self, n, anchor):
        return self.levels[n].regions[anchor]

    def locate(self, n, x):
        """Anchor of the unique level-n region containing x, or None."""
        for anchor, region in self.levels[n].regions.items():
            if region.contains(x):
                return anchor
        return None

    def translate(self, w):
        w = complex(w)
        return ToastForest(
            levels=tuple(lv.translate(w) for lv in self.levels),
            parents={(n, a + w): (m, b + w) for (n, a), (m, b) in self.parents.items()},
            children={(n, a + w): tuple((m, b + w) for m, b in cs)
                      for (n, a), cs in self.children.items()},
            divisor=self.divisor.translate(w, move_window=True),
            r0=self.r0, gamma=self.gamma, u0=self.u0,
        )


# ---------------------------------------------------------------------------
# construction


class _Pairs(NamedTuple):
    """Pairwise geometry of a toast's points, built once per toast."""
    locs: np.ndarray
    dist: np.ndarray     # dist[i, j] = |locs[j] - locs[i]|
    rows: np.ndarray     # row i of dist without its zeros, ascending, inf-padded

    @classmethod
    def of(cls, locs):
        locs = np.asarray(locs, dtype=complex)
        dist = np.abs(locs[None, :] - locs[:, None])
        rows = np.sort(np.where(dist > 0, dist, np.inf), axis=1)
        return cls(locs, dist, rows)


def _ranks(pairs, scale):
    """Integer rank per point that orders the points as their signature keys
    do, equal ranks exactly for equal keys.

    A point's key is its ascending distances to the neighbors within
    NEIGHBOR_SCALE * scale (lex-larger means more isolated), then its
    descending neighbor difference vectors, which separate swap-symmetric
    points while staying a function of differences only."""
    n = len(pairs.locs)
    lim = NEIGHBOR_SCALE * scale
    lengths = np.count_nonzero(pairs.rows <= lim, axis=1)
    width = int(lengths.max())
    # sort by a prefix of the rows, doubled while two adjacent sorted rows tie
    # on it and go on past it; once none do, the prefix order is the order of
    # the whole rows, and a tie on the prefix is a tie of the whole rows
    k = min(width, 4)
    while True:
        # -1 after a row's end makes a strict prefix compare smaller, as in
        # tuples
        padded = np.where(np.arange(k) < lengths[:, None],
                          pairs.rows[:, :k], -1.0)
        order = np.lexsort(padded.T[::-1]) if k else np.arange(n)
        srt = padded[order]
        new = np.ones(n, dtype=bool)
        new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
        longer = lengths[order] > k
        if k == width or not np.any(~new[1:] & (longer[1:] | longer[:-1])):
            break
        k = min(2 * k, width)
    # rank = n * (distance-row group) + (place of the vectors in the group)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = (np.cumsum(new) - 1) * n
    # exact distance-row ties need local symmetry, so they are rare: only
    # there are the difference vectors compared
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], n)
    for s, e in zip(starts, ends):
        if e - s < 2 or lengths[order[s]] == 0:
            continue
        vecs = {}
        for i in order[s:e]:
            mask = (pairs.dist[i] > 0) & (pairs.dist[i] <= lim)
            v = pairs.locs[mask] - pairs.locs[i]
            vecs[i] = tuple(sorted(zip(v.real.tolist(), v.imag.tolist()),
                                   reverse=True))
        sub = {key: k for k, key in enumerate(sorted(set(vecs.values())))}
        for i, key in vecs.items():
            rank[i] += sub[key]
    return rank


def _markers(pairs, scale):
    """Indices whose key strictly dominates every competitor within `scale`,
    most isolated first.

    Keys are compared through `_ranks`: the distance rows, padded with -1,
    are ranked lexicographically by `np.lexsort` on a prefix of their
    columns, which doubles only while two adjacent sorted rows tie on it and
    one of them goes on past it (a few columns at every level, where all of
    them cost up to n), and the difference-vector tiebreak is built only
    inside groups of equal rows. This is the order of the Python key tuples
    (distance tuple, vector tuple). The radius-2*scale neighbor rows are
    prefixes of the sorted distance rows built once per toast. No spatial
    tree: from level 2 up the 2*scale ball holds most of the points, so a
    tree would not shrink the work.

    Competitors are scanned in index order. An exact key tie with the first
    competitor whose key is not smaller means the two points see identical
    difference-vector neighborhoods, i.e. a local translation symmetry the
    covariant rule cannot break. Markers with equal keys (never
    competitors) keep index order."""
    rank = _ranks(pairs, scale)
    rival = ((pairs.dist > 0) & (pairs.dist <= scale)
             & (rank[None, :] >= rank[:, None]))
    beaten = rival.any(axis=1)
    first = rival.argmax(axis=1)
    tied = beaten & (rank[first] == rank)
    if tied.any():
        i = int(np.argmax(tied))
        raise NonFreeInput(
            f"points {pairs.locs[i]} and {pairs.locs[first[i]]} are locally "
            f"indistinguishable at scale {scale}"
        )
    out = np.flatnonzero(~beaten)
    return out[np.argsort(-rank[out], kind="stable")].tolist()


def _disks_intersect(c1, r1, c2, r2):
    """Any closed disk of arrays 1 meeting any of arrays 2 (False when
    either is empty)."""
    d = np.abs(c1[:, None] - c2[None, :])
    return bool(np.any(d <= r1[:, None] + r2[None, :]))


def _pocket_filler(rel_centers, radii):
    """One covariant disk plugging (or splitting) a complement pocket.

    Absorption can close geometric rings around gap pockets, and regions
    must stay simply connected. Centers come in anchor-relative, so every
    decision is a function of difference data. A 3-ring pocket is the
    curvilinear gap between three mutually crossing circles; it lies inside
    the triangle of its pocket-side crossing points, so the circumscribed
    disk of those corners (with margin) covers it while staying at gap
    scale. A longer ring is split by bridging its shortest chord whose
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
            if not pts:
                pts = ((cs[x] + cs[y]) / 2,)
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

    The adjacency, the triple meets and `tol` are hole_witness's, on the
    same relative centres; a pair whose piece lies inside D with margin
    meets D wherever it meets itself, so it needs no triple test. A pair of
    disks within tol + 2^-24 * max(1, r_max) of tangency makes the rule
    undecided, since there the nerve could differ from the one under which
    a region was accepted."""
    c, r, src = rel_centers, radii, source
    if len(c) <= 2:
        return True  # two convex disks ring no pocket, as in hole_witness
    dist = np.abs(c[:, None] - c[None, :])
    scale = max(1.0, float(np.max(r)))
    tol = 1e-9 * max(scale, float(np.max(dist)))
    gap = dist - (r[:, None] + r[None, :])
    np.fill_diagonal(gap, -np.inf)
    if np.any(np.abs(gap) <= tol + 2.0 ** -24 * scale):
        return None
    adj = gap <= tol
    if np.any(adj[1:, 1:] & (src[1:, None] != src[None, 1:])):
        return None
    # every region has a piece: it was absorbed for meeting D or another
    # region, and the latter is excluded above. Pieces of different regions
    # never meet, so one union-find over all pieces is done when it is
    # down to one component per region
    hits = np.flatnonzero(adj[0, 1:]) + 1
    left = len(hits) - len(np.unique(src[1:]))
    if not left:
        return True
    root = list(range(len(hits)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    sub = np.triu(adj[np.ix_(hits, hits)], 1)
    inside = (dist[0] + r + tol <= r[0])[hits]
    cheap = sub & (inside[:, None] | inside[None, :])
    for tested, need_meet in ((cheap, False), (sub & ~cheap, True)):
        for i, j in zip(*np.nonzero(tested)):
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


def _reach(a, region):
    """Radius about a of a disk holding the region: max |c - a| + r."""
    return float(np.max(np.abs(region.centers - a) + region.radii))


def _may_meet(gap, reach):
    """The reach test: two regions whose anchors lie `gap` apart can meet
    only if gap <= their summed reaches `reach`, up to REACH_SLACK."""
    return gap <= reach * (1 + REACH_SLACK)


class _Pool(NamedTuple):
    """A level's regions with their reaches: at construction the previous
    level's, which a new region may absorb; in the verifier each level's,
    for its pair loops."""
    items: list          # (anchor, CompactRegion), in level order
    anchors: np.ndarray
    reach: np.ndarray    # _reach of each region about its anchor

    @classmethod
    def of(cls, items):
        items = list(items)
        return cls(items, np.array([a for a, _ in items], dtype=complex),
                   np.array([_reach(a, r) for a, r in items], dtype=float))


def _grow(a, radius, pool, free):
    """The region a marker at a claims: D(a, radius) plus every free pool
    region that meets it, directly or through regions and pocket fills
    adjoined before, plus the pocket fills that keep it simply connected.

    Each pass scans the pool in index order and adjoins what meets the
    union as it stands, so a region absorbed early in a pass can reach a
    later one; passes repeat until one adjoins nothing, and only then is a
    pocket filled. A region can meet the union only if its anchor lies
    within the two reaches of the anchors; that test (with a relative slack
    far above rounding) decides which regions get the disk test, and it is
    rerun after every absorption and fill.

    The union is kept as arrays of centres, radii and sources (D, the pool
    index, or a fill), extended on each absorption and fill. Every radius
    is on the 2^-26 lattice from the start (the level radius, the pool
    regions' and the fills'), so each test reads the disks the region
    stores. Before any fill, `_no_pocket` decides from the pieces D ∩ x
    whether the union is free of pockets; only a union it cannot decide,
    and every union with a fill, goes to `_pocket_filler` and so to
    hole_witness. Returns (region, absorbed pool indices in order, fills,
    witnessed), where witnessed says whether hole_witness was consulted."""
    centers = np.array([a], dtype=complex)
    radii = np.array([radius], dtype=float)
    source = np.array([-1])     # -1 for D, the pool index, or -2 for a fill
    absorbed = []
    fills = 0
    witnessed = False
    avail = free.copy()
    gap = np.abs(a - pool.anchors)
    reach = radius
    start = 0
    while True:
        near = avail[start:] & _may_meet(gap[start:],
                                         reach + pool.reach[start:])
        hit = next((idx for idx in np.flatnonzero(near) + start
                    if _disks_intersect(centers, radii,
                                        pool.items[idx][1].centers,
                                        pool.items[idx][1].radii)), None)
        if hit is not None:
            preg = pool.items[hit][1]
            centers = np.concatenate((centers, preg.centers))
            radii = np.concatenate((radii, preg.radii))
            source = np.concatenate((source, np.full(len(preg), hit)))
            absorbed.append(int(hit))
            avail[hit] = False
            reach = max(reach, _reach(a, preg))
            start = hit + 1
        elif start:
            start = 0  # the pass absorbed: rescan, fillers may touch more pool
        else:
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
            centers = np.append(centers, a + plug[0])
            radii = np.append(radii, plug[1])
            source = np.append(source, -2)
            reach = max(reach, abs(plug[0]) + plug[1])
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
    host even the base scale."""
    N = as_depth(N)
    if not (0 < r0 < math.inf and 1 < gamma < math.inf):
        raise ValueError("need finite r0 > 0 and gamma > 1")
    if min(d.window.width, d.window.height) < 2 * r0:
        raise WindowTooSmall(
            f"window {d.window} cannot host base disks of radius {r0}"
        )
    rep = detect_stabilizer(d)
    if rep.kind != "free":
        raise NonFreeInput(f"divisor has a {rep.kind} stabilizer {rep.generators}")

    pairs = _Pairs.of(d.locs)
    u0 = r0 / 2
    cap = d.window.diameter
    levels = []
    parents = {}
    children = {}

    prev_level = None
    for n in range(N + 1):
        scale = r0 * gamma ** n
        radius = q26(min(scale, cap))
        marker_idx = _markers(pairs, scale)
        spacing = 2 * radius + GAP_FRACTION * radius

        pool = _Pool.of(prev_level.regions.items() if prev_level else ())
        free = np.ones(len(pool.items), dtype=bool)

        regions = {}
        kinds = {}
        counts = {"markers": len(marker_idx), "skipped": 0, "ceded": 0,
                  "absorptions": 0, "fills": 0, "witnessed": 0}
        kept_idx = []
        # the disks of every region kept so far, for the ceding test
        kept_centers = np.empty(0, dtype=complex)
        kept_radii = np.empty(0, dtype=float)
        for i in marker_idx:
            if np.any(pairs.dist[i, kept_idx] < spacing):
                counts["skipped"] += 1
                continue
            a = complex(pairs.locs[i])
            region, absorbed, fills, witnessed = _grow(a, radius, pool, free)
            counts["witnessed"] += witnessed
            if _disks_intersect(region.centers, region.radii,
                                kept_centers, kept_radii):
                counts["ceded"] += 1
                continue  # junior cedes: seniors already took what they touch
            regions[a] = region
            kinds[a] = "genuine"
            kept_idx.append(i)
            kept_centers = np.concatenate((kept_centers, region.centers))
            kept_radii = np.concatenate((kept_radii, region.radii))
            counts["absorptions"] += len(absorbed)
            counts["fills"] += fills
            free[absorbed] = False
            children[(n, a)] = tuple((n - 1, pool.items[idx][0])
                                     for idx in absorbed)
            for idx in absorbed:
                parents[(n - 1, pool.items[idx][0])] = (n, a)
        for idx in np.flatnonzero(free):
            pa, preg = pool.items[idx]
            regions[pa] = preg
            kinds[pa] = "repeat"
            parents[(n - 1, pa)] = (n, pa)
            children[(n, pa)] = ((n - 1, pa),)
        levels.append(ToastLevel(n, regions, kinds, counts))
        prev_level = levels[-1]

    return ToastForest(levels=tuple(levels), parents=parents, children=children,
                       divisor=d, r0=r0, gamma=gamma, u0=u0)


# ---------------------------------------------------------------------------
# verification (independent of the construction invariants)


def _disk_subset(lower: CompactRegion, upper: CompactRegion):
    return lower.disk_set <= upper.disk_set


def _contained(lower, upper):
    return _disk_subset(lower, upper) or lower.contained_in(upper)


def _meeting_pairs(lower, upper):
    """The (anchor, region) pairs of two pools whose regions intersect, in
    row-major order (each unordered pair once when lower is upper).

    Only pairs that pass the reach test go to `intersects`. Regions that
    meet always pass it, whether or not their anchors lie in them, so the
    pairs are those of the all-pairs loop."""
    for i, item in enumerate(lower.items):
        start = i + 1 if lower is upper else 0
        near = _may_meet(np.abs(lower.anchors[i] - upper.anchors[start:]),
                         lower.reach[i] + upper.reach[start:])
        for j in np.flatnonzero(near) + start:
            if item[1].intersects(upper.items[j][1]):
                yield item, upper.items[j]


def verify_axioms(forest: ToastForest) -> dict:
    """Re-check the hierarchy axioms from the stored geometry alone.

    Returns {check: {"status": ..., "witnesses": [...]}} where status is
    pass | fail | undetermined (insufficient levels) | pass (finite)."""
    report = {}

    def entry(status, witnesses=()):
        return {"status": status, "witnesses": list(witnesses)[:8]}

    pools = [_Pool.of(lv.regions.items()) for lv in forest.levels]

    # 1: same-level regions pairwise disjoint
    witnesses = []
    for lv, pool in zip(forest.levels, pools):
        for (a, _), (b, _) in _meeting_pairs(pool, pool):
            witnesses.append((lv.n, a, b))
    report["same-level-disjoint"] = entry("fail" if witnesses else "pass", witnesses)

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
    witnesses = []
    for m in range(forest.depth + 1):
        for n in range(m + 1, forest.depth + 1):
            for (la, lreg), (ua, ureg) in _meeting_pairs(pools[m], pools[n]):
                if not _contained(lreg, ureg):
                    witnesses.append((m, la, n, ua))
    report["cross-level-nested"] = entry("fail" if witnesses else "pass", witnesses)

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
    # to the 2^-26 lattice like the regions' own disks
    witnesses = []
    u0 = q26(forest.u0)
    for lv in forest.levels:
        for a, reg in lv.regions.items():
            if not reg.covers_disk(q26(complex(a)), u0):
                witnesses.append((lv.n, a))
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

    # extra: absorbed children pack disjointly, so area bounds their number
    witnesses = []
    for (n, a), kids in forest.children.items():
        genuine_kids = [k for k in kids if k != (n - 1, a)]
        if not genuine_kids:
            continue
        reg = forest.levels[n].regions[a]
        bound = reg.area(h=forest.u0 / 4) * 1.1 / (math.pi * forest.u0 ** 2) + 1
        if len(kids) > bound:
            witnesses.append((n, a, len(kids), bound))
    report["child-bound"] = entry("fail" if witnesses else "pass", witnesses)

    return report
