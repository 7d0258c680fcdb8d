"""Toast hierarchy construction, axioms, covariance, and violation detection."""

import hashlib
import math
import re

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import example, given, settings, strategies as st

from equilift import core as core_module, toast as toast_module
from equilift.core import (CompactRegion, Window, _disk_pairs, _nerve,
                           circle_crossings, disks_meet, hole_witness, q26)
from equilift.divisors import Divisor, generate
from equilift.errors import (EquiliftError, NonFreeInput, PocketFillExhausted,
                             WindowTooSmall)
from equilift.toast import ToastForest, ToastLevel, build_covariant_toast, verify_axioms
from test_core import loop_hole_witness

WIN8 = Window(-8, 8, -8, 8)
WIN16 = Window(-16, 16, -16, 16)

PASSING = ("same-level-disjoint", "simply-connected", "cross-level-nested",
           "parent-exists", "directed", "anchor-disk", "top-cover")


def single_point_forest(N=3):
    d = Divisor(np.array([0.5 + 0.5j]), np.array([1]), WIN8)
    return build_covariant_toast(d, N=N, r0=1.0, gamma=4.0)


class TestSinglePoint:
    def test_concentric_chain(self):
        forest = single_point_forest()
        assert forest.depth == 3
        cap = WIN8.diameter
        for n, lv in enumerate(forest.levels):
            assert lv.anchors == (0.5 + 0.5j,)
            region = lv.regions[0.5 + 0.5j]
            # absorption adjoins lower disks verbatim: one disk per level
            assert len(region.centers) == n + 1
            assert np.all(region.centers == 0.5 + 0.5j)
            expected = min(4.0 ** n, cap)
            assert abs(max(region.radii) - expected) < 1e-7

    def test_parent_chain(self):
        forest = single_point_forest()
        a = 0.5 + 0.5j
        for n in range(3):
            assert forest.parents[(n, a)] == (n + 1, a)
        assert forest.children[(1, a)] == ((0, a),)

    def test_axioms(self):
        report = verify_axioms(single_point_forest())
        for name in PASSING:
            assert report[name]["status"] == "pass", (name, report[name])
        assert report["countable"]["status"] == "pass (finite)"


class TestTwoPoints:
    def forest(self):
        d = Divisor(np.array([0j, 3 + 0j]), np.array([1, 1]), WIN8)
        return build_covariant_toast(d, N=2, r0=1.0, gamma=4.0)

    def test_level0_two_regions_level1_merged(self):
        forest = self.forest()
        assert set(forest.levels[0].anchors) == {0j, 3 + 0j}
        # at scale 4 both points compete and the difference-vector tiebreak
        # (+3 beats -3) makes the left point the marker
        assert forest.levels[1].anchors == (0j,)
        assert forest.levels[1].kinds[0j] == "genuine"
        kids = set(forest.children[(1, 0j)])
        assert kids == {(0, 0j), (0, 3 + 0j)}

    def test_locate(self):
        forest = self.forest()
        assert forest.locate(0, 0.5 + 0j) == 0j
        assert forest.locate(0, 3.2 + 0.1j) == 3 + 0j
        assert forest.locate(0, 1.7 + 0j) is None  # between the base disks
        assert forest.locate(1, 1.7 + 0j) == 0j
        assert forest.locate(1, 0.5 + 0j) == 0j

    def test_axioms(self):
        report = verify_axioms(self.forest())
        for name in PASSING:
            assert report[name]["status"] == "pass", (name, report[name])


@pytest.fixture(scope="module")
def poisson_forest():
    d = generate("poisson", WIN16, seed=0, intensity=0.5)
    return build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)


class TestPoissonForest:
    @pytest.fixture()
    def forest(self, poisson_forest):
        return poisson_forest

    def test_axioms(self, forest):
        report = verify_axioms(forest)
        for name in PASSING:
            assert report[name]["status"] == "pass", (name, report[name])

    @pytest.mark.parametrize("half, seed", [(8.5, 1252010711),
                                            (10.0, 129759984)])
    def test_directed_when_a_region_only_touches_its_parent(self, half, seed):
        # single-region top levels whose regions lie in the one above only
        # up to a shared boundary (286 and 400 points)
        d = generate("jittered-lattice", Window(-half, half, -half, half),
                     seed=seed)
        report = verify_axioms(build_covariant_toast(d, N=4, r0=1.0,
                                                     gamma=4.0))
        for name in PASSING:
            assert report[name]["status"] == "pass", (name, report[name])

    def test_top_level_is_single_global_region(self, forest):
        # scale 64 exceeds the window diameter, so one region covers all
        assert len(forest.levels[3].regions) == 1

    def test_every_divisor_point_reached(self, forest):
        for p in forest.divisor.locs:
            assert forest.locate(forest.depth, p) is not None

    def test_locate_and_nearest_match_the_region_loop(self, forest):
        # reference: the regions one at a time in level order; locate takes
        # the first that contains x, nearest the first of least clearance
        def loop_locate(n, x):
            for a, reg in forest.levels[n].regions.items():
                if reg.contains(x):
                    return a
            return None

        def loop_nearest(n, x):
            best = None
            for a, reg in forest.levels[n].regions.items():
                d = float(np.min(np.abs(x - reg.centers) - reg.radii))
                if best is None or d < best[0]:
                    best = (d, a)
            return best[1]

        rng = np.random.default_rng(5)
        scattered = q26(rng.uniform(-16, 16, 200)
                        + 1j * rng.uniform(-16, 16, 200)).tolist()
        for n, lv in enumerate(forest.levels):
            regions = list(lv.regions.values())
            # points exactly on a disk's circle, and halfway between the
            # anchors of consecutive regions
            on_circle = [c + s * r for reg in regions
                         for c, r in reg.disks() for s in (1, -1j)]
            between = [(a + b) / 2 for a, b in zip(lv.anchors, lv.anchors[1:])]
            held = 0
            for x in on_circle + between + scattered:
                want = loop_locate(n, x)
                assert forest.locate(n, x) == want, (n, x)
                assert forest.nearest(n, x) == loop_nearest(n, x), (n, x)
                held += want is not None
            assert held
            if n == 0:
                assert held < len(on_circle) + len(between) + len(scattered)

    def test_repeats_carry_region_unchanged(self, forest):
        found = 0
        for lv in forest.levels[1:]:
            for a, kind in lv.kinds.items():
                if kind != "repeat":
                    continue
                found += 1
                prev = forest.levels[lv.n - 1].regions[a]
                cur = lv.regions[a]
                assert np.array_equal(prev.centers, cur.centers)
                assert np.array_equal(prev.radii, cur.radii)
                assert forest.parents[(lv.n - 1, a)] == (lv.n, a)
        assert found > 0

    def test_absorption_is_literal_disk_inclusion(self, forest):
        for (n, a), kids in forest.children.items():
            if n == 0:
                continue
            parent = forest.levels[n].regions[a]
            pdisks = set(zip(parent.centers.tolist(), parent.radii.tolist()))
            for (m, b) in kids:
                child = forest.levels[m].regions[b]
                cdisks = set(zip(child.centers.tolist(), child.radii.tolist()))
                assert cdisks <= pdisks

    def test_anchors_are_divisor_points(self, forest):
        pts = set(forest.divisor.locs.tolist())
        for lv in forest.levels:
            assert set(lv.anchors) <= pts


class TestCovariance:
    def test_exact_shift_covariance(self):
        d = generate("poisson", WIN16, seed=5, intensity=0.5)
        w = q26(0.37 + 1.2j)
        forest = build_covariant_toast(d, N=2, r0=1.0, gamma=4.0)
        moved = build_covariant_toast(d.translate(w, move_window=True),
                                      N=2, r0=1.0, gamma=4.0)
        reference = forest.translate(w)
        for lv_m, lv_r in zip(moved.levels, reference.levels):
            assert lv_m.anchors == lv_r.anchors
            assert lv_m.kinds == lv_r.kinds
            for a in lv_m.anchors:
                rm, rr = lv_m.regions[a], lv_r.regions[a]
                assert np.array_equal(rm.centers, rr.centers)
                assert np.array_equal(rm.radii, rr.radii)
        assert moved.parents == reference.parents

    def test_anchor_selection_is_relative(self):
        # the marker tiebreak must depend on differences only: a pure
        # translation cannot change which point of a pair wins
        d = Divisor(np.array([0j, 1 + 1j]), np.array([1, 1]), WIN8)
        w = 2.0 + 0.5j
        f0 = build_covariant_toast(d, N=1)
        f1 = build_covariant_toast(d.translate(w, move_window=True), N=1)
        assert f1.levels[1].anchors == tuple(a + w for a in f0.levels[1].anchors)


def reference_markers(locs, scale):
    """The tuple-key marker rule the rank form replaced: per point the
    ascending neighbor distances within NEIGHBOR_SCALE * scale, then the
    descending (re, im) difference vectors, compared as Python tuples;
    competitors are scanned in index order."""
    diff = locs[None, :] - locs[:, None]
    dist = np.abs(diff)
    keys, competitors = [], []
    for i in range(len(locs)):
        nbr = (dist[i] > 0) & (dist[i] <= toast_module.NEIGHBOR_SCALE * scale)
        vecs = sorted(((v.real, v.imag) for v in diff[i][nbr]), reverse=True)
        keys.append((tuple(np.sort(dist[i][nbr]).tolist()), tuple(vecs)))
        competitors.append(np.nonzero((dist[i] > 0) & (dist[i] <= scale))[0])
    out = []
    for i in range(len(locs)):
        best = True
        for j in competitors[i]:
            if keys[i] == keys[j]:
                raise NonFreeInput(f"points {locs[i]} and {locs[j]} are locally "
                                   f"indistinguishable at scale {scale}")
            if keys[j] > keys[i]:
                best = False
                break
        if best:
            out.append(i)
    out.sort(key=lambda i: keys[i], reverse=True)
    return out


def rank_markers(locs, scale):
    return toast_module._markers(toast_module._Grid(locs), scale)


def marker_outcome(markers, locs, scale):
    try:
        return markers(locs, scale)
    except NonFreeInput as exc:
        return str(exc)


class TestMarkerRanks:
    @pytest.mark.parametrize("kind, half, seed", [
        ("poisson", 8, 3), ("poisson", 16, 3), ("poisson", 16, 11),
        ("jittered-lattice", 8.5, 1), ("almost-periodic", 7, 0)])
    def test_rank_form_matches_tuple_keys(self, kind, half, seed):
        win = Window(-half, half, -half, half)
        locs = generate(kind, win, seed=seed, intensity=0.3).locs
        for n in range(5):
            scale = 4.0 ** n
            assert (marker_outcome(rank_markers, locs, scale)
                    == marker_outcome(reference_markers, locs, scale)), n

    def test_row_prefix_ranks_below(self):
        # within 2: point 0 sees (1,), point 1 sees (1, 2), point 3 sees (2,)
        locs = np.array([0j, 1 + 0j, 3 + 0j])
        ranks = toast_module._ranks(toast_module._Grid(locs), 1.0)
        assert ranks[0] < ranks[1] < ranks[2]
        assert reference_markers(locs, 1.0) == rank_markers(locs, 1.0) == [2, 1]

    def test_lattice_patch_tie_names_the_same_pair(self):
        locs = np.array([complex(x, y) for y in range(9) for x in range(9)])
        for markers in (reference_markers, rank_markers):
            with pytest.raises(NonFreeInput) as err:
                markers(locs, 1.0)
            assert str(err.value) == ("points (2+0j) and (3+0j) are locally "
                                      "indistinguishable at scale 1.0")

    # stars whose centres' distance rows read (1, 2, 3, 4, 5, 5.5),
    # (1, 2, 3, 4, 5, 5.75) and (1, 2, 3, 4) at scale 3: the first two tie
    # on more than the first 4 entries, the third ends where they continue
    STAR = q26(np.array([0, 1, 2j, -3, -4j]))
    STARS = {"a": np.append(STAR, [3 + 4j, 5.5j]),
             "b": np.append(STAR, [3 + 4j, -5.75j]),
             # its difference vectors sort above the others': only the
             # distance rows order it below them
             "c": q26(np.array([0, 4, 2j, -3, -1j]))}

    @pytest.mark.parametrize("first, second", ["ab", "ba", "ac", "ca"])
    def test_rows_tying_past_the_first_prefix(self, first, second):
        one, two = self.STARS[first], self.STARS[second]
        locs = np.concatenate([one, 40 + two])
        grid = toast_module._Grid(locs)
        ranks = toast_module._ranks(grid, 3.0)
        rows = grid.rows([0, len(one)], 4, np.inf)
        assert np.array_equal(rows[0], rows[1])
        # a row that ends compares below its continuations: c < a < b
        assert (ranks[0] < ranks[len(one)]) == ("cab".index(first)
                                                < "cab".index(second))
        for scale in (3.0, 1.0, 16.0):
            assert (marker_outcome(rank_markers, locs, scale)
                    == marker_outcome(reference_markers, locs, scale)), scale


def marker_inputs():
    """Point sets for the marker rule: generated windows, lattice patches
    with holes (ties everywhere, often unbreakable) and the STARS pairs."""
    half = st.integers(2, 8)
    generated = st.builds(
        lambda kind, seed, h: generate(kind, Window(-h, h, -h, h), seed=seed,
                                       intensity=0.5).locs,
        st.sampled_from(["poisson", "jittered-lattice", "almost-periodic"]),
        st.integers(0, 2 ** 31 - 1), half)

    def patch(nx, ny, step, holes, w):
        pts = np.array([complex(x, y) * step for y in range(ny)
                        for x in range(nx)])
        keep = np.ones(len(pts), dtype=bool)
        keep[[h % len(pts) for h in holes]] = False
        keep[-1] = True
        return q26(pts[keep] + w)

    coords = st.floats(-40, 40, allow_nan=False)
    patches = st.builds(patch, st.integers(1, 9), st.integers(1, 9),
                        st.sampled_from([0.75, 1.0, 1.5]),
                        st.lists(st.integers(0, 80), max_size=6),
                        st.builds(complex, coords, coords))
    stars = st.builds(
        lambda one, two, gap: np.concatenate([TestMarkerRanks.STARS[one],
                                              gap + TestMarkerRanks.STARS[two]]),
        st.sampled_from("abc"), st.sampled_from("abc"),
        st.sampled_from([7.5, 12.0, 40.0, 17.25j]))
    return st.one_of(generated, patches, stars)


@settings(deadline=None)  # the example count comes from the profile
@given(locs=marker_inputs())
@example(locs=np.array([complex(x, y) for y in range(9) for x in range(9)]))
@example(locs=np.concatenate([TestMarkerRanks.STARS["a"],
                              40 + TestMarkerRanks.STARS["b"]]))
def test_grid_markers_match_the_tuple_keys(locs):
    # markers, their order and every NonFreeInput message, at each level
    # scale of a gamma = 4 toast
    for n in range(5):
        scale = 4.0 ** n
        assert (marker_outcome(rank_markers, locs, scale)
                == marker_outcome(reference_markers, locs, scale)), n


class TestAbsorption:
    """Growth of one region against a forged pool of disjoint regions, as
    every level's pool is."""

    @staticmethod
    def pool(*regions):
        return toast_module._Pool.of(
            (complex(c[0]), CompactRegion(c, [1.0] * len(c))) for c in regions)

    def test_in_order_scan(self):
        pool = self.pool(
            [3.75, 1.875],    # 0: meets D(0, 1) through its second disk
            [10.0],           # 1: out of reach
            [-1.75],          # 2: meets D(0, 1)
            [-1.5j],          # 3: meets D(0, 1), taken by a senior
            [1.875j],         # 4: meets D(0, 1)
            [-4.0])           # 5: 0.25 from region 2, meets nothing
        assert not any(disks_meet(x.centers, x.radii, y.centers, y.radii)
                       for k, (_, x) in enumerate(pool.items)
                       for _, y in pool.items[k + 1:])
        free = np.ones(6, dtype=bool)
        free[3] = False
        region, absorbed, fills, witnessed = toast_module._grow(
            0j, 1.0, pool, free)
        assert absorbed == [0, 2, 4]
        assert region.centers.tolist() == [0j, 3.75, 1.875, -1.75, 1.875j]
        assert region.radii.tolist() == [1.0] * 5
        # each region meets D once and no two regions are adjacent, so the
        # pieces decide it
        assert (fills, witnessed) == (0, False)
        assert free.tolist() == [True] * 3 + [False] + [True] * 2

    def test_region_reached_through_a_fill(self, monkeypatch):
        # the lone disk is pocket-free, so the rule is made undecided for
        # the forged filler to be consulted
        plugs = iter([(2j, 1.0)])
        monkeypatch.setattr(toast_module, "_no_pocket",
                            lambda rel_centers, radii, source: None)
        monkeypatch.setattr(toast_module, "_pocket_filler",
                            lambda rel_centers, radii: next(plugs, None))
        pool = self.pool([3.5j])
        region, absorbed, fills, witnessed = toast_module._grow(
            0j, 1.0, pool, np.ones(1, dtype=bool))
        assert (absorbed, fills, witnessed) == ([0], 1, True)
        assert region.centers.tolist() == [0j, 2j, 3.5j]


class TestPocketFiller:
    """The real filler on forged rings of disks around a pocket."""

    # three unit disks on a triangle of side 1.8: each pair crosses, and
    # the centroid lies 1.8 / sqrt(3) > 1 from every centre
    TRIANGLE = [0j, 1.8 + 0j, complex(q26(0.9 + 0.9j * math.sqrt(3)))]

    def test_three_ring_pocket_is_closed(self):
        c, r = np.array(self.TRIANGLE), np.ones(3)
        assert len(hole_witness(c, r)) == 3
        m, radius = toast_module._pocket_filler(c, r)
        assert m == q26(m) and radius == q26(radius) and radius < 0.5
        c, r = np.append(c, m), np.append(r, radius)
        assert hole_witness(c, r) is None
        assert toast_module._pocket_filler(c, r) is None

    def test_four_ring_is_split_by_its_shortest_chord(self):
        # a rhombus: sides cross, the diagonals (2.5 and 2) do not; the
        # short one, between 1j and -1j, is bridged at its midpoint
        c = np.array([1.25 + 0j, 1j, -1.25 + 0j, -1j])
        r = np.full(4, 0.875)
        assert len(hole_witness(c, r)) == 4
        m, radius = toast_module._pocket_filler(c, r)
        assert (m, radius) == (0j, q26(2 / 2 * 1.05 + 2.0 ** -20))
        c, r = np.append(c, m), np.append(r, radius)
        assert hole_witness(c, r) is None
        assert toast_module._pocket_filler(c, r) is None

    # six disks whose 5-ring hole_witness names again after its shortest
    # chord, between 1.5j and 1.375 - 1j, is bridged
    RING = [1.25 + 0.75j, 0.125 + 2j, 1.5j, -1.875 - 0.75j, 0.375 - 2.5j,
            1.375 - 1j]
    RING_RADII = [1, 0.875, 1.5, 1.75, 1.375, 1.125]

    @pytest.mark.parametrize("w", [0j, q26(3.7 - 12.3j)])
    def test_a_ring_named_again_is_split_at_its_next_chord(self, w):
        c, r = np.array(self.RING) + w, np.array(self.RING_RADII, dtype=float)
        # the other five disks chain into one pool region, which closes the
        # ring through D
        pool = toast_module._Pool.of([(complex(c[1]),
                                       CompactRegion(c[1:], r[1:]))])
        region, absorbed, fills, _ = toast_module._grow(
            complex(c[0]), float(r[0]), pool, np.ones(1, dtype=bool))
        assert absorbed == [0] and fills == 2
        assert hole_witness(region.centers, region.radii) is None
        # the second fill is a new disk, not the first one again
        assert region.disks()[-1] != region.disks()[-2]
        assert region.centers[-2:].tolist() == [w + 0.6875 + 0.25j,
                                                w - 0.25 - 0.875j]

    def test_a_ring_with_every_chord_bridged_is_refused(self, monkeypatch):
        # a rhombus whose two chords already carry their bridging disks,
        # with hole_witness forced to name the ring again
        c = np.array([1.25 + 0j, 1j, -1.25 + 0j, -1j, 0j, 0j])
        r = np.array([0.875] * 4 + [q26(1.05 + 2.0 ** -20),
                                    q26(1.25 * 1.05 + 2.0 ** -20)])
        monkeypatch.setattr(toast_module, "hole_witness",
                            lambda centers, radii: (0, 1, 2, 3))
        assert toast_module._pocket_filler(c[:5], r[:5]) == (0j, r[5])
        with pytest.raises(PocketFillExhausted):
            toast_module._pocket_filler(c, r)

    @pytest.mark.parametrize("pair, third", [
        ((1.0, 1.0), (1.5 + 0j, 1.0)),         # one disk twice
        ((0.5, 1.25), (1.25 + 0j, 1.0)),       # the third meets both
        ((0.5, 1.25), (0.25 + 0.25j, 2.0)),    # the third holds both
    ])
    def test_a_concentric_pair_rings_no_pocket(self, pair, third):
        # circle_crossings gives a concentric pair no points, but no 3-ring
        # holds one: the smaller disk's meet with the third disk lies in the
        # larger disk, so the triangle is filled
        (r1, r2), (c3, r3) = pair, third
        c, r = np.array([0j, 0j, c3]), np.array([r1, r2, r3])
        assert circle_crossings(0j, r1, 0j, r2) == ()
        assert hole_witness(c, r) is None
        assert toast_module._pocket_filler(c, r) is None

    def test_a_ring_beside_a_concentric_pair_is_closed(self):
        # the triangle's pocket with a smaller disk inside its first disk:
        # the ring named leaves the pair apart, and one fill closes it
        c = np.array(self.TRIANGLE + [0j])
        r = np.array([1.0, 1.0, 1.0, 0.5])
        assert sorted(hole_witness(c, r)) == [0, 1, 2]
        m, radius = toast_module._pocket_filler(c, r)
        assert (m, radius) == toast_module._pocket_filler(c[:3], r[:3])
        assert hole_witness(np.append(c, m), np.append(r, radius)) is None

    @pytest.mark.parametrize("w", [q26(3.7 - 12.3j), q26(-25.1 + 0.6j)])
    def test_fills_commute_with_q26_shifts(self, w):
        def grow(shift):
            pool = TestAbsorption.pool(
                *[[c + shift] for c in self.TRIANGLE[1:]])
            return toast_module._grow(self.TRIANGLE[0] + shift, 1.0, pool,
                                      np.ones(2, dtype=bool))

        region, absorbed, fills, witnessed = grow(0j)
        assert absorbed == [0, 1] and fills == 1 and witnessed
        assert hole_witness(region.centers, region.radii) is None
        moved = grow(w)
        assert moved[0].centers.tobytes() == (region.centers + w).tobytes()
        assert moved[0].radii.tobytes() == region.radii.tobytes()
        assert moved[1:] == (absorbed, fills, witnessed)


class TestPocketRule:
    """`_grow` decides "no pocket" from the pieces D ∩ x before any fill,
    and sends every union it cannot decide to hole_witness."""

    # D(0, 1) and seven unit disks on the circle of radius 2.5 about 2.5j,
    # one region: neighbours cross, nothing else meets, and the two ends
    # meet D apart from each other, so D closes a ring of eight around 2.5j
    HORSESHOE = [complex(q26(2.5j + 2.5 * np.exp(1j * np.pi * (k / 4 - 0.5))))
                 for k in range(1, 8)]

    @staticmethod
    def spy(monkeypatch, name, log):
        real = getattr(toast_module, name)

        def wrapper(*args):
            out = real(*args)
            log.append(out)
            return out

        monkeypatch.setattr(toast_module, name, wrapper)

    @staticmethod
    def grow(radius, *regions):
        """_grow of D(0, radius) against a pool of (centres, radii)."""
        pool = toast_module._Pool.of(
            (complex(c[0]), CompactRegion(c, r)) for c, r in regions)
        return toast_module._grow(0j, radius, pool,
                                  np.ones(len(regions), dtype=bool))

    def grow_horseshoe(self):
        return self.grow(1.0, (self.HORSESHOE, [1.0] * 7))

    def test_a_horseshoe_meeting_d_twice_is_undecided(self, monkeypatch):
        rules, witnesses = [], []
        self.spy(monkeypatch, "_no_pocket", rules)
        self.spy(monkeypatch, "hole_witness", witnesses)
        region, absorbed, fills, witnessed = self.grow_horseshoe()
        assert absorbed == [0] and witnessed and fills >= 1
        assert rules == [None]
        assert sorted(witnesses[0]) == list(range(8))
        assert witnesses[-1] is None
        assert hole_witness(region.centers, region.radii) is None

    def test_a_union_after_a_fill_goes_to_hole_witness(self, monkeypatch):
        rules, witnesses = [], []
        self.spy(monkeypatch, "_no_pocket", rules)
        self.spy(monkeypatch, "hole_witness", witnesses)
        fills = self.grow_horseshoe()[2]
        # the rule runs once, on the bare union; every filled union is
        # decided by hole_witness
        assert len(rules) == 1 and len(witnesses) == fills + 1

    TRIANGLE = TestPocketFiller.TRIANGLE
    NEAR = 1 - 2.0 ** -26

    @pytest.mark.parametrize("radius, regions, fills", [
        # one region whose two pieces cross but not on D: a 3-ring
        (1.0, [(TRIANGLE[1:], [1, 1])], 1),
        # the same ring from two regions that meet each other
        (1.0, [(TRIANGLE[1:2], [1]), (TRIANGLE[2:], [1])], 1),
        # two regions 2^-26 apart, far inside tol (which D's radius sets)
        (2.0 ** 14, [([1.5], [1]), ([-0.5], [NEAR])], 0),
        # a near-tangent pair inside one region, which meets D once
        (1.0, [([1.5, 3.5, 2.5 + 0.5j], [1, NEAR, 1])], 0),
    ])
    def test_undecided_unions_go_to_hole_witness(self, monkeypatch, radius,
                                                 regions, fills):
        rules = []
        self.spy(monkeypatch, "_no_pocket", rules)
        out = self.grow(radius, *regions)
        assert out[1] == list(range(len(regions)))
        assert rules == [None] and out[2:] == (fills, True)

    @pytest.mark.parametrize("radius, regions", [
        (1.0, []),                                          # a lone disk
        (1.0, [([1.5], [1]), ([-1.5], [1]), ([1.5j, 2.5j], [1, 1])]),
        (1.0, [([1.5, 1.5 + 0.8j], [1, 1])]),     # pieces meet on D
        (4.0, [([1.5, 1.5 + 0.8j], [1, 1])]),     # pieces inside D
    ])
    def test_pocket_free_unions_skip_hole_witness(self, monkeypatch, radius,
                                                  regions):
        monkeypatch.setattr(toast_module, "hole_witness", None)
        out = self.grow(radius, *regions)
        assert out[1] == list(range(len(regions))) and out[2:] == (0, False)


def _rule_inputs():
    return st.tuples(st.sampled_from(["poisson", "jittered-lattice"]),
                     st.integers(0, 2 ** 31 - 1), st.integers(6, 12))


@settings(deadline=None)  # the example count comes from the profile
@given(case=_rule_inputs())
def test_pocket_rule_agrees_with_hole_witness(case):
    # every union the rule calls pocket-free is one hole_witness passes
    kind, seed, half = case
    d = generate(kind, Window(-half, half, -half, half), seed=seed,
                 intensity=0.5)
    rule = toast_module._no_pocket

    def checked(rel_centers, radii, source):
        verdict = rule(rel_centers, radii, source)
        assert verdict is None or hole_witness(rel_centers, radii) is None
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toast_module, "_no_pocket", checked)
        try:
            build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)
        except NonFreeInput:
            pass


@pytest.mark.parametrize("kind, half, seed, intensity, filled", [
    ("poisson", 8, 3, 0.2, False), ("poisson", 16, 3, 0.2, False),
    ("poisson", 32, 1, 0.2, False),
    ("jittered-lattice", 8.5, 1252010711, 1.0, False),
    ("poisson", 16, 0, 0.5, True)])
def test_the_rule_changes_no_toast(monkeypatch, kind, half, seed, intensity,
                                   filled):
    # the same toast when every union goes to hole_witness
    d = generate(kind, Window(-half, half, -half, half), seed=seed,
                 intensity=intensity)
    forest = build_covariant_toast(d, N=4, r0=1.0, gamma=4.0)
    monkeypatch.setattr(toast_module, "_no_pocket", lambda *args: None)
    witnessed = build_covariant_toast(d, N=4, r0=1.0, gamma=4.0)
    for lv, lw in zip(forest.levels, witnessed.levels):
        assert lv.anchors == lw.anchors and lv.kinds == lw.kinds
        for a in lv.anchors:
            rv, rw = lv.regions[a], lw.regions[a]
            assert rv.centers.tobytes() == rw.centers.tobytes()
            assert rv.radii.tobytes() == rw.radii.tobytes()
        plain = dict(lv.counts, witnessed=None)
        assert plain == dict(lw.counts, witnessed=None)
        assert lv.counts["witnessed"] <= lw.counts["witnessed"]
    assert list(forest.parents.items()) == list(witnessed.parents.items())
    assert list(forest.children.items()) == list(witnessed.children.items())
    assert any(lv.counts["fills"] for lv in forest.levels) == filled


def reference_grow(a, radius, pool, free):
    """The multi-pass `_grow` the one-pass form replaced. Each pass scans
    the pool in index order and adjoins every region that meets the union
    as it stands (the reach test first, then `disks_meet`), so a region
    absorbed early in a pass can reach a later one; passes repeat until one
    adjoins nothing, and only then is a pocket filled."""
    centers = np.array([a], dtype=complex)
    radii = np.array([radius], dtype=float)
    source = np.array([-1])
    absorbed, fills, witnessed = [], 0, False
    avail = free.copy()
    # each pool region's anchor and its reach max |c - anchor| + r about it
    gap = np.abs(a - np.array([pa for pa, _ in pool.items], dtype=complex))
    pool_reach = np.array([float(np.max(np.abs(preg.centers - pa)
                                        + preg.radii))
                           for pa, preg in pool.items])
    reach = radius
    start = 0
    while True:
        near = avail[start:] & (gap[start:] <= (reach + pool_reach[start:])
                                * (1 + toast_module.REACH_SLACK))
        hit = next((idx for idx in np.flatnonzero(near) + start
                    if disks_meet(centers, radii, pool.items[idx][1].centers,
                                  pool.items[idx][1].radii)), None)
        if hit is not None:
            preg = pool.items[hit][1]
            centers = np.concatenate((centers, preg.centers))
            radii = np.concatenate((radii, preg.radii))
            source = np.concatenate((source, np.full(len(preg), hit)))
            absorbed.append(int(hit))
            avail[hit] = False
            reach = max(reach, float(np.max(np.abs(preg.centers - a)
                                            + preg.radii)))
            start = hit + 1
        elif start:
            start = 0
        else:
            rel = centers - a
            if not fills and toast_module._no_pocket(rel, radii, source):
                break
            witnessed = True
            plug = toast_module._pocket_filler(rel, radii)
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


def pool_is_disjoint(pool):
    """No two disks of different pool regions meet, by the test of
    `disks_meet`."""
    c, r = pool.centers, pool.radii
    meet = np.abs(c[:, None] - c[None, :]) <= r[:, None] + r[None, :]
    return not np.any(meet & (pool.owner[:, None] != pool.owner[None, :]))


@settings(deadline=None)  # the example count comes from the profile
@given(case=_rule_inputs())
@example(case=("poisson", 0, 16))  # 515 points, with a pocket fill
def test_grow_matches_the_multi_pass_scan(case):
    kind, seed, half = case
    d = generate(kind, Window(-half, half, -half, half), seed=seed,
                 intensity=0.5)
    grow, pools, fills = toast_module._grow, {}, []

    def checked(a, radius, pool, free):
        out = grow(a, radius, pool, free)
        ref = reference_grow(a, radius, pool, free)
        assert out[1:] == ref[1:]
        assert out[0].centers.tobytes() == ref[0].centers.tobytes()
        assert out[0].radii.tobytes() == ref[0].radii.tobytes()
        if id(pool) not in pools:
            pools[id(pool)] = pool_is_disjoint(pool)
        fills.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toast_module, "_grow", checked)
        try:
            build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)
        except NonFreeInput:
            return
    assert fills and all(pools.values())
    if case == ("poisson", 0, 16):
        assert any(fills)


def toast_digest(forest):
    """sha256 over each level's kinds (anchors in order) and counts, its
    regions' centre and radius bytes, and the parent links in order."""
    h = hashlib.sha256()
    for lv in forest.levels:
        h.update(repr((lv.n, list(lv.kinds.items()),
                       sorted(lv.counts.items()))).encode())
        for reg in lv.regions.values():
            h.update(reg.centers.tobytes())
            h.update(reg.radii.tobytes())
    h.update(repr(list(forest.parents.items())).encode())
    return h.hexdigest()


# toasts with N=4, r0=1, gamma=4, keyed by (kind, window, seed, intensity),
# a window given as a half side or as (xmin, xmax, ymin, ymax). The Poisson
# ones were pinned as the multi-pass `_grow` built them (the last has a
# pocket fill); the lattice-like ones before the grid replaced the n x n
# point tables. Their distance rows tie: 221 of the 225 points of the
# symmetric almost-periodic window at level 0 and 210 at every level above,
# and 8 and 2 points at level 1 in the two shifted windows
TOAST_DIGESTS = {
    ("poisson", 8, 3, 0.2):
        "0a0b8cb976f0d7e60ba32113a6335c58d4bf6ba2674ad82213a155e76e034f9f",
    ("poisson", 16, 3, 0.2):
        "6ffe17fd70187658d91da650f14999122899ceb0e9d2e84f3a18e49652768ce0",
    ("poisson", 32, 3, 0.2):
        "67ee95580f5d2c5b69157319c5a831e090b1455707ef5a5deaa60ebb5de125af",
    ("poisson", 16, 0, 0.5):
        "0b9b12916dff2095dbc8c39ff63873e628dbd2b782a32ce80c3876fa18331927",
    ("jittered-lattice", 8.5, 1, 0.3):
        "45cca39a34bb0eefbce8cb6bd18f9b35508fbcd311242a5604eec2f3e3af3156",
    ("almost-periodic", 7, 0, 0.3):
        "5569938b5fd58f3f06692ed2259f0fa4ebd18eb75355122a1610ff0b3d9910a6",
    ("almost-periodic", (1.75, 15.75, -9, 5), 0, 0.3):
        "80699be3ce82439594e9e05786b1de034a23b7beb330c3f961cdc4fc96d024cd",
    ("almost-periodic", (2.5, 16.5, 3, 17), 0, 0.3):
        "abd3448bb988e1018958651f134fc01d634dea97e0326fff79ac168ee3172d26",
}


@pytest.mark.parametrize("kind, window, seed, intensity", list(TOAST_DIGESTS))
def test_toast_dumps_are_pinned(kind, window, seed, intensity):
    bounds = window if isinstance(window, tuple) else (-window, window) * 2
    d = generate(kind, Window(*bounds), seed=seed, intensity=intensity)
    forest = build_covariant_toast(d, N=4, r0=1.0, gamma=4.0)
    assert toast_digest(forest) == TOAST_DIGESTS[kind, window, seed,
                                                  intensity]


def test_toast_memory_is_below_the_point_tables():
    # 804 points: the two n x n float tables and the rival matrices peaked
    # at 16.6 MB, and the dense nerve of the largest union (391 disks) at
    # 4.3 MB; with neither the whole toast peaks at about 1.2 MB
    d = generate("poisson", Window(-32, 32, -32, 32), seed=3, intensity=0.2)
    assert len(d) == 804
    forest, peak = traced_peak(
        lambda: build_covariant_toast(d, N=4, r0=1.0, gamma=4.0))
    assert forest.depth == 4
    assert peak < 2.5e6


def assert_level0_is_spaced_disks(forest):
    """The facts level 0 is built on: its regions are the disks D(a, r0)
    of anchors at least 2.01 r0 apart, none ceded or grown."""
    lv, r0 = forest.levels[0], q26(forest.r0)
    a = np.array(lv.anchors)
    gaps = np.abs(a[:, None] - a[None, :]) + np.diag(np.full(len(a), np.inf))
    assert gaps.min() >= (2 + toast_module.GAP_FRACTION) * r0
    assert set(lv.kinds.values()) == {"genuine"}
    for anchor, region in lv.regions.items():
        assert region.disks() == [(anchor, r0)]
    for tally in ("ceded", "absorptions", "fills", "witnessed"):
        assert lv.counts[tally] == 0
    assert lv.counts["markers"] - lv.counts["skipped"] == len(a)


class TestBaseLevel:
    """A level-0 region is its marker's disk: the level has no pool to
    absorb, and kept markers lie the spacing apart, so nothing cedes."""

    @pytest.mark.parametrize("kind, window, seed, intensity",
                             list(TOAST_DIGESTS))
    def test_pinned_toasts(self, kind, window, seed, intensity):
        bounds = window if isinstance(window, tuple) else (-window, window) * 2
        d = generate(kind, Window(*bounds), seed=seed, intensity=intensity)
        assert_level0_is_spaced_disks(
            build_covariant_toast(d, N=1, r0=1.0, gamma=4.0))

    @settings(deadline=None)  # the example count comes from the profile
    @given(case=_rule_inputs(), r0=st.sampled_from([0.75, 1.0, 1.5]))
    def test_generated_toasts(self, case, r0):
        kind, seed, half = case
        d = generate(kind, Window(-half, half, -half, half), seed=seed,
                     intensity=0.5)
        try:
            forest = build_covariant_toast(d, N=0, r0=r0, gamma=4.0)
        except NonFreeInput:
            return
        assert_level0_is_spaced_disks(forest)

    def test_level0_grows_no_union(self, poisson_forest, monkeypatch):
        monkeypatch.setattr(toast_module, "_grow", None)
        forest = build_covariant_toast(poisson_forest.divisor, N=0, r0=1.0,
                                       gamma=4.0)
        assert forest.levels[0].regions.keys() == \
            poisson_forest.levels[0].regions.keys()


# ---------------------------------------------------------------------------
# the sparse nerve against the dense tables it replaced


def dense_nerve(c, r):
    """The dense form of `core._nerve`: (dist, tol, adj) as n x n tables."""
    dist = np.abs(c[:, None] - c[None, :])
    tol = 1e-9 * max(1.0, float(np.max(r)), float(np.max(dist)))
    adj = dist <= r[:, None] + r[None, :] + tol
    np.fill_diagonal(adj, False)
    return dist, tol, adj


def reference_no_pocket(rel_centers, radii, source):
    """`toast._no_pocket` as it read the dense tables."""
    c, r, src = rel_centers, radii, source
    if len(c) <= 2:
        return True
    dist, tol, adj = dense_nerve(c, r)
    gap = dist - (r[:, None] + r[None, :])
    np.fill_diagonal(gap, np.inf)
    if np.any(np.abs(gap) <= tol + 2.0 ** -24 * max(1.0, float(np.max(r)))):
        return None
    if np.any(adj[1:, 1:] & (src[1:, None] != src[None, 1:])):
        return None
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
            if ri == rj or need_meet and not toast_module._disks_triple_meet(
                    c[0], r[0], c[x], r[x], c[y], r[y], tol):
                continue
            root[ri] = rj
            left -= 1
            if not left:
                return True
    return None


@st.composite
def disk_families(draw):
    """(centres, radii, sources) of 3 to 30 disks on the 2^-26 lattice, disk
    0 playing D: mixed radii of 1, 4, 16 and 64 beside fill-like ones,
    disks placed within the near-tangent guard of tangency, concentric
    pairs, or a far disk whose distance sets tol. The sources are the
    components of the other disks, or drawn at random."""
    kind = draw(st.sampled_from(["mixed", "tangent", "concentric", "far"]))
    n = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "mixed":
        r = rng.choice([1.0, 4.0, 16.0, 64.0, 0.3, 2.7], n)
        c = rng.uniform(-40, 40, n) + 1j * rng.uniform(-40, 40, n)
    elif kind == "tangent":
        # each disk near tangency to an earlier one, off by a step inside
        # or just outside tol + 2^-24 (the guard), or by nothing
        c, r = [0j], [float(rng.choice([1.0, 4.0]))]
        for _ in range(n - 1):
            b = int(rng.integers(len(c)))
            rr = float(rng.choice([1.0, 0.5, 4.0]))
            off = float(rng.choice([0.0, 2.0 ** -26, -2.0 ** -26, 2.0 ** -23,
                                    -2.0 ** -23, 1e-9, 2.0 ** -20, 0.1]))
            c.append(c[b] + (r[b] + rr + off) * np.exp(
                2j * np.pi * rng.integers(0, 16) / 16))
            r.append(rr)
    elif kind == "concentric":
        c = rng.uniform(-4, 4, n) + 1j * rng.uniform(-4, 4, n)
        c[1::2] = c[0:n - 1:2]
        r = rng.uniform(0.3, 2.5, n)
    else:
        c = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)
        c[-1] = complex(rng.uniform(100, 5000), rng.uniform(-5000, 5000))
        r = rng.uniform(0.5, 1.5, n)
    c, r = q26(np.asarray(c, dtype=complex)), q26(np.asarray(r, dtype=float))
    src = np.full(n, -1)
    if draw(st.booleans()):
        src[1:] = rng.integers(0, 3, n - 1)
    else:
        _, _, adj = dense_nerve(c, r)
        for k in range(1, n):
            stack = [k] if src[k] < 0 else []
            while stack:
                u = stack.pop()
                if src[u] < 0:
                    src[u] = k
                    stack += [v for v in np.flatnonzero(adj[u]) if v > 0]
    return c, r, src


class TestSparseNerve:
    """`core._nerve` lists the pairs that can meet instead of building n x
    n tables; both pocket tests read it and must decide as before."""

    @settings(deadline=None)  # the example count comes from the profile
    @given(family=disk_families())
    def test_pairs_are_the_dense_tables(self, family):
        # in whole chunks, and in chunks of about 5 candidates; at pad 0,
        # `_disk_pairs` lists the pairs of the dense disks_meet test
        c, r, _ = family
        guard = 2.0 ** -24 * max(1.0, float(np.max(r)))
        d_dist, d_tol, d_adj = dense_nerve(c, r)
        gap = d_dist - (r[:, None] + r[None, :])
        want = np.nonzero(np.triu(d_adj | (gap <= d_tol + guard), 1))
        meet = np.nonzero(np.triu(d_dist <= r[:, None] + r[None, :], 1))
        with pytest.MonkeyPatch.context() as mp:
            for chunk in (core_module.NERVE_CHUNK, 5):
                mp.setattr(core_module, "NERVE_CHUNK", chunk)
                i, j, dist, adj, tol = _nerve(c, r, guard)
                assert tol == d_tol
                assert np.array_equal(i, want[0])
                assert np.array_equal(j, want[1])
                assert dist.tobytes() == d_dist[i, j].tobytes()
                assert np.array_equal(adj, d_adj[i, j])
                i, j, dist = _disk_pairs(c, r, 0.0)
                assert np.array_equal(i, meet[0])
                assert np.array_equal(j, meet[1])
                assert dist.tobytes() == d_dist[i, j].tobytes()

    @settings(deadline=None)  # the example count comes from the profile
    @given(family=disk_families())
    def test_verdicts_and_witnesses_match_the_dense_form(self, family):
        c, r, src = family
        assert toast_module._no_pocket(c - c[0], r, src) == \
            reference_no_pocket(c - c[0], r, src)
        assert hole_witness(c, r) == loop_hole_witness(c, r)

    @settings(deadline=None)  # the example count comes from the profile
    @given(case=_rule_inputs())
    @example(case=("poisson", 0, 16))  # 515 points, with a pocket fill
    def test_every_toast_union_gets_the_dense_verdict(self, case):
        kind, seed, half = case
        d = generate(kind, Window(-half, half, -half, half), seed=seed,
                     intensity=0.5)
        rule = toast_module._no_pocket

        def checked(rel_centers, radii, source):
            verdict = rule(rel_centers, radii, source)
            assert verdict == reference_no_pocket(rel_centers, radii, source)
            return verdict

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(toast_module, "_no_pocket", checked)
            try:
                build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)
            except NonFreeInput:
                pass

    def test_pocket_tests_stay_below_the_dense_tables(self):
        # D(0.3 + 0.2j, 3) over a 40 x 40 lattice of unit disks 1.9 apart,
        # 1,601 disks: the dense tables peaked at 61.5 MB in hole_witness
        # and 66.6 MB in _no_pocket
        xs = 1.9 * (np.arange(40) - 19.5)
        c = q26(np.concatenate(([0.3 + 0.2j],
                                (xs[None, :] + 1j * xs[:, None]).ravel())))
        r = np.concatenate(([3.0], np.ones(1600)))
        src = np.concatenate(([-1], np.zeros(1600, dtype=int)))
        verdict, peak = traced_peak(
            lambda: toast_module._no_pocket(c, r, src))
        assert verdict is None and peak < 8e6
        witness, peak = traced_peak(lambda: hole_witness(c, r))
        assert len(witness) == 3 and peak < 8e6


def test_few_unions_reach_hole_witness():
    # every one of the ~400 unions of this toast went to hole_witness
    # before the rule
    d = generate("poisson", Window(-32, 32, -32, 32), seed=1, intensity=0.2)
    forest = build_covariant_toast(d, N=4, r0=1.0, gamma=4.0)
    assert sum(lv.counts["witnessed"] for lv in forest.levels) <= 16


def test_building_calls_no_region_intersects(poisson_forest, monkeypatch):
    # neither the build nor verify_axioms calls CompactRegion.intersects:
    # both meet disks through array tests (core.disks_meet, the pool's
    # array test and core._disk_pairs), not region by region
    calls = []
    intersects = CompactRegion.intersects

    def counted(self, other):
        calls.append(other)
        return intersects(self, other)

    monkeypatch.setattr(CompactRegion, "intersects", counted)
    forest = build_covariant_toast(poisson_forest.divisor, N=3, r0=1.0,
                                   gamma=4.0)
    assert calls == []
    verify_axioms(forest)
    assert calls == []


class TestCounts:
    def test_tallies_match_the_levels(self, poisson_forest, monkeypatch):
        # one _grow call per marker not skipped, level by level from level
        # 1 on (a level-0 region is its marker's disk, made without _grow);
        # witnessed counts those that reached hole_witness
        reached, calls = [False], []
        filler, grow = toast_module._pocket_filler, toast_module._grow

        def spy_filler(*args):
            reached[0] = True
            return filler(*args)

        def spy_grow(*args):
            reached[0] = False
            out = grow(*args)
            calls.append(reached[0])
            return out

        monkeypatch.setattr(toast_module, "_pocket_filler", spy_filler)
        monkeypatch.setattr(toast_module, "_grow", spy_grow)
        rebuilt = build_covariant_toast(poisson_forest.divisor, N=3, r0=1.0,
                                        gamma=4.0)
        for lv, lr in zip(poisson_forest.levels, rebuilt.levels):
            c = lv.counts
            assert lr.counts == c
            genuine = [a for a, k in lv.kinds.items() if k == "genuine"]
            assert len(genuine) == c["markers"] - c["skipped"] - c["ceded"]
            assert c["absorptions"] == sum(
                len(poisson_forest.children.get((lv.n, a), ())) for a in genuine)
            grown = c["markers"] - c["skipped"] if lv.n else 0
            assert c["witnessed"] == sum(calls[:grown])
            del calls[:grown]
        assert not calls
        assert sum(lv.counts["skipped"] + lv.counts["ceded"]
                   for lv in poisson_forest.levels) > 0


def shift_inputs():
    kinds = st.sampled_from(["poisson", "jittered-lattice"])
    coords = st.floats(-40, 40, allow_nan=False)
    return st.tuples(kinds, st.integers(0, 2 ** 31 - 1),
                     st.builds(lambda x, y: complex(q26(complex(x, y))),
                               coords, coords))


@settings(max_examples=6, deadline=None)
@given(case=shift_inputs())
# 15 free points that were refused as singly periodic
@example(case=("poisson", 202, complex(q26(3.7 - 12.3j))))
def test_build_commutes_with_q26_shifts(case):
    kind, seed, w = case
    d = generate(kind, Window(-3, 3, -3, 3), seed=seed, intensity=0.5)
    forest = build_covariant_toast(d, N=2, r0=1.0, gamma=4.0)
    moved = build_covariant_toast(d.translate(w, move_window=True),
                                  N=2, r0=1.0, gamma=4.0)
    reference = forest.translate(w)
    for lv_m, lv_r in zip(moved.levels, reference.levels):
        assert lv_m.anchors == lv_r.anchors
        assert lv_m.kinds == lv_r.kinds
        assert lv_m.counts == lv_r.counts
        for a in lv_m.anchors:
            rm, rr = lv_m.regions[a], lv_r.regions[a]
            assert rm.centers.tobytes() == rr.centers.tobytes()
            assert rm.radii.tobytes() == rr.radii.tobytes()
    assert list(moved.parents.items()) == list(reference.parents.items())
    assert list(moved.children.items()) == list(reference.children.items())
    report = verify_axioms(moved)
    for name in PASSING:
        assert report[name]["status"] == "pass", (name, report[name])


class TestRejections:
    def test_lattice_is_non_free(self):
        d = generate("periodic-lattice", WIN8, spacing=1.0)
        with pytest.raises(NonFreeInput):
            build_covariant_toast(d, N=1)

    def test_window_too_small(self):
        d = Divisor(np.array([0.5 + 0.5j]), np.array([1]), Window(0, 1.5, 0, 12))
        with pytest.raises(WindowTooSmall):
            build_covariant_toast(d, N=1, r0=1.0)

    def test_bad_parameters(self):
        d = Divisor(np.array([0j]), np.array([1]), WIN8)
        with pytest.raises(ValueError):
            build_covariant_toast(d, N=-1)
        with pytest.raises(ValueError):
            build_covariant_toast(d, N=1, gamma=1.0)

    @pytest.mark.parametrize("r0, gamma", [
        (math.nan, 4.0), (math.inf, 4.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_parameters(self, r0, gamma):
        # a NaN r0 once built regions of NaN radii, and a NaN gamma built
        d = generate("poisson", WIN8, seed=3, intensity=0.2)
        with pytest.raises(ValueError, match="finite"):
            build_covariant_toast(d, N=2, r0=r0, gamma=gamma)

    @pytest.mark.parametrize("r0, gamma, N", [
        (1.0, 1e300, 3), (1.0, 4, 600), (1.0, 10 ** 400, 2),
        (10 ** 400, 4.0, 2)], ids=["gamma-1e300", "N-600", "gamma-int-1e400",
                                   "r0-int-1e400"])
    def test_a_top_scale_that_overflows_is_refused_up_front(
            self, monkeypatch, r0, gamma, N):
        # gamma ** n raised OverflowError, for N=600 only after 7.7 s of
        # building levels, and an integer r0 or gamma beyond the float
        # range raised it from the check ("int too large to convert to
        # float")
        def build(*args):
            raise AssertionError("a level was started")
        monkeypatch.setattr(toast_module, "detect_stabilizer", build)
        monkeypatch.setattr(toast_module, "_Grid", build)
        d = generate("poisson", WIN8, seed=3, intensity=0.2)
        with pytest.raises(ValueError, match=re.escape(
                f"not r0={r0!r}, gamma={gamma!r}, N={N}")):
            build_covariant_toast(d, N=N, r0=r0, gamma=gamma)

    def test_endless_pockets_are_a_typed_error(self, monkeypatch):
        # a filler that never closes the pocket exhausts the fill budget;
        # the rule is made undecided so that the level-1 union (D and the
        # level-0 disk it absorbs) reaches it: level 0 grows no union
        monkeypatch.setattr(toast_module, "_no_pocket",
                            lambda rel_centers, radii, source: None)
        monkeypatch.setattr(toast_module, "_pocket_filler",
                            lambda rel_centers, radii: (0j, 0.25))
        d = Divisor(np.array([0.5 + 0.5j]), np.array([1]), WIN8)
        with pytest.raises(PocketFillExhausted) as err:
            build_covariant_toast(d, N=1)
        assert isinstance(err.value, EquiliftError)
        assert "after 64 fills" in str(err.value)


def test_children_and_u0_derive_from_parents_and_r0():
    disk = CompactRegion.disk
    lv0 = ToastLevel(0, {0j: disk(0j, 1.0), 3 + 0j: disk(3 + 0j, 1.0),
                         9 + 0j: disk(9 + 0j, 1.0)},
                     dict.fromkeys((0j, 3 + 0j, 9 + 0j), "genuine"))
    lv1 = ToastLevel(1, {3 + 0j: disk(1.5 + 0j, 3.0),
                         9 + 0j: lv0.regions[9 + 0j]},
                     {3 + 0j: "genuine", 9 + 0j: "repeat"})
    # absorption order, a repeat's self-link and a link to no region
    parents = {(0, 3 + 0j): (1, 3 + 0j), (0, 0j): (1, 3 + 0j),
               (0, 9 + 0j): (1, 9 + 0j), (0, 5j): (1, 5j)}
    d = Divisor(np.array([0j, 3, 9]), np.array([1, 1, 1]), WIN8)
    forest = ToastForest(levels=(lv0, lv1), parents=parents, divisor=d,
                         r0=1.5, gamma=4.0)
    want = [((0, 0j), ()), ((0, 3 + 0j), ()), ((0, 9 + 0j), ()),
            ((1, 3 + 0j), ((0, 3 + 0j), (0, 0j))),
            ((1, 9 + 0j), ((0, 9 + 0j),))]
    assert list(forest.children.items()) == want
    assert forest.u0 == 0.75
    w = 0.5 - 0.25j
    moved = forest.translate(w)
    assert list(moved.children.items()) == [
        ((n, a + w), tuple((m, b + w) for m, b in kids))
        for (n, a), kids in want]
    assert moved.u0 == forest.u0
    with pytest.raises(TypeError):
        ToastForest(levels=(lv0,), parents={}, children={}, divisor=d,
                    r0=1.0, gamma=4.0)


class TestViolationDetection:
    """verify_axioms must catch hand-built broken hierarchies with witnesses."""

    @staticmethod
    def forged(levels, parents=None):
        d = Divisor(np.array([0j]), np.array([1]), WIN8)
        return ToastForest(levels=tuple(levels), parents=parents or {},
                           divisor=d, r0=1.0, gamma=4.0)

    def test_same_level_overlap_detected(self):
        lv = ToastLevel(0, {0j: CompactRegion.disk(0j, 1.0),
                            0.5 + 0j: CompactRegion.disk(0.5 + 0j, 1.0)},
                        {0j: "genuine", 0.5 + 0j: "genuine"})
        report = verify_axioms(self.forged([lv]))
        assert report["same-level-disjoint"]["status"] == "fail"
        witness = report["same-level-disjoint"]["witnesses"][0]
        assert witness[0] == 0 and {witness[1], witness[2]} == {0j, 0.5 + 0j}

    def test_cross_level_straddle_detected(self):
        lv0 = ToastLevel(0, {0j: CompactRegion.disk(0j, 1.0)}, {0j: "genuine"})
        lv1 = ToastLevel(1, {1.5 + 0j: CompactRegion.disk(1.5 + 0j, 1.0)},
                         {1.5 + 0j: "genuine"})
        report = verify_axioms(self.forged(
            [lv0, lv1], parents={(0, 0j): (1, 1.5 + 0j)}))
        assert report["cross-level-nested"]["status"] == "fail"
        m, la, n, ua = report["cross-level-nested"]["witnesses"][0]
        assert (m, n) == (0, 1) and la == 0j and ua == 1.5 + 0j

    def test_missing_parent_detected(self):
        lv0 = ToastLevel(0, {0j: CompactRegion.disk(0j, 1.0)}, {0j: "genuine"})
        lv1 = ToastLevel(1, {0j: CompactRegion.disk(0j, 4.0)}, {0j: "genuine"})
        report = verify_axioms(self.forged([lv0, lv1]))
        assert report["parent-exists"]["status"] == "fail"

    def test_separate_top_regions_leave_directed_undetermined(self):
        lv = ToastLevel(0, {-3 + 0j: CompactRegion.disk(-3 + 0j, 1.0),
                            3 + 0j: CompactRegion.disk(3 + 0j, 1.0)},
                        {-3 + 0j: "genuine", 3 + 0j: "genuine"})
        report = verify_axioms(self.forged([lv]))
        assert report["directed"] == {
            "status": "undetermined (insufficient levels)",
            "witnesses": [((0, -3 + 0j), (0, 3 + 0j))]}

    def test_ancestor_not_containing_detected(self):
        lv0 = ToastLevel(0, {0j: CompactRegion.disk(0j, 1.0)}, {0j: "genuine"})
        lv1 = ToastLevel(1, {0j: CompactRegion.disk(0j, 4.0)}, {0j: "genuine"})
        lv2 = ToastLevel(2, {0j: CompactRegion.disk(0.5 + 0j, 3.6)},
                         {0j: "genuine"})
        report = verify_axioms(self.forged(
            [lv0, lv1, lv2], parents={(0, 0j): (1, 0j), (1, 0j): (2, 0j)}))
        assert report["directed"]["status"] == "fail"
        assert report["directed"]["witnesses"][0] == ((1, 0j), (2, 0j))

    def test_anchor_disk_violation_detected(self):
        # region anchored at 0 but positioned elsewhere misses D(0, u0)
        lv = ToastLevel(0, {0j: CompactRegion.disk(5 + 0j, 1.0)}, {0j: "genuine"})
        report = verify_axioms(self.forged([lv]))
        assert report["anchor-disk"]["status"] == "fail"

    @pytest.mark.parametrize("caught, kids", [
        # overlapping children inside the parent, each holding its anchor disk
        ("same-level-disjoint",
         [(q26(0.4 * np.exp(1j * np.pi * k / 3)), 0.5) for k in range(6)]),
        # disjoint children holding their anchor disks, outside the parent
        ("parent-exists", [(3 + 1.25 * k + 0j, 0.5) for k in range(6)]),
        # disjoint children inside the parent, too small for their anchor disks
        ("anchor-disk",
         [(q26(0.5 * np.exp(1j * np.pi * k / 3)), 0.1) for k in range(6)]),
    ])
    def test_too_many_children_are_caught_without_a_count_bound(self, caught,
                                                                kids):
        # six children exceed a count bounded by area(parent) / (pi u0^2),
        # as disjoint children inside their parent, each holding its anchor
        # disk, are; so one of those three axioms must fail
        parent = CompactRegion.disk(0j, 1.0)
        lv0 = ToastLevel(0, {a: CompactRegion.disk(a, r) for a, r in kids},
                         {a: "genuine" for a, _ in kids})
        lv1 = ToastLevel(1, {0j: parent}, {0j: "genuine"})
        forest = self.forged([lv0, lv1], {(0, a): (1, 0j) for a, _ in kids})
        u0 = forest.u0
        bound = parent.area(h=u0 / 4) * 1.1 / (math.pi * u0 ** 2) + 1
        assert len(kids) > bound
        report = verify_axioms(forest)
        assert "child-bound" not in report
        assert report[caught]["status"] == "fail"

    def test_top_cover_violation_detected(self):
        lv = ToastLevel(0, {0j: CompactRegion.disk(0j, 1.0)}, {0j: "genuine"})
        report = verify_axioms(self.forged([lv]))
        assert report["top-cover"]["status"] == "fail"
        assert len(report["top-cover"]["witnesses"]) > 0


def all_pairs_witnesses(forest):
    """The all-pairs loops, one `intersects` test per region pair:
    witnesses of "same-level-disjoint" and "cross-level-nested", in loop
    order."""
    same, cross = [], []
    for lv in forest.levels:
        items = list(lv.regions.items())
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if items[i][1].intersects(items[j][1]):
                    same.append((lv.n, items[i][0], items[j][0]))
    for m in range(forest.depth + 1):
        for n in range(m + 1, forest.depth + 1):
            for la, lreg in forest.levels[m].regions.items():
                for ua, ureg in forest.levels[n].regions.items():
                    if (lreg.intersects(ureg)
                            and not toast_module._contained(lreg, ureg)):
                        cross.append((m, la, n, ua))
    return same, cross


def forged_chain(rng, start, steps, radius):
    """A connected region: a walk of disks, each meeting the one before."""
    centers = [start]
    for _ in range(steps):
        centers.append(centers[-1] + radius * 1.5 * np.exp(
            2j * np.pi * rng.uniform()))
    return CompactRegion(q26(np.array(centers)), [radius] * len(centers))


class TestPrunedVerifier:
    """The verifier's pruned pair loops and stamped cover against the dense
    forms they replaced, on forged forests."""

    @staticmethod
    def forged(levels, window=WIN8):
        d = Divisor(np.array([0j]), np.array([1]), window)
        return ToastForest(levels=tuple(levels), parents={}, divisor=d,
                           r0=1.0, gamma=4.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_pair_witnesses_match_all_pairs(self, seed):
        # regions keyed away from their first disk, long walks whose reach
        # far exceeds their size near the key, and repeats of one object
        rng = np.random.default_rng([seed, 7])
        levels, prev = [], []
        for n, (count, radius) in enumerate(((14, 0.5), (6, 1.25), (3, 2.5))):
            regions = {}
            for _ in range(count):
                start = complex(*rng.uniform(-7, 7, 2))
                reg = forged_chain(rng, start, int(rng.integers(0, 6)), radius)
                regions[q26(start + complex(*rng.uniform(-1, 1, 2)))] = reg
            for a, reg in prev[:3]:
                regions[a] = reg
            levels.append(ToastLevel(n, regions, {a: "genuine" for a in regions}))
            prev = list(regions.items())
        forest = self.forged(levels)
        report = verify_axioms(forest)
        same, cross = all_pairs_witnesses(forest)
        assert len(same) > 2 and len(cross) > 2
        assert report["same-level-disjoint"]["witnesses"] == same[:8]
        assert report["cross-level-nested"]["witnesses"] == cross[:8]

    def test_overlaps_and_straddles_in_loop_order(self):
        lv0 = ToastLevel(0, {
            0j: CompactRegion([0j, 1.5 + 0j], [1.0, 1.0]),
            5 + 0j: CompactRegion.disk(5 + 0j, 1.0),
            # keyed far from its disks, which meet the first region's
            -6 + 0j: CompactRegion([2.5 + 1j, 3.25 + 1.25j], [0.5, 0.5]),
            6j: CompactRegion.disk(6j, 0.5),
            5.5 + 0.5j: CompactRegion.disk(5.5 + 0.5j, 0.25)},
            dict.fromkeys((0j, 5 + 0j, -6 + 0j, 6j, 5.5 + 0.5j), "genuine"))
        lv1 = ToastLevel(1, {
            0.5 + 0j: CompactRegion([0.5 + 0j, 4.0 + 0j], [3.0, 1.5]),
            6j: CompactRegion.disk(6j, 0.5)},
            {0.5 + 0j: "genuine", 6j: "repeat"})
        forest = self.forged([lv0, lv1])
        report = verify_axioms(forest)
        same, cross = all_pairs_witnesses(forest)
        assert same == [(0, 0j, -6 + 0j), (0, 5 + 0j, 5.5 + 0.5j)]
        assert cross == [(0, 5 + 0j, 1, 0.5 + 0j), (0, -6 + 0j, 1, 0.5 + 0j),
                         (0, 5.5 + 0.5j, 1, 0.5 + 0j)]
        assert report["same-level-disjoint"]["witnesses"] == same
        assert report["cross-level-nested"]["witnesses"] == cross

    @pytest.mark.parametrize("seed", range(3))
    def test_top_cover_matches_contains(self, seed):
        rng = np.random.default_rng([seed, 8])
        regions = {}
        for _ in range(4):
            start = q26(complex(*rng.uniform(-6, 6, 2)))
            regions[start] = forged_chain(rng, start, 4, 1.5)
        forest = self.forged([ToastLevel(0, regions,
                                         dict.fromkeys(regions, "genuine"))])
        grid = WIN8.inner().grid(forest.r0 / 4).ravel()
        covered = np.zeros(len(grid), dtype=bool)
        for reg in regions.values():
            covered |= reg.contains(grid)
        assert covered.any() and not covered.all()
        report = verify_axioms(forest)
        assert report["top-cover"] == {
            "status": "fail", "witnesses": grid[~covered][:8].tolist()}

    def test_top_cover_names_every_missing_cell(self):
        # the inner window's lattice has 45 x 45 cells; D(0, 7.6) misses
        # its four corner cells (7.74 from 0; their neighbours are 7.57
        # away), and the region's second disk covers the upper right one
        reg = CompactRegion([0j, 5.4 + 5.4j], [7.6, 0.5])
        forest = self.forged([ToastLevel(0, {0j: reg}, {0j: "genuine"})])
        inner = WIN8.inner()
        lo = inner.xmin + 0.5 * (inner.width / 45)
        hi = inner.xmin + 44.5 * (inner.width / 45)
        assert verify_axioms(forest)["top-cover"] == {
            "status": "fail",
            "witnesses": [complex(lo, lo), complex(hi, lo), complex(lo, hi)]}

    def test_pockets_decided_once_per_region(self, monkeypatch):
        ring = CompactRegion([2.5 * np.exp(2j * np.pi * k / 8)
                              for k in range(8)], [1.0] * 8)
        disk = CompactRegion.disk(10j, 1.0)
        levels = [ToastLevel(n, {2.5 + 0j: ring, 10j: disk},
                             {2.5 + 0j: "genuine", 10j: "genuine"})
                  for n in range(3)]
        calls = []
        decide = CompactRegion.complement_connected
        monkeypatch.setattr(CompactRegion, "complement_connected",
                            lambda self: calls.append(self) or decide(self))
        report = verify_axioms(self.forged(levels, Window(-16, 16, -16, 16)))
        assert len(calls) == 2
        assert report["simply-connected"] == {
            "status": "fail",
            "witnesses": [(0, 2.5 + 0j), (1, 2.5 + 0j), (2, 2.5 + 0j)]}

    def test_anchor_disks_decided_once_per_region(self, monkeypatch):
        # the region anchored at 0 lies away from its anchor, and is listed
        # at every level: one covers_disk call, a witness per listing
        off = CompactRegion.disk(5 + 0j, 1.0)
        disk = CompactRegion.disk(10j, 1.0)
        levels = [ToastLevel(n, {0j: off, 10j: disk},
                             {0j: "genuine", 10j: "genuine"})
                  for n in range(3)]
        calls = []
        covers = CompactRegion.covers_disk
        monkeypatch.setattr(CompactRegion, "covers_disk",
                            lambda self, c, r: calls.append(self)
                            or covers(self, c, r))
        report = verify_axioms(self.forged(levels, Window(-16, 16, -16, 16)))
        assert len(calls) == 2
        assert report["anchor-disk"] == {
            "status": "fail", "witnesses": [(0, 0j), (1, 0j), (2, 0j)]}

    def test_anchor_disks_of_a_toast_with_repeats(self, monkeypatch):
        # one covers_disk call per distinct region of a real toast, and the
        # report of one call per listing, anchors rounded one at a time
        d = generate("poisson", WIN16, seed=3, intensity=0.2)
        forest = build_covariant_toast(d, N=4, r0=1.0, gamma=4.0)
        listed = [(lv.n, a, reg) for lv in forest.levels
                  for a, reg in lv.regions.items()]
        distinct = {id(reg) for _, _, reg in listed}
        assert len(distinct) < len(listed)
        u0 = q26(forest.u0)
        want = [(n, a) for n, a, reg in listed
                if not reg.covers_disk(q26(complex(a)), u0)]
        calls = []
        covers = CompactRegion.covers_disk
        monkeypatch.setattr(CompactRegion, "covers_disk",
                            lambda self, c, r: calls.append(self)
                            or covers(self, c, r))
        report = verify_axioms(forest)
        assert len(calls) == len(distinct)
        assert {id(reg) for reg in calls} == distinct
        assert report["anchor-disk"] == {
            "status": "fail" if want else "pass", "witnesses": want[:8]}


def dense_region_pairs(forest):
    """The region pairs that meet, as (m, a, n, b), from one dense table of
    the `disks_meet` test over every disk of every level, read in the order
    of loops over level m, level n >= m and the places of a and b (each
    pair once when m = n)."""
    items = [(lv.n, a, reg) for lv in forest.levels
             for a, reg in lv.regions.items()]
    c = np.concatenate([reg.centers for *_, reg in items])
    r = np.concatenate([reg.radii for *_, reg in items])
    owner = np.repeat(np.arange(len(items)), [len(reg) for *_, reg in items])
    ii, jj = np.nonzero(np.abs(c[:, None] - c[None, :])
                        <= r[:, None] + r[None, :])
    meet = np.zeros((len(items), len(items)), dtype=bool)
    meet[owner[ii], owner[jj]] = True
    level = np.array([n for n, *_ in items])
    out = []
    for m in range(forest.depth + 1):
        for n in range(m, forest.depth + 1):
            rows, cols = np.flatnonzero(level == m), np.flatnonzero(level == n)
            sub = meet[np.ix_(rows, cols)]
            for x, y in zip(*np.nonzero(np.triu(sub, 1) if m == n else sub)):
                out.append((m, items[rows[x]][1], n, items[cols[y]][1]))
    return out


@pytest.mark.parametrize("kind, half, seed, intensity", [
    ("poisson", 8, 3, 0.2), ("poisson", 16, 3, 0.2),
    ("jittered-lattice", 8.5, 1252010711, 1.0)])
def test_region_pairs_match_the_dense_disk_table(kind, half, seed,
                                                 intensity):
    # real toasts, with repeats (one region object at several levels) and
    # a top level whose disk has the window's diameter
    d = generate(kind, Window(-half, half, -half, half), seed=seed,
                 intensity=intensity)
    forest = build_covariant_toast(d, N=4, r0=1.0, gamma=4.0)
    assert any("repeat" in lv.kinds.values() for lv in forest.levels)
    top = forest.levels[-1].regions.values()
    assert max(reg.radii.max() for reg in top) == q26(d.window.diameter)
    pairs = [(m, a, n, b) for (m, a, _), (n, b, _)
             in toast_module._region_pairs(forest)]
    want = dense_region_pairs(forest)
    assert len(want) > 100 and pairs == want


class TestDiskSetCache:
    """`_disk_subset` compares each region's cached disk set; the verdict is
    the plain set comparison, and the region's arrays stay read-only."""

    @pytest.mark.parametrize("seed", range(3))
    def test_cached_verdict_equals_plain_sets(self, seed):
        rng = np.random.default_rng([seed, 9])
        base = forged_chain(rng, q26(complex(*rng.uniform(-4, 4, 2))), 6, 1.0)
        c, r = base.centers, base.radii
        regions = [
            base,
            CompactRegion(c[:3], r[:3]),                  # a prefix
            CompactRegion(c[::-1], r[::-1]),              # reordered
            CompactRegion(np.concatenate([c, c[:2]]),     # repeated disks
                          np.concatenate([r, r[:2]])),
            CompactRegion(c[:4], r[:4] * 1.25),           # grown radii
            CompactRegion(c[:4] + 2.0 ** -26, r[:4]),     # nudged centers
            CompactRegion.disk(c[2], r[2]),
            CompactRegion.disk(20 + 0j, 1.0),
        ]
        verdicts = set()
        for lower in regions:
            for upper in regions:
                plain = set(lower.disks()) <= set(upper.disks())
                for _ in range(2):  # cold, then cached
                    assert toast_module._disk_subset(lower, upper) == plain
                verdicts.add(plain)
        assert verdicts == {True, False}

    def test_arrays_stay_read_only(self):
        reg = CompactRegion([0j, 1.5 + 0j], [1.0, 1.0])
        assert toast_module._disk_subset(reg, reg)
        with pytest.raises(ValueError):
            reg.centers[0] = 5j
        with pytest.raises(ValueError):
            reg.radii[0] = 2.0
        assert reg.disk_set == frozenset(reg.disks())
