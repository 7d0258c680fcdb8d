"""Toast hierarchy construction, axioms, covariance, and violation detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilift import toast as toast_module
from equilift.core import CompactRegion, Window, hole_witness, q26
from equilift.divisors import Divisor, generate
from equilift.errors import (EquiliftError, NonFreeInput, PocketFillExhausted,
                             WindowTooSmall)
from equilift.toast import ToastForest, ToastLevel, build_covariant_toast, verify_axioms

WIN8 = Window(-8, 8, -8, 8)
WIN16 = Window(-16, 16, -16, 16)

PASSING = ("same-level-disjoint", "simply-connected", "cross-level-nested",
           "parent-exists", "directed", "anchor-disk", "top-cover",
           "child-bound")


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
    return toast_module._markers(toast_module._Pairs.of(locs), scale)


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
        ranks = toast_module._ranks(toast_module._Pairs.of(locs), 1.0)
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
        pairs = toast_module._Pairs.of(locs)
        ranks = toast_module._ranks(pairs, 3.0)
        rows = pairs.rows[[0, len(one)], :4]
        assert np.array_equal(rows[0], rows[1])
        # a row that ends compares below its continuations: c < a < b
        assert (ranks[0] < ranks[len(one)]) == ("cab".index(first)
                                                < "cab".index(second))
        for scale in (3.0, 1.0, 16.0):
            assert (marker_outcome(rank_markers, locs, scale)
                    == marker_outcome(reference_markers, locs, scale)), scale


class TestAbsorption:
    """Growth of one region against a forged pool of overlapping regions."""

    @staticmethod
    def pool(*regions):
        return toast_module._Pool.of(
            (complex(c[0]), CompactRegion(c, [1.0] * len(c))) for c in regions)

    def test_in_order_scan(self):
        pool = self.pool(
            [-3.5],           # 0: meets only region 2, so waits for pass two
            [1.5],            # 1: meets D(0, 1)
            [-1.75],          # 2: meets D(0, 1)
            [4.0, 3.0],       # 3: meets region 1 only, absorbed in pass one
            [1.875j],         # 4: meets D(0, 1)
            [10.0],           # 5: out of reach
            [-1.0j])          # 6: taken by a senior
        free = np.ones(7, dtype=bool)
        free[6] = False
        region, absorbed, fills, witnessed = toast_module._grow(
            0j, 1.0, pool, free)
        assert absorbed == [1, 2, 3, 4, 0]
        assert region.centers.tolist() == [0j, 1.5, -1.75, 4.0, 3.0, 1.875j,
                                           -3.5]
        assert region.radii.tolist() == [1.0] * 7 and fills == 0
        # regions 0 and 2 (and 1 and 3) meet, so the pieces cannot decide
        assert witnessed
        assert free[:6].all()  # the caller marks what it keeps

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
        pool = toast_module._Pool.of(
            (ci, CompactRegion([ci], [ri])) for ci, ri in zip(c[1:], r[1:]))
        region, absorbed, fills, _ = toast_module._grow(
            complex(c[0]), float(r[0]), pool, np.ones(5, dtype=bool))
        assert absorbed == [0, 1, 2, 3, 4] and fills == 2
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


def test_few_unions_reach_hole_witness():
    # every one of the ~400 unions of this toast went to hole_witness
    # before the rule
    d = generate("poisson", Window(-32, 32, -32, 32), seed=1, intensity=0.2)
    forest = build_covariant_toast(d, N=4, r0=1.0, gamma=4.0)
    assert sum(lv.counts["witnessed"] for lv in forest.levels) <= 16


class TestCounts:
    def test_tallies_match_the_levels(self, poisson_forest, monkeypatch):
        # one _grow call per marker not skipped, level by level; witnessed
        # counts those that reached hole_witness
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
            grown = c["markers"] - c["skipped"]
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

    def test_endless_pockets_are_a_typed_error(self, monkeypatch):
        # a filler that never closes the pocket exhausts the fill budget;
        # the rule is made undecided so that the lone disk reaches it
        monkeypatch.setattr(toast_module, "_no_pocket",
                            lambda rel_centers, radii, source: None)
        monkeypatch.setattr(toast_module, "_pocket_filler",
                            lambda rel_centers, radii: (0j, 0.25))
        d = Divisor(np.array([0.5 + 0.5j]), np.array([1]), WIN8)
        with pytest.raises(PocketFillExhausted) as err:
            build_covariant_toast(d, N=0)
        assert isinstance(err.value, EquiliftError)
        assert "after 64 fills" in str(err.value)


class TestViolationDetection:
    """verify_axioms must catch hand-built broken hierarchies with witnesses."""

    @staticmethod
    def forged(levels, parents=None, children=None):
        d = Divisor(np.array([0j]), np.array([1]), WIN8)
        return ToastForest(levels=tuple(levels), parents=parents or {},
                           children=children or {}, divisor=d,
                           r0=1.0, gamma=4.0, u0=0.5)

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

    def test_top_cover_violation_detected(self):
        lv = ToastLevel(0, {0j: CompactRegion.disk(0j, 1.0)}, {0j: "genuine"})
        report = verify_axioms(self.forged([lv]))
        assert report["top-cover"]["status"] == "fail"
        assert len(report["top-cover"]["witnesses"]) > 0


def all_pairs_witnesses(forest):
    """The all-pairs loops the verifier's reach test prunes: witnesses of
    "same-level-disjoint" and "cross-level-nested", in loop order."""
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
        return ToastForest(levels=tuple(levels), parents={}, children={},
                           divisor=d, r0=1.0, gamma=4.0, u0=0.5)

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
