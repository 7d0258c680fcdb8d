"""Divisor generation, stabilizer detection and principal-part extraction."""

import json
import math

import numpy as np
import pytest
from conftest import traced_peak

from equilift import divisors
from equilift.core import SampledFunction, Window, q26
from equilift.divisors import (
    Divisor,
    PrincipalParts,
    StabilizerReport,
    _is_period,
    detect_stabilizer,
    extract_principal_parts,
    generate,
)
from equilift.errors import EmptyWindow, OverlappingCircles

WIN8 = Window(-8, 8, -8, 8)


# ---------------------------------------------------------------------------
# data model


class TestDivisor:
    def test_quantizes_and_freezes(self):
        d = Divisor(np.array([0.1 + 0.2j]), np.array([1]), WIN8)
        assert d.locs[0] == q26(0.1 + 0.2j)
        with pytest.raises(ValueError):
            d.locs[0] = 0

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            Divisor(np.array([0j]), np.array([0]), WIN8)

    def test_rejects_non_integer_multiplicities(self):
        # cast to int, [1.5, 2.7] would silently hold [1, 2]
        for mults in ([1.5, 2.7], [1.0, 1e300], [1.0, math.nan]):
            with pytest.raises(ValueError, match="integers"):
                Divisor(np.array([0j, 1j]), np.array(mults), WIN8)
        with pytest.raises(ValueError, match="integers"):
            Divisor.from_points([(0j, 1.5), (1j, 2.7)], WIN8)
        d = Divisor(np.array([0j, 1j]), np.array([1.0, 2.0]), WIN8)
        assert d.mults.tolist() == [1, 2]

    def test_from_json_rejects_non_integer_multiplicities(self):
        dump = {"window": [-8, 8, -8, 8],
                "points": [{"re": 0.0, "im": 0.0, "mult": 1.9}]}
        with pytest.raises(ValueError, match="integers"):
            Divisor.from_json(dump)
        dump["points"][0]["mult"] = 2.0
        assert Divisor.from_json(dump).mults.tolist() == [2]

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="matching shapes"):
            Divisor(np.array([0j, 1j]), np.array([1]), WIN8)

    def test_rejects_duplicate_locations(self):
        with pytest.raises(ValueError):
            Divisor(np.array([1j, 1j]), np.array([1, 1]), WIN8)

    def test_rejects_signed_zero_duplicates(self):
        # 0.0 and -0.0 name one location; sorted between others they still
        # sit next to each other
        for re, im in ((-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
            locs = np.array([2 + 1j, complex(0.0, 0.0), -1 + 0j,
                             complex(re, im), 1j])
            with pytest.raises(ValueError):
                Divisor(locs, np.ones(5, dtype=int), WIN8)

    def test_rejects_non_finite_locations(self):
        # NaN compares unequal to itself, so two NaN points would pass the
        # distinctness check; JSON readers accept NaN and Infinity
        for locs in ([complex("nan")], [complex("nan"), complex("nan")],
                     [1 + 1j, complex(math.inf, 0.0)]):
            with pytest.raises(ValueError, match="finite"):
                Divisor(np.array(locs), np.ones(len(locs), dtype=int), WIN8)
        dump = json.loads('{"window": [-8, 8, -8, 8], "points": '
                          '[{"re": NaN, "im": 0.0, "mult": 1}]}')
        with pytest.raises(ValueError, match="finite"):
            Divisor.from_json(dump)

    def test_lattice_divisor_memory_is_linear(self):
        # the 48 x 48 lattice: a pairwise distance table would take
        # 2304^2 x 16 bytes, about 85 MB
        win = Window(-24.5, 23.5, -24.5, 23.5)

        def build():
            d = generate("periodic-lattice", win, spacing=1.0)
            d.translate(q26(0.25 + 0.5j))
            return d

        d, peak = traced_peak(build)
        assert len(d) == 48 * 48
        assert peak < 10e6

    def test_translate_moves_points_only(self):
        d = Divisor(np.array([0j, 1 + 0j]), np.array([1, 2]), WIN8)
        t = d.translate(0.5j)
        assert np.array_equal(t.locs, np.array([0.5j, 1 + 0.5j]))
        assert t.window == WIN8
        assert np.array_equal(t.mults, d.mults)

    def test_json_round_trip(self):
        d = Divisor(np.array([0.25 + 1j, -3 + 0j]), np.array([2, -1]), WIN8)
        blob = json.dumps(d.to_json())
        back = Divisor.from_json(json.loads(blob))
        assert np.array_equal(back.locs, d.locs)
        assert np.array_equal(back.mults, d.mults)
        assert back.window == d.window



# ---------------------------------------------------------------------------
# generators


class TestGenerate:
    def test_almost_periodic_named_points(self):
        # gcd(3,5)=1 is odd so the half-cell offset cancels: 3 + 0.5 - 0.5
        # gcd(4,6)=2 has dyadic valuation 1: 4 + 0.5 - 0.25
        d = generate("almost-periodic", Window(0, 8, 0, 8))
        locs = set(d.locs.tolist())
        assert (3 + 5j) in locs
        assert (4.25 + 6j) in locs

    def test_almost_periodic_origin_cell(self):
        # gcd(0,0) has infinite valuation: the correction term vanishes
        d = generate("almost-periodic", Window(-1, 1, -1, 1))
        assert (0.5 + 0j) in set(d.locs.tolist())

    def test_periodic_lattice_count(self):
        d = generate("periodic-lattice", Window(0, 3, 0, 3), spacing=1.0)
        assert len(d) == 9
        assert (0j in set(d.locs.tolist())) and (2 + 2j in set(d.locs.tolist()))

    def test_poisson_deterministic_and_seeded(self):
        w = Window(-4, 4, -4, 4)
        a = generate("poisson", w, seed=7, intensity=1.0)
        b = generate("poisson", w, seed=7, intensity=1.0)
        c = generate("poisson", w, seed=8, intensity=1.0)
        assert np.array_equal(a.locs, b.locs)
        assert not np.array_equal(a.locs, c.locs)
        assert np.all(w.contains(a.locs))

    def test_poisson_cell_streams_are_window_consistent(self):
        # integer windows align with the unit generation cells, so the large
        # run restricted to the small window must reproduce the small run
        big = generate("poisson", Window(-4, 4, -4, 4), seed=3, intensity=1.0)
        small = generate("poisson", Window(-2, 2, -2, 2), seed=3, intensity=1.0)
        inside = big.locs[Window(-2, 2, -2, 2).contains(big.locs)]
        assert np.array_equal(np.sort_complex(inside), np.sort_complex(small.locs))

    def test_poisson_intensity_scale(self):
        w = Window(-16, 16, -16, 16)
        d = generate("poisson", w, seed=1, intensity=0.5)
        # mean 512, sd ~ 22.6; a 6-sigma corridor keeps this deterministic
        assert 380 <= len(d) <= 650

    def test_jittered_lattice_stays_near_cells(self):
        d = generate("jittered-lattice", Window(0, 4, 0, 4), seed=5,
                     spacing=1.0)
        assert len(d) >= 9
        for z in d.locs:
            i, j = math.floor(z.real), math.floor(z.imag)
            assert abs(z - complex(i + 0.5, j + 0.5)) <= 0.26 * math.sqrt(2) + 1e-9

    def test_empty_window_raises(self):
        with pytest.raises(EmptyWindow):
            generate("periodic-lattice", Window(0.1, 0.9, 0.1, 0.9), spacing=8.0)

    @pytest.mark.parametrize("kind, kw", [
        ("poisson", {"intensity": 0.0}), ("poisson", {"intensity": -0.5}),
        ("jittered-lattice", {"spacing": 0.0}),
        ("periodic-lattice", {"spacing": -1.0})])
    def test_refuses_nonpositive_intensity_or_spacing(self, kind, kw):
        with pytest.raises(ValueError, match="must be positive"):
            generate(kind, WIN8, **kw)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("fibonacci", WIN8)


# ---------------------------------------------------------------------------
# stabilizer detection


class TestStabilizer:
    def test_empty_divisor_is_refused(self):
        empty = Divisor(np.array([], dtype=complex), np.array([], dtype=int),
                        WIN8)
        with pytest.raises(EmptyWindow):
            detect_stabilizer(empty)

    def test_single_point_is_free(self):
        d = Divisor(np.array([0.5 + 0.5j]), np.array([1]), WIN8)
        rep = detect_stabilizer(d)
        assert rep.kind == "free"
        assert rep.generators == ()

    def test_square_lattice_is_doubly_periodic(self):
        d = generate("periodic-lattice", Window(-8, 8, -8, 8), spacing=1.0)
        rep = detect_stabilizer(d)
        assert rep.kind == "doubly-periodic"
        assert rep.generators == (1 + 0j, 1j)

    def test_horizontal_comb_is_singly_periodic(self):
        locs = np.array([complex(m, 0.0) for m in range(-8, 9)])
        d = Divisor(locs, np.ones(len(locs), dtype=int), WIN8)
        rep = detect_stabilizer(d)
        assert rep.kind == "singly-periodic"
        assert rep.generators == (1 + 0j,)

    def test_almost_periodic_is_free(self):
        d = generate("almost-periodic", Window(-16, 16, -16, 16))
        rep = detect_stabilizer(d)
        assert rep.kind == "free"

    def test_poisson_is_free(self):
        d = generate("poisson", Window(-16, 16, -16, 16), seed=42, intensity=0.5)
        rep = detect_stabilizer(d)
        assert rep.kind == "free"

    @staticmethod
    def _lattice_centre():
        # corner points fall outside the comparison window, so a defect must
        # sit in the interior to be seen at all
        base = generate("periodic-lattice", Window(-8, 8, -8, 8), spacing=1.0)
        k = int(np.argmin(np.abs(base.locs)))
        assert base.locs[k] == 0j
        return base, k

    def _nudged_lattice(self, step):
        base, k = self._lattice_centre()
        locs = base.locs.copy()
        locs[k] += step
        return Divisor(locs, base.mults, base.window)

    def test_decisive_perturbation_reads_free(self):
        # a nudge of 2**-24 (an exact dyadic step) breaks every period
        assert detect_stabilizer(self._nudged_lattice(2.0 ** -24)).kind == "free"

    def test_smallest_lattice_step_reads_free(self):
        # 2**-26 is the smallest nudge the q26 lattice can carry; the period
        # test compares exactly, so even that breaks the lattice's periods
        d = self._nudged_lattice(2.0 ** -26)
        assert d.locs[int(np.argmin(np.abs(d.locs)))] == 2.0 ** -26
        assert detect_stabilizer(d).kind == "free"

    def test_double_point_reads_free(self):
        # same support as the lattice, but multiplicities are part of the
        # period test: one double point leaves no period
        base, k = self._lattice_centre()
        mults = base.mults.copy()
        mults[k] = 2
        d = Divisor(base.locs, mults, base.window)
        assert detect_stabilizer(d).kind == "free"

    def test_shift_covariance_of_generators(self):
        d = generate("periodic-lattice", Window(-8, 8, -8, 8), spacing=1.0)
        moved = d.translate(0.25 + 0.125j, move_window=True)
        assert detect_stabilizer(moved).generators == detect_stabilizer(d).generators

    @pytest.mark.parametrize("win", [
        Window(-4, 4, -4, 4), Window(-3, 3, -3, 3), Window(-5, 5, -5, 5),
        Window(-3.75, 4.25, -4.5, 3.5), Window(0.5, 8.5, -2.25, 5.75)])
    def test_small_lattices_keep_both_periods(self, win):
        # the quick filter used to probe the first stored points, on the
        # window's left edge, and demand that p + v be a point even where
        # the period test compares nothing: it dropped the period 1j
        d = generate("periodic-lattice", win, spacing=1.0)
        assert _is_period(d, 1j, win.inner())
        assert detect_stabilizer(d) == StabilizerReport(
            "doubly-periodic", (1 + 0j, 1j))

    def test_irregular_columns_with_a_vertical_period(self):
        # 11 irregular columns x 8 rows: a period 1j and nothing else
        xs = np.sort(np.random.default_rng(3).uniform(-8, 8, 11))
        locs = q26(np.array([complex(x, y) for x in xs for y in range(-4, 4)]))
        d = Divisor(locs, np.ones(len(locs), dtype=int), Window(-8, 8, -4, 4))
        assert _is_period(d, 1j, d.window.inner())
        assert detect_stabilizer(d) == StabilizerReport("singly-periodic",
                                                        (1j,))

    def test_one_lattice_step_off_a_multiple_is_no_combination(
            self, monkeypatch):
        # two combs on the real axis, one 2^-26 right of the other: the long
        # candidates k +- 2^-26 pass the probe filter (no probe lies in
        # their comparison window) and reach the combination test, which
        # tells them from the multiples k of the period 1 by equality
        eps = 2.0 ** -26
        locs = np.array([m + s for m in range(-7, 8) for s in (0.0, eps)])
        d = Divisor(locs, np.ones(len(locs), dtype=int), WIN8)
        asked = []
        real = divisors._is_combination

        def spy(v, gens):
            asked.append((v, real(v, gens)))
            return asked[-1][1]

        monkeypatch.setattr(divisors, "_is_combination", spy)
        assert detect_stabilizer(d) == StabilizerReport("singly-periodic",
                                                        (1 + 0j,))
        off = [out for v, out in asked if abs(v - round(v.real)) == eps]
        multiples = [out for v, out in asked if v == round(v.real) != 1]
        assert off and not any(off)
        assert multiples and all(multiples)

    @pytest.mark.parametrize("win", [Window(-8, 8, -8, 8),
                                     Window(-4, 4, -4, 4)])
    def test_point_order_does_not_change_the_report(self, win):
        # listing a lattice in reverse used to give ((1-0j), (-0+1j)): the
        # report is compared by repr, which tells signed zeros apart
        d = generate("periodic-lattice", win, spacing=1.0)
        want = repr(detect_stabilizer(d))
        orders = [np.arange(len(d))[::-1],
                  np.random.default_rng(9).permutation(len(d))]
        for order in orders:
            moved = Divisor(d.locs[order], d.mults[order], d.window)
            assert repr(detect_stabilizer(moved)) == want

    @pytest.mark.parametrize("seed", [15, 18, 30, 147, 193, 202, 265, 278,
                                      342, 424, 440, 893, 935])
    def test_a_match_on_one_point_is_no_period(self, seed):
        # 11-21 free points; each of these seeds once read periodic (15
        # doubly) because a comparison window held only the point the
        # candidate was drawn from, where v = p - q always matches
        d = generate("poisson", Window(-3, 3, -3, 3), seed=seed, intensity=0.5)
        assert detect_stabilizer(d) == StabilizerReport("free", ())


# ---------------------------------------------------------------------------
# principal-part extraction


class TestExtractPrincipalParts:
    def test_simple_pole(self):
        f = SampledFunction(lambda z: 1 / z)
        pp = extract_principal_parts(f, [0j], radius=0.5)
        assert len(pp) == 1
        pole, coeffs = pp.entries[0]
        assert pole == 0j
        assert len(coeffs) == 1
        assert abs(coeffs[0] - 1.0) < 1e-12

    def test_two_simple_poles(self):
        f = SampledFunction(lambda z: 2 * z / (z ** 2 - 1))
        pp = extract_principal_parts(f, [1 + 0j, -1 + 0j], radius=0.5)
        got = {p: cs for p, cs in pp.entries}
        assert abs(got[1 + 0j][0] - 1.0) < 1e-12
        assert abs(got[-1 + 0j][0] - 1.0) < 1e-12

    def test_double_pole(self):
        f = SampledFunction(lambda z: 1 / z ** 2 + 2 / z)
        pp = extract_principal_parts(f, [0j], radius=0.75)
        _, coeffs = pp.entries[0]
        assert len(coeffs) == 2
        assert abs(coeffs[0] - 2.0) < 1e-12
        assert abs(coeffs[1] - 1.0) < 1e-12

    def test_regular_point_is_omitted(self):
        f = SampledFunction(lambda z: np.exp(z))
        pp = extract_principal_parts(f, [0j], radius=0.5)
        assert len(pp) == 0

    @pytest.mark.parametrize("radius", [0.0, -0.5])
    def test_radius_not_positive_is_refused(self, radius):
        # a zero radius used to fail as "poles and coefficients must be
        # finite", from the NaN moments
        f = SampledFunction(lambda z: 1 / z)
        with pytest.raises(ValueError, match=f"radius must be finite and "
                                             f"positive, not {radius}"):
            extract_principal_parts(f, [0j, 3 + 0j], radius)

    def test_overlapping_circles(self):
        f = SampledFunction(lambda z: 1 / z)
        with pytest.raises(OverlappingCircles):
            extract_principal_parts(f, [0j, 0.6 + 0j], radius=0.5)

    def test_overlap_names_the_first_pole_and_its_first_partner(self):
        # 2000 poles on a unit lattice, read in chunks of rows: pole 1200
        # overlaps 1900 and, nearer, 1950; a later pair (1250, 1300) does too
        z = np.arange(2000)
        poles = [complex(x, y) for x, y in zip(z % 50, z // 50)]
        poles[1900] = poles[1200] + 0.7
        poles[1950] = poles[1200] + 0.3j
        poles[1300] = poles[1250] - 0.5
        f = SampledFunction(lambda z: 1 / z)
        with pytest.raises(OverlappingCircles) as err:
            extract_principal_parts(f, poles, radius=0.4)
        assert str(err.value) == (f"extraction circles at {poles[1200]} and "
                                  f"{poles[1900]} overlap")

    def test_poles_exactly_two_radii_apart_do_not_overlap(self):
        # the circles touch but do not overlap: only a distance strictly
        # below 2 * radius is refused, though the sweep's own test keeps
        # the touching pair
        f = SampledFunction(lambda z: 1 / z + 2 / (z - 1) + 3 / (z - 1j))
        pp = extract_principal_parts(f, [0j, 1 + 0j, 1j], radius=0.5)
        got = {p: cs for p, cs in pp.entries}
        assert got.keys() == {0j, 1 + 0j, 1j}
        assert [len(cs) for cs in got.values()] == [1, 1, 1]
        with pytest.raises(OverlappingCircles):
            extract_principal_parts(f, [0j, 1 + 0j, 1j],
                                    radius=np.nextafter(0.5, 1))

    def test_repeated_pole_overlaps(self):
        f = SampledFunction(lambda z: 1 / z)
        for poles in ([1 + 0j, 1 + 0j], [0j, 5 + 0j, 3j, 5 + 0j]):
            with pytest.raises(OverlappingCircles) as err:
                extract_principal_parts(f, poles, radius=0.5)
            assert str(err.value) == (f"extraction circles at {poles[-1]} "
                                      f"and {poles[-1]} overlap")

    def test_analytic_part_is_ignored(self):
        # the entire summand exp(z) contributes nothing to the coefficients
        f = SampledFunction(lambda z: 1 / (z - 1j) + np.exp(z))
        pp = extract_principal_parts(f, [1j], radius=0.5)
        pole, coeffs = pp.entries[0]
        assert pole == 1j
        assert len(coeffs) == 1
        assert abs(coeffs[0] - 1.0) < 1e-10

    def test_one_evaluation_for_every_pole_and_order(self):
        # oracle: the principal part at each pole is its own term
        poles = [0j, 2 + 0j, 1j]
        shapes = []

        def f(z):
            shapes.append(z.shape)
            return 1 / z + 3 / (z - 2) ** 2 + 0.5 / (z - 1j) ** 3

        pp = extract_principal_parts(f, poles, radius=0.4)
        assert len(shapes) == 1 and shapes[0][0] == len(poles)
        want = {0j: (1,), 2 + 0j: (0, 3), 1j: (0, 0, 0.5)}
        for pole, coeffs in pp.entries:
            assert len(coeffs) == len(want[pole])
            assert max(abs(a - b) for a, b in zip(coeffs, want[pole])) < 1e-12

    def test_principal_parts_reject_non_finite_data(self):
        for entries in (((0j, (complex("nan"),)),),
                        ((0j, (complex("nan"), 1 + 0j)),),
                        ((complex(math.inf, 0.0), (1 + 0j,)),)):
            with pytest.raises(ValueError, match="finite"):
                PrincipalParts(entries)
        dump = json.loads('{"entries": [{"re": 0.0, "im": 0.0, '
                          '"coeffs": [[1.0, 0.0], [Infinity, 0.0]]}]}')
        with pytest.raises(ValueError, match="finite"):
            PrincipalParts.from_json(dump)

    @pytest.mark.parametrize("entries, match", [
        (((0j, ()),), "nonempty"),
        (((0j, (1 + 0j, 0j)),), "c_m != 0"),
        (((1j, (1 + 0j,)), (1j, (2 + 0j,))), "pairwise distinct")])
    def test_principal_parts_refuse_malformed_entries(self, entries, match):
        with pytest.raises(ValueError, match=match):
            PrincipalParts(entries)

    def test_principal_parts_json_round_trip(self):
        pp = PrincipalParts(((1j, (1 + 2j, 3 + 0j)), (2 + 0j, (0.5 + 0j,))))
        back = PrincipalParts.from_json(pp.to_json())
        assert back == pp


class TestStabilizerReportShape:
    def test_fields(self):
        rep = StabilizerReport(kind="free", generators=())
        assert rep.kind == "free"
        assert rep.generators == ()
