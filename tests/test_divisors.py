"""Divisor generation, transport distance, stabilizer detection, and
principal-part extraction."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilift.core import SampledFunction, Window, q26
from equilift.divisors import (
    Divisor,
    PrincipalParts,
    StabilizerReport,
    detect_stabilizer,
    extract_principal_parts,
    generate,
    transport_distance,
)
from equilift.errors import AmbiguousNearPeriod, EmptyWindow, OverlappingCircles

WIN8 = Window(-8, 8, -8, 8)


def dyadic(lo, hi):
    denom = 64
    return st.integers(int(lo * denom), int(hi * denom)).map(lambda k: k / denom)


def dyadic_complex(lo, hi):
    return st.tuples(dyadic(lo, hi), dyadic(lo, hi)).map(lambda t: complex(*t))


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

    def test_rejects_duplicate_locations(self):
        with pytest.raises(ValueError):
            Divisor(np.array([1j, 1j]), np.array([1, 1]), WIN8)

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

    def test_support_multiset_expands_multiplicity(self):
        d = Divisor(np.array([0j, 1 + 0j]), np.array([2, 1]), WIN8)
        assert np.array_equal(d.support_multiset(), np.array([0j, 0j, 1 + 0j]))


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
                     spacing=1.0, jitter=0.25)
        assert len(d) >= 9
        for z in d.locs:
            i, j = math.floor(z.real), math.floor(z.imag)
            assert abs(z - complex(i + 0.5, j + 0.5)) <= 0.26 * math.sqrt(2) + 1e-9

    def test_empty_window_raises(self):
        with pytest.raises(EmptyWindow):
            generate("periodic-lattice", Window(0.1, 0.9, 0.1, 0.9), spacing=8.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("fibonacci", WIN8)


# ---------------------------------------------------------------------------
# transport distance


class TestTransport:
    def test_singleton_shift(self):
        a = Divisor(np.array([0j]), np.array([1]), WIN8)
        b = Divisor(np.array([0.5 + 0j]), np.array([1]), WIN8)
        assert transport_distance(a, b) == 0.5

    def test_identity_is_zero(self):
        d = generate("poisson", Window(-4, 4, -4, 4), seed=2, intensity=1.0)
        assert transport_distance(d, d) == 0.0

    def test_count_mismatch_is_infinite(self):
        a = Divisor(np.array([0j]), np.array([1]), WIN8)
        b = Divisor(np.array([0j, 1 + 0j]), np.array([1, 1]), WIN8)
        assert transport_distance(a, b) == math.inf

    def test_multiplicity_expansion(self):
        # one double point vs two simple points half a unit apart
        a = Divisor(np.array([0j]), np.array([2]), WIN8)
        b = Divisor(np.array([-0.25 + 0j, 0.25 + 0j]), np.array([1, 1]), WIN8)
        assert transport_distance(a, b) == 0.25

    def test_bottleneck_prefers_max_not_sum(self):
        # pairing (0,0.5),(10,10.5) has max 0.5; the crossing pairing is worse
        a = Divisor(np.array([0j, 10 + 0j]), np.array([1, 1]), WIN8)
        b = Divisor(np.array([0.5 + 0j, 10.5 + 0j]), np.array([1, 1]), WIN8)
        assert transport_distance(a, b, Window(-16, 16, -16, 16)) == 0.5

    def test_almost_periodic_shift_is_small(self):
        # shifting by 8 = 2**3 changes only the dyadic corrections, each by
        # at most 2**-4, so the configurations nearly overlap
        w = Window(-16, 16, -16, 16)
        d = generate("almost-periodic", w, seed=0)
        shifted = d.translate(8.0)
        overlap = Window(-7, 7, -7, 7)
        dist = transport_distance(d, shifted, overlap)
        assert dist <= 0.125
        assert dist > 0.0

    def test_symmetry_exact(self):
        a = generate("poisson", Window(-3, 3, -3, 3), seed=11, intensity=1.0)
        b = generate("poisson", Window(-3, 3, -3, 3), seed=12, intensity=1.0)
        w = Window(-3, 3, -3, 3)
        assert transport_distance(a, b, w) == transport_distance(b, a, w)

    @settings(max_examples=25, deadline=None)
    @given(w=dyadic_complex(-2, 2))
    def test_shift_invariance(self, w):
        a = generate("poisson", Window(-3, 3, -3, 3), seed=21, intensity=0.8)
        b = generate("poisson", Window(-3, 3, -3, 3), seed=22, intensity=0.8)
        win = Window(-3, 3, -3, 3)
        base = transport_distance(a, b, win)
        moved = transport_distance(a.translate(w, move_window=True),
                                   b.translate(w, move_window=True),
                                   win.translate(w))
        assert moved == base

    @settings(max_examples=20, deadline=None)
    @given(seeds=st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)))
    def test_triangle_inequality(self, seeds):
        win = Window(-2, 2, -2, 2)
        ds = [generate("poisson", win, seed=s, intensity=1.0) for s in seeds]
        try:
            dab = transport_distance(ds[0], ds[1], win)
            dbc = transport_distance(ds[1], ds[2], win)
            dac = transport_distance(ds[0], ds[2], win)
        except EmptyWindow:
            return
        if math.isinf(dab) or math.isinf(dbc):
            return
        assert dac <= dab + dbc + 1e-12


# ---------------------------------------------------------------------------
# stabilizer detection


class TestStabilizer:
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
    def _nudged_lattice():
        # nudge the central lattice point by 2**-24 (an exact dyadic step);
        # corner points would fall outside the comparison window, so the
        # perturbation must sit in the interior to be seen at all
        base = generate("periodic-lattice", Window(-8, 8, -8, 8), spacing=1.0)
        locs = base.locs.copy()
        k = int(np.argmin(np.abs(locs)))
        assert locs[k] == 0j
        locs[k] += 2.0 ** -24
        return Divisor(locs, base.mults, base.window)

    def test_near_period_is_ambiguous(self):
        # mismatch 2**-24 ~ 5.96e-8 sits inside [tol, 10 tol) for tol=2e-8
        with pytest.raises(AmbiguousNearPeriod):
            detect_stabilizer(self._nudged_lattice(), tol=2e-8)

    def test_decisive_perturbation_reads_free(self):
        # the same nudge is decisively non-periodic at the default tolerance
        assert detect_stabilizer(self._nudged_lattice(), tol=1e-9).kind == "free"

    def test_shift_covariance_of_generators(self):
        d = generate("periodic-lattice", Window(-8, 8, -8, 8), spacing=1.0)
        moved = d.translate(0.25 + 0.125j, move_window=True)
        assert detect_stabilizer(moved).generators == detect_stabilizer(d).generators


# ---------------------------------------------------------------------------
# principal-part extraction


class TestExtractPrincipalParts:
    def test_simple_pole(self):
        f = SampledFunction(lambda z: 1 / z, singularities=(0j,))
        pp = extract_principal_parts(f, [0j], radius=0.5)
        assert len(pp) == 1
        pole, coeffs = pp.entries[0]
        assert pole == 0j
        assert len(coeffs) == 1
        assert abs(coeffs[0] - 1.0) < 1e-12

    def test_two_simple_poles(self):
        f = SampledFunction(lambda z: 2 * z / (z ** 2 - 1),
                            singularities=(1 + 0j, -1 + 0j))
        pp = extract_principal_parts(f, [1 + 0j, -1 + 0j], radius=0.5)
        got = {p: cs for p, cs in pp.entries}
        assert abs(got[1 + 0j][0] - 1.0) < 1e-12
        assert abs(got[-1 + 0j][0] - 1.0) < 1e-12

    def test_double_pole(self):
        f = SampledFunction(lambda z: 1 / z ** 2 + 2 / z, singularities=(0j,))
        pp = extract_principal_parts(f, [0j], radius=0.75)
        _, coeffs = pp.entries[0]
        assert len(coeffs) == 2
        assert abs(coeffs[0] - 2.0) < 1e-12
        assert abs(coeffs[1] - 1.0) < 1e-12

    def test_regular_point_is_omitted(self):
        f = SampledFunction(lambda z: np.exp(z))
        pp = extract_principal_parts(f, [0j], radius=0.5)
        assert len(pp) == 0

    def test_overlapping_circles(self):
        f = SampledFunction(lambda z: 1 / z, singularities=(0j,))
        with pytest.raises(OverlappingCircles):
            extract_principal_parts(f, [0j, 0.6 + 0j], radius=0.5)

    def test_analytic_part_is_ignored(self):
        # the entire summand exp(z) contributes nothing to the coefficients
        f = SampledFunction(lambda z: 1 / (z - 1j) + np.exp(z),
                            singularities=(1j,))
        pp = extract_principal_parts(f, [1j], radius=0.5)
        pole, coeffs = pp.entries[0]
        assert pole == 1j
        assert len(coeffs) == 1
        assert abs(coeffs[0] - 1.0) < 1e-10

    def test_principal_parts_json_round_trip(self):
        pp = PrincipalParts(((1j, (1 + 2j, 3 + 0j)), (2 + 0j, (0.5 + 0j,))))
        back = PrincipalParts.from_json(pp.to_json())
        assert back == pp


class TestStabilizerReportShape:
    def test_fields(self):
        rep = StabilizerReport(kind="free", generators=(), tol=1e-9)
        assert rep.kind == "free"
        assert rep.tol == 1e-9
