"""Lifting recursion: stage chains, certificates, divisor recovery,
equivariance double-runs, additive and harmonic lanes, trace dumps."""

import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilift import lifting, runge
from equilift.builders import Potential, verify_divisor_match
from equilift.core import (BASE_SUM_BLOCK, FAR_RATIO, Circle, CompactRegion,
                           ComplexPoly, Window, base_sum, count_zeros, q26)
from equilift.divisors import Divisor, PrincipalParts, extract_principal_parts, generate
from equilift.errors import (DegreeCapExceeded, DivisorMismatch,
                             NonFreeInput, RungeFailure)
from equilift.lifting import (ADDITIVE, HARMONIC, MULTIPLICATIVE,
                              LocalSolution, lift_mittag_leffler,
                              lift_poisson_2d, lift_weierstrass,
                              poisson_submean_probe, verify_equivariance)
from equilift.toast import build_covariant_toast

WIN8 = Window(-8, 8, -8, 8)

SHIFT = complex(q26(0.37 + 1.2j))


def six_point_divisor():
    # includes a double zero; all points well inside the inner window
    locs = np.array([0.5 + 0.5j, -2.25 + 1.5j, 3.0 - 2.0j,
                     -4.5 - 3.25j, 1.75 + 4.0j, -0.75 - 1.25j])
    mults = np.array([1, 1, 2, 1, 1, 1])
    return Divisor(locs, mults, WIN8)


def lift(d, N=3, **kw):
    toast = build_covariant_toast(d, N=N, r0=1.0, gamma=4.0)
    return lift_weierstrass(d, toast, N, **kw)


@pytest.fixture(scope="module")
def six_trace():
    return lift(six_point_divisor())


@pytest.fixture(scope="module")
def poisson_trace():
    d = generate("poisson", WIN8, seed=3, intensity=0.2)
    return lift(d), d


# ---------------------------------------------------------------------------
# chain toast: the recursion is stationary


class TestChainStationary:
    def trace(self, N=3):
        d = Divisor(np.array([0.5 + 0.5j]), np.array([1]), WIN8)
        return lift(d, N=N)

    def test_psi_constant_across_levels(self):
        trace = self.trace()
        pts = WIN8.inner(0.15).grid(2.0)
        v0 = trace.psi(0)(pts)
        for n in range(1, trace.depth + 1):
            assert np.array_equal(trace.psi(n)(pts), v0)

    def test_rates_exactly_zero(self):
        trace = self.trace()
        K = CompactRegion.disk(trace.base_point, 1.0)
        for n in range(1, trace.depth + 1):
            assert trace.rate(n, K) == 0.0

    def test_certificates_zero_and_certified(self):
        trace = self.trace()
        for n in range(1, trace.depth + 1):
            certs = trace.levels[n].certificates
            assert [c["radius"] for c in certs] == [1.0, 2.0, 4.0, 8.0]
            assert all(c["value"] == 0.0 for c in certs)
            # certified wherever the ladder disk fits in the chain's
            # previous region, disk of radius 4**(n-1) at the atom
            for c in certs:
                assert c["certified"] == (c["radius"] <= 4.0 ** (n - 1))

    def test_single_zero_location(self):
        trace = self.trace()
        report = trace.verify_membership()
        assert report["matched"]
        assert report["max_position_error"] < 1e-12


# ---------------------------------------------------------------------------
# zero prescriptions: recovery and certificates


class TestDivisorRecovery:
    def test_membership_at_every_stage(self, six_trace):
        for n in range(six_trace.depth + 1):
            report = six_trace.verify_membership(n)
            assert report["matched"], (n, report["mismatches"])
            assert report["max_position_error"] < 1e-8

    def test_double_zero_multiplicity(self, six_trace):
        psi = six_trace.psi()
        (k,), _ = count_zeros(psi, [Circle(3.0 - 2.0j, 0.3)])
        assert k == 2

    def test_poisson_membership(self, poisson_trace):
        trace, d = poisson_trace
        report = trace.verify_membership()
        assert report["matched"], report["mismatches"][:3]
        assert report["max_position_error"] < 1e-8

    def test_poisson_residual_reported(self, poisson_trace):
        # the largest pre-rounding argument-principle residual over the
        # per-point circles: rounding noise, far below the 0.25 refusal
        trace, _ = poisson_trace
        report = trace.verify_membership()
        assert 0.0 <= report["max_residual"] < 1e-10

    def test_poisson_newton_steps_reported(self, poisson_trace):
        # every refinement starts inside Newton's basin: a handful of
        # quadratically convergent steps, never the 60-step cap
        trace, _ = poisson_trace
        steps = trace.verify_membership()["max_newton_steps"]
        assert isinstance(steps, int) and 1 <= steps <= 8

    def test_membership_clears_zeros_outside_the_inner_window(self):
        # membership checks the inner window's zeros only, but its circles
        # clear every data point: the separating circle about the zero just
        # inside the inner edge must shrink away from the zero 0.2 beyond
        # it, or it counts 2 where 1 is expected
        inner = WIN8.inner(0.15)
        locs = [0.5 + 0.5j, -2.25 + 1.5j, 3.0 - 2.0j, -4.5 - 3.25j,
                1.75 + 4.0j, complex(inner.xmax - 0.05, 0.37),
                complex(inner.xmax + 0.15, 0.37)]
        d = Divisor(np.array(locs), np.ones(len(locs), dtype=int), WIN8)
        assert np.count_nonzero(inner.contains(d.locs)) == 6
        trace = lift(d)
        report = trace.verify_membership()
        assert report["matched"], report["mismatches"]

    def test_membership_parity_with_the_direct_sum(self):
        # psi's dlog sums each contour's far zeros as one Taylor series; a
        # copy of psi whose dlog takes every zero directly must give the
        # same report on a 196-point input
        d = generate("poisson", Window(-16, 16, -16, 16), seed=3,
                     intensity=0.2)
        assert len(d) == 196
        trace = lift(d)
        psi = trace.psi()
        _, anchor, sol = trace.solution(None)
        b = sol.offsets[:, None]

        def direct_dlog(z):
            u = np.asarray(z, dtype=complex) - anchor
            with np.errstate(all="ignore"):
                return sol.correction.derivative()(u) + base_sum(
                    lambda row: 1 / (row - b), u, sol.weights)

        # separating circles have radius at most 0.25: each one has far zeros
        inner = d.window.inner(0.15)
        checked = d.locs[inner.contains(d.locs)]
        reach = np.abs(sol.offsets[:, None] - (checked - anchor))
        assert np.all(np.sum(reach > FAR_RATIO * 0.25, axis=0) > 100)
        got = trace.verify_membership()
        want = verify_divisor_match(replace(psi, dlog=direct_dlog), d, inner)
        assert got["matched"] and want["matched"]
        for key in ("mismatches", "max_position_error", "max_newton_steps"):
            assert got[key] == want[key], key
        assert abs(got["max_residual"] - want["max_residual"]) < 1e-12

    def test_membership_memory_is_bounded(self):
        # 804 points: one (circles x 512) dlog batch would peak at about
        # 16.6 MB, one circle at a time at about 1 MB; the batch goes in
        # chunks of rows, about 3 MB
        d = generate("poisson", Window(-32, 32, -32, 32), seed=3,
                     intensity=0.2)
        assert len(d) == 804
        trace = lift(d, N=4)
        tracemalloc.start()
        try:
            report = trace.verify_membership()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["matched"]
        assert peak < 4e6

    def test_input_validation(self):
        neg = Divisor(np.array([0j]), np.array([-1]), WIN8)
        with pytest.raises(ValueError):
            lift_weierstrass(neg, None, 2)
        empty = Divisor(np.array([]), np.array([]), WIN8)
        with pytest.raises(ValueError, match="empty data"):
            lift_weierstrass(empty, None, 2)

    def test_toast_must_match_data(self, six_trace):
        other = Divisor(np.array([1j]), np.array([1]), WIN8)
        with pytest.raises(ValueError):
            lift_weierstrass(other, six_trace.toast, 2)

    def test_levels_cannot_exceed_toast_depth(self):
        d = six_point_divisor()
        toast = build_covariant_toast(d, N=2, r0=1.0, gamma=4.0)
        with pytest.raises(ValueError):
            lift_weierstrass(d, toast, 3)


class TestCertificates:
    def test_values_below_epsilon(self, poisson_trace):
        trace, _ = poisson_trace
        for n in range(1, trace.depth + 1):
            for c in trace.levels[n].certificates:
                assert c["value"] < 2.0 ** (-n), (n, c)

    def test_certified_rates_revalidate_at_4x_density(self, poisson_trace):
        # the stored value samples at density 64; an honest rate must stay
        # under the bound when the same step is resampled 4x finer
        trace, _ = poisson_trace
        seen = 0
        for n in range(1, trace.depth + 1):
            for c in trace.levels[n].certificates:
                if not c["certified"]:
                    continue
                seen += 1
                K = CompactRegion.disk(trace.base_point, c["radius"])
                assert trace.rate(n, K, density=256) < 2.0 ** (-n)
        assert seen > 0

    def test_cumulative_drift_two_stages(self, six_trace):
        # |Re log(psi_N / psi_{N-2})| <= 2^{-N} + 2^{-N+1} < 2^{-N+2}
        N = six_trace.depth
        K = CompactRegion.disk(six_trace.base_point, 1.0)
        pts = K.boundary_samples(64)
        hi = np.asarray(six_trace.psi(N).log_eval(pts))
        lo = np.asarray(six_trace.psi(N - 2).log_eval(pts))
        drift = float(np.max(np.abs(np.real(hi - lo))))
        assert drift <= 2.0 ** (-N + 2)

    def test_tail_bound(self, six_trace):
        assert six_trace.tail_bound == 2.0 ** (-six_trace.depth)


# ---------------------------------------------------------------------------
# rates of a synthetic step: every fitted correction is 0 on these inputs,
# so psi_3's correction is replaced by a fixed polynomial (local coordinates)

SYNTHETIC = ComplexPoly((0.5, 0.1 - 0.05j, 0.01j))


def with_correction(trace, n, poly):
    """The trace with the correction of psi_n's solution replaced by poly."""
    m, a = trace.levels[n].chain
    lv = trace.levels[m]
    levels = list(trace.levels)
    levels[m] = replace(lv, solutions={
        **lv.solutions, a: replace(lv.solutions[a], correction=poly)})
    return replace(trace, levels=tuple(levels))


def synthetic_trace(mode, d):
    toast = build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)
    trace = with_correction(lift_mode(mode, d, toast, N=3), 3, SYNTHETIC)
    # the step 2 -> 3 is a patched chain step, so it carries the gap
    assert trace.solution(3)[2] is not trace.solution(2)[2]
    return trace


def two_disks(trace):
    b = trace.base_point
    return CompactRegion([b, b + 1.25], [1.0, 0.75])


MODES = [MULTIPLICATIVE, ADDITIVE, HARMONIC]


class TestRates:
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=4, deadline=None)
    @given(w=st.builds(lambda x, y: complex(q26(complex(x, y))),
                       st.floats(-4, 4), st.floats(-4, 4)))
    def test_rate_shift_covariance_exact(self, mode, w):
        d = six_point_divisor()
        trace = synthetic_trace(mode, d)
        moved = synthetic_trace(mode, d.translate(w, move_window=True))
        K = two_disks(trace)
        assert trace.rate(3, K) > 0
        # bitwise: quantized anchors and samples make the differences exact
        assert moved.rate(3, K.translate(w)) == trace.rate(3, K)

    @pytest.mark.parametrize("mode", MODES)
    def test_rate_monotone_under_disk_extension(self, mode):
        # the boundary samples of a disk-list extension are a superset
        trace = synthetic_trace(mode, six_point_divisor())
        K = two_disks(trace)
        b = trace.base_point
        K2 = CompactRegion(list(K.centers) + [b - 0.5 + 1j],
                           list(K.radii) + [1.1])
        assert 0 < trace.rate(3, K) <= trace.rate(3, K2)

    @pytest.mark.parametrize("mode", MODES)
    def test_boundary_rate_matches_interior_grid(self, mode):
        # the gap is a polynomial: its sup over K sits on K's boundary
        trace = synthetic_trace(mode, six_point_divisor())
        K = two_disks(trace)
        grid = K.bounding_box().grid(2e-3).ravel()
        pts = grid[K.contains(grid)]
        _, a_hi, hi = trace.solution(3)
        _, a_lo, lo = trace.solution(2)
        gap = hi.correction(pts - a_hi) - lo.correction(pts - a_lo)
        if mode != ADDITIVE:
            gap = np.real(gap)
        inner = float(np.max(np.abs(gap)))
        assert trace.rate(3, K, density=64) == pytest.approx(inner, rel=1e-3)


class TestTypedRefusals:
    def test_runge_cap_is_refused_with_level_and_anchor(self, monkeypatch):
        d = six_point_divisor()
        toast = build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)
        honest = lift_weierstrass(d, toast, 3, check_membership=False)
        cap = DegreeCapExceeded("cap reached", cap=8, best_error=1.0)

        def fail(problem):
            raise cap

        monkeypatch.setattr(runge, "solve", fail)
        with pytest.raises(RungeFailure) as info:
            lift_weierstrass(d, toast, 3)
        # only chain steps are fitted: the first fit is at the first level
        # whose chain region has the previous level's chain region as a
        # child, level 3 on this input
        first = next(lv for lv in honest.levels[1:]
                     if honest.levels[lv.n - 1].chain
                     in toast.children.get(lv.chain, ()))
        assert first.n == 3
        assert info.value.level == first.n
        assert info.value.anchor == first.chain[1]
        assert info.value.__cause__ is cap

    def test_certified_rate_over_epsilon_is_refused(self, monkeypatch):
        d = six_point_divisor()
        toast = build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)
        honest = lift_weierstrass(d, toast, 3, check_membership=False)
        first = next(lv for lv in honest.levels[1:]
                     if any(c["certified"] for c in lv.certificates))
        # a rate of 1 is over every epsilon 2**-n with n >= 1; the fits,
        # which are handed the same part, fit the constant 1 exactly
        kernel = lifting._KERNELS[MULTIPLICATIVE]
        monkeypatch.setitem(lifting._KERNELS, MULTIPLICATIVE,
                            replace(kernel, part=lambda v: np.ones(v.shape)))
        with pytest.raises(RungeFailure) as info:
            lift_weierstrass(d, toast, 3)
        assert info.value.level == first.n
        assert info.value.anchor == first.chain[1]

    @pytest.mark.parametrize("build", ["toast", "lift"])
    def test_depth_must_be_an_integer(self, build):
        # a depth of 2.7 used to lift to depth 2, and a toast of depth 2.5
        # died in range() with a TypeError
        d = six_point_divisor()
        toast = build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)
        if build == "toast":
            call = lambda N: build_covariant_toast(d, N, r0=1.0, gamma=4.0)
        else:
            call = lambda N: lift_weierstrass(d, toast, N,
                                              check_membership=False)
        assert call(np.int64(2)).depth == 2
        for bad in (2.7, 2.5, 2.0, -1, "2"):
            with pytest.raises(ValueError, match="depth"):
                call(bad)

    def test_membership_miss_is_refused(self, monkeypatch):
        d = six_point_divisor()
        toast = build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)
        miss = {"matched": False, "mismatches": [{"loc": 0.5 + 0.5j}]}
        monkeypatch.setattr(lifting, "verify_divisor_match",
                            lambda *a, **kw: miss)
        with pytest.raises(DivisorMismatch, match="misses the divisor"):
            lift_weierstrass(d, toast, 3)
        # the same lift without the membership check goes through
        assert lift_weierstrass(d, toast, 3, check_membership=False).depth == 3


# ---------------------------------------------------------------------------
# only the base-point chain is solved


@pytest.fixture(scope="module")
def poisson_196():
    d = generate("poisson", Window(-16, 16, -16, 16), seed=3, intensity=0.2)
    assert len(d) == 196
    return d, build_covariant_toast(d, N=4, r0=1.0, gamma=4.0)


def lift_mode(mode, d, toast, N=4):
    locs = d.locs.tolist()
    if mode == MULTIPLICATIVE:
        return lift_weierstrass(d, toast, N, check_membership=False)
    if mode == ADDITIVE:
        pp = PrincipalParts(tuple((p, (1 + 0j,)) for p in locs))
        return lift_mittag_leffler(pp, toast, N)
    mu = Potential(tuple(((p.real, p.imag), 1.0) for p in locs), dim=2)
    return lift_poisson_2d(mu, toast, N)


class TestChainOnly:
    @pytest.mark.parametrize("mode", [MULTIPLICATIVE, ADDITIVE, HARMONIC])
    def test_only_the_chain_is_solved(self, poisson_196, monkeypatch, mode):
        # a level holds the chain anchor's solution when the chain sits at
        # it, and none otherwise; each fit's region is the previous chain
        # region in the frame of the chain anchor, and levels fit in
        # order with epsilon 2**-n, so no level fits twice
        d, toast = poisson_196
        problems = []
        solve = runge.solve

        def record(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(runge, "solve", record)
        trace = lift_mode(mode, d, toast)
        for lv in trace.levels:
            m, a = lv.chain
            assert list(lv.solutions) == ([a] if m == lv.n else [])
        want = []
        for lo, hi in zip(trace.levels, trace.levels[1:]):
            if lo.chain in toast.children.get(hi.chain, ()):
                region = toast.region(*lo.chain).translate(-hi.chain[1])
                want.append((hi.epsilon, region))
        assert 0 < len(problems) == len(want) <= trace.depth
        for problem, (epsilon, region) in zip(problems, want):
            assert problem.epsilon == epsilon
            assert np.array_equal(problem.region.centers, region.centers)
            assert np.array_equal(problem.region.radii, region.radii)
            # the datum's values pick the fit: the log-modulus (product)
            # and the potential (harmonic) are real, the additive gap is
            # complex
            values = problem.datum(problem.region.boundary_samples(16))
            assert np.iscomplexobj(values) == (mode == ADDITIVE)

    def test_levels_below_first_coverage_hold_none(self, poisson_trace):
        # this input's base point lies in no level-0 or level-1 region:
        # levels 0 and 1 share the nearest base region's solution
        trace, _ = poisson_trace
        assert trace.levels[1].chain == trace.levels[0].chain
        assert trace.levels[1].solutions == {}
        assert trace.solution(1)[2] is trace.solution(0)[2]


def moved_far_point(d, trace, n):
    """The data point farthest from the base point, moved 0.25 towards the
    window centre, and a disk inside the level-n chain region."""
    region = trace.toast.region(*trace.levels[n].chain)
    k = int(np.argmax(np.abs(d.locs - trace.base_point)))
    p = complex(d.locs[k])
    locs = d.locs.copy()
    locs[k] = complex(q26(p - 0.25 * p / abs(p)))
    K = CompactRegion.disk(region.anchor, float(region.radii[0]) / 2)
    return Divisor(locs, d.mults, d.window), (p, complex(locs[k])), region, K


class TestLocality:
    N_LOCAL = 1

    def test_move_stays_outside_the_chain_region(self, poisson_196):
        d, toast = poisson_196
        trace = lift_mode(MULTIPLICATIVE, d, toast)
        moved, (p, q), region, K = moved_far_point(d, trace, self.N_LOCAL)
        assert trace.levels[self.N_LOCAL].chain[0] == self.N_LOCAL
        assert not region.contains(p) and not region.contains(q)
        assert K.contained_in(region)
        assert d.window.contains(q)
        assert np.min(np.abs(np.delete(moved.locs, np.argmax(
            moved.locs == q)) - q)) > 0.1

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="every local solution carries all data points")
    def test_far_move_leaves_psi_n_unchanged_inside(self, poisson_196):
        d, toast = poisson_196
        n = self.N_LOCAL
        trace = lift_mode(MULTIPLICATIVE, d, toast)
        moved, _, _, K = moved_far_point(d, trace, n)
        other = lift_mode(MULTIPLICATIVE, moved,
                          build_covariant_toast(moved, N=4, r0=1.0, gamma=4.0))
        pts = K.boundary_samples(32)
        assert np.array_equal(trace.psi(n).log_eval(pts),
                              other.psi(n).log_eval(pts))


# ---------------------------------------------------------------------------
# the product gauge


def product_solutions(trace):
    return [sol for lv in trace.levels for sol in lv.solutions.values()]


class TestGauge:
    def test_one_quantized_gauge_point_per_lift(self, poisson_trace):
        # every base is normalized at one q26 point g, which moves with the
        # data: the shifted lift's point is exactly g - SHIFT
        trace, d = poisson_trace
        shifted = lift(d.translate(-SHIFT, move_window=True),
                       check_membership=False)
        points = [{sol.anchor + sol.gauge for sol in product_solutions(tr)}
                  for tr in (trace, shifted)]
        assert [len(p) for p in points] == [1, 1]
        g, g_shifted = points[0].pop(), points[1].pop()
        assert complex(q26(g)) == g
        assert g_shifted == g - SHIFT

    def test_bases_cancel_exactly(self, poisson_trace):
        # shared normalizers leave every patching datum exactly 1
        trace, _ = poisson_trace
        for sol in product_solutions(trace):
            assert all(c == 0 for c in sol.correction.coeffs)


# ---------------------------------------------------------------------------
# blocked base sums against per-offset loops


def blocked_solution(mode):
    """A hand-built solution: 37 offsets, a non-constant correction and, for
    principal parts, orders 1 to 3."""
    rng = np.random.default_rng(5)
    offsets = q26(rng.uniform(-4, 4, 37) + 1j * rng.uniform(-4, 4, 37))
    correction = ComplexPoly((0.3 + 0.1j, -0.2j, 0.05), center=0.5, scale=2.0)
    if mode == ADDITIVE:
        coeffs = [tuple(rng.normal(size=1 + j % 3) + 1j) for j in range(37)]
        weights = np.zeros((37, 3), dtype=complex)
        for row, c in zip(weights, coeffs):
            row[:len(c)] = c
    else:
        coeffs = None
        weights = rng.integers(1, 3, 37).astype(float)
    gauge = complex(q26(0.125 + 4.5j)) if mode == MULTIPLICATIVE else 0j
    sol = LocalSolution(anchor=0j, mode=mode, offsets=offsets,
                        weights=weights, correction=correction, gauge=gauge)
    return sol, coeffs


def loop_log_value(sol, u):
    return sol.correction(u) + sum(
        m * np.log((b - u) / (b - sol.gauge))
        for b, m in zip(sol.offsets, sol.weights))


def loop_dlog(sol, u):
    return sol.correction.derivative()(u) + sum(
        m / (u - b) for b, m in zip(sol.offsets, sol.weights))


def loop_value(sol, coeffs, u):
    if sol.mode == MULTIPLICATIVE:
        return np.exp(loop_log_value(sol, u))
    if sol.mode == ADDITIVE:
        return sol.correction(u) + sum(
            c / (u - b) ** j for b, cs in zip(sol.offsets, coeffs)
            for j, c in enumerate(cs, start=1))
    return np.real(sol.correction(u)) + sum(
        mass * np.log(np.abs(u - b)) / (2 * math.pi)
        for b, mass in zip(sol.offsets, sol.weights))


def blocked_inputs(sol):
    """A Python scalar, 0-d and length-1 arrays, a 2-D grid holding an
    offset, and a 1-D array spanning three blocks, its length no multiple
    of the u entries per block, holding every offset."""
    per_block = BASE_SUM_BLOCK // sol.weights.size
    grid = WIN8.inner(0.25).grid(0.5)
    grid[3, 5] = sol.offsets[1]
    line = np.concatenate(
        [np.linspace(-5 - 4j, 5 + 4.5j, 2 * per_block + 7), sol.offsets])
    assert len(line) > 2 * per_block and len(line) % per_block
    return [1.5 - 0.75j, np.array(0.25 + 2j), np.array([-1.0 + 0.5j]),
            grid, line]


def assert_matches_loop(got, want, u):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == np.shape(u)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    err = np.abs(got[finite] - want[finite])
    assert np.all(err <= 1e-12 * np.abs(want[finite]))


class TestBlockedBaseSums:
    @pytest.mark.parametrize("mode", [MULTIPLICATIVE, ADDITIVE, HARMONIC])
    def test_value_matches_loop(self, mode):
        sol, coeffs = blocked_solution(mode)
        with np.errstate(all="ignore"):
            for u in blocked_inputs(sol):
                want = loop_value(sol, coeffs, np.asarray(u, dtype=complex))
                assert_matches_loop(sol.value(u), want, u)

    @pytest.mark.parametrize("method, loop", [("log_value", loop_log_value),
                                              ("dlog", loop_dlog)])
    def test_product_log_forms_match_loop(self, method, loop):
        sol, _ = blocked_solution(MULTIPLICATIVE)
        with np.errstate(all="ignore"):
            for u in blocked_inputs(sol):
                want = loop(sol, np.asarray(u, dtype=complex))
                assert_matches_loop(getattr(sol, method)(u), want, u)

    def test_offsets_are_one_array(self, poisson_trace):
        trace, d = poisson_trace
        for sol in product_solutions(trace):
            assert isinstance(sol.offsets, np.ndarray)
            assert np.array_equal(sol.offsets + sol.anchor, d.locs)


# ---------------------------------------------------------------------------
# base-sum kernels at their edge cases against the per-offset loops


def edge_solution(mode):
    """A hand-built solution for the kernels' edge cases: an offset at 0,
    offsets on the real axis through the gauge 0.5 (the ratios
    (b - u)/(b - gauge) then meet their branch cut on that axis),
    multiplicity 2 at 2 + 0j and 1.5 + 2.25j, principal parts of orders 1
    to 3 (order 1 at 0), and a constant correction, finite at |u| = 1e200."""
    offsets = np.array([0j, 2 + 0j, -2 + 0j, 1.5 + 2.25j, -3.25 - 1j])
    correction = ComplexPoly((0.3 + 0.1j,))
    coeffs = None
    if mode == ADDITIVE:
        coeffs = [(1 - 0.5j,), (0.25 + 1j, -2j),
                  (1.5, 0.5 - 0.5j, 0.75 + 0.25j), (-1j, 2.0), (0.5 + 0.5j,)]
        weights = np.zeros((5, 3), dtype=complex)
        for row, c in zip(weights, coeffs):
            row[:len(c)] = c
    else:
        weights = np.array([1.0, 2.0, 1.0, 2.0, 1.0])
    gauge = 0.5 + 0j if mode == MULTIPLICATIVE else 0j
    sol = LocalSolution(anchor=0j, mode=mode, offsets=offsets,
                        weights=weights, correction=correction, gauge=gauge)
    return sol, coeffs


TINY = 1e-200 * (0.6 + 0.8j)

# -1, 3.5 and -4.5 lie on the cut of the offsets 0, 2 and -2 (-4.5 on that
# of 0 as well); a squared modulus underflows at TINY and overflows at 1e200
EDGE_POINTS = {
    "within 1e-200 of an offset": [TINY, -TINY, complex(1e-200, -0.0)],
    "modulus near 1e200": [1e200 * (0.6 + 0.8j), 1e200j,
                           complex(-1e200, 0.0), complex(-1e200, -0.0)],
    "cut, +0.0": [complex(x, 0.0) for x in (-1.0, 3.5, -4.5)],
    "cut, -0.0": [complex(x, -0.0) for x in (-1.0, 3.5, -4.5)],
    "multiplicity 2": [2 + 1e-3j, 2 - 1e-3j, 1.5 + 2.3j, 1.25 + 2.25j],
}


class TestKernelEdgeCases:
    @pytest.mark.parametrize("case", sorted(EDGE_POINTS))
    def test_product_matches_loop(self, case):
        sol, _ = edge_solution(MULTIPLICATIVE)
        u = np.array(EDGE_POINTS[case])
        with np.errstate(all="ignore"):
            got, want = sol.log_value(u), loop_log_value(sol, u)
            assert_matches_loop(got, want, u)
            # the loop's branch: the arguments differ by no multiple of 2 pi
            assert np.all(np.round((got.imag - want.imag) / (2 * math.pi)) == 0)
            assert_matches_loop(sol.value(u), loop_value(sol, None, u), u)

    def test_principal_parts_at_and_near_poles(self):
        sol, coeffs = edge_solution(ADDITIVE)
        # the order-1 pole at 0 sits in a table padded to order 3, so a
        # power form would meet 0 * (1e-200)^-3 = 0 * inf at TINY
        u = np.concatenate([sol.offsets, sol.offsets + 1e-3, [TINY, -TINY]])
        with np.errstate(all="ignore"):
            got = sol.value(u)
            want = loop_value(sol, coeffs, u)
        assert not np.isfinite(got[:len(sol.offsets)]).any()
        assert np.isfinite(got[len(sol.offsets):]).all()
        assert_matches_loop(got, want, u)


# ---------------------------------------------------------------------------
# equivariance double-runs


class TestEquivariance:
    def test_zero_shift_is_exact(self, six_trace):
        report = verify_equivariance(six_trace, 0j)
        assert report.passed
        assert report.deviation == 0.0

    def test_generic_shift(self, poisson_trace):
        trace, _ = poisson_trace
        report = verify_equivariance(trace, SHIFT)
        assert report.passed, report.deviation
        assert report.deviation < 1e-6
        assert report.grid_points > 0
        assert report.refusal == ""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("r0, gamma, N", [(0.75, 4.0, 3), (1.0, 4.0, 3),
                                              (1.5, 4.0, 3), (1.0, 3.0, 2)])
    @pytest.mark.parametrize("data", ["poisson-48", "six-point"])
    def test_shifted_run_uses_the_trace_parameters(self, mode, r0, gamma, N,
                                                   data):
        # the shifted side is built at the trace's own toast parameters and
        # depths, so the two runs agree bit for bit
        d = (generate("poisson", WIN8, seed=3, intensity=0.2)
             if data == "poisson-48" else six_point_divisor())
        toast = build_covariant_toast(d, N=N, r0=r0, gamma=gamma)
        report = verify_equivariance(lift_mode(mode, d, toast, N), SHIFT)
        assert report.passed and report.deviation == 0.0

    def test_product_mode_compares_log_psi(self, six_trace, monkeypatch):
        # exp overflows away from the fitted regions; the product-mode
        # comparison reads log_eval and never the values
        kernel = lifting._KERNELS[MULTIPLICATIVE]
        monkeypatch.setitem(lifting._KERNELS, MULTIPLICATIVE, replace(
            kernel, value=lambda sol, u: np.full(u.shape, np.inf + 0j)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_equivariance(six_trace, SHIFT)
        assert report.passed and report.deviation == 0.0

    def test_product_zero_on_the_grid_agrees(self):
        # the origin is a node of the comparison grid on WIN8 under a zero
        # shift, so log psi is -inf there on both sides
        d = six_point_divisor()
        d = Divisor(np.append(d.locs, 0j), np.append(d.mults, 1), WIN8)
        trace = lift(d, check_membership=False)
        assert np.isneginf(trace.psi().log_eval(np.array([0j])).real).all()
        report = verify_equivariance(trace, 0j)
        assert report.passed and report.deviation == 0.0

    def test_product_arguments_compare_modulo_two_pi(self, six_trace,
                                                     monkeypatch):
        # an argument three turns apart is the same psi
        own = {id(sol) for lv in six_trace.levels
               for sol in lv.solutions.values()}
        log_value = LocalSolution.log_value

        def turned(sol, u):
            v = log_value(sol, u)
            return v if id(sol) in own else v + 6j * np.pi
        monkeypatch.setattr(LocalSolution, "log_value", turned)
        report = verify_equivariance(six_trace, SHIFT)
        assert report.passed and report.deviation < 1e-12

    def test_product_log_form_sees_a_wrong_shift(self, six_trace,
                                                 monkeypatch):
        # doubled multiplicities on the shifted side square psi there
        kernel = lifting._KERNELS[MULTIPLICATIVE]
        monkeypatch.setitem(lifting._KERNELS, MULTIPLICATIVE, replace(
            kernel, shift=lambda d, w: Divisor(
                d.locs + w, 2 * d.mults, d.window.translate(w))))
        report = verify_equivariance(six_trace, SHIFT)
        assert not report.passed and report.deviation > 1.0

    def test_refused_shifted_build_is_recorded(self, six_trace, monkeypatch):
        def refuse(*args, **kwargs):
            raise NonFreeInput("divisor has a singly-periodic stabilizer")
        monkeypatch.setattr(lifting, "build_covariant_toast", refuse)
        report = verify_equivariance(six_trace, SHIFT)
        assert not report.passed
        assert math.isnan(report.deviation)
        assert report.refusal.startswith("NonFreeInput")

    def test_zero_set_shifts_with_the_data(self, six_trace):
        # multiplicity-exact: the shifted build puts its zeros at z - w,
        # the double zero included
        d = six_point_divisor().translate(-SHIFT, move_window=True)
        shifted = lift(d)
        report = shifted.verify_membership()
        assert report["matched"]
        assert report["max_position_error"] < 1e-8
        psi = shifted.psi()
        (k,), _ = count_zeros(
            psi, [Circle(complex(q26(3.0 - 2.0j - SHIFT)), 0.3)])
        assert k == 2


def small_inputs():
    # about 39 Poisson points or 36 jittered-lattice points, a lift mode,
    # and a q26 shift that keeps most of the window in the overlap
    kinds = st.sampled_from([("poisson", Window(-7, 7, -7, 7)),
                             ("jittered-lattice", Window(0, 6, 0, 6))])
    coords = st.floats(-2, 2, allow_nan=False)
    return st.tuples(kinds, st.integers(0, 2 ** 31 - 1),
                     st.sampled_from(MODES),
                     st.builds(lambda x, y: complex(q26(complex(x, y))),
                               coords, coords))


@settings(max_examples=8, deadline=None)
@given(case=small_inputs())
def test_lift_commutes_with_q26_shifts(case):
    (kind, win), seed, mode, w = case
    d = generate(kind, win, seed=seed, intensity=0.2)
    try:
        toast = build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)
    except NonFreeInput:
        return  # the input is refused before any shift
    report = verify_equivariance(lift_mode(mode, d, toast, N=3), w)
    if report.refusal:
        assert report.refusal.startswith("NonFreeInput")
        assert not report.passed
    else:
        assert report.deviation < 1e-9, (kind, seed, mode, w)
        assert report.grid_points > 0


@settings(max_examples=8, deadline=None)
@given(case=small_inputs())
def test_base_point_and_chain_commute_with_q26_shifts(case):
    # the equivariance double run cannot see the base point while every
    # solution holds all data points; this pins it and the chain directly
    (kind, win), seed, _, w = case
    d = generate(kind, win, seed=seed, intensity=0.2)
    moved = d.translate(w, move_window=True)
    base = lifting._base_point(d.locs)
    assert lifting._base_point(d.locs + w) == base + w
    assert lifting._base_point(moved.locs) == base + w
    try:
        toast = build_covariant_toast(d, N=3, r0=1.0, gamma=4.0)
    except NonFreeInput:
        return
    toast_w = build_covariant_toast(moved, N=3, r0=1.0, gamma=4.0)
    chain = lifting._chain(toast, base, 3)
    assert lifting._chain(toast_w, base + w, 3) == [(m, a + w)
                                                    for m, a in chain]


# ---------------------------------------------------------------------------
# principal parts (additive lane)


class TestMittagLeffler:
    def test_single_pole_chain_gives_1_over_z(self):
        pp = PrincipalParts(((0j, (1 + 0j,)),))
        toast = build_covariant_toast(
            Divisor.from_points([(0j, 1)], WIN8), N=3, r0=1.0, gamma=4.0)
        trace = lift_mittag_leffler(pp, toast, 3)
        z = np.array([2.0 + 0j, -1.5j, 3.0 + 4.0j, 0.25 + 0.25j])
        assert np.array_equal(trace.psi()(z), 1.0 / z)

    def test_two_pole_round_trip(self):
        pp = PrincipalParts(((-1 + 0j, (1 + 0j,)),
                             (1 + 0j, (2 + 0j, 0.5 + 0j))))
        cfg = Divisor.from_points([(-1 + 0j, 1), (1 + 0j, 1)], WIN8)
        toast = build_covariant_toast(cfg, N=3, r0=1.0, gamma=4.0)
        trace = lift_mittag_leffler(pp, toast, 3)
        got = extract_principal_parts(trace.psi(), [-1 + 0j, 1 + 0j],
                                      radius=0.4)
        assert len(got.entries) == 2
        for (p_in, c_in), (p_out, c_out) in zip(pp.entries, got.entries):
            assert abs(p_in - p_out) < 1e-12
            assert len(c_in) == len(c_out)
            for a, b in zip(c_in, c_out):
                assert abs(a - b) < 1e-8

    def test_additive_certificates(self):
        pp = PrincipalParts(((-1 + 0j, (1 + 0j,)),
                             (1 + 0j, (2 + 0j, 0.5 + 0j))))
        cfg = Divisor.from_points([(-1 + 0j, 1), (1 + 0j, 1)], WIN8)
        toast = build_covariant_toast(cfg, N=3, r0=1.0, gamma=4.0)
        trace = lift_mittag_leffler(pp, toast, 3)
        for n in range(1, trace.depth + 1):
            for c in trace.levels[n].certificates:
                assert c["value"] < 2.0 ** (-n)

    def test_two_pole_equivariance(self):
        pp = PrincipalParts(((-1 + 0j, (1 + 0j,)),
                             (1 + 0j, (2 + 0j, 0.5 + 0j))))
        cfg = Divisor.from_points([(-1 + 0j, 1), (1 + 0j, 1)], WIN8)
        toast = build_covariant_toast(cfg, N=3, r0=1.0, gamma=4.0)
        report = verify_equivariance(lift_mittag_leffler(pp, toast, 3), SHIFT)
        assert report.passed, report.deviation
        assert report.deviation == 0.0

    def test_empty_prescription_is_refused(self):
        # an empty configuration is fixed by every translation, so it has
        # no covariant lift; the refusal comes before the toast and the
        # depth are read
        with pytest.raises(ValueError, match="empty data"):
            lift_mittag_leffler(PrincipalParts(()), None, 3)
        with pytest.raises(ValueError, match="empty data"):
            lift_mittag_leffler(PrincipalParts(()), "not a toast", 3.7)


# ---------------------------------------------------------------------------
# atomic measures (harmonic lane)


def potential_toast(mu, N=3):
    pts = [(complex(*loc), 1) for loc, _ in mu.atoms]
    cfg = Divisor.from_points(pts, WIN8)
    return build_covariant_toast(cfg, N=N, r0=1.0, gamma=4.0)


class TestPoisson2d:
    def test_single_atom_chain_gives_log_kernel(self):
        mu = Potential((((0.5, 0.5), 1.0),), dim=2)
        trace = lift_poisson_2d(mu, potential_toast(mu), 3)
        z = np.array([2.0 + 0j, -1.5j, 3.0 + 4.0j, 0.25 - 0.25j])
        want = np.log(np.abs(z - (0.5 + 0.5j))) / (2 * math.pi)
        got = np.real(trace.psi()(z))
        assert np.max(np.abs(got - want)) < 1e-15

    def test_two_atom_equivariance(self):
        mu = Potential((((0.5, 0.5), 1.0), ((2.25, -0.75), 1.5)), dim=2)
        trace = lift_poisson_2d(mu, potential_toast(mu), 3)
        report = verify_equivariance(trace, SHIFT)
        assert report.passed, report.deviation
        assert report.deviation < 1e-6

    def test_submean_probes(self):
        mu = Potential((((0.5, 0.5), 1.0), ((2.25, -0.75), 1.5),
                        ((-3.0, 1.25), 0.5)), dim=2)
        trace = lift_poisson_2d(mu, potential_toast(mu), 3)
        rows = poisson_submean_probe(trace, seed=7, count=50)
        assert len(rows) == 50
        for row in rows:
            assert row["slack"] >= -1e-8, row

    def test_dim_guard(self):
        # a 3D measure read from a dump never reaches the planar lift
        dump = {"dim": 3, "atoms": [{"loc": [0.0, 0.0, 0.0], "mass": 1.0}]}
        with pytest.raises(ValueError):
            lift_poisson_2d(Potential.from_json(dump), None, 2)

    def test_empty_measure_is_refused(self):
        with pytest.raises(ValueError, match="empty data"):
            lift_poisson_2d(Potential((), dim=2), None, 3)
        with pytest.raises(ValueError, match="empty data"):
            lift_poisson_2d(Potential((), dim=2), "not a toast", 3.7)


# ---------------------------------------------------------------------------
# trace dumps


RERUN_DUMPS = """
import hashlib, json
from equilift.builders import Potential
from equilift.core import Window
from equilift.divisors import PrincipalParts, generate
from equilift.lifting import (lift_mittag_leffler, lift_poisson_2d,
                              lift_weierstrass)
from equilift.toast import build_covariant_toast
d = generate("poisson", Window(-8, 8, -8, 8), seed=3, intensity=0.2)
toast = build_covariant_toast(d, 4, r0=1.0, gamma=4.0)
locs = d.locs.tolist()
traces = (lift_weierstrass(d, toast, 4),
          lift_mittag_leffler(
              PrincipalParts(tuple((p, (1 + 0j,)) for p in locs)), toast, 4),
          lift_poisson_2d(Potential(
              tuple(((p.real, p.imag), 1.0) for p in locs), dim=2), toast, 4))
print(hashlib.sha256("".join(
    json.dumps(t.to_json()) for t in traces).encode()).hexdigest())
"""


class TestTraceDump:
    def test_dumps_are_identical_across_reruns(self):
        # a fresh interpreter per run, each with its own string hashing:
        # nothing in the lift may depend on set or hash order
        root = pathlib.Path(__file__).resolve().parents[1]
        hashes = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
            out = subprocess.run([sys.executable, "-c", RERUN_DUMPS],
                                 env=env, check=True, capture_output=True,
                                 text=True)
            hashes.append(out.stdout.strip())
        assert len(hashes[0]) == 64 and hashes[0] == hashes[1]

    def test_json_round_trips_through_text(self, six_trace):
        dump = six_trace.to_json()
        again = json.loads(json.dumps(dump))
        assert again == dump
        assert again["mode"] == "multiplicative"
        assert len(again["levels"]) == six_trace.depth + 1
        for n, lv in enumerate(again["levels"]):
            assert lv["n"] == n
            assert lv["epsilon"] == 2.0 ** (-n)

    def test_dump_reevaluates_psi(self, six_trace):
        # the dump carries divisor, chain, gauge, and correction frames:
        # rebuild log psi from the serialized pieces alone
        dump = json.loads(json.dumps(six_trace.to_json()))
        m, av = dump["levels"][-1]["chain"]
        anchor = complex(av[0], av[1])
        entry = next(e for e in dump["levels"][m]["anchors"]
                     if complex(*e["anchor"]) == anchor)
        gauge = complex(*entry["gauge"])
        corr = ComplexPoly.from_json(entry["correction"])
        pts = [(complex(p["re"], p["im"]), p["mult"])
               for p in dump["divisor"]["points"]]

        def rebuilt(z):
            u = np.asarray(z, dtype=complex) - anchor
            out = corr(u)
            for loc, mult in pts:
                b = loc - anchor
                out = out + mult * np.log((b - u) / (b - gauge))
            return np.exp(out)

        z = WIN8.inner(0.2).grid(1.7)
        want = np.asarray(six_trace.psi()(z))
        got = rebuilt(z)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-9
