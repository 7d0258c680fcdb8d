"""Product builders, Newtonian potentials, and the continuity counterexample.

Oracles: closed forms for small products and principal-part sums; the
quintic roll-off integrals int_0^1 (1-S) dt = 1/2 and
int_0^1 (1-S) t dt = 1/7, giving the blow-up value pi n^2 + pi n + 2 pi/7;
a midpoint sum of the Cauchy transform at 0; the circle mean of log|x|,
log max(|c|, r). The Riesz-growth claim is tested in tests/test_periodic.py.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilift import builders, core
from equilift.builders import (
    EntireApprox,
    Potential,
    counterexample_bound,
    counterexample_value,
    dbar_counterexample,
    mittag_leffler,
    newtonian_potential,
    radial_blend_profile,
    verify_divisor_match,
    weierstrass,
)
from equilift.core import Circle, SampledFunction, Window, count_zeros, q26
from equilift.divisors import (
    Divisor, PrincipalParts, extract_principal_parts, generate)
from equilift.errors import EvaluationOnAtom

W8 = Window(-8, 8, -8, 8)


def D(points, window=W8):
    return Divisor.from_points(points, window)


# ---------------------------------------------------------------------------
# weierstrass products


class TestWeierstrass:
    def test_empty_divisor_is_one(self):
        f = weierstrass(D([]))
        z = np.array([0j, 1 + 2j, -3.5j])
        assert np.allclose(f(z), 1.0)
        assert np.allclose(f.dlog(z), 0.0)

    def test_single_zero_at_origin_is_z(self):
        f = weierstrass(D([(0j, 1)]))
        assert f(2 + 1j) == 2 + 1j
        assert f(0j) == 0

    def test_pm_one_gives_one_minus_z_squared(self):
        f = weierstrass(D([(1 + 0j, 1), (-1 + 0j, 1)]))
        assert abs(f(2.0 + 0j) - (-3.0)) < 1e-14
        assert abs(f(0j) - 1.0) < 1e-14

    def test_multiplicities(self):
        f = weierstrass(D([(0j, 2), (2 + 0j, 3)]))
        # z^2 (1 - z/2)^3 at z = 1
        assert abs(f(1.0 + 0j) - 0.125) < 1e-14
        # dlog = 2/z + 3/(z-2)
        assert abs(f.dlog(1.0 + 0j) - (2.0 - 3.0)) < 1e-13

    def test_dlog_is_not_finite_at_a_zero_without_a_warning(self):
        # as psi's: a PoleSum sums with floating-point warnings off, where
        # the direct sum used to warn of a division by zero
        f = weierstrass(D([(0j, 1), (2 + 0j, 3)]))
        assert isinstance(f.dlog, core.PoleSum)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.dlog(np.array([0j, 2 + 0j, 1 + 0j]))
        assert np.isfinite(got).tolist() == [False, False, True]
        assert abs(got[2] - (1.0 - 3.0)) < 1e-13

    def test_log_eval_consistency(self):
        f = weierstrass(D([(1 + 1j, 2), (-2 + 0j, 1)]))
        z = 3.0 + 0.5j
        assert abs(np.exp(f.log_eval(z)) - f(z)) < 1e-12 * abs(f(z))

    def test_log_eval_matches_per_zero_logs(self):
        # z^2 (1 - z/2) (1 + z): points on the cut of each factor with
        # +0.0 and -0.0 imaginary parts, and moduli of 1e-200 and 1e200,
        # where a squared modulus under- or overflows
        zeros = [(0j, 2), (2 + 0j, 1), (-1 + 0j, 1)]
        f = weierstrass(D(zeros))
        z = np.array([complex(3, 0.0), complex(3, -0.0), complex(-2.5, 0.0),
                      complex(-2.5, -0.0), 1e-200 * (0.6 + 0.8j),
                      1e200 * (0.6 + 0.8j), complex(-1e200, -0.0)])
        want = sum(m * np.log(z if a == 0 else 1 - z / a) for a, m in zeros)
        got = f.log_eval(z)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_negative_mult_rejected(self):
        with pytest.raises(ValueError):
            weierstrass(D([(0j, -1)]))

    def test_divisor_map_round_trip(self):
        d = D([(0j, 1), (1 + 1j, 2), (-2 - 0.5j, 1)])
        report = verify_divisor_match(weierstrass(d), d)
        assert report["matched"], report["mismatches"]
        assert report["max_position_error"] < 1e-8

    def test_zero_sets_shift_but_functions_differ_by_zerofree_factor(self):
        d = D([(0j, 1), (1.5 + 0.25j, 2)])
        w = q26(0.37 + 1.2j)
        f = weierstrass(d)
        fw = weierstrass(d.translate(w, move_window=True))
        moved = fw.divisor()
        assert np.array_equal(moved.locs, q26(d.locs + w))
        assert np.array_equal(moved.mults, d.mults)
        # ratio fw(z) / f(z - w) is zero-free (here a constant != 1)
        ratio = SampledFunction(evaluator=lambda z: fw(z) / f(z - w),
                                dlog=lambda z: fw.dlog(z) - f.dlog(z - w))
        assert count_zeros(ratio, [Circle(w, 3.0)])[0].tolist() == [0]
        vals = ratio(np.array([w + 0.1, w + 2.0]))
        assert abs(vals[0] - vals[1]) < 1e-12
        assert abs(vals[0] - 1.0) > 1e-3

    @settings(max_examples=10, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 3)),
        min_size=1, max_size=4))
    def test_divisor_map_is_right_inverse(self, triples):
        pts = {}
        for ix, iy, m in triples:
            pts[complex(ix * 0.5, iy * 0.5)] = m
        d = D(list(pts.items()))
        report = verify_divisor_match(weierstrass(d), d)
        assert report["matched"], report["mismatches"]


class TestMembershipMismatches:
    def test_count_mismatch_is_reported(self):
        # a double zero at 0 where a simple one is prescribed
        f = weierstrass(D([(0j, 2), (2 + 0j, 1)]))
        report = verify_divisor_match(f, D([(0j, 1), (2 + 0j, 1)]))
        assert not report["matched"]
        assert {"point": 0j, "expected": 1, "counted": 2} \
            in report["mismatches"]

    def test_position_mismatch_is_reported(self):
        # the zero sits 2^-20 from the prescribed point 0:
        # the count matches, the refined root does not
        f = weierstrass(D([(2.0 ** -20, 1), (2 + 0j, 1)]))
        report = verify_divisor_match(f, D([(0j, 1), (2 + 0j, 1)]))
        assert not report["matched"]
        (entry,) = report["mismatches"]
        assert entry["point"] == 0j
        assert abs(entry["position_error"] - 2.0 ** -20) < 1e-15
        assert report["max_position_error"] == entry["position_error"]

    def test_newton_refines_a_zero_off_the_lattice(self):
        # a double zero at a, off the 2^-26 lattice and 3.3e-10 from its
        # prescribed point 0: its moment start rounds to the lattice, and
        # Newton walks from there to a
        a = complex(1e-9 / 3, -2e-9 / 7)
        f = SampledFunction(evaluator=lambda z: (z - a) ** 2 * (z - 1.5),
                            dlog=lambda z: 2 / (z - a) + 1 / (z - 1.5))
        report = verify_divisor_match(f, D([(0j, 2), (1.5 + 0j, 1)]))
        assert report["matched"], report["mismatches"]
        assert abs(report["max_position_error"] - abs(a)) < 1e-15
        assert report["max_newton_steps"] >= 1

    def test_total_circle_catches_an_unprescribed_zero(self):
        # f has a zero at 2.5 that d does not prescribe: every per-point
        # circle clears it, so only the enclosing circle, which runs when
        # no window is given, sees it
        f = weierstrass(D([(0j, 1), (2 + 0j, 1), (2.5 + 0j, 1)]))
        d = D([(0j, 1), (2 + 0j, 1)])
        report = verify_divisor_match(f, d)
        assert report["mismatches"] == [{"total_expected": 2,
                                         "total_counted": 3}]
        assert verify_divisor_match(f, d, Window(-1, 2.25, -1, 1))["matched"]

    def test_a_function_without_dlog_is_refused(self):
        # it used to raise TypeError ("'NoneType' object is not callable")
        def evaluator(z):
            raise AssertionError("a value was read")
        f = SampledFunction(evaluator=evaluator)
        for window in (None, Window(-1, 1, -1, 1)):
            with pytest.raises(ValueError, match="has no dlog"):
                verify_divisor_match(f, D([(0j, 1), (2 + 0j, 1)]), window)

    def test_a_pole_in_the_divisor_is_refused(self):
        # Newton used to run from the pole at 2 to a zero and report a
        # position error of 1.0 there
        f = weierstrass(D([(0j, 1), (1 + 0j, 1)]))
        d = D([(0j, 1), (2 + 0j, -1)])
        with pytest.raises(ValueError, match=r"\(2\+0j\) has multiplicity -1"):
            verify_divisor_match(f, d)
        with pytest.raises(ValueError, match="zeros"):
            verify_divisor_match(f, d, Window(-1, 1, -1, 1))


def test_products_count_on_the_moment_path(monkeypatch):
    # oracle: count_zeros with a plain callable dlog, every zero on every
    # node, on every seventh point's circle and on the enclosing one; the
    # product's own count evaluates its dlog whole on no contour
    d = generate("poisson", Window(-32, 32, -32, 32), seed=3,
                 intensity=0.2)
    assert len(d) == 804
    f = weierstrass(d)
    counted = []

    def spy(g, contours, **nodes):
        counted.append((contours, nodes, count_zeros(g, contours, **nodes)))
        return counted[-1][2]

    call = core.PoleSum.__call__

    def on_nodes(self, z):
        if np.ndim(z) >= 2:
            raise AssertionError("a product's dlog was evaluated on nodes")
        return call(self, z)
    monkeypatch.setattr(builders, "count_zeros", spy)
    monkeypatch.setattr(core.PoleSum, "__call__", on_nodes)
    assert verify_divisor_match(f, d)["matched"]
    monkeypatch.undo()
    assert [len(contours) for contours, _, _ in counted] == [len(d), 1]
    generic = SampledFunction(evaluator=f, dlog=lambda z: f.dlog(z))
    for contours, nodes, (counts, res, first) in counted:
        want = count_zeros(generic, contours[::7], **nodes)
        assert counts[::7].tolist() == want[0].tolist()
        assert np.max(np.abs(res[::7] - want[1])) <= 1e-13
        assert np.max(np.abs(first[::7] - want[2])) <= 1e-13


class TestMittagLeffler:
    def test_single_simple_pole(self):
        f = mittag_leffler(PrincipalParts(((0j, (1.0,)),)))
        assert abs(f(2.0 + 0j) - 0.5) < 1e-15
        assert abs(f(0.25j) - (-4j)) < 1e-15

    def test_two_poles_sum(self):
        f = mittag_leffler(PrincipalParts(((1 + 0j, (1.0,)), (-1 + 0j, (1.0,)))))
        for z in (0.5j, 3 + 1j, -2 + 0.25j):
            assert abs(f(z) - 2 * z / (z * z - 1)) < 1e-13

    def test_empty_is_zero(self):
        f = mittag_leffler(PrincipalParts(()))
        assert np.allclose(f(np.array([1j, 2 + 0j])), 0)

    def test_extraction_round_trip(self):
        pp = PrincipalParts(((0j, (1.0, 0.5 - 0.25j)), (2 + 0j, (-1.0,))))
        f = mittag_leffler(pp)
        back = extract_principal_parts(f, [0j, 2 + 0j], radius=0.5)
        assert len(back.entries) == 2
        for (p0, c0), (p1, c1) in zip(pp.entries, back.entries):
            assert p0 == p1
            assert len(c0) == len(c1)
            assert max(abs(a - b) for a, b in zip(c0, c1)) < 1e-8


# ---------------------------------------------------------------------------
# blow-up table


class TestCounterexample:
    def test_closed_form_of_value(self):
        # int_0^1 (1 - S) dt = 1/2 and int_0^1 (1 - S) t dt = 1/7
        for n in (5, 8, 10):
            closed = math.pi * n * n + math.pi * n + 2 * math.pi / 7
            assert abs(counterexample_value(n) - closed) < 1e-9

    def test_rows_exceed_bound(self):
        rows = dbar_counterexample(range(5, 13))
        assert [r["n"] for r in rows] == list(range(5, 13))
        for r in rows:
            assert r["computed"] >= r["bound"]
        assert abs(rows[0]["bound"] - 3 * math.pi) < 1e-12
        assert rows[0]["computed"] >= 3 * math.pi

    def test_core_growth_at_ten(self):
        (row,) = dbar_counterexample(10)
        assert abs(row["core"] - 100 * math.pi) <= 0.001 * 100 * math.pi
        assert row["bound"] == pytest.approx(58 * math.pi)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            dbar_counterexample(4)

    def test_grid_transform_cross_check(self):
        # f_n = z chi_n(|z|) equals z on |z| <= n, so on any compact set
        # f_n -> z in every C^k; yet pi |xi(f_n)(0)| >= pi (n^2 - 4n - 2)
        # grows without bound, so no right inverse xi of d-bar is continuous
        h = 1 / 8
        ks = np.arange(-24, 25) * h
        compact = ks[None, :] + 1j * ks[:, None]          # |z| <= 3 sqrt 2
        bounds = []
        for n in (5, 10, 20):
            def f_n(z):
                return z * radial_blend_profile(np.abs(z), n, n + 1)

            assert np.array_equal(f_n(compact), compact)
            # midpoint sum of xi(f_n)(0) = (-1/pi) int f_n(z)/z dA over the
            # cell centres of [-L, L]^2; no centre sits at 0
            L = n + 1.5
            xs = (np.arange(int(2 * L / h)) + 0.5) * h - L
            z = xs[None, :] + 1j * xs[:, None]
            xi0 = (-1 / math.pi) * np.sum(f_n(z) / z) * h * h
            value = math.pi * abs(xi0)
            assert abs(value - counterexample_value(n)) < 1.0
            lower = math.pi * (n * n - 4 * n - 2)
            assert value >= lower
            bounds.append(lower)
        assert bounds[0] > 0
        assert bounds[1] > 3 * bounds[0] and bounds[2] > 3 * bounds[1]


# ---------------------------------------------------------------------------
# Newtonian potentials


def circle_mean(mu, center, radius, nodes=256):
    ring = center + radius * np.exp(2j * math.pi * (np.arange(nodes) + 0.5) / nodes)
    return float(np.mean(newtonian_potential(mu, ring)))


class TestPotential:
    def test_log_kernel_values(self):
        mu = Potential(((0j, 1.0),), dim=2)
        u = newtonian_potential(mu, [1 + 0j, math.e + 0j])
        assert abs(u[0]) < 1e-15
        assert abs(u[1] - 1 / (2 * math.pi)) < 1e-12

    def test_evaluation_on_atom(self):
        mu = Potential(((1 + 1j, 2.0),), dim=2)
        with pytest.raises(EvaluationOnAtom):
            newtonian_potential(mu, [1 + 1j])

    def test_validation(self):
        with pytest.raises(ValueError):
            Potential(((0j, -1.0),), dim=2)
        with pytest.raises(ValueError):
            Potential((), dim=4)
        with pytest.raises(ValueError):
            Potential((((0.0, 0.0, 0.0), 1.0),), dim=3)

    def test_rejects_a_location_off_the_plane(self):
        with pytest.raises(ValueError, match="not 2-dimensional"):
            Potential((((0.0, 0.0, 1.0), 1.0),), dim=2)

    def test_rejects_non_finite_data(self):
        # a NaN mass passes `mass <= 0`; JSON readers accept NaN and Infinity
        for text in ('{"dim": 2, "atoms": [{"loc": [0.0, 0.0], "mass": NaN}]}',
                     '{"dim": 2, "atoms": [{"loc": [Infinity, 0.0], '
                     '"mass": 1.0}]}',
                     '{"dim": 2, "atoms": [{"loc": [0.0, NaN], "mass": 1.0}]}',
                     '{"dim": 2, "atoms": [{"loc": [0.0, 0.0], '
                     '"mass": Infinity}]}'):
            with pytest.raises(ValueError, match="finite"):
                Potential.from_json(json.loads(text))

    def test_mean_value_equality_atom_outside(self):
        # harmonic away from the atom: the sub-mean-value inequality is tight
        mu = Potential(((0j, 1.0),), dim=2)
        slack = circle_mean(mu, 1 + 0j, 0.5) - newtonian_potential(mu, [1 + 0j])[0]
        assert abs(slack) < 1e-9

    def test_strict_slack_atom_inside(self):
        mu = Potential(((0j, 1.0),), dim=2)
        slack = circle_mean(mu, 0.3 + 0j, 1.0) - newtonian_potential(mu, [0.3 + 0j])[0]
        # circle mean of log|z| over |z - c| = r is log max(|c|, r) = 0
        oracle = -math.log(0.3) / (2 * math.pi)
        assert abs(slack - oracle) < 1e-9

    def test_empty_measure(self):
        u = newtonian_potential(Potential((), dim=2), [1j, 2 + 0j])
        assert np.array_equal(u, np.zeros(2))

    def test_discrete_harmonicity_rate(self):
        mu = Potential(((0j, 1.0), (2 + 1j, 0.5)), dim=2)

        def lap(x0, h):
            pts = [x0 + h, x0 - h, x0 + 1j * h, x0 - 1j * h, x0]
            u = newtonian_potential(mu, pts)
            return (u[0] + u[1] + u[2] + u[3] - 4 * u[4]) / h ** 2

        r1 = abs(lap(1 + 0.5j, 0.1))
        r2 = abs(lap(1 + 0.5j, 0.05))
        assert r2 < 1e-2
        assert r1 / r2 > 3.0
