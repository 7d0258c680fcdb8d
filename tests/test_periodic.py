"""Lattice Green kernels, Yosida products, strip and growth probes, and the
typed refusals of the periodic side."""

import math

import numpy as np
import pytest

from equilift.errors import (ConstantInput, OnLattice, PolesTooClose,
                             RangeInsufficient)
from equilift.periodic import (LatticeGreen, canonical_anchor,
                               full_dim_rigidity_demo, green_eval,
                               green_periodicity_check, random_trig_poly,
                               riesz_growth_demo, sphere_average,
                               strip_max_principle_check, yosida_product)

LINE = ((1, 0, 0),)


def line_green(R=40):
    return LatticeGreen(LINE, R=R)


class TestLatticeGreen:
    def test_mean_value_off_the_lattice(self):
        # G is harmonic away from the atoms, so its sphere average is the
        # value at the centre
        g = line_green()
        center = np.array((0.5, 0.6, 0.3))
        avg = sphere_average(lambda x: green_eval(g, x)[0], center, 0.2)
        assert abs(avg - green_eval(g, center)[0]) < 1e-12

    def test_periodicity_defect_falls_with_truncation(self):
        defects = [green_periodicity_check(line_green(R), (0.3, 0.4, 0.2),
                                           (1, 0, 0)) for R in (20, 40, 80)]
        assert defects[1] < 1e-4
        assert defects[0] > defects[1] > defects[2]

    def test_on_lattice_refused(self):
        with pytest.raises(OnLattice):
            green_eval(line_green(), np.array((2.0, 0.0, 0.0)))


class TestOneDimensionalPeriods:
    def test_yosida_product_is_periodic(self):
        F = yosida_product([(0.1, 0.4), (0.2, 0.7), (0.3, 0.9)])
        assert F.certify_period() < 1e-12

    def test_close_zero_pole_pair_refused(self):
        with pytest.raises(PolesTooClose):
            yosida_product([(0.1, 0.11)])

    def test_strip_max_principle(self):
        report = strip_max_principle_check(
            lambda z: np.exp(2j * np.pi * z), -1, 1,
            bound=np.exp(2 * np.pi))
        assert report["passed"]
        assert report["cauchy_residual"] < 1e-12

    def test_constant_input_refused(self):
        with pytest.raises(ConstantInput):
            canonical_anchor(lambda z: np.ones(np.shape(z), dtype=complex))

    def test_short_range_refused(self):
        # |cos(2 pi (t + i s))| peaks at cosh(2 pi s) <= 1.9 on |s| <= 0.2:
        # no tenfold growth at either end of the probed range
        with pytest.raises(RangeInsufficient, match="tenfold"):
            canonical_anchor(lambda z: np.cos(2 * np.pi * z),
                             s_range=(-0.2, 0.2))


class TestRanksDMinusOneAndD:
    def test_full_rank_rigidity(self):
        report = full_dim_rigidity_demo(*random_trig_poly(seed=0))
        assert report["residual"] < 1e-12

    def test_riesz_mass_grows_like_t_squared(self):
        rows = riesz_growth_demo()
        assert abs(rows[-1]["ratio"] - math.pi) < 0.05
        partial = [r["partial_integral"] for r in rows]
        assert all(b > a for a, b in zip(partial, partial[1:]))
