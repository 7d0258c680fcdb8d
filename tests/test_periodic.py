"""The freeness claim: a divisor whose stabilizer is a lattice of rank d - 1
carries Riesz mass that no upper-bounded potential can hold.

Oracles: the Gauss circle count and the covering bound
#(Z^2 in B_t) >= pi (t - 1/sqrt 2)^2.
"""

import math

from equilift.builders import riesz_growth_demo


class TestRanksDMinusOneAndD:
    def test_riesz_mass_grows_like_t_squared(self):
        # unit atoms on Z^2 x {0} in R^3 (a stabilizer of rank d - 1) have
        # mu(B_t) / t^2 = pi - o(1). The sphere mean M(t) of a potential
        # with Riesz measure mu has M'(t) = mu(B_t) / (4 pi t^2), so M grows
        # at least linearly and no upper-bounded potential carries mu
        rows = riesz_growth_demo()
        assert rows[0]["t"] == 5.0 and rows[0]["mass"] == 81
        for r in rows:
            # unit squares about the lattice points of B_t cover
            # B_{t - 1/sqrt 2}
            assert r["ratio"] >= math.pi * (1 - 1 / (math.sqrt(2) * r["t"])) ** 2
        assert abs(rows[-1]["ratio"] - math.pi) < 0.05
        t0 = rows[0]["t"]
        for a, b in zip(rows, rows[1:]):
            assert b["partial_integral"] > a["partial_integral"]
            assert b["partial_integral"] >= (math.pi / 2) * (b["t"] - t0)
