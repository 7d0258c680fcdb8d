"""Closed-form oracle: every psi_n of the lift against the independent
builders (genus-0 product, principal-part sum, Newtonian potential).

Today every solved anchor carries the whole configuration, so each datum
is a constant and psi_n equals the closed form up to a constant (product
mode) or exactly (additive and harmonic modes). The last test records that
degeneracy: every correction coefficient of degree 1 and up is rounding
noise. A lift that makes the recursion local will change it, and the first
three tests then bound what the local lift may move.
"""

import numpy as np
import pytest

from equilift import builders
from equilift.builders import Potential
from equilift.core import Window
from equilift.divisors import PrincipalParts, generate
from equilift.lifting import (lift_mittag_leffler, lift_poisson_2d,
                              lift_weierstrass)
from equilift.toast import build_covariant_toast

N = 4
TOL = 1e-10

INPUTS = {
    "poisson-48": lambda: generate("poisson", Window(-8, 8, -8, 8), seed=3,
                                   intensity=0.2),
    "poisson-196": lambda: generate("poisson", Window(-16, 16, -16, 16),
                                    seed=3, intensity=0.2),
    "almost-periodic-76": lambda: generate("almost-periodic",
                                           Window(-4, 4, -4, 4)),
}


@pytest.fixture(scope="module", params=sorted(INPUTS))
def lifted(request):
    d = INPUTS[request.param]()
    rng = np.random.default_rng(1)
    locs = d.locs.tolist()
    pp = PrincipalParts(tuple(
        (p, (complex(*rng.normal(size=2)), complex(*rng.normal(size=2))))
        for p in locs))
    masses = rng.uniform(0.5, 2.0, len(locs))
    mu = Potential(tuple(((p.real, p.imag), float(m))
                         for p, m in zip(locs, masses)), dim=2)
    forest = build_covariant_toast(d, N, r0=1.0, gamma=4.0)
    traces = (lift_weierstrass(d, forest, N, check_membership=False),
              lift_mittag_leffler(pp, forest, N),
              lift_poisson_2d(mu, forest, N))
    grid = d.window.inner(0.15).grid(0.5).ravel()
    return d, pp, mu, traces, grid


def test_product_log_differs_from_weierstrass_by_a_constant(lifted):
    d, _, _, (trace, _, _), grid = lifted
    want = builders.weierstrass(d).log_eval(grid)
    for n in range(N + 1):
        diff = np.real(trace.psi(n).log_eval(grid) - want)
        assert np.ptp(diff) < TOL, n


def test_additive_matches_principal_part_sum(lifted):
    _, pp, _, (_, trace, _), grid = lifted
    want = builders.mittag_leffler(pp)(grid)
    for n in range(N + 1):
        got = trace.psi(n)(grid)
        assert np.max(np.abs(got - want) / (1 + np.abs(want))) < TOL, n


def test_harmonic_matches_newtonian_potential(lifted):
    _, _, mu, (_, _, trace), grid = lifted
    want = builders.newtonian_potential(mu, grid)
    for n in range(N + 1):
        got = np.real(trace.psi(n)(grid))
        assert np.max(np.abs(got - want) / (1 + np.abs(want))) < TOL, n


def test_corrections_are_constants(lifted):
    for trace in lifted[3]:
        for lv in trace.levels:
            for sol in lv.solutions.values():
                tail = sol.correction.coeffs[1:]
                assert max(map(abs, tail), default=0.0) <= TOL, (
                    trace.mode, lv.n)
