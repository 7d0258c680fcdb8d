"""Each of the benchmark's checks passes on the program's output and fails
on a wrong answer.

    PYTHONPATH=src python3 -m pytest -q liftbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from equilift import lifting, toast  # noqa: E402
from equilift.builders import Potential  # noqa: E402
from equilift.core import Window, q26  # noqa: E402
from equilift.divisors import PrincipalParts, generate  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402

WIN = Window(-8, 8, -8, 8)
INNER = WIN.inner(0.15)
SHIFT = complex(q26(1.37 - 0.61j))


@pytest.fixture(scope="module")
def data():
    d = generate("poisson", WIN, seed=3, intensity=0.2)
    forest = toast.build_covariant_toast(d, 4, r0=1.0, gamma=4.0)
    return d, forest


@pytest.fixture(scope="module")
def log_psi(data):
    d, forest = data
    trace = lifting.lift_weierstrass(d, forest, 4, check_membership=False)
    return trace.psi().log_eval


def inner_point(d):
    return complex(d.locs[INNER.contains(d.locs)][0])


class TestWeierstrass:
    def test_lift_passes(self, data, log_psi):
        d, _ = data
        assert checks.check_windings(log_psi, d.locs, d.mults, INNER) > 0
        checks.check_log_modulus(log_psi, d.locs, d.mults, INNER,
                                 np.random.default_rng(7))

    def test_dropped_factor_breaks_the_winding(self, data, log_psi):
        d, _ = data
        p = inner_point(d)
        dropped = lambda z: log_psi(z) - np.log(np.asarray(z) - p)
        with pytest.raises(CheckFailed, match="winds"):
            checks.check_windings(dropped, d.locs, d.mults, INNER)

    def test_dropped_factor_breaks_the_mean_value(self, data, log_psi):
        d, _ = data
        c, r = checks.random_circles(np.random.default_rng(7), INNER,
                                     d.locs)[0]
        p = complex(d.locs[np.argmin(np.abs(d.locs - c))])
        assert abs(p - c) < r
        dropped = lambda z: log_psi(z) - np.log(np.asarray(z) - p)
        with pytest.raises(CheckFailed, match="not harmonic"):
            checks.check_log_modulus(dropped, d.locs, d.mults, INNER,
                                     np.random.default_rng(7))


class TestMittagLeffler:
    @pytest.fixture(scope="class")
    def lifted(self, data):
        d, forest = data
        rng = np.random.default_rng(5)
        pp = PrincipalParts(tuple(
            (p, (complex(*rng.normal(size=2)), complex(*rng.normal(size=2))))
            for p in d.locs.tolist()))
        return pp, lifting.lift_mittag_leffler(pp, forest, 4).psi()

    def test_lift_passes(self, lifted):
        pp, psi = lifted
        assert checks.check_laurent(psi, pp.entries, INNER) > 0

    def test_flipped_coefficient_fails(self, data, lifted):
        pp, psi = lifted
        p = inner_point(data[0])
        flipped = [(q, (-cs[0], cs[1]) if q == p else cs)
                   for q, cs in pp.entries]
        with pytest.raises(CheckFailed, match="c_1"):
            checks.check_laurent(psi, flipped, INNER)


class TestPotential:
    def test_lift_passes_and_a_wrong_mass_fails(self, data):
        d, forest = data
        masses = np.random.default_rng(6).uniform(0.5, 2.0, size=len(d))
        mu = Potential(tuple(((p.real, p.imag), float(m))
                             for p, m in zip(d.locs.tolist(), masses)), dim=2)
        psi = lifting.lift_poisson_2d(mu, forest, 4).psi()
        u = lambda z: np.real(psi(z))
        checks.check_potential(u, d.locs, masses, INNER,
                               np.random.default_rng(8))
        wrong = masses * 1.01
        with pytest.raises(CheckFailed, match="circle mean gap"):
            checks.check_potential(u, d.locs, wrong, INNER,
                                   np.random.default_rng(8))


class TestShift:
    @pytest.fixture(scope="class")
    def shifted(self, data):
        d, _ = data
        d_w = d.translate(-SHIFT, move_window=True)
        return d_w, toast.build_covariant_toast(d_w, 4, r0=1.0, gamma=4.0)

    def test_true_shift_passes(self, data, shifted):
        checks.check_toast_shift(data[1], shifted[1], SHIFT)

    def test_other_shift_fails(self, data, shifted):
        other = SHIFT + 2.0 ** -20
        with pytest.raises(CheckFailed, match="anchors"):
            checks.check_toast_shift(data[1], shifted[1], other)

    def test_psi_deviation(self, data, shifted, log_psi):
        d_w, forest_w = shifted
        log_w = lifting.lift_weierstrass(d_w, forest_w, 4,
                                         check_membership=False).psi().log_eval
        z = WIN.inner(0.3).grid(1.3).ravel()
        assert checks.shift_deviation(log_psi(z + SHIFT), log_w(z)) < 1e-9
        assert checks.shift_deviation(log_psi(z + SHIFT + 0.01),
                                      log_w(z)) > 1e-3


class TestAxioms:
    UNDETERMINED = "undetermined (insufficient levels)"

    @pytest.fixture(scope="class")
    def report(self, data):
        return toast.verify_axioms(data[1])

    def directed(self, report, *pairs):
        return {**report, "directed": {"status": self.UNDETERMINED,
                                       "witnesses": list(pairs)}}

    def test_program_report_passes(self, data, report):
        checks.check_axioms(report, data[1])

    def test_failed_axiom_fails(self, data, report):
        bad = {**report, "top-cover": {"status": "fail", "witnesses": []}}
        with pytest.raises(CheckFailed, match="top-cover"):
            checks.check_axioms(bad, data[1])
        bad = {**report, "anchor-disk": {"status": self.UNDETERMINED,
                                         "witnesses": []}}
        with pytest.raises(CheckFailed, match="anchor-disk"):
            checks.check_axioms(bad, data[1])

    def test_pair_under_its_higher_region_passes(self, data, report):
        forest = data[1]
        top = forest.levels[-1]
        (t, upper), = top.regions.items()
        a = next(a for a, r in forest.levels[0].regions.items()
                 if r.contained_in(upper))
        checks.check_axioms(self.directed(report, ((0, a), (top.n, t))),
                            forest)

    def test_low_level_pairs_fail(self, data, report):
        forest = data[1]
        a, b = list(forest.levels[0].regions)[:2]
        with pytest.raises(CheckFailed, match="no upper bound"):
            checks.check_axioms(self.directed(report, ((0, a), (0, b))),
                                forest)
        level1 = forest.levels[1].regions
        a, b = next((a, b) for a, r in forest.levels[0].regions.items()
                    for b, s in level1.items() if not r.contained_in(s))
        with pytest.raises(CheckFailed, match="no upper bound"):
            checks.check_axioms(self.directed(report, ((0, a), (1, b))),
                                forest)

    def test_undetermined_without_witness_fails(self, data, report):
        with pytest.raises(CheckFailed, match="without a witness"):
            checks.check_axioms(self.directed(report), data[1])


def test_finite():
    checks.check_finite(np.array([1.0, 2j]), "ok")
    with pytest.raises(CheckFailed):
        checks.check_finite(np.array([1.0, math.inf]), "bad")


def test_tracer_sees_calls_the_program_makes(data):
    d, _ = data
    tracer = Tracer()
    original = toast.detect_stabilizer
    tracer.install()
    try:
        assert toast.detect_stabilizer is not original
        tracer.active = True
        toast.build_covariant_toast(d, 1, r0=1.0, gamma=4.0)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert toast.detect_stabilizer is original
    assert tracer.calls["divisors.stabilizer"] == 1
    assert tracer.calls["toast.build"] == 1
    # the stabilizer span is nested, so build self time excludes it
    assert 0 < tracer.self_s["divisors.stabilizer"]
    assert 0 < tracer.self_s["toast.build"]
