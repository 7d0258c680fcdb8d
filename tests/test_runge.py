"""Patching engine: recovery, escalation, refusals, certificates."""

import math

import numpy as np
import pytest

from equilift import runge
from equilift.core import CompactRegion, Window, q26
from equilift.divisors import generate
from equilift.errors import DegreeCapExceeded
from equilift.lifting import lift_weierstrass
from equilift.runge import RungeProblem, solve
from equilift.toast import build_covariant_toast

DISK = CompactRegion.disk(0j, 1.0)
# two unit disks 8 apart as one region; its complement is connected
PAIR = CompactRegion([-4 + 0j, 4 + 0j], [1.0, 1.0], check_connected=False)


def left_right(left, right, kind=complex):
    """A datum that is left on PAIR's left disk and right on its right,
    with complex values or (kind=float) real ones."""
    return lambda z: np.where(np.real(z) < 0, left, right).astype(kind)


class TestProblemValidation:
    def test_bad_epsilon(self):
        # a NaN epsilon used to walk the whole ladder and an infinite one
        # to certify anything at degree 2
        for epsilon in (0.0, -1e-6, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                RungeProblem(DISK, lambda z: z, epsilon=epsilon)

    def test_enclosing_ring_rejected(self):
        # a closed ring of overlapping unit disks traps a hole around 0, so
        # 1/z has no polynomial approximant there: z p(z) - 1 is -1 at 0,
        # hence at least 1 somewhere on the circle |z| = 2.5 inside the
        # ring, and every fit misses 1/z by at least 1/2.5 on the ring
        centers = [2.5 * np.exp(2j * np.pi * k / 8) for k in range(8)]
        ring = CompactRegion(centers, [1.0] * 8)
        assert not ring.complement_connected()
        prob = RungeProblem(ring, lambda z: 1 / z, epsilon=1e-3)
        with pytest.raises(DegreeCapExceeded) as err:
            solve(prob)
        assert err.value.cap == runge.DEFAULT_CAP
        assert err.value.best_error > 0.4 > prob.epsilon


class TestAdditive:
    def test_degree5_polynomial_recovered(self):
        f = lambda z: 1 + 2 * z - z ** 3 + 0.5 * z ** 5
        cert = solve(RungeProblem(DISK, f, epsilon=1e-8))
        assert cert.degree <= 6
        assert cert.error < 1e-10
        pts = np.array([0.3 + 0.4j, -0.9j, 0.99 + 0j])
        assert np.max(np.abs(cert.poly(pts) - f(pts))) < 1e-10

    def test_exp_needs_degree_twelve(self):
        # best sup error of degree-n fits on the unit disk tracks 1/(n+1)!:
        # degree 8 sits near 2.8e-6, degree 12 near 1/13! ~ 1.6e-10 < 1e-8
        cert = solve(RungeProblem(DISK, np.exp, epsilon=1e-8))
        assert cert.degree == 12
        assert cert.error < 1e-8

    def test_degree_cap_exceeded(self):
        # 1/(z - 1.01) has its pole just outside the unit disk, so degree-n
        # fits converge only like 1.01^-n: Runge holds, but the ladder ends
        # before 1e-10, and the refusal quotes the best error of its rungs
        f = lambda z: 1.0 / (z - 1.01)
        prob = RungeProblem(DISK, f, epsilon=1e-10)
        with pytest.raises(DegreeCapExceeded) as err:
            solve(prob)
        fit = runge._fitter(prob)
        best = min(fit(deg)[1] for deg in runge.DEGREE_LADDER)
        assert err.value.cap == runge.DEFAULT_CAP
        assert err.value.best_error == best > prob.epsilon

    def test_error_monotone_in_degree(self):
        f = lambda z: 1.0 / (z - 3.0)
        fit = runge._fitter(RungeProblem(DISK, f, epsilon=1e-12))
        errors = [fit(deg)[1] for deg in (2, 4, 8, 16, 32)]
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert lo <= hi * 1.05

    def test_resample_soundness(self):
        # errors quoted at 2x fit density must hold to 2 epsilon at 4x
        prob = RungeProblem(DISK, np.exp, epsilon=1e-8)
        cert = solve(prob)
        fine = DISK.boundary_samples(256)
        resampled = float(np.max(np.abs(cert.poly(fine) - np.exp(fine))))
        assert resampled < 2 * prob.epsilon

    def test_shift_equivariance(self):
        w = q26(0.37 + 1.2j)
        f = lambda z: np.exp(z) + z ** 2
        cert = solve(RungeProblem(DISK, f, epsilon=1e-8))
        cert_w = solve(RungeProblem(DISK.translate(w), lambda z: f(z - w),
                                    epsilon=1e-8))
        pts = DISK.boundary_samples(16)
        dev = np.max(np.abs(cert_w.poly(pts + w) - cert.poly(pts)))
        assert dev < 1e-9


class TestFrame:
    @pytest.mark.parametrize("kind", [complex, float])
    def test_two_disk_region_is_framed_at_its_mean(self, kind):
        # framed at PAIR's first disk, the fit of a datum that jumps between
        # the disks stalls near 2.8e-6; framed at the fit samples' mean (the
        # origin) it reaches 1e-6 by degree 32, with the analytic fit of a
        # complex datum and the harmonic fit of a real one. The frame is an
        # exact lattice offset from the anchor, so a quantized shift of the
        # whole problem shifts the frame and leaves the certificate unchanged
        datum = left_right(0.0, 1.0, kind)
        cert = solve(RungeProblem(PAIR, datum, epsilon=1e-6))
        assert cert.error < 1e-6
        assert cert.degree <= 32
        assert cert.poly.center == 0j
        w = q26(37.25 + 11.5j)
        moved = solve(RungeProblem(PAIR.translate(w), lambda z: datum(z - w),
                                   epsilon=1e-6))
        assert moved.poly.center == w
        assert (moved.degree, moved.error) == (cert.degree, cert.error)
        assert moved.poly.coeffs == cert.poly.coeffs


def constant_log(c):
    return lambda z: np.full(np.shape(z), c, dtype=float)


class TestMultiplicative:
    # the product mode's datum is a log-modulus, a real datum: the harmonic
    # fit, with exp(poly) matching exp(datum) in modulus

    def test_constant_one_is_exact(self):
        prob = RungeProblem(DISK, constant_log(0.0), epsilon=1e-6)
        cert = solve(prob)
        assert cert.error == 0.0
        assert abs(np.exp(cert.poly(0.5j)) - 1.0) < 1e-12

    def test_two_and_half(self):
        prob = RungeProblem(
            PAIR, left_right(math.log(2), math.log(0.5), float),
            epsilon=1e-4)
        cert = solve(prob)
        assert cert.error < 1e-4
        assert abs(np.exp(cert.poly(-4 + 0j)) - 2.0) < 1e-3
        assert abs(np.exp(cert.poly(4 + 0j)) - 0.5) < 2.5e-4

    def test_zero_free_branch_tracking(self):
        # e^z is zero-free and log|e^z| = Re z: the fit fixes Im poly as
        # the harmonic conjugate with constant 0 in the frame (centred at
        # the origin here), so poly is z itself, no branch to follow
        prob = RungeProblem(DISK, np.real, epsilon=1e-8)
        cert = solve(prob)
        assert cert.error < 1e-8
        assert cert.degree <= 2  # log of e^z is linear
        assert cert.poly.center == 0j
        assert abs(cert.poly.coeffs[0]) < 1e-12
        pts = np.array([0.5j, -0.3 + 0.8j, 0.9 + 0j])
        assert np.max(np.abs(cert.poly(pts) - pts)) < 1e-8

    def test_non_finite_declared_log(self):
        # log = -inf is the log of a datum that vanishes on the whole region
        prob = RungeProblem(DISK, constant_log(-math.inf), epsilon=1e-6)
        with pytest.raises(ValueError, match="not finite"):
            solve(prob)

    def test_log_certificate_is_modulus_based(self):
        prob = RungeProblem(DISK, np.real, epsilon=1e-8)
        cert = solve(prob)
        pts = DISK.boundary_samples(128)
        # log|exp(poly)| = Re poly against log|e^z| = Re z
        log_dev = np.max(np.abs(np.real(cert.poly(pts)) - np.real(pts)))
        assert log_dev < 2 * prob.epsilon


class TestHarmonic:
    def test_log_abs_distant_pole(self):
        # log|z-5| on the unit disk: Taylor tail 5^-k/k puts degree 6 near
        # 2e-6, comfortably inside epsilon
        f = lambda z: np.log(np.abs(z - 5.0))
        cert = solve(RungeProblem(DISK, f, epsilon=1e-5))
        assert cert.error < 1e-5
        assert cert.degree <= 8
        pts = np.array([0.2 + 0.3j, -0.8 + 0.1j])
        assert np.max(np.abs(np.real(cert.poly(pts)) - f(pts))) < 1e-5

    def test_harmonic_two_targets(self):
        prob = RungeProblem(PAIR, left_right(0.0, 1.0, float), epsilon=1e-4)
        cert = solve(prob)
        assert cert.error < 1e-4

    def test_imaginary_part_recovered(self):
        # Im z is harmonic and exactly representable at degree 1
        prob = RungeProblem(DISK, np.imag, epsilon=1e-10)
        cert = solve(prob)
        assert cert.degree <= 2
        assert cert.error < 1e-12


# ---------------------------------------------------------------------------
# the chain-local step of a lift: its datum is singular just outside the
# fitted region


@pytest.fixture(scope="module")
def poisson_lifts():
    """Poisson inputs (seed 3, intensity 0.2) on [-L, L]^2, each with its
    toast and lift (N=4, r0=1, gamma=4)."""
    out = {}
    for L in (8, 16, 24):
        d = generate("poisson", Window(-L, L, -L, L), seed=3, intensity=0.2)
        toast = build_covariant_toast(d, 4, r0=1.0, gamma=4.0)
        out[L] = (d, toast, lift_weierstrass(d, toast, 4,
                                             check_membership=False))
    return out


def chain_step(lift, n):
    """The harmonic datum of the patched chain step n and its margin.

    R_n and R_{n-1} are the chain regions of levels n and n-1, the new
    points b the data in R_n but not in R_{n-1}, g R_{n-1}'s anchor. The
    datum on R_{n-1} is -sum_b log(|b - z| / |b - g|); the margin is the
    distance from the new points to R_{n-1}."""
    d, toast, trace = lift
    hi, lo = trace.levels[n].chain, trace.levels[n - 1].chain
    assert hi[0] == n and lo in toast.children[hi]
    region_hi, region = toast.region(*hi), toast.region(*lo)
    locs = np.asarray(d.locs, dtype=complex)
    new = locs[region_hi.contains(locs) & ~region.contains(locs)]
    norm = np.abs(new - region.anchor)[:, None]

    def datum(z):
        z = np.asarray(z, dtype=complex)
        return -np.sum(np.log(np.abs(new[:, None] - z) / norm), axis=0)
    margin = float(np.min(np.abs(new[:, None] - region.centers)
                          - region.radii))
    return RungeProblem(region, datum, epsilon=2.0 ** -n), margin


class TestChainStep:
    @pytest.mark.parametrize("L, n, margin, degree",
                             [(8, 3, 0.644, 48), (16, 2, 0.539, 8),
                              (24, 3, 0.539, 12)])
    def test_wide_margin_steps_certify(self, poisson_lifts, L, n, margin,
                                       degree):
        problem, got = chain_step(poisson_lifts[L], n)
        assert abs(got - margin) < 5e-4
        cert = solve(problem)
        assert cert.error < problem.epsilon
        assert cert.degree <= degree

    def test_narrow_margin_step_is_refused(self, poisson_lifts):
        problem, margin = chain_step(poisson_lifts[16], 3)
        assert abs(margin - 0.017) < 5e-4
        with pytest.raises(DegreeCapExceeded):
            solve(problem)
