"""Patching engine: recovery, separation, escalation, certificates, declared
logs."""

import math

import numpy as np
import pytest

from equilift.core import CompactRegion, SampledFunction, q26
from equilift.errors import DegreeCapExceeded, ZeroInK
from equilift.runge import RungeProblem, solve

DISK = CompactRegion.disk(0j, 1.0)
LEFT = CompactRegion.disk(-4 + 0j, 1.0)
RIGHT = CompactRegion.disk(4 + 0j, 1.0)


class TestProblemValidation:
    def test_overlapping_targets_rejected(self):
        with pytest.raises(ValueError, match="not disjoint"):
            RungeProblem(((DISK, lambda z: z),
                          (CompactRegion.disk(0.5 + 0j, 1.0), lambda z: z)),
                         epsilon=1e-6)

    def test_enclosing_ring_rejected(self):
        # a single closed ring of overlapping unit disks traps a hole; that
        # is the one reachable way disjoint connected targets can break the
        # complement-connectivity precondition
        centers = [2.5 * np.exp(2j * np.pi * k / 8) for k in range(8)]
        ring = CompactRegion(centers, [1.0] * 8)
        assert not ring.complement_connected()
        with pytest.raises(ValueError, match="disconnected"):
            RungeProblem(((ring, lambda z: z),), epsilon=1e-6)

    def test_bad_epsilon_and_mode(self):
        with pytest.raises(ValueError):
            RungeProblem(((DISK, lambda z: z),), epsilon=0.0)
        with pytest.raises(ValueError):
            RungeProblem(((DISK, lambda z: z),), epsilon=1e-6, mode="rational")


class TestAdditive:
    def test_degree5_polynomial_recovered(self):
        f = lambda z: 1 + 2 * z - z ** 3 + 0.5 * z ** 5
        prob = RungeProblem(((DISK, f),), epsilon=1e-8)
        cert = solve(prob)
        assert cert.degree <= 6
        assert max(cert.errors) < 1e-10
        pts = np.array([0.3 + 0.4j, -0.9j, 0.99 + 0j])
        assert np.max(np.abs(cert.poly(pts) - f(pts))) < 1e-10

    def test_two_disk_separation(self):
        prob = RungeProblem(((LEFT, lambda z: np.zeros_like(z)),
                             (RIGHT, lambda z: np.ones_like(z))),
                            epsilon=1e-6)
        cert = solve(prob)
        assert max(cert.errors) < 1e-6
        assert abs(cert.poly(-4 + 0j)) < 1e-6
        assert abs(cert.poly(4 + 0j) - 1) < 1e-6

    def test_exp_needs_degree_twelve(self):
        # best sup error of degree-n fits on the unit disk tracks 1/(n+1)!:
        # degree 8 sits near 2.8e-6, degree 12 near 1/13! ~ 1.6e-10 < 1e-8
        prob = RungeProblem(((DISK, np.exp),), epsilon=1e-8)
        cert = solve(prob)
        assert cert.degree == 12
        assert max(cert.errors) < 1e-8

    def test_degree_cap_exceeded(self):
        prob = RungeProblem(((LEFT, lambda z: np.zeros_like(z)),
                             (RIGHT, lambda z: np.ones_like(z))),
                            epsilon=1e-6)
        with pytest.raises(DegreeCapExceeded) as err:
            solve(prob, degree_cap=16)
        assert err.value.cap == 16
        assert 0 < err.value.best_error < 1.0

    def test_error_monotone_in_degree(self):
        f = lambda z: 1.0 / (z - 3.0)
        prob = RungeProblem(((DISK, f),), epsilon=1e-12)
        errors = []
        for deg in (2, 4, 8, 16, 32):
            try:
                cert = solve(prob, degree=deg)
                errors.append(max(cert.errors))
            except DegreeCapExceeded as e:
                errors.append(e.best_error)
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert lo <= hi * 1.05

    def test_resample_soundness(self):
        # errors quoted at 2x fit density must hold to 2 epsilon at 4x
        prob = RungeProblem(((DISK, np.exp),), epsilon=1e-8)
        cert = solve(prob)
        fine = DISK.boundary_samples(256)
        resampled = float(np.max(np.abs(cert.poly(fine) - np.exp(fine))))
        assert resampled < 2 * prob.epsilon

    def test_shift_equivariance(self):
        w = q26(0.37 + 1.2j)
        f = lambda z: np.exp(z) + z ** 2
        prob = RungeProblem(((DISK, f),), epsilon=1e-8)
        moved = RungeProblem(((DISK.translate(w), lambda z: f(z - w)),),
                             epsilon=1e-8)
        cert = solve(prob)
        cert_w = solve(moved)
        pts = DISK.boundary_samples(16)
        dev = np.max(np.abs(cert_w.poly(pts + w) - cert.poly(pts)))
        assert dev < 1e-9


def declared(log):
    """Multiplicative datum exp(log) with its declared log."""
    return SampledFunction(lambda z: np.exp(log(z)), log_eval=log)


def constant_log(c):
    return lambda z: np.full(np.shape(z), c, dtype=complex)


class TestMultiplicative:
    def test_constant_one_is_exact(self):
        prob = RungeProblem(((DISK, declared(constant_log(0j))),),
                            epsilon=1e-6, mode="multiplicative-log")
        cert = solve(prob)
        assert cert.errors == (0.0,)
        assert abs(np.exp(cert.poly(0.5j)) - 1.0) < 1e-12

    def test_two_and_half(self):
        prob = RungeProblem(((LEFT, declared(constant_log(math.log(2)))),
                             (RIGHT, declared(constant_log(math.log(0.5))))),
                            epsilon=1e-4, mode="multiplicative-log")
        cert = solve(prob)
        assert max(cert.errors) < 1e-4
        assert abs(np.exp(cert.poly(-4 + 0j)) - 2.0) < 1e-3
        assert abs(np.exp(cert.poly(4 + 0j)) - 0.5) < 2.5e-4

    def test_zero_free_branch_tracking(self):
        # e^z is zero-free; its declared log z is fitted as one branch
        prob = RungeProblem(((DISK, declared(lambda z: z)),), epsilon=1e-8,
                            mode="multiplicative-log")
        cert = solve(prob)
        assert max(cert.errors) < 1e-8
        assert cert.degree <= 2  # log of e^z is linear

    def test_declared_zero_in_region(self):
        h = SampledFunction(lambda z: z, zeros=(0j,))
        prob = RungeProblem(((DISK, h),), epsilon=1e-6,
                            mode="multiplicative-log")
        with pytest.raises(ZeroInK):
            solve(prob)

    def test_undeclared_log_is_refused(self):
        # no branch is tracked from plain values: data must carry its log
        prob = RungeProblem(((DISK, np.exp),), epsilon=1e-6,
                            mode="multiplicative-log")
        with pytest.raises(ValueError, match="log_eval"):
            solve(prob)

    def test_non_finite_declared_log(self):
        # log = -inf declares a datum that vanishes on the whole target
        prob = RungeProblem(((DISK, declared(constant_log(-math.inf))),),
                            epsilon=1e-6, mode="multiplicative-log")
        with pytest.raises(ZeroInK):
            solve(prob)

    def test_log_certificate_is_modulus_based(self):
        prob = RungeProblem(((DISK, declared(lambda z: z)),), epsilon=1e-8,
                            mode="multiplicative-log")
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
        prob = RungeProblem(((DISK, f),), epsilon=1e-5, mode="harmonic")
        cert = solve(prob)
        assert max(cert.errors) < 1e-5
        assert cert.degree <= 8
        pts = np.array([0.2 + 0.3j, -0.8 + 0.1j])
        assert np.max(np.abs(np.real(cert.poly(pts)) - f(pts))) < 1e-5

    def test_harmonic_two_targets(self):
        prob = RungeProblem(((LEFT, lambda z: np.zeros_like(z, dtype=float)),
                             (RIGHT, lambda z: np.ones_like(z, dtype=float))),
                            epsilon=1e-4, mode="harmonic")
        cert = solve(prob)
        assert max(cert.errors) < 1e-4

    def test_imaginary_part_recovered(self):
        # Im z is harmonic and exactly representable at degree 1
        f = lambda z: np.imag(z)
        prob = RungeProblem(((DISK, f),), epsilon=1e-10, mode="harmonic")
        cert = solve(prob)
        assert cert.degree <= 2
        assert max(cert.errors) < 1e-12


class TestDispatch:
    def test_solve_routes_by_mode(self):
        prob = RungeProblem(((DISK, np.exp),), epsilon=1e-6)
        assert solve(prob).mode == "additive"
        probm = RungeProblem(((DISK, declared(lambda z: z)),), epsilon=1e-6,
                             mode="multiplicative-log")
        assert solve(probm).mode == "multiplicative-log"
        probh = RungeProblem(((DISK, lambda z: np.real(z)),), epsilon=1e-6,
                             mode="harmonic")
        assert solve(probh).mode == "harmonic"
