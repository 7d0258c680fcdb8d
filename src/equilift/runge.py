"""Polynomial patching engine: one datum on one compact region, escalating
degree, and a resample-checked error certificate.

A `RungeProblem` holds a region K, a datum h (any callable on arrays) and
epsilon. `solve` fits a polynomial P to h's values on K's boundary by least
squares and raises the degree along DEGREE_LADDER until the boundary sup
error, re-measured at twice the fit's sampling density, is below epsilon.
The datum's own values pick the fit:

  complex values  the analytic fit: P in the span of 1, u^k; the error is
                  sup |P - h|
  real values     the harmonic fit: Re P in the real span of 1, Re u^k,
                  Im u^k, so Im P is the harmonic conjugate with constant 0
                  in the fit frame; the error is sup |Re P - h|

The lift hands the engine the part of its datum that its rates measure
(`lifting._Kernel.part`): the complex gap in the additive mode, and its real
part in the product mode (the log-modulus of a ratio) and the harmonic mode.

Runge's theorem needs K's complement to be connected; the engine does not
check it. Every region the lift passes is a toast region, whose connected
complement the toast's pocket fill has established, and a region without
one fails to certify: `solve` then raises DegreeCapExceeded.

Sampling is boundary-only: h is analytic or harmonic near K, so by the
maximum principle the boundary sup equals the sup over K. Only K is
sampled: nothing outside it enters the fit. The polynomial is framed at the
fit samples' mean, rounded to the 2^-26 lattice as an offset from K's
anchor, and rescaled by the farthest fit sample, so |u| <= 1 on the samples
and every monomial column peaks at exactly 1; the frame keeps fits
bit-reproducible under quantized translations of the whole problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CompactRegion, ComplexPoly, q26
from .errors import DegreeCapExceeded

DEGREE_LADDER = (2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 120)
DEFAULT_CAP = DEGREE_LADDER[-1]
RCOND = 1e-13
DENSITY = 64        # fit sampling; errors are re-measured at twice this


@dataclass(frozen=True)
class RungeProblem:
    """Fit datum on region to within epsilon; the datum's values, real or
    complex, pick the fit (see the module docstring)."""

    region: CompactRegion
    datum: Callable
    epsilon: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")


@dataclass(frozen=True)
class RungeCertificate:
    """The fitted polynomial plus its error, re-measured at a finer sampling
    than the fit used; the error is below the problem's epsilon. poly
    approximates a complex datum, or has its real part approximate a real
    one (then Im poly is the harmonic conjugate, 0 at the frame centre).
    `degree` is the ladder degree of the fit, one below poly's coefficient
    count."""

    poly: ComplexPoly
    error: float

    @property
    def degree(self):
        return len(self.poly.coeffs) - 1


def _vandermonde(pts, z0, scale, degree):
    u = (pts - z0) / scale
    return np.vander(u, degree + 1, increasing=True)


def _values(datum, pts):
    with np.errstate(all="ignore"):
        values = np.asarray(datum(pts))
    return values.astype(complex if np.iscomplexobj(values) else float)


def _fitter(problem: RungeProblem):
    """The fit at one degree, as a function degree -> (poly, error)."""
    K = problem.region
    fit_pts = K.boundary_samples(DENSITY)
    check_pts = K.boundary_samples(2 * DENSITY)
    rhs = _values(problem.datum, fit_pts)
    check = _values(problem.datum, check_pts)
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(check))):
        raise ValueError("datum is not finite on its region")
    harmonic = not np.iscomplexobj(rhs)
    # the frame sits at the samples' mean, rounded to the lattice as an
    # offset from the anchor: the offsets are exact differences, so the
    # frame moves exactly with a quantized shift of the whole problem, and
    # a region spread over several disks is not fitted from its first one
    z0 = K.anchor + q26(np.mean(fit_pts - K.anchor))
    scale = max(float(np.max(np.abs(fit_pts - z0))), 1e-9)

    def fit(deg):
        V = _vandermonde(fit_pts, z0, scale, deg)
        if harmonic:
            # Re P = a_0 + sum_k b_k Re u^k + c_k Im u^k for the P with
            # coefficients a_0 and b_k - i c_k
            A = np.concatenate([V.real, V[:, 1:].imag], axis=1)
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=RCOND)
            coeffs = np.concatenate(
                [sol[:1], sol[1:deg + 1] - 1j * sol[deg + 1:]])
        else:
            coeffs, *_ = np.linalg.lstsq(V, rhs, rcond=RCOND)
        poly = ComplexPoly(tuple(coeffs.tolist()), center=z0, scale=scale)
        fitted = poly(check_pts)
        error = np.max(np.abs((fitted.real if harmonic else fitted) - check))
        return poly, float(error)
    return fit


def solve(problem: RungeProblem) -> RungeCertificate:
    """Fit the datum on the problem's region alone, escalating the degree
    along DEGREE_LADDER until the boundary sup error at doubled sampling
    density is below epsilon. Raises DegreeCapExceeded with the best error
    otherwise. Nothing outside the region enters the fit: a datum that is
    singular just beyond the region (the lift's new data points) needs an
    approximant that grows there."""
    fit = _fitter(problem)
    best = math.inf
    for deg in DEGREE_LADDER:
        poly, error = fit(deg)
        best = min(best, error)
        if error < problem.epsilon:
            return RungeCertificate(poly=poly, error=error)
    raise DegreeCapExceeded(
        f"degree cap {DEFAULT_CAP} reached with error {best:.3e} "
        f"(epsilon {problem.epsilon:.3e})",
        cap=DEFAULT_CAP, best_error=best)
