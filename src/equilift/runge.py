"""Polynomial patching engine: one datum on one compact region, escalating
degree, and a resample-checked error certificate.

A `RungeProblem` holds a region K, a datum h (any callable on complex
arrays), epsilon and a mode. `solve` fits a polynomial P to h's values on
K's boundary by least squares and raises the degree along DEGREE_LADDER
until the boundary sup error, re-measured at twice the fit's sampling
density, is below epsilon. The table `MODES` holds all that differs between
the modes:

  additive        fits h; the error is sup |P - h|
  multiplicative  h is a logarithm: fits h's complex values, and the
                  error is sup |Re P - Re h|, the log-modulus error of
                  exp(P) against exp(h)
  harmonic        fits Re h in the real span of 1, Re u^k, Im u^k; the
                  error is sup |Re P - Re h|

The keys are the lift's own modes, and `MODES[mode].part` (the identity or
the real part) is also what the lift's rates measure.

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
    """Fit datum on region to within epsilon; mode fixes which part of the
    datum's values is fitted and measured (see `MODES`)."""

    region: CompactRegion
    datum: Callable
    epsilon: float
    mode: str = "additive"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class RungeCertificate:
    """The fitted polynomial plus its error, re-measured at a finer sampling
    than the fit used; the error is below the problem's epsilon. poly
    approximates the datum (additive) or its real part (multiplicative,
    where exp(poly) approximates exp(datum) in modulus, and harmonic)."""

    problem: RungeProblem
    mode: str
    degree: int
    poly: ComplexPoly
    error: float


# ---------------------------------------------------------------------------
# modes: what is fitted, in which basis, and which part is measured


def _same(v, *_):
    return v


def _harmonic_basis(V):
    """Real span of 1, Re u^k, Im u^k."""
    return np.concatenate([V.real, V[:, 1:].imag], axis=1)


def _harmonic_pack(sol, deg):
    """Re(sum q_k u^k) with q_0 = a_0, q_k = b_k - i c_k."""
    q = np.zeros(deg + 1, dtype=complex)
    q[0] = sol[0]
    q[1:] = sol[1:deg + 1] - 1j * sol[deg + 1:]
    return q


@dataclass(frozen=True)
class _Mode:
    fit: Callable           # datum values -> the values fitted
    part: Callable          # values -> the part errors and rates measure
    basis: Callable         # complex Vandermonde -> design columns
    pack: Callable          # (solution, degree) -> complex coefficients


MODES = {
    "additive": _Mode(fit=_same, part=_same, basis=_same, pack=_same),
    "multiplicative": _Mode(fit=_same, part=np.real, basis=_same, pack=_same),
    "harmonic": _Mode(fit=np.real, part=np.real,
                      basis=_harmonic_basis, pack=_harmonic_pack),
}


# ---------------------------------------------------------------------------
# the escalation loop


def _vandermonde(pts, z0, scale, degree):
    u = (pts - z0) / scale
    return np.vander(u, degree + 1, increasing=True)


def _values(datum, pts):
    with np.errstate(all="ignore"):
        return np.asarray(datum(pts), dtype=complex)


def _fitter(problem: RungeProblem):
    """The fit at one degree, as a function degree -> (poly, error)."""
    mode = MODES[problem.mode]
    K = problem.region
    fit_pts = K.boundary_samples(DENSITY)
    check_pts = K.boundary_samples(2 * DENSITY)
    rhs = mode.fit(_values(problem.datum, fit_pts))
    check = mode.part(_values(problem.datum, check_pts))
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(check))):
        raise ValueError("datum is not finite on its region")
    # the frame sits at the samples' mean, rounded to the lattice as an
    # offset from the anchor: the offsets are exact differences, so the
    # frame moves exactly with a quantized shift of the whole problem, and
    # a region spread over several disks is not fitted from its first one
    z0 = K.anchor + q26(np.mean(fit_pts - K.anchor))
    scale = max(float(np.max(np.abs(fit_pts - z0))), 1e-9)

    def fit(deg):
        A = mode.basis(_vandermonde(fit_pts, z0, scale, deg))
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=RCOND)
        coeffs = mode.pack(sol, deg)
        poly = ComplexPoly(tuple(coeffs.tolist()), center=z0, scale=scale)
        error = float(np.max(np.abs(mode.part(poly(check_pts)) - check)))
        return poly, error
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
            return RungeCertificate(problem=problem, mode=problem.mode,
                                    degree=deg, poly=poly, error=error)
    raise DegreeCapExceeded(
        f"degree cap {DEFAULT_CAP} reached with error {best:.3e} "
        f"(epsilon {problem.epsilon:.3e})",
        cap=DEFAULT_CAP, best_error=best)
