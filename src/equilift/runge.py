"""Polynomial patching engine: one datum on one compact region, escalating
degree, and a resample-checked error certificate.

A `RungeProblem` holds a region K, a datum h (any callable on complex
arrays), epsilon and a mode. `solve` fits a polynomial P to h's values on
K's boundary by least squares and raises the degree along DEGREE_LADDER
until the boundary sup error, re-measured at twice the fit's sampling
density, is below epsilon. The table `MODES` holds all that differs between
the modes:

  additive            fits h; the error is sup |P - h|
  multiplicative-log  h is a logarithm: fits h's complex values, and the
                      error is sup |Re P - Re h|, the log-modulus error of
                      exp(P) against exp(h)
  harmonic            fits Re h in the real span of 1, Re u^k, Im u^k; the
                      error is sup |Re P - Re h|

`MODES[mode].part` (the identity or the real part) is also what the lift's
rates measure.

Runge's theorem needs K's complement to be connected; the engine does not
check it. Every region the lift passes is a toast region, whose connected
complement the toast's pocket fill has established, and a region without
one fails to certify: `solve` then raises DegreeCapExceeded.

Sampling is boundary-only: h is analytic or harmonic near K, so by the
maximum principle the boundary sup equals the sup over K. The polynomial is
framed at K's anchor and rescaled by the sample spread, which keeps fits
bit-reproducible under quantized translations of the whole problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CompactRegion, ComplexPoly
from .errors import DegreeCapExceeded

DEGREE_LADDER = (2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 120)
DEFAULT_CAP = DEGREE_LADDER[-1]
RCOND = 1e-13
TAME_WEIGHT = 1e-3
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
    approximates the datum (additive) or its real part (multiplicative-log,
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
    "multiplicative-log": _Mode(fit=_same, part=np.real,
                                basis=_same, pack=_same),
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


def _fitter(problem: RungeProblem, tame_region=None):
    """The fit at one degree, as a function degree -> (poly, error)."""
    mode = MODES[problem.mode]
    K = problem.region
    fit_pts = K.boundary_samples(DENSITY)
    check_pts = K.boundary_samples(2 * DENSITY)
    rhs = mode.fit(_values(problem.datum, fit_pts))
    check = mode.part(_values(problem.datum, check_pts))
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(check))):
        raise ValueError("datum is not finite on its region")
    # the soft rows; none without a tame region
    tame_pts = (np.empty(0, dtype=complex) if tame_region is None
                else tame_region.boundary_samples(DENSITY))
    rhs = np.concatenate(
        [rhs, TAME_WEIGHT * np.full(len(tame_pts), np.mean(rhs))])
    # adding 0j reads a -0.0 part of the anchor as 0.0, so frames that are
    # equal print alike
    z0 = K.anchor + 0j
    spread = np.abs(np.concatenate([fit_pts, tame_pts]) - z0)
    scale = max(float(np.max(spread)), 1e-9)

    def fit(deg):
        A = np.concatenate(
            [mode.basis(_vandermonde(fit_pts, z0, scale, deg)),
             TAME_WEIGHT * mode.basis(_vandermonde(tame_pts, z0, scale, deg))])
        col = np.max(np.abs(A), axis=0)
        col[col == 0] = 1.0
        sol, *_ = np.linalg.lstsq(A / col, rhs, rcond=RCOND)
        coeffs = mode.pack(sol / col, deg)
        poly = ComplexPoly(tuple(coeffs.tolist()), center=z0, scale=scale)
        error = float(np.max(np.abs(mode.part(poly(check_pts)) - check)))
        return poly, error
    return fit


def solve(problem: RungeProblem, tame_region=None) -> RungeCertificate:
    """Fit the datum, escalating the degree along DEGREE_LADDER until the
    boundary sup error at doubled sampling density is below epsilon.
    Raises DegreeCapExceeded with the best error otherwise.

    tame_region, when given, adds soft rows at weight TAME_WEIGHT on that
    region's boundary, with the mean of the fit data as their value. The
    error is still measured on the problem's region alone; the soft rows
    only pick, among near-minimizers, one that stays plateau-flat on the
    tame region. The lift, which feeds one level's fit into the next
    level's datum, uses this to keep values tame on the territory sampled
    next."""
    fit = _fitter(problem, tame_region)
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
