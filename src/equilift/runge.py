"""Polynomial patching engine: joint least-squares approximation of data
prescribed on disjoint compact disk unions, with escalating degree and
resample-checked error certificates.

One escalation loop (`solve`) serves every mode. The table `_MODES` holds
all that differs between the additive, multiplicative-log and harmonic
modes: how fit and check samples are read, which basis is fitted, how the
coefficients are packed, and which part of the polynomial the error is
taken on.

Multiplicative-log data must declare their logarithm (`log_eval`): the fit
reads that declared log and nothing else, and its real part is what the
errors are measured on. A declared log is already one branch per target and
stays finite where the plain values would overflow; data without one are
refused with ValueError, and a declared zero or singularity inside a target,
or a log that is not finite there, raises ZeroInK.

Sampling is boundary-only: every mode here carries data that is analytic,
zero-free analytic, or harmonic near the targets, so the maximum principle
makes the boundary sup equal to the sup over the region. The polynomial is
framed at a covariant center (anchor-relative centroid, quantized) and
rescaled by the sample spread, which keeps fits bit-reproducible under
quantized translations of the whole problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CompactRegion, ComplexPoly, as_sampled, q26
from .errors import DegreeCapExceeded, ZeroInK

DEGREE_LADDER = (2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 120)
DEFAULT_CAP = 120
RCOND = 1e-13
TAME_WEIGHT = 1e-3
DENSITY = 64        # fit sampling; errors are re-measured at twice this


@dataclass(frozen=True)
class RungeProblem:
    """targets: ((CompactRegion, data), ...) with pairwise disjoint regions
    whose union leaves the complement connected. data is any callable on
    complex arrays; mode fixes how it is interpreted."""

    targets: tuple
    epsilon: float
    mode: str = "additive"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        targets = tuple((K, as_sampled(h)) for K, h in self.targets)
        if not targets:
            raise ValueError("need at least one target")
        object.__setattr__(self, "targets", targets)
        regions = [K for K, _ in targets]
        for i in range(len(regions)):
            for j in range(i + 1, len(regions)):
                if regions[i].intersects(regions[j]):
                    raise ValueError(
                        f"target regions {i} and {j} are not disjoint")
        centers = np.concatenate([K.centers for K in regions])
        radii = np.concatenate([K.radii for K in regions])
        union = CompactRegion(centers, radii, check_connected=False)
        if not union.complement_connected():
            raise ValueError("complement of the target union is disconnected")


@dataclass(frozen=True)
class RungeCertificate:
    """The fitted polynomial plus per-target errors re-measured at a finer
    sampling than the fit used; every error is below the problem's epsilon.
    The data are approximated by poly (additive), exp(poly)
    (multiplicative-log) or Re poly (harmonic)."""

    problem: RungeProblem
    mode: str
    degree: int
    poly: ComplexPoly
    errors: tuple


# ---------------------------------------------------------------------------
# framing


def _frame(targets, sample_sets):
    """Covariant frame: first anchor plus the quantized mean anchor offset,
    scaled by the sample spread. Built from difference vectors only."""
    anchors = [K.anchor for K, _ in targets]
    base = anchors[0]
    offset = q26(complex(np.mean([a - base for a in anchors])))
    z0 = base + offset
    spread = max(float(np.max(np.abs(pts - z0))) for pts in sample_sets)
    return z0, max(spread, 1e-9)


def _vandermonde(pts, z0, scale, degree):
    u = (pts - z0) / scale
    return np.vander(u, degree + 1, increasing=True)


def _degrees(degree, cap):
    if degree is not None:
        return [int(degree)]
    ladder = [d for d in DEGREE_LADDER if d < cap]
    ladder.append(cap)
    return ladder


# ---------------------------------------------------------------------------
# samples: plain values, real parts, declared logarithms


def _pointwise(read):
    """Samples of data read off pointwise on each target's boundary."""
    def sample(targets, density):
        sets = [K.boundary_samples(density) for K, _ in targets]
        return sets, [read(K, h, pts) for (K, h), pts in zip(targets, sets)]
    return sample


def _declared_log(K: CompactRegion, h, pts):
    """The datum's declared log on K's boundary samples pts."""
    for z in tuple(h.zeros) + tuple(h.singularities):
        if K.contains(z):
            raise ZeroInK(f"declared zero or singularity {z} lies in a target")
    if h.log_eval is None:
        raise ValueError("multiplicative-log data must declare log_eval")
    logs = np.asarray(h.log_eval(pts), dtype=complex)
    if not np.all(np.isfinite(logs)):
        raise ZeroInK("declared log is not finite on a target region")
    return logs


_VALUES = _pointwise(lambda K, h, pts: h(pts))
_REAL_PARTS = _pointwise(lambda K, h, pts: np.real(h(pts)))
_LOGS = _pointwise(_declared_log)
_LOG_MODULI = _pointwise(lambda K, h, pts: np.real(_declared_log(K, h, pts)))


# ---------------------------------------------------------------------------
# bases and packing


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
    fit: Callable           # (targets, density) -> (sample sets, values)
    check: Callable         # (targets, density) -> (sets, values) errors use
    basis: Callable         # complex Vandermonde -> design columns
    pack: Callable          # (solution, degree) -> complex coefficients
    part: Callable          # poly values -> the part compared with check


def _same(v, *_):
    return v


_MODES = {
    "additive": _Mode(
        fit=_VALUES, check=_VALUES,
        basis=_same, pack=_same, part=_same),
    "multiplicative-log": _Mode(
        fit=_LOGS, check=_LOG_MODULI,
        basis=_same, pack=_same, part=np.real),
    "harmonic": _Mode(
        fit=_REAL_PARTS, check=_REAL_PARTS,
        basis=_harmonic_basis, pack=_harmonic_pack, part=np.real),
}


# ---------------------------------------------------------------------------
# the escalation loop


def solve(problem: RungeProblem, degree_cap=DEFAULT_CAP, degree=None,
          tame_region=None) -> RungeCertificate:
    """Fit one polynomial to all targets' data jointly; escalate the degree
    until every per-target boundary sup error at doubled sampling density is
    below epsilon. Raises DegreeCapExceeded with the best error otherwise.

    tame_region, when given, adds soft rows at weight TAME_WEIGHT on that
    region's boundary, with the mean of the fit data as their value. The
    fit error is still measured on the targets alone; the soft rows only
    pick, among near-minimizers, one that stays plateau-flat on the tame
    region. Callers that feed one level's fit into the next level's data
    use this to keep values tame on the territory sampled next."""
    mode = _MODES[problem.mode]
    fit_sets, fit_vals = mode.fit(problem.targets, DENSITY)
    check_sets, check_vals = mode.check(problem.targets, 2 * DENSITY)
    for vals in fit_vals + check_vals:
        if not np.all(np.isfinite(vals)):
            raise ValueError("target data is not finite on its region")
    tame_pts = None
    if tame_region is not None:
        tame_pts = tame_region.boundary_samples(DENSITY)
    spread_sets = fit_sets if tame_pts is None else fit_sets + [tame_pts]
    z0, scale = _frame(problem.targets, spread_sets)
    pts = np.concatenate(fit_sets)
    rhs = np.concatenate(fit_vals)
    if tame_pts is not None:
        flat = np.full(len(tame_pts), np.mean(rhs))
        rhs = np.concatenate([rhs, TAME_WEIGHT * flat])
    best = math.inf
    for deg in _degrees(degree, degree_cap):
        A = mode.basis(_vandermonde(pts, z0, scale, deg))
        if tame_pts is not None:
            T = mode.basis(_vandermonde(tame_pts, z0, scale, deg))
            A = np.concatenate([A, TAME_WEIGHT * T])
        col = np.max(np.abs(A), axis=0)
        col[col == 0] = 1.0
        sol, *_ = np.linalg.lstsq(A / col, rhs, rcond=RCOND)
        coeffs = mode.pack(sol / col, deg)
        poly = ComplexPoly(tuple(coeffs.tolist()), center=z0, scale=scale)
        errors = [float(np.max(np.abs(mode.part(poly(cp)) - cv)))
                  for cp, cv in zip(check_sets, check_vals)]
        best = min(best, max(errors))
        if max(errors) < problem.epsilon:
            return RungeCertificate(
                problem=problem, mode=problem.mode, degree=deg, poly=poly,
                errors=tuple(errors))
    raise DegreeCapExceeded(
        f"degree cap {degree_cap} reached with error {best:.3e} "
        f"(epsilon {problem.epsilon:.3e})",
        cap=degree_cap, best_error=best)
