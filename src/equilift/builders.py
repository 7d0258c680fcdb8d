"""Classical right-inverse constructions and the paper's two negative
claims.

The constructions are finite Weierstrass products, Mittag-Leffler sums of
principal parts and planar Newtonian potentials: the closed forms the lift
is checked against. `verify_divisor_match` is the argument-principle check
that a function's zero set is a prescribed divisor.

The negative claims are computed, not proved:
  continuity   `dbar_counterexample`: functions f_n that equal z on
               |z| <= n, whose Cauchy transform at 0 grows like pi n^2, so
               no right inverse of d-bar is continuous.
  freeness     `riesz_growth_demo`: unit atoms on Z^2 x {0} in R^3, a
               lattice of rank d-1, put mass about pi t^2 in the ball of
               radius t, which no upper-bounded potential can carry.

The Cauchy transform is xi(f)(zeta) = (-1/pi) integral of f(z)/(z - zeta)
over the plane, the normalization with d-bar xi(f) = f for the standard
d-bar = (d/dx + i d/dy)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Circle, ComplexPoly, SampledFunction, Window, base_sum,
                   cauchy_sum, count_zeros, log_modulus_arg, nearest_gaps,
                   refine_zero)
from .divisors import Divisor, PrincipalParts
from .errors import EvaluationOnAtom


# ---------------------------------------------------------------------------
# entire functions with prescribed zeros


@dataclass(frozen=True)
class EntireApprox:
    """z^{m_0} * prod (1 - z/a)^{m_a} * exp(gauge(z))."""

    locs: np.ndarray
    mults: np.ndarray
    gauge: ComplexPoly
    window: Window

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.exp(self.gauge(z))
        for a, m in zip(self.locs.tolist(), self.mults.tolist()):
            base = z if a == 0 else 1 - z / a
            out = out * base ** m
        return out

    def log_eval(self, z):
        """A branch of log f; only the real part is single-valued."""
        at_origin = (self.locs == 0)[:, None]
        a = np.where(at_origin, 1, self.locs[:, None])
        return self.gauge(z) + base_sum(
            lambda u: log_modulus_arg(np.where(at_origin, u, 1 - u / a)), z,
            self.mults)

    def dlog(self, z):
        return self.gauge.derivative()(z) + cauchy_sum(
            z, self.locs, self.mults)

    def divisor(self):
        return Divisor(self.locs, self.mults, self.window)


def weierstrass(d: Divisor) -> EntireApprox:
    """Plain genus-0 product with zero set d (window-finite data needs no
    convergence factors)."""
    if not d.is_nonnegative():
        raise ValueError("weierstrass needs a nonnegative divisor")
    return EntireApprox(locs=d.locs, mults=d.mults,
                        gauge=ComplexPoly((0j,)), window=d.window)


def mittag_leffler(pp: PrincipalParts) -> SampledFunction:
    """Finite sum of the prescribed principal parts."""
    entries = pp.entries

    def ev(z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for w, coeffs in entries:
            u = z - w
            for j, c in enumerate(coeffs, start=1):
                out = out + c / u ** j
        return out

    return SampledFunction(evaluator=ev)


# membership: contour nodes per separating circle, and the largest offset
# of a refined root from its prescribed point
CONTOUR_NODES = 512
POSITION_TOL = 1e-8


def verify_divisor_match(f, d: Divisor, window=None) -> dict:
    """Argument-principle check that f's zeros are the points of d.

    d is f's whole prescribed divisor, and f needs only `dlog`. The points
    checked are d's points inside `window`, or all of them when window is
    None. Per checked point: the winding count on a separating circle
    equals the multiplicity. The circle's radius is min(0.25, 0.45 x the
    gap to the nearest other point of d), so every circle clears every
    point of d, those outside the window included. The gaps come from
    `core.nearest_gaps`, and every circle is counted in one `count_zeros`
    call, one row of its dlog batch per circle. Every point whose count
    matches is then refined, all at once, by one `refine_zero` call, and
    its root must stay within POSITION_TOL of the prescribed location.
    With no window, d claims to be f's whole zero set, and one circle
    enclosing every point catches stray extra zeros.

    The report holds `matched`, the `mismatches` (count failures first,
    then position failures, then the total), the largest root offset
    `max_position_error`, `max_residual`: the largest pre-rounding
    argument-principle residual over the per-point circles (a count is
    refused above 0.25), and `max_newton_steps`: the most Newton steps any
    root refinement took."""
    mismatches = []
    max_pos = 0.0
    max_steps = 0
    keep = slice(None) if window is None else window.contains(d.locs)
    locs, mults = d.locs[keep], d.mults[keep]
    radii = np.minimum(0.25, 0.45 * nearest_gaps(locs, d.locs))
    counts, residuals = count_zeros(
        f, [Circle(p, r) for p, r in zip(locs.tolist(), radii.tolist())],
        nodes=CONTOUR_NODES)
    max_residual = float(residuals.max(initial=0.0))
    counted = []
    for p, m, n, radius in zip(locs.tolist(), mults.tolist(), counts.tolist(),
                               radii.tolist()):
        if n != m:
            mismatches.append({"point": p, "expected": int(m), "counted": int(n)})
        else:
            counted.append((p, m, radius))
    if counted:
        p, m, radius = (np.array(v) for v in zip(*counted))
        s = 0.3 * radius
        # Newton's basin around p shrinks to ~m/|background| when the
        # combined field of the other zeros is strong; start inside it
        with np.errstate(all="ignore"):
            back = np.abs(f.dlog(p + s) - m / s)
            s = np.where(back > 0, np.minimum(s, 0.25 * m / back), s)
        roots, steps = refine_zero(f, p + s, m)
        err = np.abs(roots - p)
        max_pos, max_steps = float(err.max()), int(steps.max())
        mismatches += [{"point": q, "position_error": e}
                       for q, e in zip(p.tolist(), err.tolist())
                       if e > POSITION_TOL]
    if window is None and len(locs):
        center = complex(np.mean(locs))
        span = float(np.max(np.abs(locs - center))) + 1.0
        (total,), _ = count_zeros(f, [Circle(center, span)], nodes=2048)
        if total != int(np.sum(mults)):
            mismatches.append({"total_expected": int(np.sum(mults)),
                               "total_counted": int(total)})
    return {"matched": not mismatches, "mismatches": mismatches,
            "max_position_error": max_pos, "max_residual": max_residual,
            "max_newton_steps": max_steps}


# ---------------------------------------------------------------------------
# continuity cannot be had: the d-bar blow-up table


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10 + t * (-15 + 6 * t))


def radial_blend_profile(r, plateau, outer):
    """1 inside `plateau`, quintic C^2 roll-off to 0 at `outer`."""
    r = np.asarray(r, dtype=float)
    t = (r - plateau) / (outer - plateau)
    return 1.0 - _smoothstep(t)


def counterexample_value(n: int) -> float:
    """|integral of f_n(z)/z dA| for f_n = z * chi(|z|) with the quintic
    roll-off on [n, n+1]: the integrand is chi itself, so the value is the
    radial integral 2 pi int chi(r) r dr. On the ring [n, n+1] the
    integrand chi(r) r is a polynomial of degree 6, which the 4-node
    Gauss-Legendre rule integrates exactly."""
    x, w = np.polynomial.legendre.leggauss(4)
    r = n + 0.5 * (x + 1.0)
    ring = 0.5 * float(np.sum(w * radial_blend_profile(r, n, n + 1) * r))
    return math.pi * n * n + 2 * math.pi * ring


def counterexample_bound(n: int) -> float:
    return math.pi * (n * n - 4 * n - 2)


def dbar_counterexample(ns) -> list:
    """Rows (n, computed, bound, core) demonstrating that no bounded
    right-inverse evaluation at 0 can exist: f_n equals z on |z| <= n, so
    f_n -> z on compacts, while computed = pi |xi(f_n)(0)| grows like
    pi n^2 and stays above the diverging lower bound."""
    if isinstance(ns, int):
        ns = [ns]
    rows = []
    for n in ns:
        n = int(n)
        if n < 5:
            raise ValueError("blow-up table starts at n = 5")
        rows.append({
            "n": n,
            "computed": counterexample_value(n),
            "bound": counterexample_bound(n),
            "core": math.pi * n * n,
        })
    return rows


# ---------------------------------------------------------------------------
# freeness cannot be omitted: Riesz mass on a rank-(d-1) lattice


# radii of the Riesz growth table: RIESZ_T_MIN to RIESZ_T_MAX in RIESZ_STEP
RIESZ_T_MIN, RIESZ_T_MAX, RIESZ_STEP = 5.0, 40.0, 0.1


def riesz_growth_demo():
    """Mass growth table for unit atoms on Z^2 x {0} in R^3.

    Rows: t, mass mu(B(0,t)), ratio mass/t^2, and the running lower
    Riemann sum of int mass/t^2 dt from RIESZ_T_MIN (left mass over right
    squared radius per cell, an honest lower bound). The ratio stays
    above pi + o(1); the partial integral grows linearly, which is the
    numeric face of the incompatibility with any upper-bounded potential.
    """
    n = int(round((RIESZ_T_MAX - RIESZ_T_MIN) / RIESZ_STEP))
    ts = RIESZ_T_MIN + RIESZ_STEP * np.arange(n + 1)
    m = int(math.floor(RIESZ_T_MAX))
    k = np.arange(-m, m + 1)
    radii2 = np.sort((k[:, None] ** 2 + k[None, :] ** 2).reshape(-1))
    masses = np.searchsorted(radii2, ts * ts + 1e-9, side="right")
    rows = []
    partial = 0.0
    for i, t in enumerate(ts):
        if i > 0:
            partial += RIESZ_STEP * float(masses[i - 1]) / float(ts[i]) ** 2
        rows.append({"t": float(t), "mass": int(masses[i]),
                     "ratio": float(masses[i]) / float(t) ** 2,
                     "partial_integral": partial})
    return rows


# ---------------------------------------------------------------------------
# Newtonian potentials


@dataclass(frozen=True)
class Potential:
    """Finite positive atomic measure in the plane."""

    atoms: tuple          # ((location, mass), ...)
    dim: int

    def __post_init__(self):
        # dim reaches here from outside through from_json
        if self.dim != 2:
            raise ValueError("potentials are planar: dimension must be 2")
        norm = []
        for loc, mass in self.atoms:
            if mass <= 0:
                raise ValueError("masses must be positive")
            loc, mass = _as_point(loc), float(mass)
            if not all(map(math.isfinite, loc + (mass,))):
                raise ValueError("locations and masses must be finite")
            norm.append((loc, mass))
        object.__setattr__(self, "atoms", tuple(norm))

    def to_json(self):
        return {"dim": self.dim,
                "atoms": [{"loc": list(loc), "mass": mass}
                          for loc, mass in self.atoms]}

    @staticmethod
    def from_json(obj):
        return Potential(tuple((tuple(a["loc"]), a["mass"])
                               for a in obj["atoms"]), dim=obj["dim"])


def _as_point(loc):
    if isinstance(loc, (complex, float, int)):
        loc = complex(loc)
        return (loc.real, loc.imag)
    vec = tuple(float(v) for v in np.asarray(loc, dtype=float).ravel())
    if len(vec) != 2:
        raise ValueError(f"location {loc!r} is not 2-dimensional")
    return vec


def newtonian_potential(mu: Potential, xs) -> np.ndarray:
    """u(x) = sum mass * log|x - a| / 2 pi."""
    pts = np.array([_as_point(x) for x in xs], dtype=float)
    out = np.zeros(len(pts))
    for loc, mass in mu.atoms:
        d = np.linalg.norm(pts - np.asarray(loc), axis=1)
        if np.any(d < 1e-13):
            raise EvaluationOnAtom(f"evaluation point coincides with atom {loc}")
        out += mass * np.log(d) / (2 * math.pi)
    return out
