"""Classical right-inverse constructions: finite Weierstrass products,
signed-ratio meromorphic data, Mittag-Leffler sums, the planar Cauchy
transform on grids, the transform's blow-up table, and Newtonian potentials.

The Cauchy transform here is xi(f)(zeta) = (-1/pi) integral of
f(z)/(z - zeta) over the plane, the normalization with d-bar xi(f) = f for
the standard d-bar = (d/dx + i d/dy)/2. The blow-up table quotes values in
the 2 pi i-rescaled units its lower-bound formula is stated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.signal import fftconvolve

from .core import (Circle, ComplexPoly, SampledFunction, Window, base_sum,
                   cauchy_sum, count_zeros, refine_zero)
from .divisors import Divisor, PrincipalParts, split_signed
from .errors import EvaluationOnAtom, UnsupportedZeta


# ---------------------------------------------------------------------------
# entire functions with prescribed zeros


@dataclass(frozen=True)
class EntireApprox:
    """z^{m_0} * prod (1 - z/a)^{m_a} * exp(gauge(z)) with declared zeros."""

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
            lambda u: np.log(np.where(at_origin, u, 1 - u / a)), z,
            self.mults)

    def dlog(self, z):
        return self.gauge.derivative()(z) + cauchy_sum(
            z, self.locs, self.mults)

    def divisor(self):
        return Divisor(self.locs, self.mults, self.window)

    def as_sampled(self):
        return SampledFunction(
            evaluator=self.__call__,
            window=self.window,
            zeros=tuple(self.locs.tolist()),
            dlog=self.dlog,
            log_eval=self.log_eval,
            label="entire product",
        )


def weierstrass(d: Divisor) -> EntireApprox:
    """Plain genus-0 product with zero set d (window-finite data needs no
    convergence factors)."""
    if not d.is_nonnegative():
        raise ValueError("weierstrass needs a nonnegative divisor")
    return EntireApprox(locs=d.locs, mults=d.mults,
                        gauge=ComplexPoly((0j,)), window=d.window)


def meromorphic_from_signed(d: Divisor) -> SampledFunction:
    """weierstrass(d+) / weierstrass(d-): divisor map gives back d."""
    dp, dn = split_signed(d)
    num = weierstrass(dp)
    den = weierstrass(dn)
    return SampledFunction(
        evaluator=lambda z: num(z) / den(z),
        window=d.window,
        zeros=tuple(dp.locs.tolist()),
        singularities=tuple(dn.locs.tolist()),
        dlog=lambda z: num.dlog(z) - den.dlog(z),
        log_eval=lambda z: num.log_eval(z) - den.log_eval(z),
        label="signed product ratio",
    )


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

    def dv(z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for w, coeffs in entries:
            u = z - w
            for j, c in enumerate(coeffs, start=1):
                out = out - j * c / u ** (j + 1)
        return out

    return SampledFunction(
        evaluator=ev,
        singularities=tuple(w for w, _ in entries),
        deriv=dv,
        label="principal part sum",
    )


def verify_divisor_match(f, d: Divisor, position_tol=1e-8,
                         contour_nodes=512, check_total=True) -> dict:
    """Argument-principle check that f's zero set on the window is exactly d.

    Per point: winding count on a separating circle equals the multiplicity,
    and a refined root stays within position_tol of the prescribed location.
    With check_total, a global circle enclosing every point catches stray
    extra zeros (disable when d was restricted to a subwindow and f keeps
    zeros outside it).

    The report holds `matched`, the `mismatches`, the largest root offset
    `max_position_error`, `max_residual`: the largest pre-rounding
    argument-principle residual over the per-point circles (a count is
    refused above 0.25), and `max_newton_steps`: the most Newton steps any
    root refinement took."""
    if hasattr(f, "as_sampled"):
        f = f.as_sampled()
    mismatches = []
    max_pos = max_residual = 0.0
    max_steps = 0
    locs, mults = d.locs, d.mults
    # separating circles must clear every zero of f, including zeros outside
    # the verified subset (d may be a window restriction of f's divisor)
    declared = getattr(f, "zeros", None)
    ref = np.asarray(declared, dtype=complex) if declared else locs
    for p, m in zip(locs.tolist(), mults.tolist()):
        dist = np.abs(ref - p)
        dist = dist[dist > 0]
        gap = float(np.min(dist)) if len(dist) else math.inf
        radius = min(0.25, 0.45 * gap)
        n, residual = count_zeros(f, Circle(p, radius), nodes=contour_nodes,
                                  return_residual=True)
        max_residual = max(max_residual, float(residual))
        if n != m:
            mismatches.append({"point": p, "expected": int(m), "counted": int(n)})
            continue
        s = 0.3 * radius
        if f.dlog is not None:
            # Newton's basin around p shrinks to ~m/|background| when the
            # combined field of the other zeros is strong; start inside it
            back = abs(complex(f.dlog_at(p + s)) - m / s)
            if back > 0:
                s = min(s, 0.25 * m / back)
        root, steps = refine_zero(f, p + s, multiplicity=m)
        max_steps = max(max_steps, steps)
        max_pos = max(max_pos, abs(root - p))
        if abs(root - p) > position_tol:
            mismatches.append({"point": p, "position_error": abs(root - p)})
    if check_total and len(locs):
        center = complex(np.mean(locs))
        span = float(np.max(np.abs(locs - center))) + 1.0
        total = count_zeros(f, Circle(center, span), nodes=max(contour_nodes, 2048))
        if total != int(np.sum(mults)):
            mismatches.append({"total_expected": int(np.sum(mults)),
                               "total_counted": int(total)})
    return {"matched": not mismatches, "mismatches": mismatches,
            "max_position_error": max_pos, "max_residual": max_residual,
            "max_newton_steps": max_steps}


# ---------------------------------------------------------------------------
# grid functions and the Cauchy transform


@dataclass(frozen=True)
class GridFunction:
    """Samples on the cell-center grid of a window; row-major [iy, ix]."""

    values: np.ndarray
    window: Window
    hx: float
    hy: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 2:
            raise ValueError("grid values must be a 2d array")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_callable(f, window: Window, h: float):
        nodes = window.grid(h)
        ny, nx = nodes.shape
        return GridFunction(values=np.asarray(f(nodes), dtype=complex),
                            window=window,
                            hx=window.width / nx, hy=window.height / ny)

    def nodes(self):
        ny, nx = self.values.shape
        xs = self.window.xmin + (np.arange(nx) + 0.5) * self.hx
        ys = self.window.ymin + (np.arange(ny) + 0.5) * self.hy
        return xs[None, :] + 1j * ys[:, None]

    @property
    def cell_area(self):
        return self.hx * self.hy


@lru_cache(maxsize=1)
def _singular_cell_constants():
    """Unit-cell integrals of Re(u)/u and Im(u)/u by a 16-sector polar rule.

    In polar coordinates the 1/u singularity cancels against the area
    element, leaving smooth theta-integrals of R(theta)^2/2 times a phase."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    sx = 0j
    sy = 0j
    for k in range(16):
        t0, t1 = 2 * math.pi * k / 16, 2 * math.pi * (k + 1) / 16
        theta = 0.5 * (t1 - t0) * nodes + 0.5 * (t1 + t0)
        wts = 0.5 * (t1 - t0) * weights
        R = 0.5 / np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
        phase = np.exp(-1j * theta) * R ** 2 / 2
        sx += np.sum(wts * np.cos(theta) * phase)
        sy += np.sum(wts * np.sin(theta) * phase)
    return complex(sx), complex(sy)


def _gradients(f: GridFunction):
    gy, gx = np.gradient(f.values, f.hy, f.hx)
    return gx, gy


def cauchy_transform(f: GridFunction, zetas=None):
    """xi(f)(zeta) = (-1/pi) sum over cells of f/(z - zeta).

    zetas None evaluates on the full grid (FFT convolution) and returns a
    GridFunction; otherwise zetas is a sequence of points, each either a
    grid node (singular cell handled by the polar rule plus a gradient
    correction) or at least one cell width away from every node."""
    if abs(f.hx - f.hy) > 1e-12 * max(f.hx, f.hy):
        raise ValueError("cauchy_transform needs square cells")
    h = f.hx
    area = f.cell_area
    nodes = f.nodes()
    sx1, sy1 = _singular_cell_constants()
    gx, gy = _gradients(f)
    corr = (-1.0 / math.pi) * (gx * (sx1 * h * h) + gy * (sy1 * h * h))

    if zetas is None:
        ny, nx = f.values.shape
        dy = (np.arange(2 * ny - 1) - (ny - 1)) * f.hy
        dx = (np.arange(2 * nx - 1) - (nx - 1)) * f.hx
        delta = dx[None, :] + 1j * dy[:, None]
        kernel = np.zeros_like(delta)
        mask = delta != 0
        # convolution index j - m carries z_j - z_m; the integrand wants
        # 1 / (z_m - z_j), hence the sign
        kernel[mask] = -1.0 / delta[mask]
        smooth = (-1.0 / math.pi) * fftconvolve(f.values * area, kernel,
                                                mode="valid")
        return GridFunction(values=smooth + corr, window=f.window,
                            hx=f.hx, hy=f.hy)

    flat_nodes = nodes.ravel()
    flat_vals = f.values.ravel()
    out = []
    for zeta in np.asarray(zetas, dtype=complex).ravel():
        dist = np.abs(flat_nodes - zeta)
        j = int(np.argmin(dist))
        if dist[j] <= 1e-12 * max(1.0, abs(zeta)):
            diff = flat_nodes - zeta
            terms = np.zeros_like(flat_vals)
            off = diff != 0
            terms[off] = flat_vals[off] / diff[off]
            val = (-1.0 / math.pi) * np.sum(terms) * area + corr.ravel()[j]
        elif dist[j] < h:
            raise UnsupportedZeta(
                f"zeta {zeta} lies within one cell of a grid node")
        else:
            val = (-1.0 / math.pi) * np.sum(flat_vals / (flat_nodes - zeta)) * area
        out.append(val)
    return np.array(out, dtype=complex)


def dbar_residual(f: GridFunction, transform: GridFunction = None):
    """Max interior error of (d/dx + i d/dy)/2 applied to the transform
    against f itself; the transform is recomputed when not supplied."""
    if transform is None:
        transform = cauchy_transform(f)
    T = transform.values
    dx = (T[1:-1, 2:] - T[1:-1, :-2]) / (2 * f.hx)
    dy = (T[2:, 1:-1] - T[:-2, 1:-1]) / (2 * f.hy)
    dbar = 0.5 * (dx + 1j * dy)
    return float(np.max(np.abs(dbar - f.values[1:-1, 1:-1])))


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10 + t * (-15 + 6 * t))


def radial_blend_profile(r, plateau, outer):
    """1 inside `plateau`, quintic C^2 roll-off to 0 at `outer`."""
    r = np.asarray(r, dtype=float)
    t = (r - plateau) / (outer - plateau)
    return 1.0 - _smoothstep(t)


def radial_bump(window: Window, h: float, plateau=0.5, outer=2.0,
                center=0j) -> GridFunction:
    """Compactly supported real C^2 bump, for transform fixtures."""
    def f(z):
        return radial_blend_profile(np.abs(z - center), plateau, outer) + 0j
    return GridFunction.from_callable(f, window, h)


# ---------------------------------------------------------------------------
# blow-up table


def counterexample_value(n: int) -> float:
    """|integral of f_n(z)/z dA| for f_n = z * chi(|z|) with the quintic
    roll-off on [n, n+1]: the integrand is chi itself, so the value is the
    radial integral 2 pi int chi(r) r dr."""
    ring, _ = quad(lambda r: radial_blend_profile(r, n, n + 1) * r, n, n + 1)
    return math.pi * n * n + 2 * math.pi * ring


def counterexample_bound(n: int) -> float:
    return math.pi * (n * n - 4 * n - 2)


def dbar_counterexample(ns) -> list:
    """Rows (n, computed, bound, core) demonstrating that no bounded
    right-inverse evaluation at 0 can exist: computed grows like pi n^2
    while staying above the diverging lower bound."""
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
# Newtonian potentials


@dataclass(frozen=True)
class Potential:
    """Finite positive atomic measure in R^2 or R^3."""

    atoms: tuple          # ((location array, mass), ...)
    dim: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        norm = []
        for loc, mass in self.atoms:
            if mass <= 0:
                raise ValueError("masses must be positive")
            vec = _as_point(loc, self.dim)
            norm.append((vec, float(mass)))
        object.__setattr__(self, "atoms", tuple(norm))

    def to_json(self):
        return {"dim": self.dim,
                "atoms": [{"loc": list(loc), "mass": mass}
                          for loc, mass in self.atoms]}

    @staticmethod
    def from_json(obj):
        return Potential(tuple((tuple(a["loc"]), a["mass"])
                               for a in obj["atoms"]), dim=obj["dim"])


def _as_point(loc, dim):
    if dim == 2 and isinstance(loc, (complex, float, int)):
        loc = complex(loc)
        return (loc.real, loc.imag)
    vec = tuple(float(v) for v in np.asarray(loc, dtype=float).ravel())
    if len(vec) != dim:
        raise ValueError(f"location {loc!r} is not {dim}-dimensional")
    return vec


def newtonian_potential(mu: Potential, xs) -> np.ndarray:
    """u(x) = sum mass * k_d(x - a), k_2 = log|.| / 2 pi, k_3 = -1/(4 pi |.|)."""
    pts = np.array([_as_point(x, mu.dim) for x in xs], dtype=float)
    out = np.zeros(len(pts))
    for loc, mass in mu.atoms:
        d = np.linalg.norm(pts - np.asarray(loc), axis=1)
        if np.any(d < 1e-13):
            raise EvaluationOnAtom(f"evaluation point coincides with atom {loc}")
        if mu.dim == 2:
            out += mass * np.log(d) / (2 * math.pi)
        else:
            out += -mass / (4 * math.pi * d)
    return out


def _sphere_mean(mu: Potential, center, radius, resolution=256):
    c = np.asarray(_as_point(center, mu.dim), dtype=float)
    if mu.dim == 2:
        theta = (np.arange(resolution) + 0.5) * (2 * math.pi / resolution)
        ring = c[None, :] + radius * np.column_stack([np.cos(theta), np.sin(theta)])
        return float(np.mean(newtonian_potential(mu, ring)))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    theta = (np.arange(128) + 0.5) * (2 * math.pi / 128)
    ct, st = np.cos(theta), np.sin(theta)
    total = 0.0
    for mu_z, w in zip(nodes, weights):
        s = math.sqrt(1 - mu_z * mu_z)
        shell = c[None, :] + radius * np.column_stack(
            [s * ct, s * st, np.full(128, mu_z)])
        total += w * np.mean(newtonian_potential(mu, shell))
    return float(total / 2.0)


def sub_mean_value_probe(mu: Potential, probes) -> list:
    """For each (center, radius): u(center) vs the sphere average. The
    defining inequality u(center) <= average must hold; slack 0 appears
    exactly when no atom sits inside the sphere (harmonicity)."""
    rows = []
    for center, radius in probes:
        u_c = float(newtonian_potential(mu, [center])[0])
        mean = _sphere_mean(mu, center, radius)
        rows.append({"center": _as_point(center, mu.dim), "radius": float(radius),
                     "u_center": u_c, "sphere_mean": mean,
                     "slack": mean - u_c})
    return rows
