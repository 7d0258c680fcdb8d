"""Divisors (weighted point configurations), principal-part data, generators,
stabilizer detection and principal-part extraction.

Generators draw their randomness from per-cell counter-based streams keyed by
(seed, cell), so output does not depend on evaluation order. All coordinates
are quantized to the 2**-26 lattice (see core.q26): dyadic data is what makes
the covariance guarantees of the toast and lifting modules exact, and what
lets stabilizer detection decide a period by exact comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Circle, Window, contour_integral, nearest_gaps, q26
from .errors import EmptyWindow, OverlappingCircles


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True, eq=False)
class Divisor:
    """Finite set of distinct points with nonzero integer multiplicities."""

    locs: np.ndarray
    mults: np.ndarray
    window: Window

    def __post_init__(self):
        locs = np.atleast_1d(np.asarray(self.locs, dtype=complex))
        raw = np.atleast_1d(np.asarray(self.mults))
        if locs.shape != raw.shape:
            raise ValueError("locs and mults must have matching shapes")
        # integral floats such as 2.0 pass; 1.5 is refused, not truncated,
        # and so is 1e300, which no int64 holds
        if raw.dtype.kind not in "biuf" or not (
                (np.abs(raw) < 2.0 ** 63).all()
                and (raw == np.round(raw)).all()):
            raise ValueError("multiplicities must be integers")
        mults = raw.astype(int)
        if not np.isfinite(locs).all():
            raise ValueError("divisor locations must be finite")
        locs = q26(locs)
        if len(locs) and np.any(mults == 0):
            raise ValueError("multiplicities must be nonzero")
        # sorting is lexicographic in (re, im), so equal locations (0.0 and
        # -0.0 alike) end up adjacent
        srt = np.sort(locs)
        if np.any(srt[1:] == srt[:-1]):
            raise ValueError("divisor locations must be pairwise distinct")
        locs.setflags(write=False)
        mults.setflags(write=False)
        object.__setattr__(self, "locs", locs)
        object.__setattr__(self, "mults", mults)

    def __len__(self):
        return len(self.locs)

    def translate(self, w, move_window=False):
        """Shift every point by w (exact for q26-quantized w). The window
        stays put unless move_window is set."""
        win = self.window.translate(w) if move_window else self.window
        return Divisor(self.locs + complex(w), self.mults, win)

    def is_nonnegative(self):
        return len(self) == 0 or bool(np.all(self.mults > 0))

    def to_json(self):
        return {
            "window": self.window.as_list(),
            "points": [
                {"re": z.real, "im": z.imag, "mult": int(m)}
                for z, m in zip(self.locs.tolist(), self.mults.tolist())
            ],
        }

    @staticmethod
    def from_json(d):
        pts = d.get("points", [])
        locs = [complex(p["re"], p["im"]) for p in pts]
        mults = [p["mult"] for p in pts]
        return Divisor(np.array(locs, dtype=complex), np.array(mults),
                       Window.from_list(d["window"]))

    @staticmethod
    def from_points(points, window: Window):
        """points: iterable of (location, multiplicity)."""
        if points:
            locs, mults = zip(*points)
        else:
            locs, mults = [], []
        return Divisor(np.array(locs, dtype=complex), np.array(mults),
                       window)


@dataclass(frozen=True)
class PrincipalParts:
    """entries: list of (pole, [c_1, ..., c_m]) with c_m != 0."""

    entries: tuple

    def __post_init__(self):
        norm = []
        for pole, coeffs in self.entries:
            pole, coeffs = complex(pole), tuple(complex(c) for c in coeffs)
            if not coeffs or coeffs[-1] == 0:
                raise ValueError("coefficient lists must be nonempty with c_m != 0")
            if not all(map(cmath.isfinite, (pole,) + coeffs)):
                raise ValueError("poles and coefficients must be finite")
            norm.append((pole, coeffs))
        poles = [p for p, _ in norm]
        if len(set(poles)) != len(poles):
            raise ValueError("poles must be pairwise distinct")
        object.__setattr__(self, "entries", tuple(norm))

    def __len__(self):
        return len(self.entries)

    def to_json(self):
        return {
            "entries": [
                {"re": p.real, "im": p.imag,
                 "coeffs": [[c.real, c.imag] for c in cs]}
                for p, cs in self.entries
            ]
        }

    @staticmethod
    def from_json(d):
        return PrincipalParts(tuple(
            (complex(e["re"], e["im"]),
             tuple(complex(a, b) for a, b in e["coeffs"]))
            for e in d["entries"]
        ))


@dataclass(frozen=True)
class StabilizerReport:
    kind: str                      # free | singly-periodic | doubly-periodic | full
    generators: tuple              # up to 2 complex vectors


# ---------------------------------------------------------------------------
# generators


def _cell_rng(seed, ix, iy):
    # per-cell counter-based stream; key words mix the seed with the cell index
    k0 = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    k1 = np.uint64(((ix + 2 ** 31) << 32) ^ (iy + 2 ** 31))
    return np.random.Generator(np.random.Philox(key=np.array([k0, k1])))


def _dyadic_valuation(n):
    if n == 0:
        return None  # infinity
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


# largest offset of a jittered-lattice point from its cell centre, per axis,
# in units of the spacing
JITTER = 0.25


def generate(kind, window: Window, seed=0, intensity=1.0,
             spacing=1.0) -> Divisor:
    """Deterministic divisor generators.

    kinds: poisson (unit-cell counter streams), jittered-lattice (JITTER),
    almost-periodic (the dyadic-offset configuration
    g(m+in) = m + in + 1/2 - 2**(-alpha(m,n)-1), alpha = dyadic valuation of
    gcd(m, n)), periodic-lattice (half-open spacing grid).
    """
    if isinstance(window, (list, tuple)):
        window = Window.from_list(window)
    pts = []
    if kind == "poisson":
        if intensity <= 0:
            raise ValueError("intensity must be positive")
        for ix in range(int(math.floor(window.xmin)), int(math.ceil(window.xmax))):
            for iy in range(int(math.floor(window.ymin)), int(math.ceil(window.ymax))):
                rng = _cell_rng(seed, ix, iy)
                n = int(rng.poisson(intensity))
                if n == 0:
                    continue
                xs = ix + rng.random(n)
                ys = iy + rng.random(n)
                for x, y in zip(xs, ys):
                    z = q26(complex(x, y))
                    if window.contains(z):
                        pts.append((z, 1))
    elif kind == "jittered-lattice":
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        i0, i1 = int(math.floor(window.xmin / spacing)) - 1, int(math.ceil(window.xmax / spacing)) + 1
        j0, j1 = int(math.floor(window.ymin / spacing)) - 1, int(math.ceil(window.ymax / spacing)) + 1
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                rng = _cell_rng(seed, i, j)
                u, v = rng.random(2)
                z = q26(complex((i + 0.5) * spacing + JITTER * spacing * (2 * u - 1),
                                (j + 0.5) * spacing + JITTER * spacing * (2 * v - 1)))
                if window.contains(z):
                    pts.append((z, 1))
    elif kind == "almost-periodic":
        m0, m1 = int(math.floor(window.xmin)) - 1, int(math.ceil(window.xmax)) + 1
        n0, n1 = int(math.floor(window.ymin)) - 1, int(math.ceil(window.ymax)) + 1
        for m in range(m0, m1 + 1):
            for n in range(n0, n1 + 1):
                a = _dyadic_valuation(math.gcd(abs(m), abs(n)))
                off = 0.0 if a is None else 2.0 ** (-a - 1)
                z = complex(m + 0.5 - off, n)
                if window.contains(z):
                    pts.append((z, 1))
    elif kind == "periodic-lattice":
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        i = int(math.ceil(window.xmin / spacing))
        while i * spacing < window.xmax:
            j = int(math.ceil(window.ymin / spacing))
            while j * spacing < window.ymax:
                pts.append((q26(complex(i * spacing, j * spacing)), 1))
                j += 1
            i += 1
    else:
        raise ValueError(f"unknown divisor kind {kind!r}")
    if not pts:
        raise EmptyWindow(f"no {kind} points fall in {window}")
    pts.sort(key=lambda t: (t[0].real, t[0].imag))
    return Divisor.from_points(pts, window)


# ---------------------------------------------------------------------------
# stabilizer detection
#
# Every point lies on the 2**-26 lattice and every candidate period is a
# difference of two points, so each shifted point is a lattice point computed
# exactly. A shift is a period exactly when it maps the divisor onto itself on
# the comparison window, multiplicities included: no tolerance enters.

COMBINATION_TOL = 1e-9  # float residual of the integer-combination test
CANDIDATE_POINTS = 50   # points whose differences are candidate periods


def _candidate_vectors(locs):
    """Difference vectors among the CANDIDATE_POINTS points nearest the
    configuration's own centroid (a covariant stand-in for 'nearest the
    origin')."""
    if len(locs) > CANDIDATE_POINTS:
        centroid = complex(np.mean(locs))
        order = np.argsort(np.abs(locs - centroid), kind="stable")
        locs = locs[order[:CANDIDATE_POINTS]]
    diff = (locs[:, None] - locs[None, :]).ravel()
    uniq = np.unique(diff[np.abs(diff) > 0])
    return sorted(uniq.tolist(), key=lambda v: (abs(v), math.atan2(v.imag, v.real)))


def _window_part(locs, mults, win):
    """(locations, multiplicities) inside win, sorted by location."""
    keep = win.contains(locs)
    order = np.argsort(locs[keep])
    return locs[keep][order], mults[keep][order]


def _is_period(d: Divisor, v, inner: Window):
    """Does d + v equal d on their common inner window, multiplicities
    included? A window too small to compare, or holding no point, reads
    False."""
    pad = abs(v)
    if not (inner.width > 2 * pad + 1e-6 and inner.height > 2 * pad + 1e-6):
        return False
    win = Window(inner.xmin + max(0, -v.real) + 1e-9, inner.xmax - max(0, v.real) - 1e-9,
                 inner.ymin + max(0, -v.imag) + 1e-9, inner.ymax - max(0, v.imag) - 1e-9)
    locs_a, mults_a = _window_part(d.locs, d.mults, win)
    locs_b, mults_b = _window_part(d.locs + v, d.mults, win)
    return (len(locs_a) > 0 and np.array_equal(locs_a, locs_b)
            and np.array_equal(mults_a, mults_b))


def _is_combination(v, gens):
    """Is v an integer multiple of the one period found so far (within
    COMBINATION_TOL)? detect_stabilizer stops at its second period, so
    gens never holds two when it asks."""
    if not gens:
        return False
    (g,) = gens
    k = round((v.real * g.real + v.imag * g.imag) / (abs(g) ** 2))
    return abs(v - k * g) <= COMBINATION_TOL


def _canonical_vector(v):
    if v.real < 0 or (v.real == 0 and v.imag < 0):
        return -v
    return v


def detect_stabilizer(d: Divisor) -> StabilizerReport:
    """Classify the translation stabilizer of d from its short periods.

    Candidates are the difference vectors among the points nearest the
    centroid, shortest first. A candidate is a period when d + v equals d
    on the inner window shrunk by v, multiplicities included; on the 2**-26
    lattice that comparison is exact. Integer combinations of the periods
    found so far are skipped, and two independent periods end the scan."""
    if len(d) == 0:
        raise EmptyWindow("stabilizer of an empty divisor is undefined")
    inner = d.window.inner()
    locs = d.locs
    cands = np.array(_candidate_vectors(locs), dtype=complex)
    # quick filter: a period maps each of a few probe points onto a point
    probes = locs[: min(10, len(locs))]
    shifted = cands[:, None] + probes[None, :]
    ordered = np.sort_complex(locs)
    idx = np.minimum(np.searchsorted(ordered, shifted), len(ordered) - 1)
    hits = (ordered[idx] == shifted).all(axis=1)
    gens = []
    for v in cands[hits].tolist():
        if _is_combination(v, gens):
            continue
        if _is_period(d, v, inner):
            gens.append(v)
            if len(gens) == 2:
                # keep scanning only to reduce the basis; two independent
                # short periods suffice for classification
                break
    gens = [_canonical_vector(g) for g in gens]
    gens.sort(key=lambda g: (abs(g), math.atan2(g.imag, g.real)))
    kind = {0: "free", 1: "singly-periodic", 2: "doubly-periodic"}[len(gens)]
    return StabilizerReport(kind=kind, generators=tuple(gens))


# ---------------------------------------------------------------------------
# principal-part extraction


# Laurent orders read around each pole, and the size at or below which a
# trailing coefficient is dropped
ORDER_CAP = 8
TRUNCATE = 1e-10


def extract_principal_parts(f, suspected_poles, radius) -> PrincipalParts:
    """Laurent-coefficient extraction: c_j = (1/2pi i) contour integral of
    f(z) (z-p)^(j-1) around each suspected pole, for j = 1..ORDER_CAP.
    Every circle of radius `radius` is read by one `contour_integral`
    call, so f is evaluated once on all poles' nodes. Circles that overlap
    (poles less than 2 * radius apart, a repeated pole included) raise
    OverlappingCircles, which names the first pole in input order that
    overlaps another and its first partner after it. Trailing coefficients
    at or below TRUNCATE are dropped, and poles with no surviving
    coefficients are omitted."""
    poles = [complex(p) for p in suspected_poles]
    clash = np.flatnonzero(nearest_gaps(poles) < 2 * radius)
    if len(clash):
        # the first pole that overlaps another has partners after it only
        i = clash[0]
        j = next(j for j in range(i + 1, len(poles))
                 if abs(poles[i] - poles[j]) < 2 * radius)
        raise OverlappingCircles(
            f"extraction circles at {poles[i]} and {poles[j]} overlap")
    moments = contour_integral(f, [Circle(p, radius) for p in poles],
                               orders=ORDER_CAP)
    entries = []
    for p, coeffs in zip(poles, moments[:, 1:].tolist()):
        while coeffs and abs(coeffs[-1]) <= TRUNCATE:
            coeffs.pop()
        if coeffs:
            entries.append((p, tuple(coeffs)))
    return PrincipalParts(tuple(entries))
