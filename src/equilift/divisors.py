"""Divisors (weighted point configurations), principal-part data, generators,
stabilizer detection, and the uniform (bottleneck) transport distance.

Generators draw their randomness from per-cell counter-based streams keyed by
(seed, cell), so output does not depend on evaluation order. All coordinates
are quantized to the 2**-26 lattice (see core.q26): dyadic data is what makes
the covariance guarantees of the toast and lifting modules exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

from .core import Circle, Window, as_sampled, contour_integral, q26
from .errors import AmbiguousNearPeriod, EmptyWindow, OverlappingCircles

INNER_MARGIN = 0.15  # fraction of each side length shaved per side


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True, eq=False)
class Divisor:
    """Finite set of distinct points with nonzero integer multiplicities."""

    locs: np.ndarray
    mults: np.ndarray
    window: Window

    def __post_init__(self):
        locs = q26(np.atleast_1d(np.asarray(self.locs, dtype=complex)))
        mults = np.atleast_1d(np.asarray(self.mults, dtype=int)).copy()
        if locs.shape != mults.shape:
            raise ValueError("locs and mults must have matching shapes")
        if len(locs) and np.any(mults == 0):
            raise ValueError("multiplicities must be nonzero")
        if len(locs) > 1:
            d = np.abs(locs[:, None] - locs[None, :])
            np.fill_diagonal(d, np.inf)
            if np.min(d) == 0.0:
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

    def restrict(self, window: Window):
        keep = window.contains(self.locs)
        return Divisor(self.locs[keep], self.mults[keep], window)

    def is_nonnegative(self):
        return len(self) == 0 or bool(np.all(self.mults > 0))

    def support_multiset(self):
        """Locations repeated by multiplicity (requires nonnegative mults)."""
        if not self.is_nonnegative():
            raise ValueError("multiset view needs nonnegative multiplicities")
        return np.repeat(self.locs, self.mults)

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
        mults = [int(p["mult"]) for p in pts]
        return Divisor(np.array(locs, dtype=complex),
                       np.array(mults, dtype=int),
                       Window.from_list(d["window"]))

    @staticmethod
    def from_points(points, window: Window):
        """points: iterable of (location, multiplicity)."""
        if points:
            locs, mults = zip(*points)
        else:
            locs, mults = [], []
        return Divisor(np.array(locs, dtype=complex),
                       np.array(mults, dtype=int), window)


@dataclass(frozen=True)
class PrincipalParts:
    """entries: list of (pole, [c_1, ..., c_m]) with c_m != 0."""

    entries: tuple

    def __post_init__(self):
        norm = []
        for pole, coeffs in self.entries:
            coeffs = tuple(complex(c) for c in coeffs)
            if not coeffs or coeffs[-1] == 0:
                raise ValueError("coefficient lists must be nonempty with c_m != 0")
            norm.append((complex(pole), coeffs))
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
    tol: float


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


def generate(kind, window: Window, seed=0, intensity=1.0, spacing=1.0,
             jitter=0.25) -> Divisor:
    """Deterministic divisor generators.

    kinds: poisson (unit-cell counter streams), jittered-lattice,
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
                z = q26(complex((i + 0.5) * spacing + jitter * spacing * (2 * u - 1),
                                (j + 0.5) * spacing + jitter * spacing * (2 * v - 1)))
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
# transport distance


def _has_perfect_matching(dmat, thresh):
    n = dmat.shape[0]
    graph = csr_matrix((dmat <= thresh).astype(np.int8))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int(np.count_nonzero(match >= 0)) == n


def _bottleneck(pa, pb):
    """Exact bottleneck distance between equal-size point multisets: binary
    search over the realized pairwise distances with a perfect-matching
    feasibility test at each threshold."""
    if len(pa) != len(pb):
        return math.inf
    if len(pa) == 0:
        return 0.0
    dmat = np.abs(pa[:, None] - pb[None, :])
    cands = np.unique(dmat)
    if not _has_perfect_matching(dmat, cands[-1]):
        return math.inf
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(dmat, cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo])


def transport_distance(a: Divisor, b: Divisor, window: Window = None) -> float:
    """Bottleneck matching distance inf over bijections of the max
    displacement, computed exactly on the window restrictions.

    Unequal counts yield +inf (boundary-margin caveat: compare on a window
    both configurations fill)."""
    if window is None:
        window = a.window
    return _bottleneck(a.restrict(window).support_multiset(),
                       b.restrict(window).support_multiset())


# ---------------------------------------------------------------------------
# stabilizer detection


def _candidate_vectors(locs, limit=50):
    """Difference vectors among the points nearest the configuration's own
    centroid (a covariant stand-in for 'nearest the origin')."""
    if len(locs) > limit:
        centroid = complex(np.mean(locs))
        order = np.argsort(np.abs(locs - centroid), kind="stable")
        locs = locs[order[:limit]]
    diff = (locs[:, None] - locs[None, :]).ravel()
    uniq = np.unique(diff[np.abs(diff) > 0])
    return sorted(uniq.tolist(), key=lambda v: (abs(v), math.atan2(v.imag, v.real)))


def _shift_mismatch(d: Divisor, v, inner: Window):
    """Bottleneck distance between d and d+v on their common inner window."""
    pad = abs(v)
    win = Window(inner.xmin + max(0, -v.real) + 1e-9, inner.xmax - max(0, v.real) - 1e-9,
                 inner.ymin + max(0, -v.imag) + 1e-9, inner.ymax - max(0, v.imag) - 1e-9) \
        if (inner.width > 2 * pad + 1e-6 and inner.height > 2 * pad + 1e-6) else None
    if win is None:
        return math.inf
    da = d.restrict(win)
    db = Divisor(d.locs + v, d.mults, d.window).restrict(win)
    if len(da) == 0:
        return math.inf
    return _bottleneck(da.support_multiset(), db.support_multiset())


def _is_combination(v, gens, tol):
    """Is v an integer combination of gens (within tol)?"""
    if not gens:
        return False
    if len(gens) == 1:
        g = gens[0]
        t = (v.real * g.real + v.imag * g.imag) / (abs(g) ** 2)
        k = round(t)
        return abs(v - k * g) <= tol
    g1, g2 = gens
    det = g1.real * g2.imag - g1.imag * g2.real
    if abs(det) < 1e-15:
        return _is_combination(v, [g1], tol)
    s = (v.real * g2.imag - v.imag * g2.real) / det
    t = (g1.real * v.imag - g1.imag * v.real) / det
    return abs(v - round(s) * g1 - round(t) * g2) <= tol


def _canonical_vector(v):
    if v.real < 0 or (v.real == 0 and v.imag < 0):
        return -v
    return v


def detect_stabilizer(d: Divisor, tol=1e-9) -> StabilizerReport:
    """Scan candidate periods (short difference vectors) and classify the
    translation stabilizer. Raises AmbiguousNearPeriod when a candidate's
    mismatch lands in [tol, 10*tol)."""
    if len(d) == 0:
        raise EmptyWindow("stabilizer of an empty divisor is undefined")
    inner = d.window.inner(INNER_MARGIN)
    locs = d.locs
    cands = _candidate_vectors(locs)
    # quick lower bound on the mismatch: nearest-neighbor distances of a few
    # shifted probes; safe to reject when even that exceeds the grey zone
    tree = cKDTree(np.column_stack([locs.real, locs.imag]))
    probes = locs[: min(10, len(locs))]
    gens = []
    for v in cands:
        if abs(v) <= 10 * tol:
            continue  # differences of near-coincident points, not periods
        if _is_combination(v, gens, tol):
            continue
        q = np.column_stack([(probes + v).real, (probes + v).imag])
        nn, _ = tree.query(q)
        if float(np.max(nn)) >= 10 * tol:
            continue
        delta = _shift_mismatch(d, v, inner)
        if delta < tol:
            gens.append(v)
            if len(gens) == 2:
                # keep scanning only to reduce the basis; two independent
                # short periods suffice for classification
                break
        elif delta < 10 * tol:
            raise AmbiguousNearPeriod(
                f"candidate period {v} has mismatch {delta:.3g} in [tol, 10 tol)"
            )
    gens = [_canonical_vector(g) for g in gens]
    gens.sort(key=lambda g: (abs(g), math.atan2(g.imag, g.real)))
    kind = {0: "free", 1: "singly-periodic", 2: "doubly-periodic"}[len(gens)]
    return StabilizerReport(kind=kind, generators=tuple(gens), tol=tol)


# ---------------------------------------------------------------------------
# principal-part extraction


def extract_principal_parts(f, suspected_poles, radius, order_cap=8,
                            truncate=1e-10) -> PrincipalParts:
    """Laurent-coefficient extraction: c_j = (1/2pi i) contour integral of
    f(z) (z-p)^(j-1) around each suspected pole; trailing coefficients below
    `truncate` are dropped, poles with no surviving coefficients are omitted."""
    f = as_sampled(f)
    poles = [complex(p) for p in suspected_poles]
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            if abs(poles[i] - poles[j]) < 2 * radius:
                raise OverlappingCircles(
                    f"extraction circles at {poles[i]} and {poles[j]} overlap"
                )
    entries = []
    for p in poles:
        coeffs = [contour_integral(f, Circle(p, radius), j=j)
                  for j in range(1, order_cap + 1)]
        while coeffs and abs(coeffs[-1]) <= truncate:
            coeffs.pop()
        if coeffs:
            entries.append((p, tuple(coeffs)))
    return PrincipalParts(tuple(entries))
