"""Inductive shift-covariant lifting over a toast hierarchy.

Only the base-point chain is solved. The base point is the configuration's
covariant centroid, and the chain at stage n is the level-n region holding
it (regions grow with n, so once the centroid is covered it stays covered;
below first coverage the nearest base region stands in). psi_n is the one
local solution at the chain anchor. A level holds that solution only when
its chain region sits at that level: level 0 and every level from first
coverage on hold one, the levels in between hold none and reuse level 0's.
This is a finite-window device: an infinite configuration has no covariant
base point, and the paper's lifting patches every region of the toast
instead.

A local solution is written in anchor-relative coordinates u = z - anchor
and built purely from difference data (data-point offsets, gauge offsets,
anchor-to-anchor translations), so the whole recursion commutes with
quantized shifts bit for bit; a global evaluation point is folded into the
local frame only at the very end. Three instantiations share the recursion,
one kernel each in `_KERNELS`:

  multiplicative   prescribed zeros; corrections exp(P); log-modulus rates
  additive         prescribed principal parts; corrections P; sup rates
  harmonic         prescribed atomic measures; corrections Re P; sup rates

The step n-1 -> n is patched when the level-(n-1) chain region is a child of
the level-n one: the new correction is fitted on that child alone, against
the child's solution. Each psi_n is one global function, so the level-n rate
r_n(K) compares two closed-form solutions and membership of the divisor
holds analytically at every level, not only in the limit. Shared base data
cancel exactly between the two, so the step is the gap P_n - P_{n-1} of two
correction polynomials, and r_n(K) is the sup of |gap| (|Re gap| in the
multiplicative and harmonic modes; `_Kernel.part` names the part) over K.
That sup sits on K's boundary by the maximum principle, so rates sample
boundaries only. The same cancellation makes the patching datum a gap of
corrections in every mode, and the fit is handed the part the rates
measure: in the product mode the log of the ratio of two solutions, whose
real part (the log-modulus) gets `runge`'s real-part fit.

A rate certificate is `certified` when the step was patched (or is
stagnant) and K lies inside the level-(n-1) chain region: the fit controlled
the ratio on that region's boundary, and the maximum principle carries the
bound inside. Values on disks that poke outside are reported informationally
and never asserted.

The multiplicative base product is normalized at one gauge point for the
whole lift, on the 2^-26 lattice next to the level-0 chain anchor.
Per-cell normalization would be equally valid in exact arithmetic, but the
value levels of sibling cells would then differ by the full log-potential
spread of the configuration (hundreds of log units on window-scale data),
and no float64 polynomial correction can bridge such plateaus across
nearly-touching regions. With one quantized gauge, every normalizer
b_j - gauge is the same exact dyadic difference (data point minus gauge) in
every anchor's frame, so two bases cancel exactly: a level step is exp of
the difference of the two corrections and nothing else.

psi is what every caller evaluates, and its base sums dominate a grid
evaluation, so they avoid numpy's slow complex primitives. On a block of
205 offsets by 80 points (one core of an Intel Xeon, numpy 2.4.6), complex
np.log takes about 1.2 ms where np.log(np.abs(.)) takes 0.06 ms and
np.arctan2 0.09 ms, and a complex integer power d ** -2 takes 0.38 ms
against 0.15 ms for 1 / d. The product kernel therefore sums log-modulus
and argument apart, and the additive kernel takes one reciprocal per pole
and point and runs Horner over the orders (`LocalSolution` has the
formulas).

Membership (`verify_membership`) hands `verify_divisor_match` the whole
divisor and the inner window: the data points in that window are
checked, and every separating circle clears every data point, those
outside the window included. It counts zeros with 512 contour nodes per
circle. Each circle's radius is at most 0.45 of the gap to the nearest
data point, so the trapezoid error from the prescribed zeros decays like
0.45^nodes and far fewer nodes would resolve them. That bound says
nothing about a zero the lift did not prescribe: one sitting close to a
contour is resolved only at full resolution, so the node count stays 512
until a bound covers unprescribed zeros too. What the nodes cost is the
sum over zeros in dlog psi. Every circle is counted in one `count_zeros`
call, which evaluates dlog on a (circles x nodes) array in chunks of
rows, and `core.cauchy_sum` sums each row on its own: the zeros near
that circle one by one, and the zeros beyond 8 times its radius as one
Taylor series about its centre, whose truncation error is at most 2^-53
relative to the size of their terms. The roots are then refined
together: each Newton step evaluates dlog once, on one array holding the
iterate of every point still moving, and each iterate follows the same
sequence it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import runge
from .builders import Potential, verify_divisor_match
from .core import (Circle, CompactRegion, ComplexPoly, SampledFunction,
                   Window, base_sum, cauchy_sum, contour_integral,
                   log_modulus_arg, q26)
from .divisors import Divisor, PrincipalParts
from .errors import DegreeCapExceeded, DivisorMismatch, NonFreeInput, RungeFailure
from .toast import ToastForest, as_depth, build_covariant_toast

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"
HARMONIC = "harmonic"


# ---------------------------------------------------------------------------
# local solutions


@dataclass(frozen=True, eq=False)
class LocalSolution:
    """One anchor's global solution in local coordinates u = z - anchor.

    multiplicative: exp(P(u)) * prod_j ((b_j - u)/(b_j - gauge))^{m_j}
    additive:       P(u) + sum_j sum_k c_{jk} / (u - b_j)^k
    harmonic:       Re P(u) + sum_j mass_j log|u - b_j| / (2 pi)

    The offsets are one array per solution, and every base sum over them
    runs through `core.base_sum`: in blocks of at most BASE_SUM_BLOCK
    u-by-offset elements, so its memory grows with neither n nor the size
    of the input. `dlog` goes through `core.cauchy_sum`, which sums the
    offsets far from each row of u (a 1-D u is one row) as one Taylor
    series and the rest directly. The product is evaluated through its
    logarithm: per-factor ratios stay O(1) where the raw product of
    hundreds of factors would overflow. Solutions compare by identity
    (arrays have no single truth value).

    The base sums use real transcendental functions only (see the module
    docstring for the costs):

      multiplicative  log_value sums m_j (log|p_j| + i arg p_j) through
                      `core.log_modulus_arg`, where p_j = (b_j - u) times
                      the reciprocal 1/(b_j - gauge), taken once per
                      solution: p_j is the ratio (b_j - u)/(b_j - gauge)
                      to a few ulps, so each term keeps its principal
                      branch (on an exact cut the signed zeros agree with
                      the quotient's unless Im b_j is -0.0), and no large
                      constant cancels in the sum.
      additive        one reciprocal r = 1/(u - b_j) per (pole, point), and
                      Horner in r over the orders of the padded (n, k)
                      coefficient table.
      harmonic        log|u - b_j|, real already.
    """

    anchor: complex
    mode: str
    offsets: np.ndarray  # b_j = data point - anchor (exact dyadic differences)
    weights: np.ndarray  # mults / (n, k) principal-part coefficients / masses
    correction: ComplexPoly
    gauge: complex = 0j  # the lift's q26 gauge point - anchor (one per lift)

    def value(self, u):
        u = np.asarray(u, dtype=complex)
        with np.errstate(all="ignore"):
            return _KERNELS[self.mode].value(self, u)

    def log_value(self, u):
        b = self.offsets[:, None]
        with np.errstate(all="ignore"):
            inverse = 1 / (b - self.gauge)
            return self.correction(u) + base_sum(
                lambda row: log_modulus_arg((b - row) * inverse), u,
                self.weights)

    def dlog(self, u):
        with np.errstate(all="ignore"):
            return self.correction.derivative()(u) + cauchy_sum(
                u, self.offsets, self.weights)


def _gauge_offset(offsets, u0):
    """Normalization point for the product base, in coordinates relative to
    the level-0 chain anchor, on the 2^-26 lattice.

    Half a base scale from the anchor, a data point (level-0 anchors are
    markers), away from the nearest other data point (any fixed direction
    when the anchor is alone); rotated and shrunk deterministically if a
    data point blocks the candidate."""
    others = [b for b in offsets if abs(b) > 1e-9]
    if others:
        a_star = min(others, key=lambda b: (abs(b), b.real, b.imag))
        base = -(u0 / 2) * a_star / abs(a_star)
    else:
        base = complex(u0 / 2)
    for shrink in (1.0, 0.5, 0.25):
        for rot in (1, 1j, -1, -1j):
            g = q26(base * rot * shrink)
            if all(abs(b - g) > 1e-9 for b in offsets):
                return g
    raise ValueError("no clear normalization point near the anchor")


# ---------------------------------------------------------------------------
# base point and chain


def _base_point(locs):
    """Covariant centroid: quantized mean of offsets from the first point,
    re-based on that point. Differences are exact for quantized data, so
    the centroid commutes with quantized shifts bit for bit."""
    locs = np.asarray(locs, dtype=complex)
    first = complex(locs[0])
    return first + complex(q26(complex(np.mean(locs - first))))


def _nearest_base_anchor(toast: ToastForest, x):
    best = None
    for anchor, region in toast.levels[0].regions.items():
        d = float(np.min(np.abs(x - region.centers) - region.radii))
        if best is None or d < best[0]:
            best = (d, anchor)
    return best[1]


def _chain(toast: ToastForest, base, N):
    """(level, anchor) of the region holding the base point at each stage
    0..N; below first coverage the nearest base region stands in. Every
    region lies in its parent, so once a level covers the base point every
    later one does, and one `locate` per level finds the chain."""
    chain = [(n, toast.locate(n, base)) for n in range(N + 1)]
    if chain[0][1] is None:
        below = (0, _nearest_base_anchor(toast, base))
        chain = [below if a is None else (n, a) for n, a in chain]
    return chain


# ---------------------------------------------------------------------------
# per-mode kernels: base terms, patch data and level steps


def _product_value(sol, u):
    return np.exp(sol.log_value(u))


def _principal_value(sol, u):
    # one reciprocal r = 1/(u - b_j) per (pole, point), then Horner over the
    # orders of the padded (n, k) table: (...(c_k r + c_{k-1}) r + ...) r;
    # the coefficients sit inside the term, so every pole weighs 1
    b = sol.offsets[:, None]
    table = sol.weights

    def term(row):
        r = 1 / (row - b)
        acc = table[:, -1:] * r
        for k in range(table.shape[1] - 2, -1, -1):
            acc += table[:, k:k + 1]
            acc *= r
        return acc
    return sol.correction(u) + base_sum(term, u, np.ones(len(table)))


def _log_kernel_value(sol, u):
    b = sol.offsets[:, None]
    return np.real(sol.correction(u)) + base_sum(
        lambda row: np.log(np.abs(row - b)), u, sol.weights) / (2 * math.pi)


def _principal_table(pp):
    """Pole locations and their coefficient tuples padded into one (n, k)
    array; padded orders carry coefficient 0."""
    k = max((len(c) for _, c in pp.entries), default=0)
    table = np.zeros((len(pp.entries), k), dtype=complex)
    for row, (_, coeffs) in zip(table, pp.entries):
        row[:len(coeffs)] = coeffs
    return np.array([p for p, _ in pp.entries], dtype=complex), table


def _correction_gap(hi, a_hi, lo, a_lo):
    """The global function P_hi(z - a_hi) - P_lo(z - a_lo)."""
    p_hi, p_lo = hi.correction, lo.correction

    def gap(z):
        z = np.asarray(z, dtype=complex)
        return p_hi(z - a_hi) - p_lo(z - a_lo)
    return gap


@dataclass(frozen=True)
class _Kernel:
    config: Callable        # data -> (locations, weights)
    shift: Callable         # (data, w) -> the data moved by w
    data_key: str           # to_json key of the data
    value: Callable         # (LocalSolution, u) -> correction plus base terms
    part: Callable          # gap values -> the part fits and rates measure
    product: bool = False   # gauged log form: psi carries log_eval and
                            # dlog, and comparisons read log_eval


_KERNELS = {
    MULTIPLICATIVE: _Kernel(
        config=lambda d: (np.asarray(d.locs, dtype=complex),
                          np.asarray(d.mults, dtype=float)),
        shift=lambda d, w: d.translate(w, move_window=True),
        data_key="divisor", value=_product_value, part=np.real,
        product=True),
    ADDITIVE: _Kernel(
        config=_principal_table,
        shift=lambda pp, w: PrincipalParts(
            tuple((p + w, c) for p, c in pp.entries)),
        data_key="principal_parts", value=_principal_value,
        part=lambda v: v),
    HARMONIC: _Kernel(
        config=lambda mu: (
            np.array([complex(*loc) for loc, _ in mu.atoms], dtype=complex),
            np.array([mass for _, mass in mu.atoms], dtype=float)),
        shift=lambda mu, w: Potential(
            tuple(((x + w.real, y + w.imag), mass)
                  for (x, y), mass in mu.atoms), dim=mu.dim),
        data_key="potential", value=_log_kernel_value, part=np.real),
}


def _chain_gap(levels, n):
    """The step from psi_{n-1} to psi_n as the gap of the two correction
    polynomials: shared base data cancel exactly, so log(psi_n / psi_{n-1})
    (multiplicative) or psi_n - psi_{n-1} (additive; its real part,
    harmonic) is that gap. None when the chain is stagnant."""
    hi_m, hi_a = levels[n].chain
    lo_m, lo_a = levels[n - 1].chain
    hi = levels[hi_m].solutions[hi_a]
    lo = levels[lo_m].solutions[lo_a]
    return None if hi is lo else _correction_gap(hi, hi_a, lo, lo_a)


def _gap_sup(mode, gap, K, density=64):
    """max |part(gap)| over K's boundary samples. The gap is a polynomial
    (its real part harmonic), so by the maximum principle its sup over K
    sits on K's boundary; a stagnant chain (no gap) gives 0."""
    if gap is None:
        return 0.0
    part = _KERNELS[mode].part
    return float(np.max(np.abs(part(gap(K.boundary_samples(density))))))


# ---------------------------------------------------------------------------
# trace types


@dataclass(frozen=True)
class LiftingLevel:
    n: int
    epsilon: float
    solutions: dict          # chain anchor -> LocalSolution; empty when
                             # the chain sits below this level
    chain: tuple             # (level, anchor) selected for psi_n
    certificates: tuple      # dicts: radius, value, certified


@dataclass(frozen=True)
class LiftingTrace:
    mode: str
    data: object             # Divisor | PrincipalParts | Potential
    toast: ToastForest
    levels: tuple            # LiftingLevel, n = 0..N
    tail_bound: float
    window: Window
    base_point: complex = 0j

    @property
    def depth(self):
        return len(self.levels) - 1

    def solution(self, n=None):
        """(level, anchor, LocalSolution) backing psi_n."""
        if n is None:
            n = self.depth
        m, anchor = self.levels[n].chain
        return m, anchor, self.levels[m].solutions[anchor]

    def psi(self, n=None) -> SampledFunction:
        """The stage-n solution as one global function on the window. Its
        product-mode values overflow away from the fitted regions, so
        product-mode comparisons (`verify_equivariance`) read `log_eval`."""
        m, anchor, sol = self.solution(n)
        dlog, log_eval = None, None
        if _KERNELS[self.mode].product:
            dlog = lambda z: sol.dlog(np.asarray(z, dtype=complex) - anchor)
            log_eval = lambda z: sol.log_value(
                np.asarray(z, dtype=complex) - anchor)
        return SampledFunction(
            evaluator=lambda z: sol.value(np.asarray(z, dtype=complex) - anchor),
            dlog=dlog, log_eval=log_eval)

    def rate(self, n, K: CompactRegion, density=64) -> float:
        """r_n(K): sup over K of the step from psi_{n-1} to psi_n, read on
        K's boundary at any sampling density. Zero exactly when the chain
        is stagnant."""
        if not 1 <= n <= self.depth:
            raise ValueError("rate needs 1 <= n <= depth")
        return _gap_sup(self.mode, _chain_gap(self.levels, n), K, density)

    def verify_membership(self, n=None):
        """Divisor of psi_n against the data on the inner window (argument
        principle plus root refinement, with circles clear of every data
        point); multiplicative traces only."""
        if self.mode != MULTIPLICATIVE:
            raise ValueError("membership checks apply to zero prescriptions")
        return verify_divisor_match(self.psi(n), self.data,
                                    self.window.inner())

    def to_json(self):
        return {
            "mode": self.mode,
            _KERNELS[self.mode].data_key: self.data.to_json(),
            "window": self.window.as_list(),
            "base_point": [self.base_point.real, self.base_point.imag],
            "tail_bound": self.tail_bound,
            "r0": self.toast.r0,
            "gamma": self.toast.gamma,
            "u0": self.toast.u0,
            "levels": [
                {
                    "n": lv.n,
                    "epsilon": lv.epsilon,
                    "chain": [lv.chain[0], [lv.chain[1].real, lv.chain[1].imag]],
                    "anchors": [
                        {
                            "anchor": [a.real, a.imag],
                            "gauge": [s.gauge.real, s.gauge.imag],
                            "correction": s.correction.to_json(),
                        }
                        for a, s in lv.solutions.items()
                    ],
                    "certificates": [dict(c) for c in lv.certificates],
                }
                for lv in self.levels
            ],
        }


@dataclass(frozen=True)
class EquivarianceReport:
    """Double-run comparison: the solution built from shifted data versus
    the shifted solution built from the original data."""

    shift: complex
    deviation: float          # nan when the pipeline refused the input
    threshold: float
    passed: bool
    refusal: str = ""
    grid_points: int = 0


# ---------------------------------------------------------------------------
# the recursion


def _solve_chain(mode, n, anchor, toast, prev, locs, weights, epsilon,
                 gauge_pt):
    """The level-n chain anchor's solution. `prev` is the level-(n-1)
    LiftingLevel when the step is patched, else None and the solution is
    bare."""
    bare = LocalSolution(
        anchor=anchor, mode=mode,
        offsets=locs - anchor, weights=weights,
        correction=ComplexPoly((0j,)),
        gauge=complex(gauge_pt) - anchor if _KERNELS[mode].product else 0j)
    if prev is None:
        return bare
    # the patching datum on the chain child is the step from this anchor's
    # bare base up to the child's solution, in this anchor's coordinates:
    # base terms cancel, so only the child's correction survives, as the
    # gap of the two corrections (the log of the ratio in product mode),
    # of which the fit sees the part the rates measure
    _, ca = prev.chain
    gap = _correction_gap(prev.solutions[ca], complex(ca) - anchor, bare, 0j)
    part = _KERNELS[mode].part
    problem = runge.RungeProblem(toast.region(n - 1, ca).translate(-anchor),
                                 lambda u: part(gap(u)), epsilon=epsilon)
    try:
        cert = runge.solve(problem)
    except DegreeCapExceeded as exc:
        raise RungeFailure(
            f"patching failed at epsilon {epsilon}: {exc}",
            level=n, anchor=anchor) from exc
    return replace(bare, correction=cert.poly)


def _ladder(base):
    return tuple(CompactRegion([complex(base)], [2.0 ** j]) for j in range(4))


def _certify_level(mode, levels, toast, n, ladder, epsilon, patched):
    """Ladder rates for the step n-1 -> n, with the paper-backed flag: when
    the step was patched (or is stagnant), a disk inside the chain's
    level-(n-1) region is covered by the patching bound and must come in
    under epsilon."""
    lo_m, lo_a = levels[n - 1].chain
    gap = _chain_gap(levels, n)
    region_lo = toast.region(lo_m, lo_a)
    controlled = gap is None or patched
    rows = []
    for K in ladder:
        value = _gap_sup(mode, gap, K)
        certified = bool(controlled and K.contained_in(region_lo))
        rows.append({"radius": float(K.radii[0]), "value": value,
                     "certified": certified})
        if certified and not value < epsilon:
            raise RungeFailure(
                f"certified rate {value} at radius {K.radii[0]} "
                f"is not below {epsilon}", level=n, anchor=levels[n].chain[1])
    return tuple(rows)


def _check_toast_matches(toast, locs):
    got = np.sort_complex(np.asarray(toast.divisor.locs, dtype=complex))
    want = np.sort_complex(np.asarray(locs, dtype=complex))
    if got.shape != want.shape or not np.array_equal(got, want):
        raise ValueError("toast was not built from this configuration")


def _lift(mode, data, toast, levels, check_membership=True):
    locs, weights = _KERNELS[mode].config(data)
    if not len(locs):
        raise ValueError("empty data: a configuration fixed by every "
                         "translation has no covariant lift")
    N = as_depth(levels)
    if toast is None:
        raise ValueError("a toast built from the data is required")
    _check_toast_matches(toast, locs)
    if N > toast.depth:
        raise ValueError(f"toast depth {toast.depth} is below levels {N}")
    window = toast.divisor.window
    base = _base_point(locs)
    ladder = _ladder(base)
    # one q26 gauge point for the whole lift, next to the level-0 chain
    # anchor: every base shares it, so bases cancel exactly between anchors
    # and levels (see the module docstring)
    chains = _chain(toast, base, N)
    chain_a = complex(chains[0][1])
    gauge_pt = chain_a + _gauge_offset(
        tuple(complex(a) - chain_a for a in locs), toast.u0)
    out_levels = []
    for n in range(N + 1):
        epsilon = 2.0 ** (-n)
        m, a = chain = chains[n]
        prev = out_levels[-1] if out_levels else None
        # the step n-1 -> n is patched when the chain sits at level n and
        # its level-(n-1) region is a child of the level-n chain region
        patched = m == n and prev is not None and \
            prev.chain in toast.children.get(chain, ())
        sols = {}
        if m == n:
            sols[a] = _solve_chain(mode, n, a, toast,
                                   prev if patched else None, locs, weights,
                                   epsilon, gauge_pt)
        out_levels.append(LiftingLevel(n=n, epsilon=epsilon, solutions=sols,
                                       chain=chain, certificates=()))
        if n >= 1:
            certs = _certify_level(mode, out_levels, toast, n, ladder,
                                   epsilon, patched)
            out_levels[-1] = replace(out_levels[-1], certificates=certs)
    trace = LiftingTrace(mode=mode, data=data, toast=toast,
                         levels=tuple(out_levels), tail_bound=2.0 ** (-N),
                         window=window, base_point=base)
    if check_membership:
        report = trace.verify_membership()
        if not report["matched"]:
            raise DivisorMismatch(
                f"final solution misses the divisor: "
                f"{report['mismatches'][:3]}")
    return trace


# ---------------------------------------------------------------------------
# public operations


def lift_weierstrass(d: Divisor, toast: ToastForest, levels,
                     check_membership=True) -> LiftingTrace:
    """Entire functions with zero set d, built level by level with
    zero-free multiplicative patching."""
    if not d.is_nonnegative():
        raise ValueError("zero prescription needs a nonnegative divisor")
    return _lift(MULTIPLICATIVE, d, toast, levels, check_membership)


def lift_mittag_leffler(pp: PrincipalParts, toast, levels) -> LiftingTrace:
    """Meromorphic functions with prescribed principal parts, additive
    patching."""
    return _lift(ADDITIVE, pp, toast, levels, check_membership=False)


def lift_poisson_2d(mu: Potential, toast, levels) -> LiftingTrace:
    """Subharmonic potentials with prescribed atomic Riesz measure,
    harmonic patching."""
    return _lift(HARMONIC, mu, toast, levels, check_membership=False)


# the double run of verify_equivariance: the relative deviation that
# passes, and the comparison grid's cells per side
EQUIVARIANCE_THRESHOLD = 1e-6
EQUIVARIANCE_GRID = 12


def verify_equivariance(trace: LiftingTrace, w) -> EquivarianceReport:
    """Rebuild `trace` on its data and configuration shifted by -w, with its
    own mode, toast depth, r0 and gamma and its own lift depth (lifting
    without membership), then compare psi_{data-w}(z) with psi_data(z+w)
    on a grid over the overlap of the two windows (in the product mode, Re
    log psi and Im log psi modulo 2 pi). A refusal of the shifted build
    (non-free input) is recorded, not raised."""
    w = complex(q26(w))
    toast = trace.toast
    try:
        toast_w = build_covariant_toast(
            toast.divisor.translate(-w, move_window=True), toast.depth,
            toast.r0, toast.gamma)
    except NonFreeInput as exc:
        return EquivarianceReport(shift=w, deviation=float("nan"),
                                  threshold=EQUIVARIANCE_THRESHOLD,
                                  passed=False, refusal=f"NonFreeInput: {exc}")
    shifted = _lift(trace.mode, _KERNELS[trace.mode].shift(trace.data, -w),
                    toast_w, trace.depth, check_membership=False)
    win = trace.window
    box = Window(win.xmin + max(0.0, -w.real), win.xmax + min(0.0, -w.real),
                 win.ymin + max(0.0, -w.imag), win.ymax + min(0.0, -w.imag))
    grid = box.inner().grid(max(box.width, box.height) / EQUIVARIANCE_GRID)
    if _KERNELS[trace.mode].product:
        la, lb = trace.psi().log_eval(grid + w), shifted.psi().log_eval(grid)
        with np.errstate(invalid="ignore"):  # a zero on the grid: -inf twice
            step = np.where(lb == la, 0j, lb - la)
        turn = np.remainder(step.imag + math.pi, 2 * math.pi) - math.pi
        deviation = float(np.max(np.maximum(np.abs(step.real), np.abs(turn))))
    else:
        va = np.asarray(trace.psi()(grid + w))
        vb = np.asarray(shifted.psi()(grid))
        deviation = float(np.max(np.abs(vb - va) / (1.0 + np.abs(va))))
    return EquivarianceReport(shift=w, deviation=deviation,
                              threshold=EQUIVARIANCE_THRESHOLD,
                              passed=bool(deviation < EQUIVARIANCE_THRESHOLD),
                              grid_points=int(grid.size))


# radii of the sub-mean-value probe circles
PROBE_RADII = (0.1, 1.0)


def poisson_submean_probe(trace: LiftingTrace, seed=0, count=50):
    """Random circle probes of the sub-mean-value inequality for the final
    solution of a harmonic trace. Centres are uniform on the window's
    inner(0.2) and radii uniform in PROBE_RADII. Circles passing within
    0.1 of an atom are re-drawn (trapezoid quadrature cannot see through a
    log singularity). That rule reads no value of psi, so every circle is
    drawn first; psi is then evaluated once at the centres, and the circle
    means are column 0 of one `contour_integral` call."""
    if trace.mode != HARMONIC:
        raise ValueError("sub-mean-value probes apply to harmonic traces")
    psi = trace.psi()
    atoms = np.array([complex(*loc) for loc, _ in trace.data.atoms],
                     dtype=complex)
    win = trace.window.inner(0.2)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    circles = []
    guard = 0
    while len(circles) < count and guard < 50 * count:
        guard += 1
        c = complex(rng.uniform(win.xmin, win.xmax),
                    rng.uniform(win.ymin, win.ymax))
        r = float(rng.uniform(*PROBE_RADII))
        if len(atoms):
            dist = np.abs(atoms - c)
            if np.min(dist) < 0.1 or np.min(np.abs(dist - r)) < 0.1:
                continue
        circles.append(Circle(c, r))
    if len(circles) < count:
        raise ValueError("could not place the requested probe count")
    u_center = np.real(psi([c.center for c in circles])).tolist()
    means = contour_integral(psi, circles, orders=0)[:, 0].real.tolist()
    return [{"center": c.center, "radius": c.radius, "u_center": u,
             "sphere_mean": m, "slack": m - u}
            for c, u, m in zip(circles, u_center, means)]
