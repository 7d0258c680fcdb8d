"""The three workloads: inputs made from the seed, the job each input runs,
and the checks applied to its outputs.

Every input is drawn from ``numpy.random.default_rng([seed, k])`` (k is the
workload's index), which picks the generator seeds, window offsets,
coefficients, masses and shifts. The program only sees the resulting
divisors, principal parts and potentials. Lift settings are N=4, r0=1,
gamma=4 everywhere.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from equilift import divisors, lifting, toast
from equilift.builders import Potential
from equilift.core import Window, q26
from equilift.divisors import Divisor, PrincipalParts, generate
from equilift.errors import NonFreeInput

import checks

N = 4
R0 = 1.0
GAMMA = 4.0
GRID = 128          # psi_N is evaluated on a GRID x GRID lattice (modes-200)
SHIFT_GRID = 32     # comparison lattice of the shift double run
CONFIGS = 3         # ~800-point configurations per round (weierstrass-800)
PER_KIND = 4        # inputs of each kind per round (modes-200)


@dataclass
class Job:
    label: str
    points: int
    run: Callable       # tracer -> output
    check: Callable     # output -> None, raises checks.CheckFailed
    check_s: float = 0.0


@dataclass
class Workload:
    jobs: list          # one round, in order
    warmup: Job         # same kind of job on an input outside the round


def _seed(rng):
    return int(rng.integers(0, 2 ** 31))


def poisson(window, rng, intensity=0.2):
    """A Poisson configuration conditioned on its count: round(intensity *
    area) independent uniform points of the window, on the q26 lattice.
    Fixing the count keeps job times from swinging with it (the quadratic
    layers turn the +-3.5% count spread at 800 points into +-7% in time)."""
    n = int(round(intensity * window.area))
    z = q26(rng.uniform(window.xmin, window.xmax, n)
            + 1j * rng.uniform(window.ymin, window.ymax, n))
    return Divisor.from_points(
        [(p, 1) for p in sorted(z.tolist(), key=lambda p: (p.real, p.imag))],
        window)


def _inner(window):
    return window.inner(0.15)


def _lattice(window, n):
    """n x n cell-centre lattice of a window, as a flat complex array."""
    xs = window.xmin + (np.arange(n) + 0.5) * (window.width / n)
    ys = window.ymin + (np.arange(n) + 0.5) * (window.height / n)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def _build(d):
    return toast.build_covariant_toast(d, N, r0=R0, gamma=GAMMA)


def _check_weierstrass(trace, d, rng):
    log_psi = trace.psi().log_eval
    inner = _inner(d.window)
    checks.check_windings(log_psi, d.locs, d.mults, inner)
    checks.check_log_modulus(log_psi, d.locs, d.mults, inner, rng)


# ---------------------------------------------------------------------------
# weierstrass-800: stabilizer, toast, lift with membership on ~800 points


def _weierstrass_job(label, d, check_seed):
    def run(tracer):
        report = divisors.detect_stabilizer(d)
        forest = _build(d)
        trace = lifting.lift_weierstrass(d, forest, N, check_membership=True)
        return report, trace

    def check(out):
        report, trace = out
        if report.kind != "free":
            raise checks.CheckFailed(f"{label}: stabilizer {report.kind}")
        _check_weierstrass(trace, d, np.random.default_rng(check_seed))

    return Job(label, len(d), run, check)


def weierstrass_800(seed):
    rng = np.random.default_rng([seed, 0])
    win = Window(-32, 32, -32, 32)
    jobs = []
    for k in range(CONFIGS):
        d = poisson(win, rng)
        jobs.append(_weierstrass_job(f"poisson-{k}", d, _seed(rng)))
    small = poisson(Window(-8, 8, -8, 8), rng)
    return Workload(jobs, _weierstrass_job("warm-up", small, _seed(rng)))


# ---------------------------------------------------------------------------
# modes-200: one toast, three lifts, psi_N on a grid, ~200 points


def _modes_job(label, d, rng):
    locs = d.locs.tolist()
    coeffs = rng.normal(size=(len(locs), 4))
    pp = PrincipalParts(tuple(
        (p, (complex(a, b), complex(c, e))) for p, (a, b, c, e)
        in zip(locs, coeffs)))
    masses = rng.uniform(0.5, 2.0, size=len(locs))
    mu = Potential(tuple(((p.real, p.imag), float(m))
                         for p, m in zip(locs, masses)), dim=2)
    inner = _inner(d.window)
    grid = _lattice(inner, GRID)
    check_seed = _seed(rng)

    def run(tracer):
        forest = _build(d)
        traces = (lifting.lift_weierstrass(d, forest, N, check_membership=True),
                  lifting.lift_mittag_leffler(pp, forest, N),
                  lifting.lift_poisson_2d(mu, forest, N))
        values = [tracer.timed("lifting.psi_eval", tr.psi(), grid)
                  for tr in traces]
        return traces, values

    def check(out):
        (tw, tm, tp), values = out
        for name, v in zip(("weierstrass", "mittag-leffler", "poisson-2d"),
                           values):
            checks.check_finite(v, f"{label} {name} grid")
        crng = np.random.default_rng(check_seed)
        _check_weierstrass(tw, d, crng)
        checks.check_laurent(tm.psi(), pp.entries, inner)
        psi_p = tp.psi()
        checks.check_potential(lambda z: np.real(psi_p(z)), d.locs, masses,
                               inner, crng)

    return Job(label, len(d), run, check)


def _modes_input(kind, rng):
    if kind == "poisson":
        return poisson(Window(-16, 16, -16, 16), rng)
    x0, y0 = (int(v) for v in rng.integers(-64, 64, size=2))
    win = Window(x0, x0 + 14, y0, y0 + 14)
    if kind == "jittered-lattice":
        return generate("jittered-lattice", win, seed=_seed(rng))
    return generate("almost-periodic", win)


def modes_200(seed):
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for kind in ("poisson", "jittered-lattice", "almost-periodic"):
        for k in range(PER_KIND):
            d = _modes_input(kind, rng)
            jobs.append(_modes_job(f"{kind}-{k}", d, rng))
    small = poisson(Window(-8, 8, -8, 8), rng)
    return Workload(jobs, _modes_job("warm-up", small, rng))


# ---------------------------------------------------------------------------
# verify-shift: toast, axioms, shift double run; periodic lattices refused


def _shift_job(label, d, w):
    win = d.window
    box = Window(win.xmin + max(0.0, -w.real), win.xmax + min(0.0, -w.real),
                 win.ymin + max(0.0, -w.imag), win.ymax + min(0.0, -w.imag))
    grid = _lattice(_inner(box), SHIFT_GRID)

    def run(tracer):
        forest = _build(d)
        axioms = toast.verify_axioms(forest)
        trace = lifting.lift_weierstrass(d, forest, N, check_membership=False)
        d_w = d.translate(-w, move_window=True)
        forest_w = _build(d_w)
        trace_w = lifting.lift_weierstrass(d_w, forest_w, N,
                                           check_membership=False)
        log_a = tracer.timed("lifting.psi_eval", trace.psi().log_eval,
                             grid + w)
        log_b = tracer.timed("lifting.psi_eval", trace_w.psi().log_eval, grid)
        return forest, axioms, forest_w, log_a, log_b

    def check(out):
        forest, axioms, forest_w, log_a, log_b = out
        checks.check_axioms(axioms, forest)
        checks.check_toast_shift(forest, forest_w, w)
        dev = checks.shift_deviation(log_a, log_b)
        if not dev < checks.SHIFT_TOL:
            raise checks.CheckFailed(f"{label}: psi deviation {dev:.3g} "
                                     f"under the shift {w}")

    return Job(label, len(d), run, check)


def _lattice_job(label, d):
    def run(tracer):
        report = divisors.detect_stabilizer(d)
        try:
            _build(d)
        except NonFreeInput as exc:
            return report, exc
        return report, None

    def check(out):
        report, refusal = out
        if refusal is None:
            raise checks.CheckFailed(f"{label}: periodic input was not refused")
        if report.kind != "doubly-periodic" or report.generators != (1, 1j):
            raise checks.CheckFailed(f"{label}: stabilizer {report.kind} "
                                     f"{report.generators}")

    return Job(label, len(d), run, check)


def _shift(rng):
    return complex(q26(complex(*rng.uniform(-3.0, 3.0, size=2))))


def verify_shift(seed):
    rng = np.random.default_rng([seed, 2])
    # two faster lattices, a 48 x 48 lattice about as fast as the jittered
    # 17 x 17 inputs and three slower inputs put the median job among four of
    # about the same time, so that it does not jump between sizes
    jobs = []
    for k, side in enumerate((32, 40)):
        win = Window(-side / 2, side / 2, -side / 2, side / 2)
        jobs.append(_shift_job(f"poisson-{side}-{k}", poisson(win, rng),
                               _shift(rng)))
    for k, side in enumerate((17, 17, 17, 20)):
        win = Window(-side / 2, side / 2, -side / 2, side / 2)
        d = generate("jittered-lattice", win, seed=_seed(rng))
        jobs.append(_shift_job(f"jittered-{side}-{k}", d, _shift(rng)))
    # a half-open window of side s holds s x s lattice points wherever it
    # sits, so the seed moves the lattices without changing their size
    for side in (32, 40, 48):
        x0, y0 = q26(rng.uniform(-side / 2 - 1, -side / 2, size=2))
        win = Window(x0, x0 + side, y0, y0 + side)
        jobs.append(_lattice_job(f"lattice-{side}",
                                 generate("periodic-lattice", win, spacing=1.0)))
    small = poisson(Window(-8, 8, -8, 8), rng)
    return Workload(jobs, _shift_job("warm-up", small, _shift(rng)))


WORKLOADS = {
    "weierstrass-800": weierstrass_800,
    "modes-200": modes_200,
    "verify-shift": verify_shift,
}
