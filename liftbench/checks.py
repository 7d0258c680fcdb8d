"""Correctness checks made apart from the program's own verifiers.

Each check takes values of psi (or of log psi) and compares them with a
property the construction must have, using this file's own quadrature: no
call to ``count_zeros``, ``verify_divisor_match``, ``extract_principal_parts``
or ``poisson_submean_probe``. Every check raises ``CheckFailed`` with the
first discrepancy it finds.
"""

import math

import numpy as np

TOL = 1e-8          # relative tolerance of the quadrature comparisons
SHIFT_TOL = 1e-9    # largest psi deviation allowed by the shift double run
CIRCLES = 6         # random circles per mean-value check
CLEARANCE = 0.15    # distance every circle and centre keeps from the data


class CheckFailed(AssertionError):
    pass


def _ring(nodes):
    return np.exp(2j * math.pi * np.arange(nodes) / nodes)


def separating_radii(locs, cap=0.25, share=0.4):
    """Radius per point: at most `share` of the distance to its nearest
    neighbour, and at most `cap`."""
    locs = np.asarray(locs, dtype=complex)
    d = np.abs(locs[:, None] - locs[None, :])
    np.fill_diagonal(d, np.inf)
    return np.minimum(cap, share * d.min(axis=1))


def random_circles(rng, window, locs, count=CIRCLES, rmin=0.5, rmax=2.0):
    """Circles inside `window` that enclose at least one data point and keep
    CLEARANCE from every point, on the circle and at the centre."""
    locs = np.asarray(locs, dtype=complex)
    out = []
    for _ in range(1000 * count):
        if len(out) == count:
            return out
        r = float(rng.uniform(rmin, rmax))
        c = complex(rng.uniform(window.xmin + r, window.xmax - r),
                    rng.uniform(window.ymin + r, window.ymax - r))
        dist = np.abs(locs - c)
        if dist.min() < CLEARANCE or np.abs(dist - r).min() < CLEARANCE:
            continue
        if not np.any(dist < r):
            continue
        out.append((c, r))
    raise CheckFailed("could not place the random circles")


def check_windings(log_psi, locs, mults, inner, nodes=32):
    """arg psi winds exactly m times around every data point in `inner`,
    on a circle of radius min(0.1, 0.4 gap). The winding is the sum of the
    phase increments between neighbouring nodes, each taken in (-pi, pi];
    an increment near pi would make the count ambiguous, so it fails too.
    The other zeros' field turns the phase by up to ~0.5 rad per step at
    800 points on these circles."""
    locs = np.asarray(locs, dtype=complex)
    mults = np.asarray(mults)
    radii = separating_radii(locs, cap=0.1)
    keep = inner.contains(locs)
    if not np.any(keep):
        raise CheckFailed("no data point inside the inner window")
    ring = _ring(nodes)
    z = locs[keep, None] + radii[keep, None] * ring[None, :]
    phase = np.imag(np.asarray(log_psi(z.ravel()), dtype=complex))
    phase = phase.reshape(z.shape)
    step = np.angle(np.exp(1j * (np.roll(phase, -1, axis=1) - phase)))
    if not np.all(np.isfinite(step)):
        raise CheckFailed("log psi is not finite on a winding circle")
    worst = float(np.max(np.abs(step)))
    if worst > math.pi / 2:
        raise CheckFailed(f"phase step {worst:.3g} too coarse to count")
    winding = step.sum(axis=1) / (2 * math.pi)
    bad = np.nonzero(np.abs(winding - mults[keep]) > 1e-6)[0]
    if len(bad):
        i = bad[0]
        raise CheckFailed(f"psi winds {winding[i]:.6g} times around "
                          f"{locs[keep][i]}, expected {mults[keep][i]}")
    return int(np.count_nonzero(keep))


def circle_mean_gap(fn, c, r, nodes):
    """Trapezoid mean of fn over the circle minus its value at the centre."""
    vals = np.asarray(fn(c + r * _ring(nodes)), dtype=float)
    centre = float(np.asarray(fn(np.array([c])), dtype=float)[0])
    return float(np.mean(vals)) - centre, centre


def check_log_modulus(log_psi, locs, mults, inner, rng, nodes=256):
    """log|psi| - sum m log|z - p| is harmonic, so its circle means equal
    its centre values."""
    locs = np.asarray(locs, dtype=complex)
    mults = np.asarray(mults, dtype=float)

    def h(z):
        z = np.asarray(z, dtype=complex)
        base = np.log(np.abs(z[:, None] - locs[None, :])) @ mults
        return np.real(np.asarray(log_psi(z), dtype=complex)) - base

    for c, r in random_circles(rng, inner, locs):
        gap, centre = circle_mean_gap(h, c, r, nodes)
        if not abs(gap) <= TOL * (1 + abs(centre)):
            raise CheckFailed(f"log|psi| minus the data's log-potential is "
                              f"not harmonic on circle ({c}, {r}): {gap:.3g}")


def check_laurent(psi, entries, inner, nodes=64):
    """Trapezoid Laurent coefficients c_1..c_{m+1} of psi around every pole
    in `inner` equal the prescribed c_1..c_m (and c_{m+1} = 0)."""
    poles = np.array([p for p, _ in entries], dtype=complex)
    radii = separating_radii(poles)
    ring = _ring(nodes)
    checked = 0
    for (p, coeffs), r in zip(entries, radii):
        if not inner.contains(p):
            continue
        e = r * ring
        vals = np.asarray(psi(p + e), dtype=complex)
        want = list(coeffs) + [0j]
        for j, c in enumerate(want, start=1):
            got = complex(np.mean(vals * e ** j))
            if not abs(got - c) <= TOL * (1 + abs(c)):
                raise CheckFailed(f"Laurent coefficient c_{j} at {p} is "
                                  f"{got:.12g}, prescribed {c:.12g}")
        checked += 1
    if not checked:
        raise CheckFailed("no pole inside the inner window")
    return checked


def check_potential(u, atoms, masses, inner, rng, nodes=512):
    """Circle mean minus centre value of u equals
    sum over enclosed atoms of mass / (2 pi) * log(r / |c - a|)."""
    atoms = np.asarray(atoms, dtype=complex)
    masses = np.asarray(masses, dtype=float)
    for c, r in random_circles(rng, inner, atoms):
        gap, centre = circle_mean_gap(u, c, r, nodes)
        dist = np.abs(atoms - c)
        inside = dist < r
        want = float(np.sum(masses[inside] * np.log(r / dist[inside])) /
                     (2 * math.pi))
        if not abs(gap - want) <= TOL * (1 + abs(centre) + abs(want)):
            raise CheckFailed(f"circle mean gap {gap:.12g} on ({c}, {r}), "
                              f"expected {want:.12g}")


def check_finite(values, label):
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{label}: {np.count_nonzero(~np.isfinite(values))}"
                          f" values are not finite")


def check_toast_shift(base, shifted, w):
    """The toast of d - w is the toast of d with every anchor, disk centre
    and link moved by -w, bit for bit, in the same order."""
    w = complex(w)
    if len(base.levels) != len(shifted.levels):
        raise CheckFailed("toasts differ in depth")
    for lv_a, lv_b in zip(base.levels, shifted.levels):
        anchors_a = list(lv_a.regions)
        anchors_b = list(lv_b.regions)
        if [a - w for a in anchors_a] != anchors_b:
            raise CheckFailed(f"level {lv_a.n}: anchors are not shifted by -w")
        for a, b in zip(anchors_a, anchors_b):
            ra, rb = lv_a.regions[a], lv_b.regions[b]
            if not (np.array_equal(ra.centers - w, rb.centers)
                    and np.array_equal(ra.radii, rb.radii)):
                raise CheckFailed(f"level {lv_a.n}: region at {a} is not "
                                  f"shifted by -w")
            if lv_a.kinds[a] != lv_b.kinds[b]:
                raise CheckFailed(f"level {lv_a.n}: kind of {a} changed")
    moved = {(n, a - w): (m, b - w) for (n, a), (m, b) in base.parents.items()}
    if moved != shifted.parents:
        raise CheckFailed("parent links are not shifted by -w")
    moved = {(n, a - w): tuple((m, b - w) for m, b in kids)
             for (n, a), kids in base.children.items()}
    if moved != shifted.children:
        raise CheckFailed("child links are not shifted by -w")


def shift_deviation(log_a, log_b):
    """max |psi_b / psi_a - 1| from two arrays of log psi values."""
    delta = np.asarray(log_b, dtype=complex) - np.asarray(log_a, dtype=complex)
    delta = delta.real + 1j * np.angle(np.exp(1j * delta.imag))
    return float(np.max(np.abs(np.expm1(delta))))


def check_axioms(report, forest):
    """Every axiom passes, with one exception: "directed" may be left
    "undetermined (insufficient levels)" when, in every pair the verifier
    could not settle, the region at the higher level contains the other.
    That region is then itself the pair's upper bound. The verifier asks for
    a region at that level or above that contains both with a margin of
    1e-9; no region contains itself so, and the regions above it may share
    its boundary. The verifier reports at most 8 unsettled pairs, and those
    are the ones checked here."""
    failed = {k: v["status"] for k, v in report.items()
              if not v["status"].startswith("pass") and k != "directed"}
    if failed:
        raise CheckFailed(f"axioms not passed: {failed}")
    directed = report["directed"]
    if directed["status"] == "pass":
        return
    if directed["status"] != "undetermined (insufficient levels)":
        raise CheckFailed(f"directed: {directed['status']}")
    if not directed["witnesses"]:
        raise CheckFailed("directed left undetermined without a witness")
    for pair in directed["witnesses"]:
        (m, a), (n, b) = sorted(pair, key=lambda p: p[0])
        lower = forest.levels[m].regions[a]
        if not lower.contained_in(forest.levels[n].regions[b]):
            raise CheckFailed(f"directed: no upper bound for the regions at "
                              f"{a} (level {m}) and {b} (level {n})")
