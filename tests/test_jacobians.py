"""Every hand-written Jacobian against central differences.

Each case is a field, a sampler that reaches each of its regions, and the
loci where the field is only piecewise smooth: the regions named by its
``chart_breaks`` and the edges of the region a construction replaces.
Points are kept at least ``CLEARANCE`` from every such locus, so that no
stencil straddles one, and at least ``SINGULAR_CLEARANCE`` from the
declared singular set, or at the smaller ``THIN_CLEARANCES`` of a case
whose regions are thinner than that.
"""

import math
import zlib

import numpy as np
import pytest

from relaxarea.chains import distance_to_chain
from relaxarea.fields import chain_centers_radii, make_example_field
from relaxarea.recovery import (
    cone_defect_field_4d,
    cone_defect_filler,
    cone_dipole,
    counterexample_sequence,
    cylinder_analogue_2d,
    disk_defect_field_3d,
    homogeneous_cone_extension,
    linear_disk_filler,
    remove_point_singularity,
    vortex_smoothing_2d,
)

H = 1e-6
CLEARANCE = 1e-3
SINGULAR_CLEARANCE = 0.05
#: (singular, locus) clearances of the cases whose regions are too thin for
#: the defaults: the vortex chain's j-th disk has radius 2^-(j+1)
THIN_CLEARANCES = {"vortex_chain": (2e-3, 5e-4), "vortex_chain-6": (2e-3, 5e-4)}
SAMPLES = 400
LIPSCHITZ = 1.1  # sqrt(1 + (t eps)^2) for the cone sheets, 1 for the rest


def box(n, half=0.9):
    return lambda rng: rng.uniform(-half, half, (4 * SAMPLES, n))


def radial(n, r_max, centre=None):
    """Radii uniform in [0, r_max], so that small cores are reached."""
    def sample(rng):
        u = rng.standard_normal((4 * SAMPLES, n))
        u /= np.linalg.norm(u, axis=1)[:, None]
        r = rng.uniform(0.0, r_max, 4 * SAMPLES)
        return (0.0 if centre is None else np.asarray(centre)) + r[:, None] * u
    return sample


def conical(codim, eps, base=(-1.0, 1.0), t_max=1.3):
    """Points at t = rho / profile(z) in [0, t_max], denser near the axis so
    that thin cores are reached."""
    a, b = base

    def sample(rng):
        z = rng.uniform(a, b, 4 * SAMPLES)
        u = rng.standard_normal((4 * SAMPLES, codim))
        u /= np.linalg.norm(u, axis=1)[:, None]
        t = t_max * rng.uniform(0.0, 1.0, 4 * SAMPLES) ** 2
        rho = t * eps * np.minimum(z - a, b - z)
        return np.hstack([rho[:, None] * u, z[:, None]])
    return sample


def chain_regions(m):
    """Points over [-1.2, 1.2]^2, and as many again in each square, in each
    square's outer corners, in the bounding box of each gap trapezoid and in
    each end strip, so that the thin regions of the chain are reached."""
    centers, radii = chain_centers_radii(m)
    c, h = centers[:, 0], radii
    # (x1 from, x1 to, |x2| from, |x2| to), each mirrored in x2 = 0
    boxes = [(-1.2, 1.2, 0.0, 1.2)]
    for a, b in zip(c, h):
        boxes += [(a - b, a + b, 0.0, b), (a - b, a - 0.5 * b, 0.5 * b, b),
                  (a + 0.5 * b, a + b, 0.5 * b, b)]
    boxes += [(a + b, d - e, 0.0, b) for a, b, d, e in zip(c, h, c[1:], h[1:])]
    boxes += [(-1.2, c[0] - h[0], 0.0, h[0]), (c[-1] + h[-1], 1.2, 0.0, h[-1])]
    lo1, hi1, lo2, hi2 = np.array(boxes).T

    def sample(rng):
        k = rng.integers(0, len(boxes), 4 * SAMPLES)
        u = rng.uniform(0.0, 1.0, (4 * SAMPLES, 2))
        sign = rng.choice([-1.0, 1.0], 4 * SAMPLES)
        return np.stack([lo1[k] + u[:, 0] * (hi1[k] - lo1[k]),
                         sign * (lo2[k] + u[:, 1] * (hi2[k] - lo2[k]))], axis=1)
    return sample


# the piecewise loci, each as the zero set of a function with Lipschitz
# constant at most LIPSCHITZ, so that |g(x)| >= LIPSCHITZ * CLEARANCE puts x
# at least CLEARANCE from the locus

def chain_creases(m):
    """The vortex chain's disk circles r = h_j, its square sides
    x1 = c_j +- h_j, and its half-height |x2| = H(x1), whose slope is 0 or
    -1 (so divided by sqrt 2)."""
    centers, radii = chain_centers_radii(m)
    c, h = centers[:, 0], radii
    sides = np.stack([c - h, c + h], axis=1).ravel()

    def gaps(X):
        x1, x2 = X[:, 0], X[:, 1]
        H = np.interp(x1, sides, np.repeat(h, 2))
        return ([np.hypot(x1 - a, x2) - b for a, b in zip(c, h)]
                + [x1 - s for s in sides]
                + [(np.abs(x2) - H) / math.sqrt(2.0)])
    return gaps


def spheres(*radii, centre=None):
    def gaps(X):
        r = np.linalg.norm(X - (0.0 if centre is None else np.asarray(centre)),
                           axis=1)
        return [r - R for R in radii]
    return gaps


def cone_sheets(codim, eps, *ts, base=(-1.0, 1.0)):
    """The cones rho = t * profile(z) and the planes at the ends and the
    middle of the base, where the profile has its kinks."""
    a, b = base

    def gaps(X):
        rho = np.linalg.norm(X[:, :codim], axis=1)
        z = X[:, codim]
        prof = eps * np.minimum(z - a, b - z)
        return [rho - t * prof for t in ts] + [z - a, z - b, z - 0.5 * (a + b)]
    return gaps


def rays(*angles):
    """Rays from the origin at polar angles (2d), as lines through it."""
    def gaps(X):
        return [X[:, 0] * math.sin(a) - X[:, 1] * math.cos(a) for a in angles]
    return gaps


def polar_cone(alpha):
    """The cone at polar angle alpha about +z and the z-axis (3d)."""
    def gaps(X):
        r = np.linalg.norm(X, axis=1)
        phi = np.arctan2(np.hypot(X[:, 0], X[:, 1]), X[:, 2])
        return [r * np.sin(phi - alpha), np.hypot(X[:, 0], X[:, 1])]
    return gaps


def pinch(X):
    """The origin, where a filling is only Lipschitz: kept as far off as the
    singular set."""
    return [np.maximum(np.linalg.norm(X, axis=1) - SINGULAR_CLEARANCE, 0.0)]


def joined(*parts):
    return lambda X: [g for part in parts for g in part(X)]


def _cone_ext(eps):
    base = cone_defect_field_4d()
    return homogeneous_cone_extension(base, (-1.0, 1.0), eps, eps * eps,
                                      cone_defect_filler((-1.0, 1.0), eps))


#: name: (field factory, sampler, piecewise loci or None)
CASES = {
    "vortex": (lambda: make_example_field("vortex", d=3, center=(0.1, -0.2),
                                          phase=0.4), box(2), None),
    "planar_vortex": (lambda: make_example_field("planar_vortex"), box(3),
                      None),
    "vortex_chain": (lambda: make_example_field("vortex_chain", m=3),
                     chain_regions(3), chain_creases(3)),
    "vortex_chain-6": (lambda: make_example_field("vortex_chain", m=6),
                       chain_regions(6), chain_creases(6)),
    "sphere_vortex": (lambda: make_example_field("sphere_vortex"), box(3),
                      None),
    "constant": (lambda: make_example_field("constant", value=(0.6, -0.8)),
                 box(2), None),
    "smooth_lift": (lambda: make_example_field(
        "smooth_lift", f=lambda X: X[:, 0] ** 2 - np.sin(3.0 * X[:, 1]),
        grad_f=lambda X: np.stack([2.0 * X[:, 0], -3.0 * np.cos(3.0 * X[:, 1])],
                                  axis=1)), box(2), None),
    "smoothing-d1": (lambda: vortex_smoothing_2d(
        make_example_field("vortex", d=1), (0.0, 0.0), 1, 0.2),
        radial(2, 0.4), spheres(0.1, 0.2)),
    # the core rho (cos d theta, sin d theta) is smooth at 0 only for |d| = 1
    "smoothing-d2": (lambda: vortex_smoothing_2d(
        make_example_field("vortex", d=2), (0.0, 0.0), 2, 0.3),
        radial(2, 0.6), joined(spheres(0.15, 0.3), pinch)),
    "smoothing-chain": (lambda: vortex_smoothing_2d(
        make_example_field("vortex_chain", m=3), (0.5, 0.0), -1, 0.1),
        radial(2, 0.12, (0.5, 0.0)), spheres(0.05, 0.1, centre=(0.5, 0.0))),
    "cone-dipole": (lambda: cone_dipole(make_example_field("planar_vortex"),
                                        (-1.0, 1.0), 1, 0.2),
                    conical(2, 0.2), cone_sheets(2, 0.2, 0.5, 1.0)),
    "point-removal": (lambda: remove_point_singularity(
        disk_defect_field_3d(), (0, 0, 0), 0.3, 0.09, linear_disk_filler(0.3)),
        radial(3, 0.6), spheres(0.09, 0.3)),
    "cone-extension-0.2": (lambda: _cone_ext(0.2), conical(3, 0.2),
                           cone_sheets(3, 0.2, 0.2, 1.0)),
    "cone-extension-0.1": (lambda: _cone_ext(0.1), conical(3, 0.1),
                           cone_sheets(3, 0.1, 0.1, 1.0)),
    "counterexample-ball": (lambda: counterexample_sequence("ball", 4),
                            radial(3, 1.0), spheres(0.25)),
    "counterexample-cylinder": (lambda: counterexample_sequence("cylinder", 4),
                                radial(3, 1.0),
                                joined(spheres(0.25), polar_cone(0.25), pinch)),
    "cyl2d": (lambda: cylinder_analogue_2d(4), radial(2, 1.0),
              joined(spheres(0.25), rays(0.25, -0.25), pinch)),
    "disk-defect": (lambda: disk_defect_field_3d(), box(3), None),
    "disk-filler": (lambda: linear_disk_filler(0.3), box(3), None),
    "cone-defect": (lambda: cone_defect_field_4d(), box(4), None),
    "cone-filler": (lambda: cone_defect_filler((-1.0, 1.0), 0.2),
                    conical(3, 0.2, t_max=3.0), cone_sheets(3, 0.2)),
}


def central_differences(field, X):
    J = np.empty((X.shape[0], field.m, field.n))
    for a in range(field.n):
        E = np.zeros_like(X)
        E[:, a] = H
        J[:, :, a] = (field.evaluate_many(X + E)
                      - field.evaluate_many(X - E)) / (2.0 * H)
    return J


def clear_points(field, sample, loci, rng,
                 clearances=(SINGULAR_CLEARANCE, CLEARANCE)):
    X = sample(rng)
    keep = np.ones(len(X), dtype=bool)
    keep &= distance_to_chain(X, field.singular_set) >= clearances[0]
    for gap in (loci(X) if loci else []):
        keep &= np.abs(gap) >= LIPSCHITZ * clearances[1]
    return X[keep][:SAMPLES]


def case_rng(case):
    return np.random.default_rng(zlib.crc32(case.encode()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_jacobian_matches_central_differences(case):
    build, sample, loci = CASES[case]
    field = build()
    X = clear_points(field, sample, loci, case_rng(case),
                     THIN_CLEARANCES.get(case, (SINGULAR_CLEARANCE, CLEARANCE)))
    assert len(X) >= SAMPLES // 2
    J = field.jacobian_many(X)
    J_fd = central_differences(field, X)
    scale = np.maximum(1.0, np.linalg.norm(J, axis=(1, 2)))
    err = np.max(np.abs(J - J_fd), axis=(1, 2)) / scale
    assert np.max(err) <= 1e-6, (case, X[np.argmax(err)], np.max(err))


@pytest.mark.parametrize("eps", [0.2, 0.1])
def test_cone_extension_core_is_reached(eps):
    # the rescaled core rho <= delta * dist(z, ends) is the region whose
    # chain rule once dropped its factor 1/eps: make sure it is sampled
    case = f"cone-extension-{eps}"
    build, sample, loci = CASES[case]
    X = clear_points(build(), sample, loci, case_rng(case))
    rho = np.linalg.norm(X[:, :3], axis=1)
    core = rho <= eps * eps * np.minimum(X[:, 3] + 1.0, 1.0 - X[:, 3])
    assert np.count_nonzero(core) >= 20


@pytest.mark.parametrize("case, m", [("vortex_chain", 3), ("vortex_chain-6", 6)])
def test_chain_regions_are_reached(case, m):
    # each gap and end strip, and each square's disk and outer corners
    build, sample, loci = CASES[case]
    X = clear_points(build(), sample, loci, case_rng(case), THIN_CLEARANCES[case])
    centers, radii = chain_centers_radii(m)
    c, h = centers[:, 0], radii
    sides = np.stack([c - h, c + h], axis=1).ravel()
    region = np.searchsorted(sides, X[:, 0], "right")
    band = np.abs(X[:, 1]) < np.interp(X[:, 0], sides, np.repeat(h, 2))
    parts = [band & (region == r) for r in range(0, 2 * m + 1, 2)]
    for j in range(m):
        square = band & (region == 2 * j + 1)
        in_disk = np.hypot(X[:, 0] - c[j], X[:, 1]) < h[j]
        parts += [square & in_disk, square & ~in_disk]
    assert min(np.count_nonzero(p) for p in parts) >= 3
