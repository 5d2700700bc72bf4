"""Every hand-written Jacobian against central differences.

Each case is a field, a sampler that reaches each of its regions, and the
loci where the field is only piecewise smooth: the regions named by its
``chart_breaks`` and the edges of the region a construction replaces.
Points are kept at least ``CLEARANCE`` from every such locus, so that no
stencil straddles one, and at least ``SINGULAR_CLEARANCE`` from the
declared singular set.
"""

import math
import zlib

import numpy as np
import pytest

from relaxarea.chains import distance_to_chain
from relaxarea.fields import make_example_field
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


def chain_disks(m):
    """Points in the open disks, the only part with an analytic Jacobian
    (the vortex chain differentiates numerically in between)."""
    centres = 1.0 - 2.0 ** (1 - np.arange(1, m + 1))
    radii = 2.0 ** -(np.arange(1, m + 1) + 1.0)

    def sample(rng):
        j = rng.integers(0, m, 4 * SAMPLES)
        th = rng.uniform(-math.pi, math.pi, 4 * SAMPLES)
        r = radii[j] * rng.uniform(0.0, 0.99, 4 * SAMPLES)
        return np.stack([centres[j] + r * np.cos(th), r * np.sin(th)], axis=1)
    return sample


# the piecewise loci, each as the zero set of a function with Lipschitz
# constant at most LIPSCHITZ, so that |g(x)| >= LIPSCHITZ * CLEARANCE puts x
# at least CLEARANCE from the locus

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
                     chain_disks(3), None),
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


def clear_points(field, sample, loci, rng):
    X = sample(rng)
    keep = np.ones(len(X), dtype=bool)
    if field.singular_set is not None and len(field.singular_set.cells):
        keep &= distance_to_chain(X, field.singular_set) >= SINGULAR_CLEARANCE
    for gap in (loci(X) if loci else []):
        keep &= np.abs(gap) >= LIPSCHITZ * CLEARANCE
    return X[keep][:SAMPLES]


def case_rng(case):
    return np.random.default_rng(zlib.crc32(case.encode()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_jacobian_matches_central_differences(case):
    build, sample, loci = CASES[case]
    field = build()
    X = clear_points(field, sample, loci, case_rng(case))
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
