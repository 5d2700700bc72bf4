"""The zero-homogeneous extensions: point removal and the 4d cone extension.

Their shells and cores are pullbacks v o phi.  The Jacobians are checked
against the product of v's Jacobian with a full (N, n, n) differential of
phi written out here, and the graph masses of both constructions against
values recorded before the two shared one builder.
"""

import numpy as np
import pytest

from relaxarea.chains import chain_mass
from relaxarea.fields import VectorField
from relaxarea.recovery import (
    cone_defect_field_4d,
    cone_defect_filler,
    cone_extension_report,
    disk_defect_field_3d,
    homogeneous_cone_extension,
    linear_disk_filler,
    point_removal_report,
    remove_point_singularity,
)

ULP = np.finfo(float).eps
SEGMENT = (-1.0, 1.0)


def waves(n, seed, m=2):
    """sin(A x + b) (N, m): smooth, with every Jacobian entry non-zero."""
    g = np.random.default_rng(seed)
    A, b = g.uniform(0.5, 2.0, (m, n)), g.uniform(-1.0, 1.0, m)

    def ev(X):
        return np.sin(X @ A.T + b)

    def jac(X):
        return np.cos(X @ A.T + b)[:, :, None] * A[None]

    return VectorField(n, m, ev, jac, name=f"waves{n}")


def directions(rng, count, k):
    V = rng.normal(size=(count, k))
    return V / np.linalg.norm(V, axis=1)[:, None]


def shell_differential(V, R, dR):
    """R V/|V| and the (N, n, n) Dphi of x -> (c + R(z) V/|V|, z), where
    V = x~ - c; ``dR`` is None when there is no z coordinate."""
    N, k = V.shape
    n = k if dR is None else k + 1
    rho = np.linalg.norm(V, axis=1)
    W = V / rho[:, None]
    D = np.zeros((N, n, n))
    D[:, :k, :k] = (R / rho)[:, None, None] * (
        np.eye(k)[None] - W[:, :, None] * W[:, None, :])
    if dR is not None:
        D[:, :k, k] = dR[:, None] * W
        D[:, k, k] = 1.0
    return R[:, None] * W, D


def assert_pullback(w, v, X, Y, D):
    """w = v o phi on X, with phi(X) = Y, and Jw = Jv(Y) Dphi within a few
    ulps of the product's scale."""
    np.testing.assert_allclose(w.evaluate_many(X), v.evaluate_many(Y),
                               rtol=4 * ULP, atol=4 * ULP)
    Jv = v.jacobian_many(Y)
    ref = np.einsum("nij,njk->nik", Jv, D)
    scale = np.abs(Jv).max(axis=(1, 2)) * np.abs(D).max(axis=(1, 2))
    err = np.abs(w.jacobian_many(X) - ref).max(axis=(1, 2))
    assert np.all(err <= 8 * ULP * scale), (err / (ULP * scale)).max()


@pytest.mark.parametrize("n, centre", [(3, (0.3, -0.2, 0.1)),
                                       (4, (0.3, -0.2, 0.1, -0.4))])
def test_point_ring_applies_its_differential(rng, n, centre):
    r, delta = 0.5, 0.1
    v = waves(n, 1)
    w = remove_point_singularity(v, centre, r, delta, waves(n, 2))
    c = np.asarray(centre)
    X = c + directions(rng, 200, n) * rng.uniform(1.05 * delta, 0.95 * r,
                                                  200)[:, None]
    Y, D = shell_differential(X - c, np.full(200, r), None)
    assert_pullback(w, v, X, c + Y, D)


def test_point_core_applies_its_differential(rng):
    centre, r, delta = np.array([0.3, -0.2, 0.1]), 0.5, 0.1
    filler = waves(3, 2)
    w = remove_point_singularity(waves(3, 1), centre, r, delta, filler)
    X = centre + directions(rng, 200, 3) * rng.uniform(0.0, 0.95 * delta,
                                                       200)[:, None]
    D = np.broadcast_to(np.eye(3) * (r / delta), (200, 3, 3))
    assert_pullback(w, filler, X, centre + (X - centre) * (r / delta), D)


def cone_points(rng, eps, t_lo, t_hi, count=200):
    """Points at t R(z) from the axis, t in (t_lo, t_hi), on both halves."""
    z = rng.uniform(-0.95, 0.95, count)
    R = eps * np.minimum(z - SEGMENT[0], SEGMENT[1] - z)
    t = rng.uniform(t_lo, t_hi, count)
    X = np.empty((count, 4))
    X[:, :3] = directions(rng, count, 3) * (t * R)[:, None]
    X[:, 3] = z
    return X, R


def test_cone_shell_applies_its_differential(rng):
    eps, delta = 0.3, 0.06
    v = waves(4, 1)
    w = homogeneous_cone_extension(v, SEGMENT, eps, delta, waves(4, 2))
    X, R = cone_points(rng, eps, 1.05 * delta / eps, 0.95)
    dR = eps * np.where(X[:, 3] < 0.0, 1.0, -1.0)
    Y = X.copy()
    Y[:, :3], D = shell_differential(X[:, :3], R, dR)
    assert_pullback(w, v, X, Y, D)


def test_cone_core_applies_its_differential(rng):
    eps, delta = 0.3, 0.06
    filler = waves(4, 2)
    w = homogeneous_cone_extension(waves(4, 1), SEGMENT, eps, delta, filler)
    X, _ = cone_points(rng, eps, 0.0, 0.95 * delta / eps)
    diag = np.array([eps / delta] * 3 + [1.0])
    D = np.broadcast_to(np.diag(diag), (len(X), 4, 4))
    assert_pullback(w, filler, X, X * diag, D)


#: (value, absolute error estimate) of each graph mass, recorded when the
#: point removal and the cone extension had builders of their own
CONE4_EPS02 = {
    "shell": {"mass": (1.0787479328777887, 3.275389462673444e-07),
              "grad": (0.18905573925572436, 1.3050157202025692e-08),
              "minor": (1.0462536236790534, 5.165869990071897e-07)},
    "core": {"mass": (0.17452856423648144, 7.326930865088669e-08),
             "grad": (0.006471358051786412, 2.773486847904429e-09),
             "minor": (0.17439452294200053, 7.32107242310259e-08)},
}
POINT_R02 = {
    "ring": {"mass": (1.0661272470714311, 1.007165672989092e-06),
             "grad": (0.2769331094095507, 1.926185222584319e-08),
             "minor": (1.0053096491487339, 1.3310966838948813e-07)},
    "core": {"mass": (0.16781969076456205, 4.389083554496967e-08),
             "grad": (0.009478150268071184, 2.4788743966240173e-09),
             "minor": (0.16755160819145576, 4.3820722389021894e-08)},
}


def assert_pinned(reports, pins):
    for (region, pinned), rep in zip(pins.items(), reports):
        for q, (ref, ref_err) in pinned.items():
            res = getattr(rep, q)
            assert res.converged, (region, q)
            assert abs(res.value - ref) <= res.abs_error + ref_err, (region, q)


def test_cone_extension_report_pinned():
    eps, delta = 0.2, 0.04
    w = homogeneous_cone_extension(cone_defect_field_4d(), SEGMENT, eps, delta,
                                   cone_defect_filler(SEGMENT, eps))
    assert_pinned(cone_extension_report(w, SEGMENT, eps, delta, 1e-6),
                  CONE4_EPS02)


def test_point_removal_report_pinned():
    r, delta = 0.2, 0.04
    w = remove_point_singularity(disk_defect_field_3d(), (0, 0, 0), r, delta,
                                 linear_disk_filler(r))
    assert_pinned(point_removal_report(w, (0, 0, 0), r, delta, 1e-6), POINT_R02)


@pytest.mark.xfail(strict=True, reason=(
    "the kept set takes a whole input cell or none by its midpoint: the "
    "input's segment z in [-1.5, 1.5] has its midpoint in the cone, so the "
    "declared set is empty, though the map is still singular on the axis "
    "for 1 < |z| <= 1.5; a fix clips each segment to the part the input "
    "still claims (ROADMAP, findings from item 13)"))
def test_cone_extension_declares_the_axis_past_the_cone():
    w = homogeneous_cone_extension(
        cone_defect_field_4d(), SEGMENT, 0.2,
        filler=cone_defect_filler(SEGMENT, 0.2))
    assert w.singular_set.k == 1
    assert chain_mass(w.singular_set) == pytest.approx(1.0, rel=1e-12)
