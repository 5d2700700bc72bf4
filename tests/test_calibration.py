"""Calibration of the quadrature's error estimate against exact answers.

An adaptive rule's error estimate is a heuristic (J. N. Lyness, "When not
to use an automatic quadrature routine", SIAM Review 25, 1983), so this
table checks it where the answer is known: at each tolerance every result,
converged or refused, must lie within its own absolute error estimate of
the exact value.  Refusals are read with ``raise_on_failure=False``.
"""

import math

import numpy as np

from conftest import vortex_cube2_area_oracle

from relaxarea.domains import Annulus, Ball, Cone, Cube
from relaxarea.fields import make_example_field
from relaxarea.quadrature import area_functional, graph_functionals, integrate

TOLS = (1e-4, 1e-6, 1e-8)


def ones(X):
    return np.ones(X.shape[0])


def vortex_disk(d, r_in, r_out):
    """The degree-d vortex's TV-area and TV over the disk or annulus
    r_in < r < r_out: 2 pi int sqrt(r^2 + d^2) dr and 2 pi d (r_out - r_in)."""
    def F(R):
        return math.pi * (R * math.sqrt(R * R + d * d) + d * d * math.asinh(R / d))

    field = make_example_field("vortex", d=d)
    dom = Ball(2, r_out) if r_in == 0.0 else Annulus(2, r_in, r_out)
    return (lambda tol: graph_functionals(field, dom, tol, ("tv_area", "tv"),
                                          raise_on_failure=False),
            (F(r_out) - F(r_in), 2.0 * math.pi * d * (r_out - r_in)))


def sphere_vortex_cube_area():
    """Area of x/|x| over [-1, 1]^3, 1 + 1/r^2 integrated: over each of the
    six pyramids x = t (u, v, 1) the weight t^2 cancels 1/r^2, which leaves
    8 + 6 int_{[-1,1]^2} du dv / (1 + u^2 + v^2)."""
    u, w = np.polynomial.legendre.leggauss(80)
    U, V = np.meshgrid(u, u, indexing="ij")
    return 8.0 + 6.0 * float(w @ (1.0 / (1.0 + U * U + V * V)) @ w)


def area(kind, dom, **params):
    field = make_example_field(kind, **params)
    return lambda tol: [area_functional(field, dom, tol, raise_on_failure=False)]


def plain(f, dom):
    return lambda tol: [integrate(f, dom, tol, raise_on_failure=False)]


def poly(X):  # criterion 9's polynomial, exact for the Gauss-8 rule
    return X[:, 0] ** 8 * X[:, 1] ** 6 + 3.0 * X[:, 0] ** 15 + 1.0


def radial4(X):
    return np.sqrt(1.0 + np.sum(X * X, axis=1))


def table():
    """name -> (run(tol) -> results, exact values, tolerances)."""
    return {
        "vortex1-disk": (*vortex_disk(1, 0.0, 1.0), TOLS),
        "vortex2-disk": (*vortex_disk(2, 0.0, 1.0), TOLS),
        "vortex1-annulus": (*vortex_disk(1, 0.5, 1.0), TOLS),
        "vortex2-annulus": (*vortex_disk(2, 0.5, 1.0), TOLS),
        "vortex1-cube2": (area("vortex", Cube(2, 1.0), d=1),
                          (vortex_cube2_area_oracle(),), TOLS),
        "sphere_vortex-cube3": (area("sphere_vortex", Cube(3, 1.0)),
                                (sphere_vortex_cube_area(),), TOLS),
        # the singular line runs along x3, the whole height of the cube; at
        # 1e-6 it is refused only after some 2e7 nodes
        "planar_vortex-cube3": (area("planar_vortex", Cube(3, 1.0)),
                                (2.0 * vortex_cube2_area_oracle(),), (1e-4,)),
        "ball3-volume": (plain(ones, Ball(3, 1.0)), (4.0 * math.pi / 3.0,), TOLS),
        # pi eps^2 int (1 - |z|)^2 dz and (4 pi / 3) eps^3 int (1 - |z|)^3 dz
        "cone3-volume": (plain(ones, Cone(3, (-1.0, 1.0), 0.3)),
                         (math.pi * 0.3**2 * 2.0 / 3.0,), TOLS),
        "cone4-volume": (plain(ones, Cone(4, (-1.0, 1.0), 0.3, codim=3)),
                         (4.0 * math.pi / 3.0 * 0.3**3 * 2.0 / 4.0,), TOLS),
        "poly-cube2": (plain(poly, Cube(2, 1.0)), ((2.0 / 9) * (2.0 / 7) + 4.0,),
                       TOLS),
        "ball4-volume": (plain(ones, Ball(4, 1.0)), (math.pi**2 / 2.0,), TOLS),
        # 2 pi^2 int_0^1 r^3 sqrt(1 + r^2) dr
        "ball4-radial": (plain(radial4, Ball(4, 1.0)),
                         (4.0 * math.pi**2 * (1.0 + math.sqrt(2.0)) / 15.0,), TOLS),
    }


def test_error_estimate_covers_the_actual_error():
    rows = []  # name, tol, converged, actual error, estimated error
    for name, (run, exact, tols) in table().items():
        for tol in tols:
            for res, want in zip(run(tol), exact, strict=True):
                rows.append((name, tol, res.converged, abs(res.value - want),
                             res.abs_error))
    missed = [r for r in rows if not r[3] <= r[4]]
    assert not missed, missed
    refused = [r for r in rows if r[1] == 1e-4 and not r[2]]
    assert not refused, refused  # every entry converges at the loosest tol
    ratios = [actual / est if est else 0.0 for *_, actual, est in rows]
    print(f"\n{len(rows)} results, {sum(not r[2] for r in rows)} refused; "
          f"actual / estimated error: min {min(ratios):.3g}, "
          f"median {np.median(ratios):.3g}, max {max(ratios):.3g}")
