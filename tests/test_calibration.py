"""Calibration of the quadrature's error estimate against exact answers.

An adaptive rule's error estimate is a heuristic (J. N. Lyness, "When not
to use an automatic quadrature routine", SIAM Review 25, 1983), so this
table checks it where the answer is known: at each tolerance every result,
converged or refused, must lie within its own absolute error estimate of
the exact value.  Refusals are read with ``raise_on_failure=False``.
"""

import math

import numpy as np
import pytest

from conftest import vortex_cube2_area_oracle

from relaxarea.domains import Annulus, Ball, Cone, Cube
from relaxarea.fields import chain_centers_radii, make_example_field
from relaxarea.quadrature import area_functional, graph_functionals, integrate
from relaxarea.recovery import counterexample_sequence

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


def ball_fill_area(k):
    """Area of the ball fill over Ball(3, 1): 1 + 1/r^2 on the shell
    1/k < r < 1, where the field is x/|x|, and (1 + k^2)^(3/2) on the inner
    ball, where it is k x."""
    return (4.0 * math.pi / 3.0 * (1.0 - k**-3) + 4.0 * math.pi * (1.0 - 1.0 / k)
            + 4.0 * math.pi / 3.0 * (1.0 + k * k) ** 1.5 * k**-3)


def area(kind, dom, **params):
    field = make_example_field(kind, **params)
    return area_of(field, dom)


def area_of(field, dom):
    return lambda tol: [area_functional(field, dom, tol, raise_on_failure=False)]


def plain(f, dom):
    return lambda tol: [integrate(f, dom, tol, raise_on_failure=False)]


def poly(X):  # criterion 9's polynomial, exact for the Gauss-8 rule
    return X[:, 0] ** 8 * X[:, 1] ** 6 + 3.0 * X[:, 0] ** 15 + 1.0


def radial4(X):
    return np.sqrt(1.0 + np.sum(X * X, axis=1))


def vortex_chain_tv():
    """TV of the vortex chain m=3 over [-1, 1]^2, region by region: pi per
    unit length of each end strip (the x2-integral of 1 / sqrt(H^2 - x2^2)),
    4 pi h - 4 h per square of half-side h (2 pi h in its disk, 2 pi h - 4 h
    around it), and per unit length of a gap whose half-height has slope k,
    int sqrt(1 + k^2 sin^2 phi) over (-pi/2, pi/2)."""
    centers, radii = chain_centers_radii(3)
    left, right = centers[:, 0] - radii, centers[:, 0] + radii
    tv = math.pi * (left[0] + 1.0 + 1.0 - right[-1]) + float(
        np.sum(4.0 * math.pi * radii - 4.0 * radii))
    phi, w = np.polynomial.legendre.leggauss(64)
    phi = 0.5 * math.pi * phi
    for j in range(1, len(radii)):
        width = left[j] - right[j - 1]
        k = (radii[j] - radii[j - 1]) / width
        tv += width * 0.5 * math.pi * float(w @ np.sqrt(1.0 + (k * np.sin(phi)) ** 2))
    return tv


def chain_tv(tol):
    return graph_functionals(make_example_field("vortex_chain", m=3), Cube(2, 1.0),
                             tol, ("tv",), raise_on_failure=False)


def kink(x0, b):
    """|x - x0|^b + y^2 and its integral over [-1, 1]^2: a crease across
    the cells at x = x0, off every chart break, under a smooth part."""
    return (lambda X: np.abs(X[:, 0] - x0) ** b + X[:, 1] ** 2,
            2.0 * ((1.0 + x0) ** (b + 1) + (1.0 - x0) ** (b + 1)) / (b + 1) + 4.0 / 3.0)


def diagonal_crease(c, s):
    """|x + s y - c| and its integral over [-1, 1]^2: a crease along a line
    that no cell side follows.  Over x, |x - a| integrates to g(a) = 1 + a^2
    for |a| <= 1 and 2 |a| otherwise, so the integral is
    (G(c + s) - G(c - s)) / s with G' = g."""
    def G(a):
        return -a * a - 1.0 / 3.0 if a <= -1.0 else (
            a + a**3 / 3.0 if a <= 1.0 else a * a + 1.0 / 3.0)

    return (lambda X: np.abs(X[:, 0] + s * X[:, 1] - c),
            (G(c + s) - G(c - s)) / s)


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
        # the singular line runs along x3, the whole height of the cube
        "planar_vortex-cube3": (area("planar_vortex", Cube(3, 1.0)),
                                (2.0 * vortex_cube2_area_oracle(),), TOLS),
        **{f"ball_fill{k}-ball3": (area_of(counterexample_sequence("ball", k),
                                           Ball(3, 1.0)), (ball_fill_area(k),), TOLS)
           for k in (2, 16)},
        "ball3-volume": (plain(ones, Ball(3, 1.0)), (4.0 * math.pi / 3.0,), TOLS),
        # pi eps^2 int (1 - |z|)^2 dz and (4 pi / 3) eps^3 int (1 - |z|)^3 dz
        "cone3-volume": (plain(ones, Cone(3, (-1.0, 1.0), 0.3)),
                         (math.pi * 0.3**2 * 2.0 / 3.0,), TOLS),
        "cone4-volume": (plain(ones, Cone(4, (-1.0, 1.0), 0.3, codim=3)),
                         (4.0 * math.pi / 3.0 * 0.3**3 * 2.0 / 4.0,), TOLS),
        "poly-cube2": (plain(poly, Cube(2, 1.0)), ((2.0 / 9) * (2.0 / 7) + 4.0,),
                       TOLS),
        "ball4-volume": (plain(ones, Ball(4, 1.0)), (math.pi**2 / 2.0,), TOLS),
        # creases off the chart breaks; the extrapolation floor keeps the kink
        # (at the bare algebraic extrapolation its estimate missed 25-fold
        # at 1e-6 and 1e-8)
        "kink-cube2": (plain(kink(0.244, 2.97)[0], Cube(2, 1.0)),
                       (kink(0.244, 2.97)[1],), TOLS),
        "diagonal_crease-cube2": (
            plain(diagonal_crease(0.479, 1.85)[0], Cube(2, 1.0)),
            (diagonal_crease(0.479, 1.85)[1],), TOLS),
        # the chain's angle has infinite slope on the edges |x2| = H of its
        # strips, squares and gaps, which no singular set or break declares;
        # at 1e-3 and below the refinement is refused (see the xfail below)
        "vortex_chain3-cube2-tv": (chain_tv, (vortex_chain_tv(),), (1e-2,)),
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


@pytest.mark.xfail(strict=True, reason="known misses of the null-rule estimate "
                   "on creases off the chart breaks (see ROADMAP)")
@pytest.mark.parametrize("crease, tol", [
    (kink(-0.394, 1.2), 1e-4),  # the profile shows the smooth part alone
    (diagonal_crease(-0.177, 0.62), 1e-8),  # the profiles smooth the crease
])
def test_crease_off_the_breaks_within_estimate(crease, tol):
    f, exact = crease
    res = integrate(f, Cube(2, 1.0), tol, raise_on_failure=False)
    assert abs(res.value - exact) <= res.abs_error


@pytest.mark.xfail(strict=True, reason="known miss: the chain's undeclared "
                   "edge singularities (see ROADMAP)")
def test_vortex_chain_refusal_within_estimate():
    # refused at 1e-3 with a value of about 70 against 7.41: cells whose
    # nodes fall next to an edge |x2| = H, where 1 / sqrt(H^2 - x2^2) is
    # unbounded, read values far off, and their estimates miss it
    res = chain_tv(1e-3)[0]
    assert abs(res.value - vortex_chain_tv()) <= res.abs_error


@pytest.mark.parametrize("kind, params, n, tol, exact", [
    ("vortex", {"d": 1}, 2, 3e-6, lambda: vortex_cube2_area_oracle(1)),
    ("vortex", {"d": 2}, 2, 3e-6, lambda: vortex_cube2_area_oracle(2)),
    ("sphere_vortex", {}, 3, 1e-6, sphere_vortex_cube_area),
    ("planar_vortex", {}, 3, 3e-6, lambda: 2.0 * vortex_cube2_area_oracle(1)),
])
def test_singular_cube_converges_within_tol(kind, params, n, tol, exact):
    # graded refinement to a point or line singularity inside a cube, with
    # depth-capped cells at it: converged and within tol of the exact area
    res = area_functional(make_example_field(kind, **params), Cube(n, 1.0), tol)
    assert res.converged
    assert abs(res.value - exact()) <= tol * exact()


@pytest.mark.parametrize("dom", [Ball(2, 1.0), Annulus(2, 0.5, 1.0)])
@pytest.mark.parametrize("tol", TOLS)
def test_estimate_keeps_the_roundoff_floor(dom, tol):
    # the vortex's TV integrand times the polar weight is 1 at every node, so
    # every null rule reads rounding alone; a cell's estimate is then the
    # floor 50 eps sum |w f| vol, never 0, however exact the value looks
    tv = graph_functionals(make_example_field("vortex", d=1), dom, tol, ("tv",))[0]
    assert tv.abs_error > 0.0
    assert tv.abs_error >= 50.0 * np.finfo(float).eps * abs(tv.value)
