"""Integration regions and their quadrature charts.

Every domain provides a membership test, a volume, and a list of charts:
smooth maps from a parameter box onto the region whose weight absorbs the
coordinate Jacobian.  Charts are chosen so that the package's singular
integrands become bounded in parameter space (polar and spherical charts
for balls and annuli, the adapted cylindrical chart for cones), which is
what makes tight tolerances reachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidGeometry


@dataclass(frozen=True)
class Chart:
    axes: tuple
    box: tuple
    to_physical: Callable[[np.ndarray], np.ndarray]
    weight: Callable[[np.ndarray], np.ndarray]
    #: never set or read by the package; kept only while the chart wrapper of
    #: ``benchmarks/bench_trace.py`` still reads and replaces it
    mask: Callable[[np.ndarray], np.ndarray] | None = None


def _centre(n, center):
    """The centre as an (n,) array, the origin by default; finite or refused."""
    c = np.zeros(n) if center is None else np.asarray(center, float)
    if not np.all(np.isfinite(c)):
        raise InvalidGeometry(f"domain centre must be finite, got {center!r}")
    return c


def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


class Domain:
    """Base class; concrete kinds below."""

    kind = "abstract"
    n = 0

    def membership(self, X) -> np.ndarray:
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def charts(self):
        """Charts covering the region."""
        raise NotImplementedError

    def __contains__(self, x):
        return bool(self.membership(np.atleast_2d(np.asarray(x, dtype=float)))[0])


class Ball(Domain):
    kind = "ball"

    def __init__(self, n: int, radius: float, center=None):
        if not 0 < radius < math.inf:
            raise InvalidGeometry(f"ball radius must be positive and finite, "
                                  f"got {radius!r}")
        if not 2 <= n <= 4:
            raise InvalidGeometry("balls supported for n in 2..4")
        self.n = n
        self.radius = float(radius)
        self.center = _centre(n, center)

    def membership(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.linalg.norm(X - self.center, axis=1) <= self.radius

    def volume(self):
        return _unit_ball_volume(self.n) * self.radius**self.n

    def charts(self):
        return _radial_charts(self.n, 0.0, self.radius, self.center)


class Annulus(Domain):
    kind = "annulus"

    def __init__(self, n: int, r_in: float, r_out: float, center=None):
        if not 0 <= r_in < r_out < math.inf:
            raise InvalidGeometry(f"annulus needs 0 <= r_in < r_out < inf, "
                                  f"got {r_in!r}, {r_out!r}")
        if not 2 <= n <= 4:
            raise InvalidGeometry("annuli supported for n in 2..4")
        self.n = n
        self.r_in = float(r_in)
        self.r_out = float(r_out)
        self.center = _centre(n, center)

    def membership(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r = np.linalg.norm(X - self.center, axis=1)
        return (r >= self.r_in) & (r <= self.r_out)

    def volume(self):
        c = _unit_ball_volume(self.n)
        return c * (self.r_out**self.n - self.r_in**self.n)

    def charts(self):
        return _radial_charts(self.n, self.r_in, self.r_out, self.center)


def _radial_charts(n, r_in, r_out, center):
    c = center

    if n == 2:
        def to_phys(P):
            r, t = P[:, 0], P[:, 1]
            return c + np.stack([r * np.cos(t), r * np.sin(t)], axis=1)

        def weight(P):
            return P[:, 0]

        return [Chart(("r", "theta"), ((r_in, r_out), (-math.pi, math.pi)),
                      to_phys, weight)]

    if n == 3:
        def to_phys(P):
            r, ph, ps = P[:, 0], P[:, 1], P[:, 2]
            sp = np.sin(ph)
            return c + np.stack(
                [r * sp * np.cos(ps), r * sp * np.sin(ps), r * np.cos(ph)], axis=1
            )

        def weight(P):
            return P[:, 0] ** 2 * np.sin(P[:, 1])

        return [Chart(("r", "phi", "psi"),
                      ((r_in, r_out), (0.0, math.pi), (-math.pi, math.pi)),
                      to_phys, weight)]

    def to_phys(P):  # n == 4, hyperspherical
        r, p1, p2, ps = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
        s1, s2 = np.sin(p1), np.sin(p2)
        return c + np.stack(
            [r * s1 * s2 * np.cos(ps), r * s1 * s2 * np.sin(ps),
             r * s1 * np.cos(p2), r * np.cos(p1)], axis=1
        )

    def weight(P):
        return P[:, 0] ** 3 * np.sin(P[:, 1]) ** 2 * np.sin(P[:, 2])

    return [Chart(("r", "phi1", "phi2", "psi"),
                  ((r_in, r_out), (0.0, math.pi), (0.0, math.pi),
                   (-math.pi, math.pi)), to_phys, weight)]


class Cube(Domain):
    kind = "cube"

    def __init__(self, n: int, half_side: float, center=None):
        if not 0 < half_side < math.inf:
            raise InvalidGeometry(f"cube half_side must be positive and "
                                  f"finite, got {half_side!r}")
        self.n = n
        self.half_side = float(half_side)
        self.center = _centre(n, center)

    def membership(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.all(np.abs(X - self.center) <= self.half_side, axis=1)

    def volume(self):
        return (2.0 * self.half_side) ** self.n

    def bounding_box(self):
        return self.center - self.half_side, self.center + self.half_side

    def charts(self):
        return [_box_chart(*self.bounding_box())]


def _box_chart(lo, hi):
    """The identity chart of the axis-aligned box [lo, hi]."""
    return Chart(tuple(f"x{i}" for i in range(len(lo))),
                 tuple((float(a), float(b)) for a, b in zip(lo, hi)),
                 lambda P: P, lambda P: np.ones(P.shape[0]))


class Cone(Domain):
    """Cone over a base segment with profile r_eps(z) = eps * dist(z, ends).

    The base simplex is the segment [a, b] on the last coordinate axis; the
    first ``codim`` coordinates are the normal plane.  A point (x~, z)
    belongs to the cone iff z is in [a, b] and |x~| <= eps * min(z-a, b-z).
    """

    kind = "cone"

    def __init__(self, n: int, base: tuple, eps: float, codim: int = 2,
                 t_min: float = 0.0):
        a, b = float(base[0]), float(base[1])
        if not -math.inf < a < b < math.inf:
            raise InvalidGeometry(f"cone base segment must be finite and "
                                  f"non-degenerate, got {base!r}")
        if not 0 < eps < math.inf:
            raise InvalidGeometry(f"cone aperture eps must be positive and "
                                  f"finite, got {eps!r}")
        if codim not in (2, 3) or n != codim + 1:
            raise InvalidGeometry("cone supports (n, codim) in {(3,2), (4,3)}")
        if not 0.0 <= t_min < 1.0:
            raise InvalidGeometry("cone t_min must lie in [0, 1)")
        self.n = n
        self.codim = codim
        self.a, self.b = a, b
        self.eps = float(eps)
        self.t_min = float(t_min)  # >0 carves out the inner co-scaled cone

    def profile(self, z):
        return self.eps * np.minimum(z - self.a, self.b - z)

    def slope(self, z):
        """d/dz of :meth:`profile`; the midpoint takes the upper half's slope."""
        return self.eps * np.where(z < 0.5 * (self.a + self.b), 1.0, -1.0)

    def membership(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        z = X[:, -1]
        rho = np.linalg.norm(X[:, : self.codim], axis=1)
        prof = self.profile(z)
        ok = (z >= self.a) & (z <= self.b)
        return ok & (rho <= prof) & (rho >= self.t_min * prof)

    def volume(self):
        ball = _unit_ball_volume(self.codim)
        L = self.b - self.a
        # int min(z-a, b-z)^codim dz = 2 (L/2)^{codim+1} / (codim+1)
        full = ball * self.eps**self.codim * 2 * (L / 2) ** (self.codim + 1) / (self.codim + 1)
        return full * (1.0 - self.t_min**self.codim)

    def charts(self):
        prof = self.profile
        mid = 0.5 * (self.a + self.b)

        if self.codim == 2:
            def to_phys(P):
                t, th, z = P[:, 0], P[:, 1], P[:, 2]
                rho = t * prof(z)
                return np.stack([rho * np.cos(th), rho * np.sin(th), z], axis=1)

            def weight(P):
                return P[:, 0] * prof(P[:, 2]) ** 2

            axes = ("t", "theta", "z")
            boxes = [((self.t_min, 1.0), (-math.pi, math.pi), (self.a, mid)),
                     ((self.t_min, 1.0), (-math.pi, math.pi), (mid, self.b))]
            return [Chart(axes, b, to_phys, weight) for b in boxes]

        def to_phys(P):  # codim == 3
            t, ph, ps, z = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
            rho = t * prof(z)
            sp = np.sin(ph)
            return np.stack(
                [rho * sp * np.cos(ps), rho * sp * np.sin(ps), rho * np.cos(ph), z],
                axis=1,
            )

        def weight(P):
            return P[:, 0] ** 2 * prof(P[:, 3]) ** 3 * np.sin(P[:, 1])

        axes = ("t", "phi", "psi", "z")
        boxes = [((self.t_min, 1.0), (0.0, math.pi), (-math.pi, math.pi),
                  (self.a, mid)),
                 ((self.t_min, 1.0), (0.0, math.pi), (-math.pi, math.pi),
                  (mid, self.b))]
        return [Chart(axes, b, to_phys, weight) for b in boxes]


class Difference(Domain):
    """Outer minus inner, for the pairs with exact charts: a ball or an
    annulus minus a concentric ball whose radius lies in its radial range
    (radial charts), or a cube minus a smaller cube nested in it (the
    axis-aligned peel).  Any other pair is refused when built."""

    kind = "difference"

    def __init__(self, outer: Domain, inner: Domain):
        if outer.n != inner.n:
            raise InvalidGeometry("difference of domains of unequal dimension")
        self.n = outer.n
        self.outer = outer
        self.inner = inner
        self._shell = self._boxes = None  # (r_in, r_out) or the peel's boxes
        if (isinstance(outer, (Ball, Annulus)) and isinstance(inner, Ball)
                and np.array_equal(outer.center, inner.center)):
            r_in, r_out = ((0.0, outer.radius) if isinstance(outer, Ball)
                           else (outer.r_in, outer.r_out))
            if r_in <= inner.radius <= r_out:
                self._shell = (inner.radius, r_out)
        elif isinstance(outer, Cube) and isinstance(inner, Cube):
            self._boxes = _cube_difference_boxes(outer, inner) or None
        if self._shell is None and self._boxes is None:
            raise InvalidGeometry(
                f"difference of a {outer.kind} minus a {inner.kind} has no "
                f"exact charts: use a ball or annulus minus a concentric ball "
                f"within its radii, or a cube minus a smaller cube nested in it")

    def membership(self, X):
        return self.outer.membership(X) & ~self.inner.membership(X)

    def volume(self):
        if self._shell is not None:
            r_in, r_out = self._shell
            return _unit_ball_volume(self.n) * (r_out**self.n - r_in**self.n)
        return float(sum(np.prod(hi - lo) for lo, hi in self._boxes))

    def charts(self):
        if self._shell is not None:
            return _radial_charts(self.n, *self._shell, self.inner.center)
        return [_box_chart(lo, hi) for lo, hi in self._boxes]


def _cube_difference_boxes(outer: Cube, inner: Cube):
    """Axis-aligned peel of outer minus inner (no box when they are equal),
    or None if inner is not nested in outer."""
    lo_o, hi_o = outer.bounding_box()
    lo_i, hi_i = inner.bounding_box()
    if np.any(lo_i < lo_o - 1e-15) or np.any(hi_i > hi_o + 1e-15):
        return None
    boxes = []
    lo_c, hi_c = lo_o.copy(), hi_o.copy()
    for a in range(outer.n):
        if lo_i[a] > lo_c[a]:
            lo, hi = lo_c.copy(), hi_c.copy()
            hi[a] = lo_i[a]
            boxes.append((lo, hi))
        if hi_i[a] < hi_c[a]:
            lo, hi = lo_c.copy(), hi_c.copy()
            lo[a] = hi_i[a]
            boxes.append((lo, hi))
        lo_c[a], hi_c[a] = lo_i[a], hi_i[a]
    return boxes


_DOMAIN_KINDS = ("ball", "cube", "cone", "annulus", "difference")


def make_domain(kind: str, **params) -> Domain:
    """Factory matching the CLI grammar; raises InvalidGeometry on bad input,
    a parameter the kind does not read included."""
    if kind == "ball":
        dom = Ball(params.pop("n"), params.pop("radius", 1.0),
                   params.pop("center", None))
    elif kind == "cube":
        dom = Cube(params.pop("n"), params.pop("half_side", 1.0),
                   params.pop("center", None))
    elif kind == "annulus":
        dom = Annulus(params.pop("n"), params.pop("r_in"), params.pop("r_out"),
                      params.pop("center", None))
    elif kind == "cone":
        eps = params.pop("eps", None)
        if eps is None:
            raise InvalidGeometry("cone domains need an aperture eps")
        dom = Cone(params.pop("n", 3), params.pop("base", (-1.0, 1.0)),
                   eps, params.pop("codim", 2))
    elif kind == "difference":
        dom = Difference(params.pop("outer"), params.pop("inner"))
    else:
        raise InvalidGeometry(
            f"unknown domain kind {kind!r}; choose from {_DOMAIN_KINDS}")
    if params:
        raise InvalidGeometry(f"{kind} does not read {sorted(params)}")
    return dom
