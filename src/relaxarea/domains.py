"""Integration regions and their quadrature charts.

Every domain provides a membership test, a volume, and (where available) a
list of charts: smooth maps from a parameter box onto the region whose
weight absorbs the coordinate Jacobian.  Charts are chosen so that the
package's singular integrands become bounded in parameter space (polar and
spherical charts for balls and annuli, the adapted cylindrical chart for
cones), which is what makes tight tolerances reachable.
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
        """Charts covering the region, or None if only membership is known."""
        return None

    def bounding_box(self):
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

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

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

    def bounding_box(self):
        return self.center - self.r_out, self.center + self.r_out

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
        lo, hi = self.bounding_box()
        box = tuple((float(a), float(b)) for a, b in zip(lo, hi))
        axes = tuple(f"x{i}" for i in range(self.n))
        return [Chart(axes, box, lambda P: P, lambda P: np.ones(P.shape[0]))]


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
            raise InvalidGeometry(f"cone aperture must be positive and finite, "
                                  f"got {eps!r}")
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

    def membership(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        z = X[:, -1]
        rho = np.linalg.norm(X[:, : self.codim], axis=1)
        prof = self.eps * np.minimum(z - self.a, self.b - z)
        ok = (z >= self.a) & (z <= self.b)
        return ok & (rho <= prof) & (rho >= self.t_min * prof)

    def volume(self):
        ball = _unit_ball_volume(self.codim)
        L = self.b - self.a
        # int min(z-a, b-z)^codim dz = 2 (L/2)^{codim+1} / (codim+1)
        full = ball * self.eps**self.codim * 2 * (L / 2) ** (self.codim + 1) / (self.codim + 1)
        return full * (1.0 - self.t_min**self.codim)

    def bounding_box(self):
        rmax = self.eps * (self.b - self.a) / 2
        lo = np.array([-rmax] * self.codim + [self.a])
        hi = np.array([rmax] * self.codim + [self.b])
        return lo, hi

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
    kind = "difference"

    def __init__(self, outer: Domain, inner: Domain):
        if outer.n != inner.n:
            raise InvalidGeometry("difference of domains of unequal dimension")
        self.n = outer.n
        self.outer = outer
        self.inner = inner

    def membership(self, X):
        return self.outer.membership(X) & ~self.inner.membership(X)

    def _concentric_balls(self):
        o, i = self.outer, self.inner
        if (
            isinstance(o, (Ball, Annulus)) and isinstance(i, Ball)
            and np.allclose(getattr(o, "center"), i.center)
        ):
            r_out = o.radius if isinstance(o, Ball) else o.r_out
            r_in0 = 0.0 if isinstance(o, Ball) else o.r_in
            if i.radius >= r_in0 and i.radius <= r_out:
                return max(i.radius, r_in0), r_out, i.center
        return None

    def volume(self):
        cb = self._concentric_balls()
        if cb is not None:
            r_in, r_out, _ = cb
            return _unit_ball_volume(self.n) * (r_out**self.n - r_in**self.n)
        if isinstance(self.outer, Cube) and isinstance(self.inner, Cube):
            boxes = _cube_difference_boxes(self.outer, self.inner)
            if boxes is not None:
                return float(sum(np.prod(hi - lo) for lo, hi in boxes))
        from .quadrature import montecarlo_volume

        return montecarlo_volume(self)

    def bounding_box(self):
        return self.outer.bounding_box()

    def charts(self):
        cb = self._concentric_balls()
        if cb is not None:
            r_in, r_out, center = cb
            return _radial_charts(self.n, r_in, r_out, center)
        if isinstance(self.outer, Cube) and isinstance(self.inner, Cube):
            boxes = _cube_difference_boxes(self.outer, self.inner)
            if boxes is not None:
                axes = tuple(f"x{i}" for i in range(self.n))
                return [
                    Chart(axes, tuple((float(a), float(b)) for a, b in zip(lo, hi)),
                          lambda P: P, lambda P: np.ones(P.shape[0]))
                    for lo, hi in boxes
                ]
        # awkward geometry: integrate the outer charts against an indicator
        outer_charts = self.outer.charts()
        if outer_charts is None:
            return None
        inner = self.inner
        return [
            Chart(ch.axes, ch.box, ch.to_physical, ch.weight,
                  mask=lambda X, _inner=inner: ~_inner.membership(X))
            for ch in outer_charts
        ]


def _cube_difference_boxes(outer: Cube, inner: Cube):
    """Axis-aligned peel of outer minus inner, or None if inner not nested."""
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
    """Factory matching the CLI grammar; raises InvalidGeometry on bad input."""
    if kind == "ball":
        return Ball(params.pop("n"), params.pop("radius", 1.0),
                    params.pop("center", None))
    if kind == "cube":
        return Cube(params.pop("n"), params.pop("half_side", 1.0),
                    params.pop("center", None))
    if kind == "annulus":
        return Annulus(params.pop("n"), params.pop("r_in"), params.pop("r_out"),
                       params.pop("center", None))
    if kind == "cone":
        eps = params.pop("eps", None)
        if eps is None:
            raise InvalidGeometry("cone domains need an aperture eps")
        return Cone(params.pop("n", 3), params.pop("base", (-1.0, 1.0)),
                    eps, params.pop("codim", 2))
    if kind == "difference":
        return Difference(params.pop("outer"), params.pop("inner"))
    raise InvalidGeometry(f"unknown domain kind {kind!r}; choose from {_DOMAIN_KINDS}")
