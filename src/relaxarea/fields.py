"""Vector fields, example maps, and pointwise differential quantities.

A :class:`VectorField` is an immutable bundle of a vectorized evaluator
``(N, n) -> (N, m)``, an optional vectorized closed-form Jacobian
``(N, n) -> (N, m, n)``, for m = 2 an optional vectorized angle evaluator
``(N, n) -> (N,)``, and a declared singular set, a ``SingularChain``
(empty for a smooth map) that is the field's guard: a batch with a row
within the guard distance 1e-12 of it is refused before the evaluator
runs, so an evaluator may assume that every row lies farther than that
from it (the planar vortex, singular past its declared segment, guards
that part itself).  Every example map has
its Jacobian in closed form; a field built without one serves evaluation
and extraction, and :meth:`VectorField.jacobian_many` refuses it.  Each
circle-valued example map (cos T, sin T), its Jacobian and its angle, T
modulo 2 pi, come from one lift T (``_circle_map``).  Winding numbers and
lattice extraction read only the angle of the value
(:meth:`VectorField.angles_many`), so a field with an angle evaluator
saves building the value first.  Jacobians and minor vectors are plain
``numpy`` arrays; :func:`minors2` and :func:`area_integrand` operate on
single matrices or stacks.

All fields here are nondimensional, with lengths in units of the unit
ball/cube of the source space.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .chains import SINGULAR_GUARD, SingularChain, distance_to_chain
from .domains import row_norms
from .errors import InvalidParams, NonFinite, SingularPoint


def minor_pairs(n: int) -> list[tuple[int, int]]:
    """Column index pairs (i, j), i < j, in fixed lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _as_batch(x, n):
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[1] != n:
        raise InvalidParams(f"expected points in R^{n}, got shape {X.shape}")
    return X


def minors2(J: np.ndarray) -> np.ndarray:
    """All 2x2 minors of a gradient matrix, in lexicographic pair order.

    For an m=2 field this is the vector (M_ij)_{i<j} of length n(n-1)/2.
    For m=n=3 the nine 2x2 minors (row pairs x column pairs, lex) are
    followed by the 3x3 determinant, so that the squared norm is
    |cof J|^2 + (det J)^2.

    Accepts a single (m, n) matrix or a stack (N, m, n); returns (d,) or
    (N, d) accordingly.
    """
    J = np.asarray(J, dtype=float)
    single = J.ndim == 2
    if single:
        J = J[None]
    N, m, n = J.shape
    cols = minor_pairs(n)
    if m == 2:
        out = np.empty((N, len(cols)))
        for k, (i, j) in enumerate(cols):
            out[:, k] = J[:, 0, i] * J[:, 1, j] - J[:, 0, j] * J[:, 1, i]
    elif m == 3 and n == 3:
        out = np.empty((N, 10))
        for k, ((r1, r2), (c1, c2)) in enumerate(itertools.product(cols, cols)):
            out[:, k] = J[:, r1, c1] * J[:, r2, c2] - J[:, r1, c2] * J[:, r2, c1]
        out[:, 9] = (
            J[:, 0, 0] * (J[:, 1, 1] * J[:, 2, 2] - J[:, 1, 2] * J[:, 2, 1])
            - J[:, 0, 1] * (J[:, 1, 0] * J[:, 2, 2] - J[:, 1, 2] * J[:, 2, 0])
            + J[:, 0, 2] * (J[:, 1, 0] * J[:, 2, 1] - J[:, 1, 1] * J[:, 2, 0])
        )
    else:
        raise InvalidParams(f"minors2 supports m=2 (any n) or m=n=3, got ({m},{n})")
    return out[0] if single else out


def area_integrand(J: np.ndarray) -> float | np.ndarray:
    """Graph-area integrand sqrt(1 + |J|_F^2 + |minors2(J)|^2).

    For m=3 maps every minor order enters (gradient, cofactors and
    determinant), which is the n-area element of the graph.
    """
    J = np.asarray(J, dtype=float)
    single = J.ndim == 2
    Jb = J[None] if single else J
    if not np.all(np.isfinite(Jb)):
        raise NonFinite("non-finite Jacobian entries in area integrand")
    M = minors2(Jb)
    val = np.sqrt(1.0 + np.sum(Jb * Jb, axis=(1, 2)) + np.sum(M * M, axis=1))
    return float(val[0]) if single else val


class VectorField:
    """A map from (a subset of) R^n to R^m with declared singularities.

    ``singular_set`` is always a ``SingularChain``: a field built without
    one, or with an empty one, holds ``SingularChain.empty(n)``, a smooth
    map.

    ``angle``, allowed only for m = 2, returns an angle in [-pi, pi] of the
    value at each point: equal to the ``arctan2`` of ``evaluator``'s rows
    modulo 2 pi, up to rounding (so pi and -pi are the same angle);
    :meth:`angles_many` reads it instead of the values.  Immutable after
    construction; evaluation is pure.
    """

    def __init__(
        self,
        n: int,
        m: int,
        evaluator: Callable[[np.ndarray], np.ndarray],
        jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
        singular_set: SingularChain | None = None,
        sphere_valued: bool = False,
        chart_breaks: dict[str, tuple[float, ...]] | None = None,
        name: str = "field",
        angle: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        # sphere_valued has no effect; it stays only while
        # benchmarks/bench_workloads.py::line_field still passes it
        if not (2 <= n <= 4 and m in (2, 3)):
            raise InvalidParams(f"unsupported dimensions n={n}, m={m}")
        if angle is not None and m != 2:
            raise InvalidParams(f"a principal angle needs m=2, got m={m}")
        self.n = n
        self.m = m
        self._eval = evaluator
        self._jac = jacobian
        self._angle = angle
        self.singular_set = singular_set or SingularChain.empty(n)
        self.chart_breaks = dict(chart_breaks or {})
        self.name = name

    # -- evaluation ---------------------------------------------------------

    def _check_points(self, X, dist=None):
        # a given distance comes from a caller that has already dealt with
        # non-finite rows (extraction masks NaN distances)
        if dist is None and not np.isfinite(X).all():
            raise NonFinite(f"{self.name}: non-finite point")
        if len(self.singular_set.cells) > 0:
            d = distance_to_chain(X, self.singular_set) if dist is None else dist
            if (d <= SINGULAR_GUARD).any():
                raise SingularPoint("evaluation on declared singular set")

    def evaluate_many(self, X: np.ndarray, dist: np.ndarray | None = None
                      ) -> np.ndarray:
        """Values (N, m) at the points X (N, n).

        ``dist``, when given, holds the points' distances to the declared
        singular set, so the guard tests them instead of recomputing them.
        """
        X = np.asarray(X, dtype=float)
        self._check_points(X, dist)
        U = self._eval(X)
        if not np.isfinite(U).all():
            raise NonFinite(f"{self.name}: non-finite value off the singular set")
        return U

    def angles_many(self, X: np.ndarray, dist: np.ndarray | None = None
                    ) -> np.ndarray:
        """Angles (N,) in [-pi, pi] of the values of an m=2 field at the
        points X (N, n), NaN where the value vanishes (norm below 1e-12).

        Guarded as :meth:`evaluate_many` (``dist`` as there).  With an
        ``angle`` evaluator it is read directly, otherwise the angle is the
        ``arctan2`` of the values; the two agree modulo 2 pi.
        """
        if self.m != 2:
            raise InvalidParams(f"angles need an m=2 field, got m={self.m}")
        if self._angle is None:
            U = self.evaluate_many(X, dist)
            a = np.arctan2(U[:, 1], U[:, 0])
            a[U[:, 0] ** 2 + U[:, 1] ** 2 < 1e-24] = np.nan  # cannot wind
            return a
        X = np.asarray(X, dtype=float)
        self._check_points(X, dist)
        a = self._angle(X)
        if not np.isfinite(a).all():
            raise NonFinite(f"{self.name}: non-finite angle off the singular set")
        return a

    def evaluate(self, x) -> np.ndarray:
        """Evaluate at a single point; errors on the singular set."""
        return self.evaluate_many(_as_batch(x, self.n))[0]

    def __call__(self, x):
        return self.evaluate(x)

    # -- Jacobians ----------------------------------------------------------

    def jacobian_many(self, X: np.ndarray) -> np.ndarray:
        """Gradient matrices (N, m, n) at the points X (N, n), guarded as
        :meth:`evaluate_many`; a field built without a Jacobian is refused."""
        if self._jac is None:
            raise InvalidParams(f"{self.name} was built without a Jacobian")
        X = np.asarray(X, dtype=float)
        self._check_points(X)
        J = self._jac(X)
        if not np.isfinite(J).all():
            raise NonFinite(f"{self.name}: non-finite Jacobian")
        return J

    def jacobian_at(self, x) -> np.ndarray:
        """Gradient matrix (m, n) at a single point, as :meth:`jacobian_many`."""
        return self.jacobian_many(_as_batch(x, self.n))[0]


# ---------------------------------------------------------------------------
# example maps
# ---------------------------------------------------------------------------


def _wrap(d):
    """``d`` wrapped into [-pi, pi) by one remainder, for any finite ``d``."""
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _on_circle(T):
    """The points (cos T, sin T) (N, 2) of the angles T (N,)."""
    U = np.empty((len(T), 2))
    U[:, 0] = np.cos(T)
    U[:, 1] = np.sin(T)
    return U


def _circle_map(lift):
    """``(ev, jac, angle)`` of the circle-valued map u = (cos T, sin T).

    ``lift(X)`` gives the lift T (N,) at the points X (N, n), after the
    field's singular-set guard, and ``lift(X, grad=True)`` gives ``(T, G)``
    with G = grad T (N, n).  The Jacobian is (-sin T, cos T) outer G, rank
    one by construction: its rows (-sin T) G and (cos T) G are written into
    one (N, 2, n) array.  The angle is ``_wrap(T)``: the ``arctan2`` of the
    values modulo 2 pi, up to rounding.
    """

    def jac(X):
        T, G = lift(X, grad=True)
        J = np.empty((len(T), 2, G.shape[1]))
        np.multiply(-np.sin(T)[:, None], G, out=J[:, 0])
        np.multiply(np.cos(T)[:, None], G, out=J[:, 1])
        return J

    return lambda X: _on_circle(lift(X)), jac, lambda X: _wrap(lift(X))


def _vortex(d: int, center, phase: float) -> VectorField:
    c = np.asarray(center, dtype=float)
    if d == 0:  # a constant map, with the empty singular set
        const = _constant((math.cos(phase), math.sin(phase)))
        return VectorField(2, 2, const._eval, const._jac, name="vortex(d=0)")

    def lift(X, grad=False):
        W = X - c
        T = d * np.arctan2(W[:, 1], W[:, 0]) + phase
        if not grad:
            return T
        r2 = W[:, 0] ** 2 + W[:, 1] ** 2
        G = np.empty_like(W)
        np.divide(-W[:, 1], r2, out=G[:, 0])
        np.divide(W[:, 0], r2, out=G[:, 1])
        G *= d
        return T, G

    ev, jac, angle = _circle_map(lift)
    return VectorField(
        2, 2, ev, jac,
        singular_set=SingularChain.points(2, [(tuple(c), d)]),
        name=f"vortex(d={d})", angle=angle,
    )


def _planar_vortex() -> VectorField:
    def lift(X, grad=False):
        # the axis is singular also past the declared segment z in [-1, 1],
        # so this field keeps its own guard, ev's, tested by hypot only
        # where it can fail: hypot(x1, x2) >= |x1|
        x1, x2 = X[:, 0], X[:, 1]
        near = np.flatnonzero(np.abs(x1) <= SINGULAR_GUARD)
        if (np.hypot(x1[near], x2[near]) <= SINGULAR_GUARD).any():
            raise SingularPoint("planar vortex evaluated on its axis")
        T = np.arctan2(x2, x1)
        if not grad:
            return T
        r2 = x1**2 + x2**2
        G = np.empty((len(T), 3))
        np.divide(-x2, r2, out=G[:, 0])
        np.divide(x1, r2, out=G[:, 1])
        G[:, 2] = 0.0
        return T, G

    def ev(X):
        r = np.hypot(X[:, 0], X[:, 1])
        if (r <= SINGULAR_GUARD).any():
            raise SingularPoint("planar vortex evaluated on its axis")
        return X[:, :2] / r[:, None]

    # the values X / r cost less than (cos T, sin T), and T is principal
    seg = ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))
    return VectorField(
        3, 2, ev, _circle_map(lift)[1],
        singular_set=SingularChain.segments(3, [(seg, 1)]),
        name="planar_vortex", angle=lift,
    )


def _unit(X):
    """x/|x| row by row."""
    return X / row_norms(X)[:, None]


def _unit_jac(X):
    """The Jacobian (I - x^ x^T)/|x| of x/|x|, with x^ = x/|x|."""
    r = row_norms(X)
    xh = X / r[:, None]
    eye = np.eye(X.shape[1])[None]
    return (eye - xh[:, :, None] * xh[:, None, :]) / r[:, None, None]


def _sphere_vortex() -> VectorField:
    return VectorField(
        3, 3, _unit, _unit_jac,
        singular_set=SingularChain.points(3, [((0.0, 0.0, 0.0), 1)]),
        name="sphere_vortex",
    )


def _constant(value) -> VectorField:
    v = np.asarray(value, dtype=float)
    if v.shape not in ((2,), (3,)):
        raise InvalidParams("constant field value must be in R^2 or R^3")
    m = v.shape[0]
    n = 2 if m == 2 else 3

    def ev(X):
        return np.broadcast_to(v, (X.shape[0], m)).copy()

    def jac(X):
        return np.zeros((X.shape[0], m, n))

    return VectorField(n, m, ev, jac, name="constant")


def _smooth_lift(f, grad_f, n) -> VectorField:
    def lift(X, grad=False):
        T = np.asarray(f(X), dtype=float)
        return (T, np.asarray(grad_f(X), dtype=float)) if grad else T

    ev, jac, angle = _circle_map(lift)
    return VectorField(n, 2, ev, None if grad_f is None else jac,
                       name="smooth_lift", angle=angle)


def chain_centers_radii(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Disk centers c_j = (1 - 2^{1-j}, 0) and radii 2^{-(j+1)}, j = 1..m."""
    j = np.arange(1, m + 1)
    centers = np.stack([1.0 - 2.0 ** (1 - j), np.zeros(m)], axis=1)
    radii = 2.0 ** (-(j + 1.0))
    return centers, radii


def _chain_angle(X, centers, radii, grad=False):
    """Target angle T of the vortex-chain map (values are (cos T, sin T)),
    and with ``grad`` also its gradient (N, 2).

    Regions: inscribed disks carry alternating-orientation vortices, the
    circumscribing squares extend the boundary trace constantly along
    horizontal lines, gap trapezoids interpolate matching half-circle
    traces, end strips extend the outermost arcs, and the two remaining
    components are the constants (1,0) above and (-1,0) below.

    x1 alone names each point's only candidate region, a search among the
    squares' sides: 0 for the lead strip, 2j + 1 for square j, 2j for the
    gap between squares j - 1 and j, and 2m for the tail strip (and for
    NaN, which sorts last); a point on a square's right side gets the gap
    or strip after it, whose angle there equals the square's.  Each region
    present is then evaluated on its own points, and its gradient on the
    same points.  Outside the disks T is a constant plus or minus
    arcsin(x2 / H), with H the region's half-height (linear in x1 across a
    gap); each region keeps only its points with |x2| <= H, so x2 / H lies
    in [-1, 1] (division rounds monotonically).  On the creases |x2| = H
    the derivative of arcsin is infinite; these points are a null set, and
    they get the gradient of the constant side, zero, so that no integral
    fails there.
    """
    m = len(radii)
    x1, x2 = X[:, 0], X[:, 1]
    sides = np.stack([centers[:, 0] - radii, centers[:, 0] + radii], axis=1)
    region = np.searchsorted(sides.ravel(), x1, "right")
    T = np.where(x2 >= 0.0, 0.0, np.pi)  # default: the two constant components
    # no region takes a NaN coordinate, so its gradient stays NaN
    G = np.where(np.isnan(X), np.nan, 0.0) if grad else None

    def arc_slope(y, H):
        # d/dy arcsin(y / H) = 1 / sqrt(H^2 - y^2), zero on the crease |y| = H
        q = (H - np.abs(y)) * (H + np.abs(y))
        return np.divide(1.0, np.sqrt(q), out=np.zeros_like(q), where=q > 0.0)

    for r in np.flatnonzero(np.bincount(region, minlength=2 * m + 1)):
        idx = np.flatnonzero(region == r)
        j = r // 2
        if r % 2:  # square j (the disk inside it)
            cx, h = centers[j, 0], radii[j]
            idx = idx[np.abs(x2[idx]) <= h]
            dx, dy = x1[idx] - cx, x2[idx]
            disk = np.hypot(dx, dy) < h
            s = np.arcsin(dy / h)
            theta = np.where(disk, np.arctan2(dy, dx),
                             np.where(dx >= 0, s, np.pi - s))
            T[idx] = theta - np.pi / 2 if j % 2 == 0 else np.pi / 2 - theta
            if grad:
                d = 1.0 if j % 2 == 0 else -1.0  # the vortex's degree
                k, kx, ky = idx[disk], dx[disk], dy[disk]
                r2 = kx**2 + ky**2
                G[k, 0] = d * (-ky / r2)
                G[k, 1] = d * (kx / r2)
                out = ~disk
                G[idx[out], 1] = (np.where(dx[out] >= 0, d, -d)
                                  * arc_slope(dy[out], h))
        elif r == 0:  # strip joining the first square to the boundary
            idx = idx[np.abs(x2[idx]) <= radii[0]]
            T[idx] = np.pi / 2 - np.arcsin(x2[idx] / radii[0])
            if grad:
                G[idx, 1] = -arc_slope(x2[idx], radii[0])
        elif r == 2 * m:  # tail strip, whose code NaN shares
            idx = idx[(x1[idx] >= centers[-1, 0] + radii[-1])
                      & (np.abs(x2[idx]) <= radii[-1])]
            s = np.arcsin(x2[idx] / radii[-1])
            T[idx] = s - np.pi / 2 if (m - 1) % 2 == 0 else np.pi / 2 - s
            if grad:
                sign = 1.0 if (m - 1) % 2 == 0 else -1.0
                G[idx, 1] = sign * arc_slope(x2[idx], radii[-1])
        else:  # gap trapezoid after square j - 1
            right = centers[j - 1, 0] + radii[j - 1]
            left = centers[j, 0] - radii[j]
            # right <= x1 < left, so lam lies in [0, 1]
            lam = (x1[idx] - right) / (left - right)
            H = radii[j - 1] + (radii[j] - radii[j - 1]) * lam
            inside = np.abs(x2[idx]) <= H
            idx, H = idx[inside], H[inside]
            s = np.arcsin(x2[idx] / H)
            T[idx] = s - np.pi / 2 if (j - 1) % 2 == 0 else np.pi / 2 - s
            if grad:
                # s = arcsin(x2 / H(x1)), H' = (h_j - h_{j-1}) / (left - right)
                y = x2[idx]
                g = (1.0 if (j - 1) % 2 == 0 else -1.0) * arc_slope(y, H)
                slope = (radii[j] - radii[j - 1]) / (left - right)
                G[idx, 0] = -slope * (y / H) * g
                G[idx, 1] = g
    return (T, G) if grad else T


def _vortex_chain(m: int) -> VectorField:
    centers, radii = chain_centers_radii(m)

    def lift(X, grad=False):
        return _chain_angle(X, centers, radii, grad)

    ev, jac, angle = _circle_map(lift)
    cells = [(tuple(centers[j]), 1 if j % 2 == 0 else -1) for j in range(m)]
    return VectorField(
        2, 2, ev, jac,
        singular_set=SingularChain.points(2, cells),
        name=f"vortex_chain(m={m})", angle=angle,
    )


_KINDS = ("vortex", "planar_vortex", "vortex_chain", "sphere_vortex", "constant",
          "smooth_lift")


def make_example_field(kind: str, **params) -> VectorField:
    """Build one of the example maps.

    Kinds: ``vortex`` (degree ``d``, optional ``center``, ``phase``),
    ``planar_vortex`` (n=3), ``vortex_chain`` (``m`` disks),
    ``sphere_vortex``, ``constant`` (``value``), ``smooth_lift``
    (callables ``f`` and optional ``grad_f``, source dimension ``n``).
    A parameter the kind does not read is refused.
    """
    if kind == "vortex":
        d = params.pop("d", 1)
        if not float(d).is_integer():
            raise InvalidParams("vortex degree must be an integer")
        field = _vortex(int(d), params.pop("center", (0.0, 0.0)),
                        float(params.pop("phase", 0.0)))
    elif kind == "planar_vortex":
        n = params.pop("n", 3)
        if n != 3:
            raise InvalidParams("planar_vortex is implemented for n=3")
        field = _planar_vortex()
    elif kind == "vortex_chain":
        m = float(params.pop("m", 3))
        if not (m.is_integer() and m >= 1):
            raise InvalidParams(f"vortex_chain needs an integer m >= 1, got {m:g}")
        field = _vortex_chain(int(m))
    elif kind == "sphere_vortex":
        field = _sphere_vortex()
    elif kind == "constant":
        field = _constant(params.pop("value", (1.0, 0.0)))
    elif kind == "smooth_lift":
        f = params.pop("f", None)
        if f is None:
            raise InvalidParams("smooth_lift needs a lift function f")
        n = float(params.pop("n", 2))
        if not n.is_integer():
            raise InvalidParams(f"smooth_lift needs an integer n, got {n:g}")
        field = _smooth_lift(f, params.pop("grad_f", None), int(n))
    else:
        raise InvalidParams(f"unknown field kind {kind!r}; choose from {_KINDS}")
    if params:
        raise InvalidParams(f"{kind} does not read {sorted(params)}")
    return field
