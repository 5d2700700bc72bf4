"""Vector fields, example maps, and pointwise differential quantities.

A :class:`VectorField` is an immutable bundle of a vectorized evaluator
``(N, n) -> (N, m)``, an optional vectorized analytic Jacobian
``(N, n) -> (N, m, n)``, and a declared singular set.  Jacobians and minor
vectors are plain ``numpy`` arrays; :func:`minors2` and
:func:`area_integrand` operate on single matrices or stacks.

All fields here are nondimensional, with lengths in units of the unit
ball/cube of the source space.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .chains import SINGULAR_GUARD, SingularChain, distance_to_chain
from .errors import InvalidParams, NonFinite, SingularPoint, StencilCrossesSingularity

#: relative central-difference step (sqrt(machine eps) balance)
FD_STEP = 1e-5


def minor_pairs(n: int) -> list[tuple[int, int]]:
    """Column index pairs (i, j), i < j, in fixed lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _as_batch(x, n):
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != n:
        raise InvalidParams(f"expected points in R^{n}, got shape {X.shape}")
    return X, single


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
    _, m, n = J.shape
    cols = minor_pairs(n)
    if m == 2:
        out = np.stack(
            [J[:, 0, i] * J[:, 1, j] - J[:, 0, j] * J[:, 1, i] for i, j in cols],
            axis=1,
        )
    elif m == 3 and n == 3:
        rows = minor_pairs(3)
        mins = [
            J[:, r1, c1] * J[:, r2, c2] - J[:, r1, c2] * J[:, r2, c1]
            for r1, r2 in rows
            for c1, c2 in cols
        ]
        det = (
            J[:, 0, 0] * (J[:, 1, 1] * J[:, 2, 2] - J[:, 1, 2] * J[:, 2, 1])
            - J[:, 0, 1] * (J[:, 1, 0] * J[:, 2, 2] - J[:, 1, 2] * J[:, 2, 0])
            + J[:, 0, 2] * (J[:, 1, 0] * J[:, 2, 1] - J[:, 1, 1] * J[:, 2, 0])
        )
        out = np.stack(mins + [det], axis=1)
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

    Immutable after construction; evaluation is pure.
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
    ):
        # sphere_valued has no effect; it stays only while
        # benchmarks/bench_workloads.py::line_field still passes it
        if not (2 <= n <= 4 and m in (2, 3)):
            raise InvalidParams(f"unsupported dimensions n={n}, m={m}")
        self.n = n
        self.m = m
        self._eval = evaluator
        self._jac = jacobian
        self.singular_set = singular_set
        self.chart_breaks = dict(chart_breaks or {})
        self.name = name

    # -- evaluation ---------------------------------------------------------

    def _check_points(self, X, dist=None):
        if self.singular_set is not None and len(self.singular_set.cells) > 0:
            d = distance_to_chain(X, self.singular_set) if dist is None else dist
            if np.any(d <= SINGULAR_GUARD):
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
        if not np.all(np.isfinite(U)):
            raise NonFinite(f"{self.name}: non-finite value off the singular set")
        return U

    def evaluate(self, x) -> np.ndarray:
        """Evaluate at a single point; errors on the singular set."""
        X, _ = _as_batch(x, self.n)
        return self.evaluate_many(X)[0]

    def __call__(self, x):
        return self.evaluate(x)

    # -- Jacobians ----------------------------------------------------------

    def jacobian_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        self._check_points(X)
        if self._jac is not None:
            J = self._jac(X)
        else:
            J = self._fd_jacobian(X)
        if not np.all(np.isfinite(J)):
            raise NonFinite(f"{self.name}: non-finite Jacobian")
        return J

    def jacobian_at(self, x) -> np.ndarray:
        """Gradient matrix (m, n) at a point, analytic or central-difference."""
        X, _ = _as_batch(x, self.n)
        return self.jacobian_many(X)[0]

    def _fd_jacobian(self, X):
        N = X.shape[0]
        h = FD_STEP * np.maximum(1.0, np.linalg.norm(X, axis=1))
        if self.singular_set is not None and len(self.singular_set.cells) > 0:
            d = distance_to_chain(X, self.singular_set)
            if np.any(d <= 1.01 * h * math.sqrt(self.n)):
                raise StencilCrossesSingularity(
                    "finite-difference stencil too near the singular set"
                )
        J = np.empty((N, self.m, self.n))
        for a in range(self.n):
            E = np.zeros_like(X)
            E[:, a] = h
            up = self._eval(X + E)
            dn = self._eval(X - E)
            J[:, :, a] = (up - dn) / (2.0 * h)[:, None]
        return J


# ---------------------------------------------------------------------------
# example maps
# ---------------------------------------------------------------------------


def _vortex(d: int, center, phase: float) -> VectorField:
    c = np.asarray(center, dtype=float)

    def ev(X):
        W = X - c
        r = np.hypot(W[:, 0], W[:, 1])
        if np.any(r <= SINGULAR_GUARD):
            raise SingularPoint("vortex evaluated at its center")
        t = d * np.arctan2(W[:, 1], W[:, 0]) + phase
        return np.stack([np.cos(t), np.sin(t)], axis=1)

    def jac(X):
        W = X - c
        r2 = W[:, 0] ** 2 + W[:, 1] ** 2
        if np.any(r2 <= SINGULAR_GUARD**2):
            raise SingularPoint("vortex Jacobian at its center")
        t = d * np.arctan2(W[:, 1], W[:, 0]) + phase
        uperp = np.stack([-np.sin(t), np.cos(t)], axis=1)
        gt = np.stack([-W[:, 1] / r2, W[:, 0] / r2], axis=1)
        return d * uperp[:, :, None] * gt[:, None, :]

    return VectorField(
        2, 2, ev, jac,
        singular_set=SingularChain.points(2, [(tuple(c), d if d != 0 else 1)]),
        name=f"vortex(d={d})",
    )


def _planar_vortex() -> VectorField:
    def ev(X):
        r = np.hypot(X[:, 0], X[:, 1])
        if np.any(r <= SINGULAR_GUARD):
            raise SingularPoint("planar vortex evaluated on its axis")
        return X[:, :2] / r[:, None]

    def jac(X):
        r2 = X[:, 0] ** 2 + X[:, 1] ** 2
        if np.any(r2 <= SINGULAR_GUARD**2):
            raise SingularPoint("planar vortex Jacobian on its axis")
        r = np.sqrt(r2)
        t = np.arctan2(X[:, 1], X[:, 0])
        uperp = np.stack([-np.sin(t), np.cos(t)], axis=1)
        gt = np.stack([-X[:, 1] / r2, X[:, 0] / r2, np.zeros_like(r)], axis=1)
        return uperp[:, :, None] * gt[:, None, :]

    seg = ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))
    return VectorField(
        3, 2, ev, jac,
        singular_set=SingularChain.segments(3, [(seg, 1)]),
        name="planar_vortex",
    )


def _sphere_vortex() -> VectorField:
    def ev(X):
        r = np.linalg.norm(X, axis=1)
        if np.any(r <= SINGULAR_GUARD):
            raise SingularPoint("sphere vortex evaluated at the origin")
        return X / r[:, None]

    def jac(X):
        r = np.linalg.norm(X, axis=1)
        if np.any(r <= SINGULAR_GUARD):
            raise SingularPoint("sphere vortex Jacobian at the origin")
        xh = X / r[:, None]
        eye = np.eye(3)[None]
        return (eye - xh[:, :, None] * xh[:, None, :]) / r[:, None, None]

    return VectorField(
        3, 3, ev, jac,
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
    def ev(X):
        t = np.asarray(f(X), dtype=float)
        return np.stack([np.cos(t), np.sin(t)], axis=1)

    jc = None
    if grad_f is not None:
        def jc(X):
            t = np.asarray(f(X), dtype=float)
            g = np.asarray(grad_f(X), dtype=float)
            uperp = np.stack([-np.sin(t), np.cos(t)], axis=1)
            return uperp[:, :, None] * g[:, None, :]

    return VectorField(n, 2, ev, jc, name="smooth_lift")


def chain_centers_radii(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Disk centers c_j = (1 - 2^{1-j}, 0) and radii 2^{-(j+1)}, j = 1..m."""
    j = np.arange(1, m + 1)
    centers = np.stack([1.0 - 2.0 ** (1 - j), np.zeros(m)], axis=1)
    radii = 2.0 ** (-(j + 1.0))
    return centers, radii


def _chain_keys(centers, radii):
    """Square sides as ``np.searchsorted(keys, x1, "right")`` keys.

    The search gives each point its region code: 0 for the lead strip,
    2j + 1 for square j, 2j for the gap between squares j - 1 and j, and 2m
    for the tail strip (and for NaN, which sorts last).  A point on a
    square's right side gets the gap or strip after it, whose angle there
    equals the square's.
    """
    return np.stack([centers[:, 0] - radii, centers[:, 0] + radii], axis=1).ravel()


def _chain_angle(X, centers, radii, region=None):
    """Target angle of the vortex-chain map (values are (cos T, sin T)).

    Regions: inscribed disks carry alternating-orientation vortices, the
    circumscribing squares extend the boundary trace constantly along
    horizontal lines, gap trapezoids interpolate matching half-circle
    traces, end strips extend the outermost arcs, and the two remaining
    components are the constants (1,0) above and (-1,0) below.

    x1 alone names each point's only candidate region (``region``, the
    codes of :func:`_chain_keys`); each region present is then evaluated
    on its own points.
    """
    m = len(radii)
    x1, x2 = X[:, 0], X[:, 1]
    if region is None:
        region = np.searchsorted(_chain_keys(centers, radii), x1, "right")
    T = np.where(x2 >= 0.0, 0.0, np.pi)  # default: the two constant components

    def arc_angle(s):
        return np.arcsin(np.clip(s, -1.0, 1.0))

    for r in np.flatnonzero(np.bincount(region, minlength=2 * m + 1)):
        idx = np.flatnonzero(region == r)
        j = r // 2
        if r % 2:  # square j (the disk inside it)
            cx, h = centers[j, 0], radii[j]
            idx = idx[np.abs(x2[idx]) <= h]
            dx, dy = x1[idx] - cx, x2[idx]
            rr = np.hypot(dx, dy)
            theta = np.where(
                rr < h,
                np.arctan2(dy, dx),
                np.where(dx >= 0, arc_angle(dy / h), np.pi - arc_angle(dy / h)),
            )
            T[idx] = theta - np.pi / 2 if j % 2 == 0 else np.pi / 2 - theta
        elif r == 0:  # strip joining the first square to the boundary
            idx = idx[np.abs(x2[idx]) <= radii[0]]
            T[idx] = np.pi / 2 - arc_angle(x2[idx] / radii[0])
        elif r == 2 * m:  # tail strip, whose code NaN shares
            idx = idx[(x1[idx] >= centers[-1, 0] + radii[-1])
                      & (np.abs(x2[idx]) <= radii[-1])]
            s = arc_angle(x2[idx] / radii[-1])
            T[idx] = s - np.pi / 2 if (m - 1) % 2 == 0 else np.pi / 2 - s
        else:  # gap trapezoid after square j - 1
            right = centers[j - 1, 0] + radii[j - 1]
            left = centers[j, 0] - radii[j]
            lam = (x1[idx] - right) / (left - right)
            H = radii[j - 1] + (radii[j] - radii[j - 1]) * np.clip(lam, 0.0, 1.0)
            inside = np.abs(x2[idx]) <= H
            idx = idx[inside]
            s = arc_angle(x2[idx] / H[inside])
            T[idx] = s - np.pi / 2 if (j - 1) % 2 == 0 else np.pi / 2 - s
    return T


def _vortex_chain(m: int) -> VectorField:
    centers, radii = chain_centers_radii(m)
    keys = _chain_keys(centers, radii)

    def squares(X):
        """Region codes of X and, for the points with c - h <= x1 < c + h of
        a square, their indices, square and offsets (x1 - c, x2) from its
        centre."""
        region = np.searchsorted(keys, X[:, 0], "right")
        idx = np.flatnonzero(region % 2)
        j = region[idx] // 2
        return region, idx, j, X[idx, 0] - centers[j, 0], X[idx, 1]

    def ev(X):
        # only a point's own square can hold a centre within the guard
        region, _, _, dx, dy = squares(X)
        if np.any(np.sqrt(dx * dx + dy * dy) <= SINGULAR_GUARD):
            raise SingularPoint("vortex chain evaluated at a disk center")
        T = _chain_angle(X, centers, radii, region)
        return np.stack([np.cos(T), np.sin(T)], axis=1)

    def jac(X):
        # analytic inside the open disks (where the studies integrate),
        # central differences in the interpolation regions
        J = np.empty((X.shape[0], 2, 2))
        _, idx, j, dx, dy = squares(X)
        r2 = dx**2 + dy**2
        disk = r2 < (0.999 * radii[j]) ** 2
        idx, j, dx, dy, r2 = idx[disk], j[disk], dx[disk], dy[disk], r2[disk]
        theta = np.arctan2(dy, dx)
        odd = j % 2 == 0  # paper indices start at 1
        T = np.where(odd, theta - np.pi / 2, np.pi / 2 - theta)
        uperp = np.stack([-np.sin(T), np.cos(T)], axis=1)
        gt = np.stack([-dy / r2, dx / r2], axis=1)
        d = np.where(odd, 1.0, -1.0)[:, None, None]
        J[idx] = d * uperp[:, :, None] * gt[:, None, :]
        rest = np.ones(X.shape[0], dtype=bool)
        rest[idx] = False
        if np.any(rest):
            sub = VectorField(2, 2, ev, None, name="chain-fd")
            J[rest] = sub._fd_jacobian(X[rest])
        return J

    cells = [(tuple(centers[j]), 1 if j % 2 == 0 else -1) for j in range(m)]
    return VectorField(
        2, 2, ev, jac,
        singular_set=SingularChain.points(2, cells),
        name=f"vortex_chain(m={m})",
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
        field = _smooth_lift(f, params.pop("grad_f", None), int(params.pop("n", 2)))
    else:
        raise InvalidParams(f"unknown field kind {kind!r}; choose from {_KINDS}")
    if params:
        raise InvalidParams(f"{kind} does not read {sorted(params)}")
    return field
