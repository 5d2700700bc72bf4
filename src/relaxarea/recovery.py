"""Explicit approximating maps used to realize the relaxed-energy bounds.

Constructions: 2d vortex core smoothing (homotopy ring plus linear core),
the cone dipole around a codimension-2 segment, zero-homogeneous removal
of point and codimension>=3 singularities with rescaled smooth fillers,
and the two 3d counterexample sequences (ball fill and sphere-sweeping
cylinder fill) together with the 2d analogue of the latter.

Every builder returns a plain :class:`~relaxarea.fields.VectorField` that
agrees with its input outside the declared modification region.  Homotopy
rings interpolate angle lifts linearly in the radial parameter; the lift
offset is the principal-branch angle between the trace and the reference
vortex, which is the unique continuous matching-winding lift as long as
the trace never comes close to antipodal (checked at construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import SingularChain
from .domains import Annulus, Ball, Cone, Domain
from .errors import DegreeMismatch, InvalidGeometry, InvalidParams
from .fields import VectorField
from .quadrature import QuadratureResult, graph_functionals
from .topology import Circle, winding_number

#: homotopy rings refuse traces that come this close (radians) to antipodal
LIFT_PINCH = math.pi - 0.1


def _wrap(d):
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _target_angle_grad(U, dU):
    """d/ds of atan2(U2, U1) given dU/ds, vectorized."""
    return (U[:, 0] * dU[:, 1] - U[:, 1] * dU[:, 0]) / (U[:, 0] ** 2 + U[:, 1] ** 2)


def _circle_frame(ang):
    """The unit vectors (cos, sin) and (-sin, cos) of each angle."""
    c, s = np.cos(ang), np.sin(ang)
    return np.stack([c, s], axis=1), np.stack([-s, c], axis=1)


def _piecewise(n, m, classify, pieces):
    """Value and Jacobian functions of a field given region by region.

    ``classify(X)`` gives each row a region code in ``range(len(pieces))``
    and ``pieces[k]`` is region k's ``(ev, jac)`` pair, called once on
    exactly its rows and never on an empty region.  Region 0 is the input
    field.  Every classifier counts codes as a sum of comparisons, all
    false on a NaN row, so region 0 takes every row that no other region
    claims, NaN rows included, and every row is written once.
    """

    def assemble(X, which, shape):
        code = classify(X)
        out = np.empty((X.shape[0],) + shape)
        for k, piece in enumerate(pieces):
            rows = code == k
            if np.any(rows):
                out[rows] = piece[which](X[rows])
        return out

    return (lambda X: assemble(X, 0, (m,)),
            lambda X: assemble(X, 1, (m, n)))


def _check_filler(field, filler):
    """Refuse a filler whose (n, m) is not the field's."""
    if (filler.n, filler.m) != (field.n, field.m):
        raise InvalidParams(f"filler has (n, m) = {(filler.n, filler.m)} but "
                            f"the field has {(field.n, field.m)}")


def _pullback(v, phi):
    """``(ev, jac)`` of ``v o phi``, where ``phi(X)`` gives ``(Y, Dphi)``.

    ``Dphi`` is an (N, n, n) stack, or the (n,) diagonal of one linear map
    shared by every row (a rescaled core), which scales the columns of
    ``Jv`` without a matrix product.
    """

    def jac(X):
        Y, D = phi(X)
        Jv = v.jacobian_many(Y)
        return Jv * D if D.ndim == 1 else np.einsum("nij,njk->nik", Jv, D)

    return lambda X: v.evaluate_many(phi(X)[0]), jac


# ---------------------------------------------------------------------------
# 2d vortex smoothing
# ---------------------------------------------------------------------------


def vortex_smoothing_2d(field: VectorField, center, d: int, eps: float) -> VectorField:
    """Replace the field inside B_eps(center) by a smooth degree-d cap.

    Outside B_eps the input is untouched; on eps/2 <= rho <= eps a homotopy
    ring deforms (cos d theta, sin d theta) onto the boundary trace; inside,
    the linear core (2 rho / eps) (cos d theta, sin d theta).
    """
    if field.n != 2 or field.m != 2:
        raise InvalidParams("vortex_smoothing_2d expects an n=2, m=2 field")
    if not 0 < eps < math.inf:
        raise InvalidParams(f"eps must be positive and finite, got {eps!r}")
    c = np.asarray(center, dtype=float)
    if not np.all(np.isfinite(c)):
        raise InvalidGeometry(f"center must be finite, got {center!r}")
    wd = winding_number(field, Circle(tuple(c), eps), samples=256)
    if wd != d:
        raise DegreeMismatch(f"winding on the eps-circle is {wd}, expected {d}")

    def trace(theta):
        e_rho, e_th = _circle_frame(theta)
        pts = c + eps * e_rho
        U = field.evaluate_many(pts)
        J = field.jacobian_many(pts)
        dU = np.einsum("nij,nj->ni", J, eps * e_th)
        tr = np.arctan2(U[:, 1], U[:, 0])
        g = _wrap(tr - d * theta)
        dg = _target_angle_grad(U, dU) - d
        return g, dg

    probe = np.linspace(-math.pi, math.pi, 256, endpoint=False)
    gmax = float(np.max(np.abs(trace(probe)[0])))
    if gmax > LIFT_PINCH:
        raise InvalidParams(
            "boundary trace too far from the reference vortex for a "
            "shortest-arc homotopy ring"
        )

    def polar(X):
        W = X - c
        return np.hypot(W[:, 0], W[:, 1]), np.arctan2(W[:, 1], W[:, 0])

    def classify(X):
        rho, _ = polar(X)
        return np.add(rho < eps, rho < eps / 2, dtype=np.int8)

    def ring_ev(X):
        rho, theta = polar(X)
        g, _ = trace(theta)
        return _circle_frame(d * theta + (2.0 * rho / eps - 1.0) * g)[0]

    def ring_jac(X):
        rho, theta = polar(X)
        g, dg = trace(theta)
        e_rho, e_th = _circle_frame(theta)
        t = 2.0 * rho / eps - 1.0
        grad_ang = (((d + t * dg) / rho)[:, None] * e_th
                    + (2.0 * g / eps)[:, None] * e_rho)
        uperp = _circle_frame(d * theta + t * g)[1]
        return uperp[:, :, None] * grad_ang[:, None, :]

    def core_ev(X):
        rho, theta = polar(X)
        return (2.0 * rho / eps)[:, None] * _circle_frame(d * theta)[0]

    def core_jac(X):
        _, theta = polar(X)
        e_rho, e_th = _circle_frame(theta)
        e, eperp = _circle_frame(d * theta)
        return (2.0 / eps) * (e[:, :, None] * e_rho[:, None, :]
                              + d * eperp[:, :, None] * e_th[:, None, :])

    keep = None
    if field.singular_set is not None:
        keep = field.singular_set.filtered(
            lambda p: float(np.linalg.norm(p - c)) >= eps
        )
    ev, jac = _piecewise(2, 2, classify, [
        (field.evaluate_many, field.jacobian_many), (ring_ev, ring_jac),
        (core_ev, core_jac)])
    return VectorField(
        2, 2, ev, jac, singular_set=keep,
        chart_breaks={"r": (eps / 2, float(eps))},
        name=f"{field.name}+smooth(eps={eps:g})",
    )


# ---------------------------------------------------------------------------
# cone dipole (n = 3, segment on the last axis)
# ---------------------------------------------------------------------------


def cone_dipole(field: VectorField, base, d: int, eps: float) -> VectorField:
    """Remove the codimension-2 dipole over the base segment [a, b].

    Inside the cone |x~| <= eps * dist(z, {a, b}) the map becomes a
    homotopy shell (outer half) over a linear degree-d core (inner half),
    with traces matching the input on the cone boundary.
    """
    if field.n != 3 or field.m != 2:
        raise InvalidParams("cone_dipole expects an n=3, m=2 field")
    cone = Cone(3, base, eps)
    a, b = cone.a, cone.b
    mid = 0.5 * (a + b)

    wd = winding_number(field, Circle((0.0, 0.0, mid),
                                      cone.profile(np.array([mid]))[0]),
                        samples=256)
    if wd != d:
        raise DegreeMismatch(f"winding around the segment is {wd}, expected {d}")

    def trace(theta, z):
        r = cone.profile(z)
        pts = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
        U = field.evaluate_many(pts)
        J = field.jacobian_many(pts)
        tr = np.arctan2(U[:, 1], U[:, 0])
        g = _wrap(tr - d * theta)
        dth = np.stack([-r * np.sin(theta), r * np.cos(theta), np.zeros_like(r)],
                       axis=1)
        slope = cone.slope(z)
        dz = np.stack([slope * np.cos(theta), slope * np.sin(theta),
                       np.ones_like(r)], axis=1)
        g_th = _target_angle_grad(U, np.einsum("nij,nj->ni", J, dth)) - d
        g_z = _target_angle_grad(U, np.einsum("nij,nj->ni", J, dz))
        return g, g_th, g_z

    tt, zz = np.meshgrid(
        np.linspace(-math.pi, math.pi, 64, endpoint=False),
        np.linspace(a + (b - a) / 64, b - (b - a) / 64, 33),
        indexing="ij",
    )
    gmax = float(np.max(np.abs(trace(tt.ravel(), zz.ravel())[0])))
    if gmax > LIFT_PINCH:
        raise InvalidParams(
            "trace too far from the reference vortex for a shortest-arc homotopy"
        )

    def cylinder(X):
        z = X[:, 2]
        return (np.hypot(X[:, 0], X[:, 1]), np.arctan2(X[:, 1], X[:, 0]), z,
                cone.profile(z))

    def gradients(rho, theta, z, r):
        """e_theta, e_z and the gradient of 2 rho / r(z)."""
        zeros = np.zeros_like(theta)
        e_rho = np.stack([np.cos(theta), np.sin(theta), zeros], axis=1)
        e_th = np.stack([-np.sin(theta), np.cos(theta), zeros], axis=1)
        e_z = np.stack([zeros, zeros, np.ones_like(theta)], axis=1)
        return e_th, e_z, ((2.0 / r)[:, None] * e_rho
                           - (2.0 * rho * cone.slope(z) / r**2)[:, None] * e_z)

    def classify(X):
        rho, _, z, r = cylinder(X)
        inside = (z > a) & (z < b) & (rho <= r)
        return np.add(inside, inside & (rho < r / 2), dtype=np.int8)

    def ring_ev(X):
        rho, theta, z, r = cylinder(X)
        g, _, _ = trace(theta, z)
        return _circle_frame(d * theta + (2.0 * rho / r - 1.0) * g)[0]

    def ring_jac(X):
        rho, theta, z, r = cylinder(X)
        g, g_th, g_z = trace(theta, z)
        e_th, e_z, grad_t = gradients(rho, theta, z, r)
        t = 2.0 * rho / r - 1.0
        grad_ang = (
            ((d + t * g_th) / rho)[:, None] * e_th
            + g[:, None] * grad_t
            + (t * g_z)[:, None] * e_z
        )
        uperp = _circle_frame(d * theta + t * g)[1]
        return uperp[:, :, None] * grad_ang[:, None, :]

    def core_ev(X):
        rho, theta, _, r = cylinder(X)
        return (2.0 * rho / r)[:, None] * _circle_frame(d * theta)[0]

    def core_jac(X):
        rho, theta, z, r = cylinder(X)
        e_th, _, grad_s = gradients(rho, theta, z, r)
        e, eperp = _circle_frame(d * theta)
        return (
            e[:, :, None] * grad_s[:, None, :]
            + (d * (2.0 / r))[:, None, None] * eperp[:, :, None] * e_th[:, None, :]
        )

    sing = SingularChain.points(3, [((0.0, 0.0, a), d if d else 1),
                                    ((0.0, 0.0, b), d if d else 1)])
    if field.singular_set is not None:
        extra = field.singular_set.filtered(
            lambda p: not bool(cone.membership(p[None, :])[0])
        )
        # cells whose midpoint survived outside the cone stay singular
        pts = [(np.asarray(s if extra.k == 0 else 0.5 * (s[0] + s[1])), m)
               for s, m in extra.cells]
        sing = SingularChain.points(3, list(sing.cells) + pts) if pts else sing
    ev, jac = _piecewise(3, 2, classify, [
        (field.evaluate_many, field.jacobian_many), (ring_ev, ring_jac),
        (core_ev, core_jac)])
    return VectorField(
        3, 2, ev, jac, singular_set=sing, chart_breaks={"t": (0.5,)},
        name=f"{field.name}+dipole(eps={eps:g})",
    )


# ---------------------------------------------------------------------------
# removal of point singularities (n >= 3)
# ---------------------------------------------------------------------------


def remove_point_singularity(field: VectorField, center, r: float, delta: float,
                             filler: VectorField) -> VectorField:
    """Zero-homogeneous ring plus rescaled smooth filler around a point defect.

    w = field outside B_r; field(r x/|x|) on the ring delta < |x| < r; the
    filler rescaled by r/delta inside B_delta.  The filler must be smooth on
    B_r(center) with boundary trace matching the field.
    """
    n = field.n
    if n < 3:
        raise InvalidParams("point-singularity removal needs n >= 3")
    _check_filler(field, filler)
    if not 0.0 < delta < r < math.inf:
        raise InvalidGeometry(f"need 0 < delta < r < inf, got delta={delta!r}, "
                              f"r={r!r}")
    c = np.asarray(center, dtype=float)
    if not np.all(np.isfinite(c)):
        raise InvalidGeometry(f"center must be finite, got {center!r}")
    scale = r / delta

    def classify(X):
        rho = np.linalg.norm(X - c, axis=1)
        return np.add(rho < r, rho <= delta, dtype=np.int8)

    def radial(X):
        W = X - c
        rho = np.linalg.norm(W, axis=1)
        Wr = W / rho[:, None]
        P = np.eye(n)[None] - Wr[:, :, None] * Wr[:, None, :]
        return c + r * Wr, (r / rho)[:, None, None] * P

    def rescaled(X):
        return c + scale * (X - c), np.full(n, scale)

    keep = None
    if field.singular_set is not None:
        keep = field.singular_set.filtered(
            lambda p: float(np.linalg.norm(p - c)) >= r
        )
    ev, jac = _piecewise(n, field.m, classify, [
        (field.evaluate_many, field.jacobian_many), _pullback(field, radial),
        _pullback(filler, rescaled)])
    return VectorField(n, field.m, ev, jac, singular_set=keep,
                       chart_breaks={"r": (float(delta), float(r))},
                       name=f"{field.name}+point_removal(r={r:g})")


# ---------------------------------------------------------------------------
# homogeneous cone extension (n = 4, codimension 3)
# ---------------------------------------------------------------------------


def homogeneous_cone_extension(field: VectorField, base, eps: float,
                               delta: float | None = None,
                               filler: VectorField | None = None) -> VectorField:
    """Zero-homogeneous shell and rescaled core over a codimension-3 segment.

    The field must be smooth in a cone neighborhood of the base segment
    minus the segment itself; delta defaults to eps^2 so that the rescaled
    shell terms vanish without tuning.
    """
    if field.n != 4:
        raise InvalidParams("the codimension-3 instantiation lives in n=4")
    cone = Cone(4, base, eps, codim=3)
    if delta is None:
        delta = eps * eps
    if not 0.0 < delta < eps:
        raise InvalidGeometry("need 0 < delta < eps")
    if filler is None:
        raise InvalidParams("a smooth filler with matching trace is required")
    _check_filler(field, filler)
    frac = delta / eps
    scale = eps / delta

    def classify(X):
        rho = np.linalg.norm(X[:, :3], axis=1)
        z = X[:, 3]
        r = cone.profile(z)
        inside = (z > cone.a) & (z < cone.b) & (rho <= r)
        return np.add(inside, inside & (rho <= frac * r), dtype=np.int8)

    def homogeneous(X):
        rho = np.linalg.norm(X[:, :3], axis=1)
        r = cone.profile(X[:, 3])
        W = X[:, :3] / rho[:, None]
        Y = X.copy()
        Y[:, :3] = r[:, None] * W
        D = np.zeros((X.shape[0], 4, 4))
        P = np.eye(3)[None] - W[:, :, None] * W[:, None, :]
        D[:, :3, :3] = (r / rho)[:, None, None] * P
        D[:, :3, 3] = cone.slope(X[:, 3])[:, None] * W
        D[:, 3, 3] = 1.0
        return Y, D

    def rescaled(X):
        Y = X.copy()
        Y[:, :3] *= scale
        return Y, np.array([scale, scale, scale, 1.0])

    keep = None
    if field.singular_set is not None:
        keep = field.singular_set.filtered(
            lambda p: not bool(cone.membership(p[None, :])[0])
        )
    ev, jac = _piecewise(4, field.m, classify, [
        (field.evaluate_many, field.jacobian_many),
        _pullback(field, homogeneous), _pullback(filler, rescaled)])
    return VectorField(4, field.m, ev, jac, singular_set=keep,
                       chart_breaks={"t": (frac,)},
                       name=f"{field.name}+cone_ext(eps={eps:g})")


# ---------------------------------------------------------------------------
# counterexample sequences (n = m = 3) and the 2d analogue
# ---------------------------------------------------------------------------


def counterexample_sequence(variant: str, k: int) -> VectorField:
    """Smooth fillings of the 3d vortex hole: ball insertion or sphere sweep.

    ``ball``: x/|x| outside B_{1/k}, k x inside (covers the target ball once).
    ``cylinder``: x/|x| outside the cone of half-angle 1/k around the +z
    axis; inside the cone each sphere |x| = r in (1/k, 1) sweeps the target
    latitudes from 1/k down to the south pole with orientation opposite to
    the ambient vortex (total degree 0), leaving only the polar cap of
    angular radius 1/k uncovered; inside B_{1/k} the boundary map contracts
    to the south pole.
    """
    if int(k) != k or k < 2:
        raise InvalidParams("counterexample_sequence needs integer k >= 2")
    k = int(k)
    if variant == "ball":
        return _ball_variant(k)
    if variant == "cylinder":
        return _cylinder_variant(k)
    raise InvalidParams("variant must be 'ball' or 'cylinder'")


def _ball_variant(k: int) -> VectorField:
    def ev(X):
        r = np.linalg.norm(X, axis=1)
        out = np.where(r[:, None] >= 1.0 / k,
                       X / np.maximum(r, 1e-300)[:, None],
                       k * X)
        return out

    def jac(X):
        r = np.linalg.norm(X, axis=1)
        J = np.empty((X.shape[0], 3, 3))
        far = r >= 1.0 / k
        if np.any(far):
            xh = X[far] / r[far][:, None]
            J[far] = (np.eye(3)[None] - xh[:, :, None] * xh[:, None, :]) \
                / r[far][:, None, None]
        if np.any(~far):
            J[~far] = k * np.eye(3)[None]
        return J

    return VectorField(3, 3, ev, jac, chart_breaks={"r": (1.0 / k,)},
                       name=f"counterexample_ball(k={k})")


def _cylinder_profile(k: int):
    alpha = 1.0 / k

    def theta_bd(phi):
        """Target latitude profile on spheres of radius >= 1/k."""
        return np.where(phi >= alpha, phi, math.pi - (math.pi - alpha) * phi / alpha)

    def theta_bd_prime(phi):
        return np.where(phi >= alpha, 1.0, -(math.pi - alpha) / alpha)

    return alpha, theta_bd, theta_bd_prime


def _cylinder_variant(k: int) -> VectorField:
    alpha, theta_bd, theta_bd_prime = _cylinder_profile(k)
    rk = 1.0 / k

    def _spherical(X):
        r = np.linalg.norm(X, axis=1)
        rho = np.hypot(X[:, 0], X[:, 1])
        phi = np.arctan2(rho, X[:, 2])
        psi = np.arctan2(X[:, 1], X[:, 0])
        return r, phi, psi

    def _theta(r, phi):
        tb = theta_bd(phi)
        return np.where(r >= rk, tb, math.pi + r * k * (tb - math.pi))

    def ev(X):
        r, phi, psi = _spherical(X)
        th = _theta(r, phi)
        st = np.sin(th)
        return np.stack([st * np.cos(psi), st * np.sin(psi), np.cos(th)], axis=1)

    def jac(X):
        r, phi, psi = _spherical(X)
        r = np.maximum(r, 1e-300)
        tb = theta_bd(phi)
        tbp = theta_bd_prime(phi)
        fill = r < rk
        th = np.where(fill, math.pi + r * k * (tb - math.pi), tb)
        th_r = np.where(fill, k * (tb - math.pi), 0.0)
        th_phi = np.where(fill, r * k * tbp, tbp)
        ct, st = np.cos(th), np.sin(th)
        cps, sps = np.cos(psi), np.sin(psi)
        u_th = np.stack([ct * cps, ct * sps, -st], axis=1)
        u_psi = np.stack([-st * sps, st * cps, np.zeros_like(st)], axis=1)
        cphi, sphi = np.cos(phi), np.sin(phi)
        e_r = np.stack([sphi * cps, sphi * sps, cphi], axis=1)
        e_phi = np.stack([cphi * cps, cphi * sps, -sphi], axis=1)
        e_psi = np.stack([-sps, cps, np.zeros_like(cps)], axis=1)
        grad_th = th_r[:, None] * e_r + (th_phi / r)[:, None] * e_phi
        # u_psi already carries sin(theta); divide by the metric factor
        safe_sphi = np.maximum(sphi, 1e-300)
        grad_psi = e_psi / (r * safe_sphi)[:, None]
        return u_th[:, :, None] * grad_th[:, None, :] \
            + u_psi[:, :, None] * grad_psi[:, None, :]

    return VectorField(3, 3, ev, jac, chart_breaks={"r": (rk,), "phi": (alpha,)},
                       name=f"counterexample_cylinder(k={k})")


def cylinder_analogue_2d(k: int) -> VectorField:
    """2d analogue of the sphere-sweeping sequence (the negative control).

    The vortex map outside a sector of half-angle 1/k about the +x axis;
    inside, the target angle runs backwards once around the circle, making
    the boundary degree 0; inside B_{1/k} the loop contracts to a point.
    Total variation concentrates ~2 pi of extra length, so the sequence is
    not BV-strict.
    """
    if int(k) != k or k < 2:
        raise InvalidParams("cylinder_analogue_2d needs integer k >= 2")
    k = int(k)
    alpha = 1.0 / k
    rk = 1.0 / k
    T0 = -math.pi

    def t_bd(theta):
        """Continuous lift of the boundary angle over theta in (-pi, pi]."""
        sweep = -alpha + (theta + alpha) * (1.0 - math.pi / alpha)
        return np.where(
            theta < -alpha, theta, np.where(theta <= alpha, sweep, theta - 2 * math.pi)
        )

    def t_bd_prime(theta):
        return np.where(np.abs(theta) <= alpha, 1.0 - math.pi / alpha, 1.0)

    def _polar(X):
        r = np.hypot(X[:, 0], X[:, 1])
        theta = np.arctan2(X[:, 1], X[:, 0])
        return r, theta

    def ev(X):
        r, theta = _polar(X)
        tb = t_bd(theta)
        T = np.where(r >= rk, tb, T0 + r * k * (tb - T0))
        return np.stack([np.cos(T), np.sin(T)], axis=1)

    def jac(X):
        r, theta = _polar(X)
        r = np.maximum(r, 1e-300)
        tb = t_bd(theta)
        tbp = t_bd_prime(theta)
        fill = r < rk
        T = np.where(fill, T0 + r * k * (tb - T0), tb)
        T_r = np.where(fill, k * (tb - T0), 0.0)
        T_th = np.where(fill, r * k * tbp, tbp)
        e_r = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        e_th = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
        grad_T = T_r[:, None] * e_r + (T_th / r)[:, None] * e_th
        uperp = np.stack([-np.sin(T), np.cos(T)], axis=1)
        return uperp[:, :, None] * grad_T[:, None, :]

    return VectorField(2, 2, ev, jac,
                       chart_breaks={"r": (rk,), "theta": (-alpha, alpha)},
                       name=f"cylinder_analogue_2d(k={k})")


# ---------------------------------------------------------------------------
# defect test fields and fillers
# ---------------------------------------------------------------------------


def disk_defect_field_3d() -> VectorField:
    """(x1, x2)/|x| on B^3: a D^2-valued point defect at the origin."""

    def ev(X):
        r = np.linalg.norm(X, axis=1)
        return X[:, :2] / np.maximum(r, 1e-300)[:, None]

    def jac(X):
        r = np.linalg.norm(X, axis=1)
        J = np.zeros((X.shape[0], 2, 3))
        J[:, 0, 0] = J[:, 1, 1] = 1.0
        J /= r[:, None, None]
        J -= X[:, :2, None] * X[:, None, :] / (r**3)[:, None, None]
        return J

    return VectorField(
        3, 2, ev, jac,
        singular_set=SingularChain.points(3, [((0.0, 0.0, 0.0), 1)]),
        name="disk_defect_3d",
    )


def linear_disk_filler(r: float) -> VectorField:
    """Smooth filler (y1, y2)/r matching the disk-defect trace on |y| = r."""

    def ev(X):
        return X[:, :2] / r

    def jac(X):
        J = np.zeros((X.shape[0], 2, 3))
        J[:, 0, 0] = J[:, 1, 1] = 1.0 / r
        return J

    return VectorField(3, 2, ev, jac, name=f"linear_filler(r={r:g})")


def cone_defect_field_4d(base=(-1.0, 1.0)) -> VectorField:
    """(x1, x2)(1 + |x~|^2)/|x~| in R^4, singular on the codimension-3 axis.

    Deliberately not zero-homogeneous in x~, so the homogeneous shell of
    the cone extension is a genuine modification.
    """
    a, b = float(base[0]), float(base[1])

    def ev(X):
        rho = np.linalg.norm(X[:, :3], axis=1)
        q = 1.0 / np.maximum(rho, 1e-300) + rho
        return X[:, :2] * q[:, None]

    def jac(X):
        rho = np.linalg.norm(X[:, :3], axis=1)
        rho = np.maximum(rho, 1e-300)
        q = 1.0 / rho + rho
        dq = (1.0 - 1.0 / rho**2)  # dq/drho
        J = np.zeros((X.shape[0], 2, 4))
        J[:, 0, 0] = q
        J[:, 1, 1] = q
        J[:, :, :3] += X[:, :2, None] * (dq / rho)[:, None, None] * X[:, None, :3]
        return J

    seg = ((0.0, 0.0, 0.0, a - 0.5), (0.0, 0.0, 0.0, b + 0.5))
    return VectorField(
        4, 2, ev, jac,
        singular_set=SingularChain.segments(4, [(seg, 1)]),
        name="cone_defect_4d",
    )


def cone_defect_filler(base, eps: float) -> VectorField:
    """Filler (y1, y2)(1 + r_eps(z)^2)/r_eps(z) matching the 4d defect trace."""
    cone = Cone(4, base, eps, codim=3)

    def ev(X):
        r = np.maximum(cone.profile(X[:, 3]), 1e-300)
        q = 1.0 / r + r
        return X[:, :2] * q[:, None]

    def jac(X):
        r = np.maximum(cone.profile(X[:, 3]), 1e-300)
        q = 1.0 / r + r
        dq = (1.0 - 1.0 / r**2) * cone.slope(X[:, 3])
        J = np.zeros((X.shape[0], 2, 4))
        J[:, 0, 0] = q
        J[:, 1, 1] = q
        J[:, :, 3] = X[:, :2] * dq[:, None]
        return J

    return VectorField(4, 2, ev, jac, name="cone_defect_filler")


# ---------------------------------------------------------------------------
# graph-mass reports for the removal constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphMassReport:
    """Area mass and its gradient/minor components over one region."""

    mass: QuadratureResult
    grad: QuadratureResult
    minor: QuadratureResult


def graph_mass(field: VectorField, domain: Domain, tol: float,
               **kwargs) -> GraphMassReport:
    return GraphMassReport(*graph_functionals(
        field, domain, tol, ("area", "tv", "minor"), **kwargs))


def point_removal_report(w: VectorField, center, r: float, delta: float,
                         tol: float = 1e-6, **kwargs):
    """Graph masses of the zero-homogeneous ring and the rescaled core."""
    ring = graph_mass(w, Annulus(w.n, delta, r, center), tol, **kwargs)
    core = graph_mass(w, Ball(w.n, delta, center), tol, **kwargs)
    return ring, core


def cone_extension_report(w: VectorField, base, eps: float, delta: float,
                          tol: float = 1e-6, **kwargs):
    """Graph masses of the homogeneous shell and the rescaled core."""
    shell = graph_mass(w, Cone(4, base, eps, codim=3, t_min=delta / eps), tol,
                       **kwargs)
    core = graph_mass(w, Cone(4, base, delta, codim=3), tol, **kwargs)
    return shell, core
