"""Explicit approximating maps used to realize the relaxed-energy bounds.

Constructions: the vortex tube (a homotopy ring over a linear core), whose
constant-radius 2d case is the vortex core smoothing and whose 3d case
with the cone profile as radius is the dipole around a codimension-2
segment; zero-homogeneous removal of point and codimension>=3
singularities with rescaled smooth fillers; and the two 3d counterexample
sequences (ball fill and sphere-sweeping cylinder fill) together with the
2d analogue of the latter.

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
from .domains import Annulus, Ball, Cone, Domain, _centre, row_norms
from .errors import DegreeMismatch, InvalidGeometry, InvalidParams
from .fields import VectorField, _circle_map, _on_circle, _unit, _unit_jac, _wrap
from .quadrature import QuadratureResult, graph_functionals
from .topology import Circle, winding_number

#: homotopy rings refuse traces that come this close (radians) to antipodal
LIFT_PINCH = math.pi - 0.1


def _target_angle_grad(U, dU):
    """d/ds of atan2(U2, U1) given dU/ds, vectorized."""
    return (U[:, 0] * dU[:, 1] - U[:, 1] * dU[:, 0]) / (U[:, 0] ** 2 + U[:, 1] ** 2)


def _piecewise(n, m, classify, pieces):
    """Value and Jacobian functions of a field given region by region.

    ``classify(X)`` gives each row a region code in ``range(len(pieces))``
    and ``pieces[k]`` is region k's ``(ev, jac)`` pair, called once on
    exactly its rows and never on an empty region.  Region 0 is the input
    field (x/|x| for the ball filling).  Every classifier counts codes as a sum of comparisons, all
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


def _normal(n, k, centre, radius):
    """Coordinates about a tube along x_k (or about a point when k = n).

    ``normal(X)`` gives x~ - centre, the first k coordinates less
    ``centre``; rho, its norm; z = x_k, None when k = n; and R = radius(z),
    one per row.  For k = 2, rho is ``np.hypot``.
    """
    norm = (lambda V: np.hypot(V[:, 0], V[:, 1])) if k == 2 else row_norms

    def normal(X):
        V = X[:, :k] - centre
        z = X[:, k] if k < n else None
        rho = norm(V)
        return V, rho, z, np.broadcast_to(radius(z), rho.shape)

    return normal


def _tube(field, normal, frac, shell, core, ends=(), **kwargs):
    """The field with its tube rho < R replaced: ``shell`` on
    frac R <= rho < R and ``core`` on rho < frac R.

    ``normal`` is a :func:`_normal` map, and ``shell`` and ``core`` are
    ``(ev, jac)`` pairs.  R <= 0 off a segment, so the open tube ends
    there.  The singular set keeps the input's cells whose midpoint the
    input still claims (region 0), after the point cells ``ends`` when these
    are given; a kept segment cannot join them and is refused.  ``kwargs``
    go to the built VectorField.
    """

    def classify(X):
        _, rho, _, R = normal(X)
        tube = rho < R
        return np.add(tube, tube & (rho < frac * R), dtype=np.int8)

    keep = field.singular_set.filtered(lambda p: classify(p[None])[0] == 0)
    if ends:
        if keep.k == 1 and len(keep):
            raise InvalidParams(
                f"{field.name} declares a segment outside the tube, which "
                "cannot join the points at the ends of the removed segment")
        keep = SingularChain.points(field.n, list(ends) + list(keep.cells))
    ev, jac = _piecewise(field.n, field.m, classify, [
        (field.evaluate_many, field.jacobian_many), shell, core])
    return VectorField(field.n, field.m, ev, jac, singular_set=keep, **kwargs)


# ---------------------------------------------------------------------------
# vortex tubes: the 2d smoothing and the cone dipole (n = 3, segment on x3)
# ---------------------------------------------------------------------------


def _vortex_tube(field, centre, d, radius, slope, probe, ends=(), **kwargs):
    """The field with its vortex tube rho < R(z) replaced by a degree-d cap.

    (rho, theta) are polar coordinates of (x1, x2) about ``centre`` and
    z = x3 exists only for n = 3.  ``radius(z)`` is R and ``slope(z)``
    dR/dz; in 2d z is None, R one value and ``slope`` None.  On
    R/2 <= rho < R a homotopy ring deforms (cos d theta, sin d theta) onto
    the trace U of the field on rho = R; inside, the linear core
    (2 rho / R)(cos d theta, sin d theta).  A trace that comes
    ``LIFT_PINCH`` close to antipodal at the ``probe`` rows (theta, z) is
    refused.  That check and the ring's values read trace values only; the
    input's Jacobian is read only when the built field's Jacobian is.  The
    regions, the singular set and ``ends`` are those of :func:`_tube`.
    """
    n = field.n
    c = np.asarray(centre, dtype=float)
    normal = _normal(n, 2, c, radius)

    def polar(X):
        V, rho, z, R = normal(X)
        return rho, np.arctan2(V[:, 1], V[:, 0]), z, R

    def offset(theta, z):
        """The lift offset g = wrap(atan2(U2, U1) - d theta) of the trace U.

        Returns ``(g, U, pts)``; only values of the input are read.
        """
        R, cos, sin = radius(z), np.cos(theta), np.sin(theta)
        pts = np.empty((len(theta), n))
        pts[:, 0] = c[0] + R * cos
        pts[:, 1] = c[1] + R * sin
        if z is not None:
            pts[:, 2] = z
        U = field.evaluate_many(pts)
        return _wrap(np.arctan2(U[:, 1], U[:, 0]) - d * theta), U, pts

    def trace(theta, z):
        """g, dg/dtheta and dg/dz (None in 2d), which read the input's Jacobian."""
        g, U, pts = offset(theta, z)
        J = field.jacobian_many(pts)
        R, cos, sin = radius(z), np.cos(theta), np.sin(theta)
        J2 = J[:, :, :2]
        # the rim's derivatives along theta and z, as the columns of one array
        dx = np.empty((len(theta), 2))
        dx[:, 0] = -R * sin
        dx[:, 1] = R * cos
        g_th = _target_angle_grad(U, np.einsum("nij,nj->ni", J2, dx)) - d
        if z is None:
            return g, g_th, None
        dx[:, 0] = slope(z) * cos
        dx[:, 1] = slope(z) * sin
        return g, g_th, _target_angle_grad(
            U, np.einsum("nij,nj->ni", J2, dx) + J[:, :, 2])

    gmax = float(np.max(np.abs(offset(*probe)[0])))
    if gmax > LIFT_PINCH:
        raise InvalidParams(
            "boundary trace too far from the reference vortex for a "
            "shortest-arc homotopy ring"
        )

    def ring_lift(X, grad=False):
        # T = d theta + t g, with t = 2 rho / R - 1 running from -1 to 1
        rho, theta, z, R = polar(X)
        t = 2.0 * rho / R - 1.0
        if not grad:
            return d * theta + t * offset(theta, z)[0]
        g, g_th, g_z = trace(theta, z)
        # ((d + t g_th) / rho) e_theta + (2 g / R) e_rho, column by column
        cos, sin = np.cos(theta), np.sin(theta)
        a, b = (d + t * g_th) / rho, 2.0 * g / R
        G = np.empty((len(rho), n))
        G[:, 0] = a * -sin + b * cos
        G[:, 1] = a * cos + b * sin
        if z is not None:
            G[:, 2] = t * g_z - g * (2.0 * rho * slope(z) / R**2)
        return d * theta + t * g, G

    ring_ev, ring_jac, _ = _circle_map(ring_lift)

    def core_ev(X):
        rho, theta, _, R = polar(X)
        U = _on_circle(d * theta)
        U *= (2.0 * rho / R)[:, None]
        return U

    def core_jac(X):
        # (2 / R)(e (x) e_rho + d e_perp (x) e_theta), with e = (cos, sin) of
        # d theta and e_perp = (-sin, cos) of it, entry by entry; in 3d the
        # z column e s_z
        rho, theta, z, R = polar(X)
        e_rho = (np.cos(theta), np.sin(theta))
        e_th = (-e_rho[1], e_rho[0])
        e = (np.cos(d * theta), np.sin(d * theta))
        eperp = (-e[1], e[0])
        q = 2.0 / R
        J = np.empty((len(rho), 2, n))
        for i in range(2):
            de = d * eperp[i]
            for j in range(2):
                J[:, i, j] = q * (e[i] * e_rho[j] + de * e_th[j])
        if z is not None:
            s_z = -(2.0 * rho * slope(z) / R**2)
            J[:, 0, 2] = e[0] * s_z
            J[:, 1, 2] = e[1] * s_z
        return J

    return _tube(field, normal, 0.5, (ring_ev, ring_jac), (core_ev, core_jac),
                 ends, **kwargs)


def vortex_smoothing_2d(field: VectorField, center, d: int, eps: float) -> VectorField:
    """Replace the field inside B_eps(center) by a smooth degree-d cap.

    The vortex tube of constant radius eps: outside B_eps the input is
    untouched; on eps/2 <= rho < eps a homotopy ring deforms
    (cos d theta, sin d theta) onto the boundary trace; inside, the linear
    core (2 rho / eps) (cos d theta, sin d theta).  A trace that comes
    ``LIFT_PINCH`` close to antipodal is refused when the map is built.
    """
    if field.n != 2 or field.m != 2:
        raise InvalidParams("vortex_smoothing_2d expects an n=2, m=2 field")
    if not 0 < eps < math.inf:
        raise InvalidParams(f"eps must be positive and finite, got {eps!r}")
    c = _centre(2, center)
    wd = winding_number(field, Circle(tuple(c), eps), samples=256)
    if wd != d:
        raise DegreeMismatch(f"winding on the eps-circle is {wd}, expected {d}")
    return _vortex_tube(
        field, c, d, lambda z: eps, None,
        (np.linspace(-math.pi, math.pi, 256, endpoint=False), None),
        chart_breaks={"r": (eps / 2, float(eps))},
        name=f"{field.name}+smooth(eps={eps:g})")


def cone_dipole(field: VectorField, base, d: int, eps: float) -> VectorField:
    """Remove the codimension-2 dipole over the base segment [a, b].

    The vortex tube about the x3 axis whose radius is the cone profile
    eps * dist(z, {a, b}): inside the cone the map becomes a homotopy shell
    (outer half) over a linear degree-d core (inner half), with traces
    matching the input on the cone boundary, as in
    :func:`vortex_smoothing_2d`.  The declared set is the segment's two
    ends and the input's points outside the cone; an input segment outside
    it is refused.
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

    tt, zz = np.meshgrid(
        np.linspace(-math.pi, math.pi, 64, endpoint=False),
        np.linspace(a + (b - a) / 64, b - (b - a) / 64, 33),
        indexing="ij",
    )
    return _vortex_tube(
        field, (0.0, 0.0), d, cone.profile, cone.slope, (tt.ravel(), zz.ravel()),
        ends=[((0.0, 0.0, a), d if d else 1), ((0.0, 0.0, b), d if d else 1)],
        chart_breaks={"t": (0.5,)},
        name=f"{field.name}+dipole(eps={eps:g})")


# ---------------------------------------------------------------------------
# zero-homogeneous extensions: point removal (k = n) and the 4d cone (k = 3)
# ---------------------------------------------------------------------------


def _pullback(v, phi):
    """``(ev, jac)`` of ``v o phi``, where ``phi(X)`` gives ``(Y, apply)``
    and ``apply(Jv)`` is the Jacobian ``Jv`` of v at Y times ``Dphi``, as a
    new array; the value path never calls it."""

    def jac(X):
        Y, apply = phi(X)
        return apply(v.jacobian_many(Y))

    return lambda X: v.evaluate_many(phi(X)[0]), jac


def _homogeneous_extension(field, filler, k, centre, radius, slope, frac,
                           **kwargs):
    """The field zero-homogeneous on a shell over a rescaled filler.

    rho is the norm of the first k coordinates less ``centre`` and W their
    direction; z = x_k exists only when k < n.  ``radius(z)`` is R and
    ``slope(z)`` dR/dz; for k = n, z is None, R one value and ``slope``
    None.  On frac R <= rho < R the field is read at its radial projection
    centre + R W on the rim; on rho < frac R the filler is read with the
    first k coordinates about ``centre`` scaled by 1/frac.  The regions and
    the singular set are those of :func:`_tube`.  ``kwargs`` go to the
    built VectorField.
    """
    if (filler.n, filler.m) != (field.n, field.m):
        raise InvalidParams(f"filler has (n, m) = {(filler.n, filler.m)} but "
                            f"the field has {(field.n, field.m)}")
    n = field.n
    c = np.zeros(n)
    c[:k] = centre
    D = np.ones(n)
    D[:k] = 1.0 / frac  # the core's differential, one diagonal for every row
    normal = _normal(n, k, c[:k], radius)

    def radial(X):
        V, rho, z, R = normal(X)
        W = V / rho[:, None]
        Y = X.copy()
        Y[:, :k] = c[:k] + R[:, None] * W

        def apply(J):
            # Jv Dphi: (R/rho)(Jv - (Jv W) W^T) on the normal columns and
            # Jv_z + R' (Jv W) on z
            JW = np.vecdot(J[:, :, :k], W[:, None, :])
            out = np.empty_like(J)
            out[:, :, :k] = J[:, :, :k] - JW[:, :, None] * W[:, None, :]
            out[:, :, :k] *= (R / rho)[:, None, None]
            if z is not None:
                out[:, :, k] = J[:, :, k] + slope(z)[:, None] * JW
            return out

        return Y, apply

    def rescaled(X):
        return c + (X - c) * D, lambda J: J * D

    return _tube(field, normal, frac, _pullback(field, radial),
                 _pullback(filler, rescaled), **kwargs)


def remove_point_singularity(field: VectorField, center, r: float, delta: float,
                             filler: VectorField) -> VectorField:
    """Zero-homogeneous ring plus rescaled smooth filler around a point defect.

    w = field outside B_r; field(r x/|x|) on the ring delta <= |x| < r; the
    filler rescaled by r/delta inside B_delta.  The filler must be smooth on
    B_r(center) with boundary trace matching the field.
    """
    n = field.n
    if n < 3:
        raise InvalidParams("point-singularity removal needs n >= 3")
    if not 0.0 < delta < r < math.inf:
        raise InvalidGeometry(f"need 0 < delta < r < inf, got delta={delta!r}, "
                              f"r={r!r}")
    return _homogeneous_extension(
        field, filler, n, _centre(n, center), lambda z: r, None, delta / r,
        chart_breaks={"r": (float(delta), float(r))},
        name=f"{field.name}+point_removal(r={r:g})")


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
    frac = delta / eps
    return _homogeneous_extension(
        field, filler, 3, 0.0, cone.profile, cone.slope, frac,
        chart_breaks={"t": (frac,)}, name=f"{field.name}+cone_ext(eps={eps:g})")


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
    # x/|x| outside B_{1/k}; k x inside, whose Jacobian is k I
    kI = k * np.eye(3)
    ev, jac = _piecewise(3, 3, lambda X: row_norms(X) < 1.0 / k, [
        (_unit, _unit_jac),
        (lambda X: k * X, lambda X: np.broadcast_to(kI, (len(X), 3, 3)))])
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
        r = row_norms(X)
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
        U = np.empty((len(th), 3))
        U[:, 0] = st * np.cos(psi)
        U[:, 1] = st * np.sin(psi)
        U[:, 2] = np.cos(th)
        return U

    def jac(X):
        r, phi, psi = _spherical(X)
        r = np.maximum(r, 1e-300)
        tb = theta_bd(phi)
        tbp = theta_bd_prime(phi)
        fill = r < rk
        th = np.where(fill, math.pi + r * k * (tb - math.pi), tb)
        # the e_r and e_phi components of grad th
        th_r = np.where(fill, k * (tb - math.pi), 0.0)
        th_phi = np.where(fill, r * k * tbp, tbp) / r
        ct, st = np.cos(th), np.sin(th)
        cps, sps = np.cos(psi), np.sin(psi)
        cphi, sphi = np.cos(phi), np.sin(phi)
        # J = u_th (x) grad th + u_psi (x) grad psi, component by component;
        # the third components of u_psi and grad psi are zero
        u_th = (ct * cps, ct * sps, -st)
        u_psi = (-st * sps, st * cps)
        grad_th = (th_r * (sphi * cps) + th_phi * (cphi * cps),
                   th_r * (sphi * sps) + th_phi * (cphi * sps),
                   th_r * cphi - th_phi * sphi)
        # u_psi already carries sin(theta); divide by the metric factor
        metric = r * np.maximum(sphi, 1e-300)
        grad_psi = (-sps / metric, cps / metric)
        J = np.empty((X.shape[0], 3, 3))
        for i in range(3):
            for j in range(3):
                J[:, i, j] = u_th[i] * grad_th[j]
                if i < 2 and j < 2:
                    J[:, i, j] += u_psi[i] * grad_psi[j]
        return J

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

    def lift(X, grad=False):
        r = np.hypot(X[:, 0], X[:, 1])
        theta = np.arctan2(X[:, 1], X[:, 0])
        tb = t_bd(theta)
        fill = r < rk
        T = np.where(fill, T0 + r * k * (tb - T0), tb)
        if not grad:
            return T
        r = np.maximum(r, 1e-300)
        tbp = t_bd_prime(theta)
        T_r = np.where(fill, k * (tb - T0), 0.0)
        T_th = np.where(fill, r * k * tbp, tbp)
        # T_r e_r + (T_th / r) e_theta, column by column
        cos, sin, q = np.cos(theta), np.sin(theta), T_th / r
        G = np.empty((len(T), 2))
        G[:, 0] = T_r * cos + q * -sin
        G[:, 1] = T_r * sin + q * cos
        return T, G

    ev, jac, angle = _circle_map(lift)
    return VectorField(2, 2, ev, jac,
                       chart_breaks={"r": (rk,), "theta": (-alpha, alpha)},
                       name=f"cylinder_analogue_2d(k={k})", angle=angle)


# ---------------------------------------------------------------------------
# defect test fields and fillers
# ---------------------------------------------------------------------------


def disk_defect_field_3d() -> VectorField:
    """(x1, x2)/|x| on B^3: a D^2-valued point defect at the origin."""

    def ev(X):
        return X[:, :2] / row_norms(X)[:, None]

    def jac(X):
        r = row_norms(X)
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
        rho = row_norms(X[:, :3])
        q = 1.0 / rho + rho
        return X[:, :2] * q[:, None]

    def jac(X):
        rho = row_norms(X[:, :3])
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
