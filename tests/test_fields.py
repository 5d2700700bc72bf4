import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxarea import fields
from relaxarea.chains import distance_to_chain
from relaxarea.errors import (
    InvalidParams,
    SingularPoint,
    StencilCrossesSingularity,
)
from relaxarea.fields import (
    VectorField,
    area_integrand,
    chain_centers_radii,
    make_example_field,
    minor_pairs,
    minors2,
)


def fd_twin(field):
    """Same evaluator, finite-difference Jacobian."""
    return VectorField(field.n, field.m, field._eval, None,
                       singular_set=field.singular_set, name=field.name + "-fd")


class TestEvaluate:
    def test_vortex_on_positive_axis(self):
        v = make_example_field("vortex", d=1)
        assert np.allclose(v.evaluate((0.5, 0.0)), (1.0, 0.0), atol=1e-15)

    def test_vortex_center_is_singular(self):
        v = make_example_field("vortex", d=1)
        with pytest.raises(SingularPoint):
            v.evaluate((0.0, 0.0))

    def test_planar_vortex_unit_second_axis(self):
        pv = make_example_field("planar_vortex")
        assert np.allclose(pv.evaluate((0.0, 0.3, 0.9)), (0.0, 1.0), atol=1e-15)

    def test_evaluation_is_deterministic(self, rng):
        v = make_example_field("vortex", d=2)
        X = rng.uniform(-1, 1, (50, 2))
        assert np.array_equal(v.evaluate_many(X), v.evaluate_many(X))

    def test_sphere_valued_cases(self, rng):
        fields = [
            make_example_field("vortex", d=-2),
            make_example_field("planar_vortex"),
            make_example_field("vortex_chain", m=4),
            make_example_field("sphere_vortex"),
        ]
        for f in fields:
            X = rng.uniform(-0.98, 0.98, (10_000, f.n))
            X = X[distance_to_chain(X, f.singular_set) > 1e-3]
            U = f.evaluate_many(X)
            norms = np.linalg.norm(U, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-9


class TestJacobian:
    def test_vortex_frobenius_is_inverse_radius(self):
        v = make_example_field("vortex", d=1)
        J = v.jacobian_at((0.5, 0.0))
        assert np.linalg.norm(J) == pytest.approx(2.0, rel=1e-12)

    def test_constant_field_zero_matrix(self):
        c = make_example_field("constant", value=(0.3, -0.4))
        assert np.all(c.jacobian_at((0.2, 0.7)) == 0.0)

    def test_fd_matches_analytic_at_probe_point(self):
        v = make_example_field("vortex", d=1)
        J_an = v.jacobian_at((0.3, 0.4))
        J_fd = fd_twin(v).jacobian_at((0.3, 0.4))
        assert np.max(np.abs(J_an - J_fd)) <= 1e-6

    def test_fd_matches_analytic_away_from_singularities(self, rng):
        for kind, kw in [("vortex", {"d": -2}), ("planar_vortex", {}),
                         ("sphere_vortex", {})]:
            f = make_example_field(kind, **kw)
            X = rng.uniform(-0.9, 0.9, (300, f.n))
            X = X[distance_to_chain(X, f.singular_set) >= 0.1][:100]
            J_an = f.jacobian_many(X)
            J_fd = fd_twin(f).jacobian_many(X)
            assert np.max(np.abs(J_an - J_fd)) <= 1e-6

    def test_stencil_near_singularity_errors(self):
        v = fd_twin(make_example_field("vortex", d=1))
        with pytest.raises(StencilCrossesSingularity):
            v.jacobian_at((1e-7, 0.0))


class TestMinors:
    def test_identity_has_unit_determinant(self):
        assert np.allclose(minors2(np.eye(2)), [1.0])

    def test_pair_ordering(self):
        assert minor_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
           st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    def test_rank_one_matrices_have_zero_minors(self, u, v):
        J = np.outer(u, v)
        assert np.max(np.abs(minors2(J))) <= 1e-9

    def test_planar_vortex_minors_vanish(self, rng):
        pv = make_example_field("planar_vortex")
        X = rng.uniform(-0.9, 0.9, (500, 3))
        X = X[np.hypot(X[:, 0], X[:, 1]) > 0.05]
        M = minors2(pv.jacobian_many(X))
        assert np.max(np.abs(M)) <= 1e-9

    def test_vortex_minors_vanish(self, rng):
        v = make_example_field("vortex", d=3)
        X = rng.uniform(-1, 1, (500, 2))
        X = X[np.hypot(X[:, 0], X[:, 1]) > 0.05]
        assert np.max(np.abs(minors2(v.jacobian_many(X)))) <= 1e-9

    def test_m3_minor_vector_length(self):
        M = minors2(np.arange(9.0).reshape(3, 3))
        assert M.shape == (10,)  # nine 2x2 minors plus the determinant


class TestAreaIntegrand:
    def test_zero_matrix(self):
        assert area_integrand(np.zeros((2, 2))) == 1.0

    def test_identity_2x2(self):
        # 1 + |I|_F^2 + (det I)^2 = 1 + 2 + 1
        assert area_integrand(np.eye(2)) == pytest.approx(2.0, rel=1e-15)

    def test_vortex_radial_closed_form(self):
        v = make_example_field("vortex", d=1)
        for r in (0.3, 0.5, 0.9):
            got = area_integrand(v.jacobian_at((r, 0.0)))
            assert got == pytest.approx(math.sqrt(1.0 + 1.0 / r**2), rel=1e-12)

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60)
    def test_dominates_one_and_frobenius(self, n, data):
        J = np.array(
            data.draw(st.lists(st.lists(st.floats(-50, 50), min_size=n,
                                        max_size=n),
                               min_size=2, max_size=2))
        )
        a = area_integrand(J)
        assert a >= max(1.0, float(np.linalg.norm(J))) - 1e-12
        if np.linalg.norm(J) > 1e-7:  # below that, 1 + |J|^2 rounds to 1
            assert a > 1.0


class TestExampleFields:
    def test_vortex_chain_singular_points(self):
        f = make_example_field("vortex_chain", m=3)
        got = np.array([p for p, _ in f.singular_set.cells])
        expect = np.array([[0.0, 0.0], [0.5, 0.0], [0.75, 0.0]])
        assert np.allclose(got, expect, atol=1e-15)
        assert [m for _, m in f.singular_set.cells] == [1, -1, 1]

    def test_chain_centers_formula(self):
        centers, radii = chain_centers_radii(5)
        j = np.arange(1, 6)
        assert np.allclose(centers[:, 0], 1.0 - 2.0 ** (1 - j))
        assert np.allclose(radii, 2.0 ** (-(j + 1.0)))

    def test_planar_vortex_singular_segment(self):
        f = make_example_field("planar_vortex")
        (seg, mult), = f.singular_set.cells
        assert np.allclose(seg, [[0, 0, -1], [0, 0, 1]])
        assert f.singular_set.k == 1

    def test_chain_constant_components(self):
        f = make_example_field("vortex_chain", m=3)
        up = f.evaluate_many(np.array([[-0.7, 0.6], [0.3, 0.5], [0.9, 0.4]]))
        dn = f.evaluate_many(np.array([[-0.7, -0.6], [0.3, -0.5], [0.9, -0.4]]))
        assert np.allclose(up, [[1.0, 0.0]] * 3, atol=1e-15)
        assert np.allclose(dn, [[-1.0, 0.0]] * 3, atol=1e-15)

    def test_chain_is_continuous_across_seams(self, rng):
        f = make_example_field("vortex_chain", m=3)
        # straddle the vertical seams between squares, gaps and strips
        seams = [-0.25, 0.25, 0.375, 0.625, 0.6875, 0.8125]
        h = 1e-7
        for x1 in seams:
            ys = rng.uniform(-0.2, 0.2, 20)
            left = np.stack([np.full(20, x1 - h), ys], axis=1)
            right = np.stack([np.full(20, x1 + h), ys], axis=1)
            gap = np.linalg.norm(f.evaluate_many(left) - f.evaluate_many(right),
                                 axis=1)
            assert np.max(gap) < 1e-4

    def test_smooth_lift_values(self):
        f = make_example_field(
            "smooth_lift",
            f=lambda X: X[:, 0] ** 2 - X[:, 1],
            grad_f=lambda X: np.stack([2 * X[:, 0], -np.ones(len(X))], axis=1),
        )
        x = (0.3, 0.7)
        t = 0.3**2 - 0.7
        assert np.allclose(f.evaluate(x), (math.cos(t), math.sin(t)))

    @pytest.mark.parametrize("kind, params, match", [
        ("vortex", {"d": 1.5}, "degree"),
        ("vortex_chain", {"m": 0}, "m >= 1"),
        ("vortex_chain", {"m": 2.7}, "integer m"),
        ("nonsense", {}, "unknown field kind"),
        # a parameter the kind does not read used to be dropped silently
        ("vortex", {"degree": 3}, r"vortex does not read \['degree'\]"),
        ("sphere_vortex", {"d": 2}, r"does not read \['d'\]"),
        ("constant", {"value": (1.0, 0.0), "n": 2}, r"does not read \['n'\]"),
    ])
    def test_invalid_params(self, kind, params, match):
        with pytest.raises(InvalidParams, match=match):
            make_example_field(kind, **params)


# ---------------------------------------------------------------------------
# the vortex-chain map against its region-by-region reference
# ---------------------------------------------------------------------------


def reference_chain_angle(X, centers, radii):
    """The chain map's angle region by region, each region a masked pass
    over all points: squares first, then gaps, then the two end strips."""
    m = len(radii)
    x1, x2 = X[:, 0], X[:, 1]
    T = np.where(x2 >= 0.0, 0.0, np.pi)
    done = np.zeros(len(x1), dtype=bool)

    def arc_angle(s):
        return np.arcsin(np.clip(s, -1.0, 1.0))

    for j in range(m):
        cx, h = centers[j, 0], radii[j]
        odd = (j % 2) == 0
        insq = ~done & (np.abs(x1 - cx) <= h) & (np.abs(x2) <= h)
        if np.any(insq):
            dx, dy = x1[insq] - cx, x2[insq]
            rr = np.hypot(dx, dy)
            theta = np.where(
                rr < h,
                np.arctan2(dy, dx),
                np.where(dx >= 0, arc_angle(dy / h), np.pi - arc_angle(dy / h)),
            )
            T[insq] = theta - np.pi / 2 if odd else np.pi / 2 - theta
            done |= insq

    for j in range(m - 1):
        right = centers[j, 0] + radii[j]
        left = centers[j + 1, 0] - radii[j + 1]
        lam = (x1 - right) / (left - right)
        H = radii[j] + (radii[j + 1] - radii[j]) * np.clip(lam, 0.0, 1.0)
        ingap = ~done & (x1 > right) & (x1 < left) & (np.abs(x2) <= H)
        if np.any(ingap):
            s = arc_angle(x2[ingap] / H[ingap])
            odd = (j % 2) == 0
            T[ingap] = s - np.pi / 2 if odd else np.pi / 2 - s
            done |= ingap

    lead = ~done & (x1 <= centers[0, 0] - radii[0]) & (np.abs(x2) <= radii[0])
    if np.any(lead):
        T[lead] = np.pi / 2 - arc_angle(x2[lead] / radii[0])
        done |= lead

    tail = ~done & (x1 >= centers[-1, 0] + radii[-1]) & (np.abs(x2) <= radii[-1])
    if np.any(tail):
        s = arc_angle(x2[tail] / radii[-1])
        odd = ((m - 1) % 2) == 0
        T[tail] = s - np.pi / 2 if odd else np.pi / 2 - s
    return T


def reference_chain_field(m):
    """The vortex chain with its evaluator guarded against every centre and
    its Jacobian taken disk by disk, central differences elsewhere."""
    centers, radii = chain_centers_radii(m)

    def ev(X):
        d = np.min(
            np.linalg.norm(X[:, None, :] - centers[None, :, :], axis=2), axis=1)
        if np.any(d <= 1e-12):
            raise SingularPoint("reference chain at a disk center")
        T = reference_chain_angle(X, centers, radii)
        return np.stack([np.cos(T), np.sin(T)], axis=1)

    def jac(X):
        N = X.shape[0]
        J = np.empty((N, 2, 2))
        handled = np.zeros(N, dtype=bool)
        for j in range(m):
            W = X - centers[j]
            r2 = W[:, 0] ** 2 + W[:, 1] ** 2
            mask = ~handled & (r2 < (0.999 * radii[j]) ** 2)
            if np.any(mask):
                d = 1 if (j % 2) == 0 else -1
                T = reference_chain_angle(X[mask], centers, radii)
                uperp = np.stack([-np.sin(T), np.cos(T)], axis=1)
                gt = np.stack([-W[mask, 1] / r2[mask], W[mask, 0] / r2[mask]],
                              axis=1)
                J[mask] = d * uperp[:, :, None] * gt[:, None, :]
                handled |= mask
        rest = ~handled
        if np.any(rest):
            sub = VectorField(2, 2, ev, None, name="reference-chain-fd")
            J[rest] = sub._fd_jacobian(X[rest])
        return J

    return VectorField(2, 2, ev, jac, singular_set=make_example_field(
        "vortex_chain", m=m).singular_set, name=f"reference_chain(m={m})")


def chain_probe_points(m, rng):
    """Seeded points over [-1.2, 1.2]^2, a cloud about each centre, and every
    region boundary with its neighbouring floats on both sides."""
    centers, radii = chain_centers_radii(m)
    parts = [rng.uniform(-1.2, 1.2, (4000, 2))]
    edges = []
    for c, h in zip(centers[:, 0], radii):
        ang = rng.uniform(0.0, 2.0 * np.pi, 300)
        rad = h * rng.uniform(0.0, 1.2, 300) ** 2
        parts.append(np.stack([c + rad * np.cos(ang), rad * np.sin(ang)], 1))
        parts.append([[c + 1e-9, 0.0], [c, -1e-9], [c - 1e-9, -0.0]])
        edges += [(c - h, h), (c + h, h)]  # the square's sides, the gaps' ends
    h0, hl = radii[0], radii[-1]
    strips = [(x, h0) for x in np.linspace(-1.2, centers[0, 0] - h0, 7)]
    strips += [(x, hl) for x in np.linspace(centers[-1, 0] + hl, 1.2, 7)]
    for x, h in edges + strips:
        for x1 in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)):
            for y in (0.0, h, 1.5 * h, 0.5 * h, np.nextafter(h, np.inf)):
                parts.append([[x1, y], [x1, -y]])
    gaps = zip(centers[:-1, 0] + radii[:-1], centers[1:, 0] - radii[1:],
               radii[:-1], radii[1:])
    for right, left, h1, h2 in gaps:  # the slanted sides of each gap
        lam = np.linspace(0.0, 1.0, 9)
        x1 = right + lam * (left - right)
        H = h1 + (h2 - h1) * lam
        for y in (H, np.nextafter(H, np.inf), 0.5 * H):
            parts.append(np.stack([x1, y], 1))
            parts.append(np.stack([x1, -y], 1))
    return np.concatenate([np.asarray(p, dtype=float).reshape(-1, 2)
                           for p in parts])


class TestChainMap:
    @pytest.mark.parametrize("m", [1, 2, 3, 6, 9])
    def test_angle_matches_reference(self, m, rng):
        centers, radii = chain_centers_radii(m)
        inf, nan = np.inf, np.nan
        X = np.concatenate([chain_probe_points(m, rng), [
            [nan, 0.01], [0.1, nan], [nan, nan], [inf, 0.01], [-inf, -0.01],
            [0.1, inf], [inf, -inf]]])
        got = fields._chain_angle(X, centers, radii)
        ref = reference_chain_angle(X, centers, radii)
        assert np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 9])
    def test_values_and_jacobians_match_reference(self, m, rng):
        f = make_example_field("vortex_chain", m=m)
        ref = reference_chain_field(m)
        X = chain_probe_points(m, rng)
        X = X[distance_to_chain(X, f.singular_set) > 1e-6]
        assert np.array_equal(f.evaluate_many(X), ref.evaluate_many(X))
        # a disk point given the wrong square's angle falls back to finite
        # differences: close to the reference, but not equal to it
        assert np.array_equal(f.jacobian_many(X), ref.jacobian_many(X))

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 9])
    def test_evaluator_refuses_each_centre(self, m):
        # the path of the finite-difference sub-field, which has no guard
        f = make_example_field("vortex_chain", m=m)
        centers, _ = chain_centers_radii(m)
        far = np.array([[-1.1, 0.7]])
        for c in centers:
            for x in (c, c + [0.5e-12, 0.0], c - [0.0, 0.5e-12]):
                with pytest.raises(SingularPoint):
                    f._eval(np.concatenate([far, [x]]))
            f._eval(np.array([c + [1e-9, 0.0]]))
