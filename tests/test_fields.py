import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angle_free_twin, fd_jacobian

from relaxarea import fields, recovery
from relaxarea.chains import SingularChain, distance_to_chain
from relaxarea.errors import InvalidParams, NonFinite, SingularPoint
from relaxarea.fields import (
    VectorField,
    area_integrand,
    chain_centers_radii,
    make_example_field,
    minor_pairs,
    minors2,
)
from relaxarea.topology import GridSpec, _block_points


def fd_twin(field):
    """Same evaluator, finite-difference Jacobian."""
    return VectorField(field.n, field.m, field._eval,
                       lambda X: fd_jacobian(field._eval, X, field.singular_set),
                       singular_set=field.singular_set, name=field.name + "-fd")


class TestEvaluate:
    def test_vortex_on_positive_axis(self):
        v = make_example_field("vortex", d=1)
        assert np.allclose(v.evaluate((0.5, 0.0)), (1.0, 0.0), atol=1e-15)

    def test_vortex_center_is_singular(self):
        v = make_example_field("vortex", d=1)
        with pytest.raises(SingularPoint):
            v.evaluate((0.0, 0.0))

    @pytest.mark.parametrize("kind, params", [
        ("vortex", {"d": 1, "center": (0.13, -0.21)}),
        ("vortex", {"d": 2, "center": (0.13, -0.21)}),
        ("sphere_vortex", {}),
    ] + [("vortex_chain", {"m": m}) for m in (1, 2, 3, 6, 9)],
        ids=["vortex-d1", "vortex-d2", "sphere"]
        + [f"chain-m{m}" for m in (1, 2, 3, 6, 9)])
    def test_declared_set_refuses_each_centre(self, kind, params):
        # the declared set is these fields' only guard: a centre, or a point
        # within SINGULAR_GUARD of it, at the first, a middle or the last row
        # of a batch is refused by every read, and 1e-9 away it is not
        f = make_example_field(kind, **params)
        reads = ["evaluate_many", "jacobian_many"] + (["angles_many"]
                                                      if f.m == 2 else [])
        far = np.zeros((1000, f.n))
        far[:, 0], far[:, 1] = np.linspace(-1.0, 1.0, 1000), 0.7
        e0, e1 = np.eye(f.n)[:2]
        for c, _ in f.singular_set.cells:
            for row in (0, 500, 999):
                X = far.copy()
                for x in (c, c + 0.5e-12 * e0, c - 0.5e-12 * e1):
                    X[row] = x
                    for read in reads:
                        with pytest.raises(SingularPoint,
                                           match="declared singular set"):
                            getattr(f, read)(X)
                X[row] = c + 1e-9 * e0
                for read in reads:
                    assert np.isfinite(getattr(f, read)(X)).all()

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

    @pytest.mark.parametrize("kind, params", [
        ("vortex", {"d": 1}), ("vortex", {"d": 0}), ("planar_vortex", {}),
        ("vortex_chain", {"m": 3}), ("sphere_vortex", {}),
        ("constant", {"value": (1.0, 0.0)}),
        ("smooth_lift", {"f": lambda X: X[:, 0], "grad_f": lambda X: X * 0.0}),
    ])
    def test_non_finite_point_is_refused(self, kind, params):
        f = make_example_field(kind, **params)
        assert isinstance(f.singular_set, SingularChain)
        assert f.singular_set.n == f.n
        reads = ["evaluate_many", "jacobian_many"] + (["angles_many"]
                                                      if f.m == 2 else [])
        for bad in (np.nan, np.inf):
            X = np.full((2, f.n), 0.3)
            X[1, 0] = bad
            for read in reads:
                with pytest.raises(NonFinite, match="non-finite point"):
                    getattr(f, read)(X)


class TestAngles:
    """``angles_many`` from a principal-angle evaluator keeps every guard of
    the values and their angles."""

    @pytest.mark.parametrize("read", ["evaluate_many", "angles_many"])
    def test_axis_beyond_the_declared_segment_is_singular(self, read):
        pv = make_example_field("planar_vortex")
        X = np.array([[0.3, 0.1, 0.0], [0.0, 0.0, 1.5]])
        assert distance_to_chain(X, pv.singular_set)[1] == pytest.approx(0.5)
        with pytest.raises(SingularPoint, match="on its axis"):
            getattr(pv, read)(X)

    def test_declared_singular_set_is_checked(self):
        f = VectorField(2, 2, lambda X: np.ones_like(X),
                        singular_set=SingularChain.points(2, [((0.5, 0.0), 1)]),
                        angle=lambda X: np.zeros(len(X)))
        X = np.array([[0.0, 0.0], [0.5, 0.0]])
        with pytest.raises(SingularPoint, match="declared singular set"):
            f.angles_many(X)
        with pytest.raises(SingularPoint, match="declared singular set"):
            f.angles_many(X[:1], dist=np.zeros(1))  # a given distance is read
        assert np.array_equal(f.angles_many(X[:1]), [0.0])

    @pytest.mark.parametrize("read", ["evaluate_many", "angles_many"])
    def test_nan_row_is_non_finite(self, read):
        pv = make_example_field("planar_vortex")
        X = np.array([[0.3, 0.1, 0.0], [np.nan] * 3])
        with pytest.raises(NonFinite):
            getattr(pv, read)(X)

    def test_angle_needs_m_2(self):
        with pytest.raises(InvalidParams, match="m=2"):
            VectorField(3, 3, lambda X: X, angle=lambda X: X[:, 0])
        with pytest.raises(InvalidParams, match="m=2"):
            make_example_field("sphere_vortex").angles_many(np.ones((1, 3)))

    def test_node_angles_match_the_value_path(self):
        pv = make_example_field("planar_vortex")
        grid = GridSpec(3, 32)
        X = _block_points([grid.axis_nodes(a) for a in range(3)])
        got = pv.angles_many(X)
        want = angle_free_twin(pv).angles_many(X)
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("kind, params, lift", [
        ("vortex", {"d": -3, "center": (0.1, -0.2), "phase": 2.5},
         lambda X: -3.0 * np.arctan2(X[:, 1] + 0.2, X[:, 0] - 0.1) + 2.5),
        ("planar_vortex", {}, lambda X: np.arctan2(X[:, 1], X[:, 0])),
        ("vortex_chain", {"m": 6}, lambda X: fields._chain_angle(
            X, *chain_centers_radii(6))),
        ("smooth_lift", {"f": lambda X: 9.0 * np.sin(3.0 * X[:, 0]) - X[:, 1]},
         lambda X: 9.0 * np.sin(3.0 * X[:, 0]) - X[:, 1]),
    ])
    def test_angle_is_the_value_angle_modulo_2pi(self, kind, params, lift):
        f = make_example_field(kind, **params)
        X = np.random.default_rng(26).uniform(-1.0, 1.0, (4000, f.n))
        U = f.evaluate_many(X)
        gap = f.angles_many(X) - np.arctan2(U[:, 1], U[:, 0])
        gap = np.abs(gap - 2.0 * math.pi * np.rint(gap / (2.0 * math.pi)))
        assert np.all(gap <= 1e-15 * (1.0 + np.abs(lift(X))))

    def test_every_circle_valued_kind_has_an_angle(self):
        kinds = [k for k in fields._KINDS if k != "constant"]
        for kind in kinds:
            params = {"f": np.sin} if kind == "smooth_lift" else {}
            f = make_example_field(kind, **params)
            assert (f._angle is not None) == (f.m == 2), kind

    def test_vanishing_values_have_no_angle(self):
        c = make_example_field("constant", value=(0.0, 0.0))
        assert np.all(np.isnan(c.angles_many(np.ones((3, 2)))))


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
        with pytest.raises(SingularPoint, match="stencil"):
            v.jacobian_at((1e-7, 0.0))


def _circle_frame(T):
    """The unit vectors (cos T, sin T) and (-sin T, cos T), each stacked."""
    c, s = np.cos(T), np.sin(T)
    return np.stack([c, s], axis=1), np.stack([-s, c], axis=1)


#: every circle-valued example field, and a box of points to probe it in
CIRCLE_VALUED = {
    "vortex": (lambda: make_example_field("vortex", d=1), [(-1, 1)] * 2),
    "vortex-d2-off-centre": (lambda: make_example_field(
        "vortex", d=2, center=(0.1, -0.2), phase=0.3), [(-1, 1)] * 2),
    "vortex-d-3": (lambda: make_example_field("vortex", d=-3), [(-1, 1)] * 2),
    "planar_vortex": (lambda: make_example_field("planar_vortex"),
                      [(-1, 1)] * 3),
    "vortex_chain-3": (lambda: make_example_field("vortex_chain", m=3),
                       [(-1, 1), (-0.3, 0.3)]),
    "vortex_chain-6": (lambda: make_example_field("vortex_chain", m=6),
                       [(-1, 1), (-0.3, 0.3)]),
    "smooth_lift": (lambda: make_example_field(
        "smooth_lift", n=3, f=lambda X: X[:, 0] * X[:, 1] - 3.0 * X[:, 2],
        grad_f=lambda X: np.stack([X[:, 1], X[:, 0], np.full(len(X), -3.0)],
                                  axis=1)), [(-1, 1)] * 3),
    "cylinder_analogue_2d-4": (lambda: recovery.cylinder_analogue_2d(4),
                               [(-1, 1)] * 2),
    "cylinder_analogue_2d-16": (lambda: recovery.cylinder_analogue_2d(16),
                                [(-0.2, 0.2)] * 2),
    # the homotopy rings of the two vortex tubes (after their input field)
    "smoothing-ring": (lambda: recovery.vortex_smoothing_2d(
        make_example_field("vortex_chain", m=3), (0.5, 0.0), -1, 0.1),
        [(0.4, 0.6), (-0.1, 0.1)]),
    "dipole-ring": (lambda: recovery.cone_dipole(
        make_example_field("planar_vortex"), (-0.5, 0.5), 1, 0.2),
        [(-0.1, 0.1), (-0.1, 0.1), (-0.5, 0.5)]),
}


class TestCircleMap:
    """Each circle-valued map writes its values and its Jacobian into one
    array, entry by entry as the stacked unit frames gave them."""

    @pytest.mark.parametrize("name", list(CIRCLE_VALUED))
    def test_values_and_jacobian_match_the_stacked_frame(self, name,
                                                         monkeypatch):
        build, box = CIRCLE_VALUED[name]
        seen = []
        original = fields._circle_map

        def spy(lift):
            ev, jac, angle = original(lift)
            seen.append((lift, ev, jac))
            return ev, jac, angle

        monkeypatch.setattr(fields, "_circle_map", spy)
        monkeypatch.setattr(recovery, "_circle_map", spy)
        assert isinstance(build().singular_set, SingularChain)
        assert seen
        lo, hi = np.array(box, dtype=float).T
        X = lo + (hi - lo) * np.random.default_rng(len(name)).random((999, len(box)))
        for lift, ev, jac in seen:
            T, G = lift(X, grad=True)
            assert G.shape == X.shape
            values, frame = _circle_frame(T)
            assert ev(X).tobytes() == values.tobytes()
            assert jac(X).tobytes() == (frame[:, :, None] * G[:, None, :]).tobytes()


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

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_columns_match_the_stacked_formula_bit_for_bit(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        J = rng.normal(size=(777, m, n)) * 10.0 ** rng.uniform(-8, 4, (777, 1, 1))
        J[:3] = 0.0
        mins = [J[:, r1, c1] * J[:, r2, c2] - J[:, r1, c2] * J[:, r2, c1]
                for r1, r2 in minor_pairs(m) for c1, c2 in minor_pairs(n)]
        if m == 3:
            mins.append(
                J[:, 0, 0] * (J[:, 1, 1] * J[:, 2, 2] - J[:, 1, 2] * J[:, 2, 1])
                - J[:, 0, 1] * (J[:, 1, 0] * J[:, 2, 2] - J[:, 1, 2] * J[:, 2, 0])
                + J[:, 0, 2] * (J[:, 1, 0] * J[:, 2, 1] - J[:, 1, 1] * J[:, 2, 0]))
        stacked = np.stack(mins, axis=1)
        got = minors2(J)
        assert got.shape == stacked.shape
        assert got.tobytes() == stacked.tobytes()
        assert minors2(J[5]).tobytes() == stacked[5].tobytes()


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

    def test_degree_0_vortex_is_constant(self):
        v = make_example_field("vortex", d=0, phase=0.5)
        assert len(v.singular_set.cells) == 0
        assert np.allclose(v.evaluate((0.0, 0.0)), (math.cos(0.5), math.sin(0.5)))
        assert np.all(v.jacobian_at((0.0, 0.0)) == 0.0)

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
        # a non-integer source dimension used to be truncated
        ("smooth_lift", {"f": np.sin, "n": 2.5}, "integer n, got 2.5"),
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
            J[rest] = fd_jacobian(ev, X[rest], SingularChain.empty(2))
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
        # the reference is analytic only in r < 0.999 h of each disk, and
        # takes central differences elsewhere; tests/test_jacobians.py
        # checks the whole map against central differences
        centers, radii = chain_centers_radii(m)
        r2 = (X[:, None, 0] - centers[:, 0]) ** 2 + X[:, None, 1] ** 2
        disk = np.any(r2 < (0.999 * radii) ** 2, axis=1)
        assert np.count_nonzero(disk) >= 300
        assert np.array_equal(f.jacobian_many(X[disk]),
                              ref.jacobian_many(X[disk]))

    @pytest.mark.parametrize("m", [1, 3, 6, 9])
    def test_jacobian_is_rank_one(self, m, rng):
        # the map is circle-valued, so its one 2x2 minor vanishes
        f = make_example_field("vortex_chain", m=m)
        X = chain_probe_points(m, rng)
        X = X[distance_to_chain(X, f.singular_set) > 1e-6]
        J = f.jacobian_many(X)
        bound = 1e-12 * (1.0 + np.sum(J * J, axis=(1, 2)))
        assert np.all(np.abs(minors2(J)[:, 0]) <= bound)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_creases_take_the_constant_sides_zero_gradient(self, m):
        # on |x2| = H, where d/dx2 arcsin(x2 / H) is infinite: the tops and
        # bottoms of the squares outside their disks, of the end strips,
        # and of each gap at its middle, where H is exact
        centers, radii = chain_centers_radii(m)
        c, h = centers[:, 0], radii
        mid, hm = 0.5 * (c[:-1] + h[:-1] + c[1:] - h[1:]), 0.5 * (h[:-1] + h[1:])
        x1 = np.concatenate([c + 0.5 * h, c - 0.5 * h, mid, [-1.1, 1.1]])
        H = np.concatenate([h, h, hm, [h[0], h[-1]]])
        X = np.concatenate([np.stack([x1, H], 1), np.stack([x1, -H], 1)])
        f = make_example_field("vortex_chain", m=m)
        assert np.all(f.jacobian_many(X) == 0.0)
        # and just inside them the gradient is finite, if large
        X[:, 1] = np.nextafter(X[:, 1], 0.0)
        assert np.all(np.linalg.norm(f.jacobian_many(X), axis=(1, 2)) > 1.0)

    def test_nan_row_jacobian_is_non_finite(self):
        f = make_example_field("vortex_chain", m=3)
        for x in ([np.nan, 0.01], [0.1, np.nan]):
            with pytest.raises(NonFinite):
                f.jacobian_many(np.array([[0.3, 0.1], x]))

    def test_field_without_a_jacobian_is_refused(self):
        f = make_example_field("smooth_lift", f=lambda X: X[:, 0])
        assert np.allclose(f.evaluate((0.2, 0.3)), (math.cos(0.2), math.sin(0.2)))
        with pytest.raises(InvalidParams, match="smooth_lift.*without a Jacobian"):
            f.jacobian_at((0.2, 0.3))
