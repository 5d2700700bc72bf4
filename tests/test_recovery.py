import math

import numpy as np
import pytest

from conftest import VORTEX_AREA_B2

from relaxarea.chains import SingularChain, chain_csv_text
from relaxarea.domains import Ball, Cone
from relaxarea.errors import (
    DegreeMismatch,
    InvalidGeometry,
    InvalidParams,
    NonFinite,
)
from relaxarea.fields import (
    VectorField,
    chain_centers_radii,
    make_example_field,
    minors2,
)
from relaxarea.quadrature import area_functional, graph_functionals, integrate
from relaxarea.recovery import (
    cone_defect_field_4d,
    cone_defect_filler,
    cone_dipole,
    cone_extension_report,
    counterexample_sequence,
    cylinder_analogue_2d,
    disk_defect_field_3d,
    homogeneous_cone_extension,
    linear_disk_filler,
    point_removal_report,
    remove_point_singularity,
    vortex_smoothing_2d,
)

EPS_SCAN = [0.2 * 2.0**-j for j in range(7)]


def sample_ring(rng, n, r_lo, r_hi, count=100):
    X = rng.uniform(-1, 1, (count * 6, n))
    r = np.linalg.norm(X, axis=1)
    X = X[(r > r_lo) & (r < r_hi)][:count]
    assert len(X) == count
    return X


class TestVortexSmoothing:
    def test_agrees_with_input_outside_exactly(self, rng):
        v = make_example_field("vortex", d=1)
        ve = vortex_smoothing_2d(v, (0.0, 0.0), 1, 0.2)
        X = sample_ring(rng, 2, 0.2001, 1.0)
        assert np.array_equal(ve.evaluate_many(X), v.evaluate_many(X))

    def test_core_is_linear_and_norm_bounded(self, rng):
        v = make_example_field("vortex", d=2)
        ve = vortex_smoothing_2d(v, (0.0, 0.0), 2, 0.2)
        X = rng.uniform(-0.9, 0.9, (4000, 2))
        norms = np.linalg.norm(ve.evaluate_many(X), axis=1)
        assert np.max(norms) <= 1.0 + 1e-12
        core = X[np.linalg.norm(X, axis=1) < 0.1][:50]
        got = np.linalg.norm(ve.evaluate_many(core), axis=1)
        assert np.allclose(got, 2 * np.linalg.norm(core, axis=1) / 0.2)

    def test_no_singularities_inside(self):
        v = make_example_field("vortex", d=1)
        ve = vortex_smoothing_2d(v, (0.0, 0.0), 1, 0.2)
        assert len(ve.singular_set.cells) == 0
        ve.evaluate((0.0, 0.0))  # center is now regular

    def test_degree_mismatch_detected(self):
        v = make_example_field("vortex", d=2)
        with pytest.raises(DegreeMismatch):
            vortex_smoothing_2d(v, (0.0, 0.0), 1, 0.2)

    def test_area_bound_of_the_proof(self):
        # A(v_eps) <= A(v) + pi |d| + O(eps), here with the exact correction
        v = make_example_field("vortex", d=1)
        dom = Ball(2, 1.0)
        for eps in (0.2, 0.1, 0.05):
            ve = vortex_smoothing_2d(v, (0.0, 0.0), 1, eps)
            a = area_functional(ve, dom, 1e-7).value
            assert a <= VORTEX_AREA_B2 + math.pi + 1e-6
            predicted = (VORTEX_AREA_B2 + math.pi - math.pi * eps
                         + math.pi * eps**2 / 4)
            assert a == pytest.approx(predicted, abs=2e-3)

    def test_smoothing_on_chain_disk(self):
        # the ring 0.4 < |x| < 0.9 holds the smoothing disk, so only its
        # points outside the closed disk are compared, and they are equal
        chain = make_example_field("vortex_chain", m=3)
        c, eps = np.array([0.5, 0.0]), 0.05
        ve = vortex_smoothing_2d(chain, tuple(c), -1, eps)
        X = sample_ring(np.random.default_rng(78), 2, 0.4, 0.9, 400)
        X = X[np.hypot(*(X - c).T) > eps][:40]
        assert len(X) == 40
        assert np.array_equal(ve.evaluate_many(X), chain.evaluate_many(X))
        # inside it, in the ring and in the core, each value differs
        inside = c + np.array([[0.03, 0.0], [0.0, -0.04], [0.01, 0.005]])
        assert (ve.evaluate_many(inside) != chain.evaluate_many(inside)).any(
            axis=1).all()

    def test_ring_values_read_no_jacobian(self, counting_field):
        # the pinch probe and the ring's values read trace values only
        rng = np.random.default_rng(6)
        chain, calls = counting_field(make_example_field("vortex_chain", m=6))
        centers, radii = chain_centers_radii(6)
        c, eps = centers[1], 0.4 * radii[1]
        ve = vortex_smoothing_2d(chain, tuple(c), -1, eps)
        assert calls["jacobian"] == 0 and calls["evaluate"] > 0
        ring = c + sample_ring(rng, 2, 0.55, 0.95, 50) * eps
        ve.evaluate_many(ring)
        assert calls["jacobian"] == 0
        ve.jacobian_many(ring)
        assert calls["jacobian"] >= 1


class TestConeDipole:
    def test_trace_agreement_on_cone_boundary(self, rng):
        pv = make_example_field("planar_vortex")
        eps = 0.1
        w = cone_dipole(pv, (-1.0, 1.0), 1, eps)
        z = rng.uniform(-0.9, 0.9, 100)
        th = rng.uniform(-math.pi, math.pi, 100)
        r = eps * (1 - np.abs(z))
        pts = np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)
        gap = np.linalg.norm(
            w.evaluate_many(pts) - pv.evaluate_many(pts), axis=1
        )
        assert np.max(gap) <= 1e-9

    def test_agrees_with_input_outside(self, rng):
        pv = make_example_field("planar_vortex")
        w = cone_dipole(pv, (-1.0, 1.0), 1, 0.1)
        X = rng.uniform(-0.9, 0.9, (600, 3))
        rho = np.hypot(X[:, 0], X[:, 1])
        outside = rho > 0.1 * (1 - np.abs(X[:, 2])) + 1e-6
        X = X[outside][:100]
        assert np.array_equal(w.evaluate_many(X), pv.evaluate_many(X))

    def test_ring_values_read_no_jacobian(self, counting_field):
        # the pinch probe and the ring's values read trace values only
        rng = np.random.default_rng(3)
        pv, calls = counting_field(make_example_field("planar_vortex"))
        eps = 0.1
        w = cone_dipole(pv, (-1.0, 1.0), 1, eps)
        assert calls["jacobian"] == 0 and calls["evaluate"] > 0
        z = rng.uniform(-0.9, 0.9, 50)
        th = rng.uniform(-math.pi, math.pi, 50)
        r = eps * (1 - np.abs(z)) * rng.uniform(0.55, 0.95, 50)
        ring = np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)
        w.evaluate_many(ring)
        assert calls["jacobian"] == 0
        w.jacobian_many(ring)
        assert calls["jacobian"] >= 1

    @pytest.mark.parametrize("eps, z", [(0.2, 0.3), (0.05, -0.7), (0.3, -0.2)])
    def test_cross_section_is_the_smoothing(self, rng, eps, z):
        # at height z the dipole is the 2d smoothing of radius R(z): values
        # and the in-plane Jacobian block, inside the cone and outside it
        w = cone_dipole(make_example_field("planar_vortex"), (-1.0, 1.0), 1,
                        eps)
        r = float(Cone(3, (-1.0, 1.0), eps).profile(np.array([z]))[0])
        ve = vortex_smoothing_2d(make_example_field("vortex", d=1), (0.0, 0.0),
                                 1, r)
        X2 = sample_ring(rng, 2, 1e-3, 1.0, 2000) * 1.2 * r
        X3 = np.column_stack([X2, np.full(len(X2), z)])
        for got, want in ((w.evaluate_many(X3), ve.evaluate_many(X2)),
                          (w.jacobian_many(X3)[:, :, :2], ve.jacobian_many(X2))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_values_in_unit_disk(self, rng):
        pv = make_example_field("planar_vortex")
        w = cone_dipole(pv, (-1.0, 1.0), 1, 0.2)
        X = rng.uniform(-0.9, 0.9, (2000, 3))
        keep = np.hypot(X[:, 0], X[:, 1]) > 1e-6
        norms = np.linalg.norm(w.evaluate_many(X[keep]), axis=1)
        assert np.max(norms) <= 1.0 + 1e-12

    def test_minor_mass_reaches_pi_times_length(self):
        # int |M2| over the cone -> pi * |d| * H^1(segment) = 2 pi
        pv = make_example_field("planar_vortex")
        for eps, tol_rel in ((0.1, 2e-3), (0.025, 2e-4)):
            w = cone_dipole(pv, (-1.0, 1.0), 1, eps)
            m2, = graph_functionals(w, Cone(3, (-1.0, 1.0), eps), 1e-7,
                                    ("minor",))
            assert m2.value == pytest.approx(2 * math.pi, rel=tol_rel)

    def test_core_minor_pattern(self):
        # in the linear core at theta=0 only the (1,2) and (2,3) column
        # pairs survive, with the (1,2) minor 4d/r^2 dominating and the
        # (1,3) pair vanishing (the radial and axial columns are parallel)
        pv = make_example_field("planar_vortex")
        eps = 0.2
        w = cone_dipole(pv, (-1.0, 1.0), 1, eps)
        z = 0.5
        r = eps * (1 - z)
        M = minors2(w.jacobian_at((0.4 * r, 0.0, z)))
        m12, m13, m23 = M
        assert m12 == pytest.approx(4.0 / r**2, rel=1e-12)
        assert abs(m13) <= 1e-9
        assert abs(m23) == pytest.approx(4.0 * 0.4 * r * eps / r**3, rel=1e-12)
        assert abs(m23) < abs(m12)

    def test_gradient_mass_vanishes_with_eps(self):
        pv = make_example_field("planar_vortex")
        rows = []
        for eps in (0.1, 0.05, 0.025):
            w = cone_dipole(pv, (-1.0, 1.0), 1, eps)
            g, = graph_functionals(w, Cone(3, (-1.0, 1.0), eps), 1e-7, ("tv",))
            rows.append(g.value)
        assert rows[2] < rows[1] < rows[0]
        assert rows[2] <= 0.05 * rows[0] / 0.025 * 0.025 + 0.2  # O(eps) scale
        assert rows[2] < 0.2

    def test_degree_mismatch(self):
        pv = make_example_field("planar_vortex")
        with pytest.raises(DegreeMismatch):
            cone_dipole(pv, (-1.0, 1.0), 2, 0.1)

    def test_invalid_segment(self):
        pv = make_example_field("planar_vortex")
        with pytest.raises(InvalidGeometry):
            cone_dipole(pv, (1.0, -1.0), 1, 0.1)

    def test_a_declared_segment_outside_the_cone_is_refused(self):
        # the axis inside the cone becomes its two ends; a segment that the
        # input keeps outside the cone is a 1-chain, which cannot join them
        pv = make_example_field("planar_vortex")
        ends = SingularChain.points(3, [((0.0, 0.0, -1.0), 1),
                                        ((0.0, 0.0, 1.0), 1)])
        w = cone_dipole(pv, (-1.0, 1.0), 1, 0.1)
        assert chain_csv_text(w.singular_set) == chain_csv_text(ends)
        off_axis = SingularChain.segments(3, [
            (((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)), 1),
            (((0.8, 0.0, -1.0), (0.8, 0.0, 1.0)), 1)])
        f = VectorField(3, 2, pv._eval, pv._jac, singular_set=off_axis,
                        angle=pv._angle)
        with pytest.raises(InvalidParams, match="segment outside"):
            cone_dipole(f, (-1.0, 1.0), 1, 0.1)


class TestPointRemoval:
    def test_equals_field_outside_exactly(self, rng):
        u = disk_defect_field_3d()
        w = remove_point_singularity(u, (0, 0, 0), 0.2, 0.04,
                                     linear_disk_filler(0.2))
        X = sample_ring(rng, 3, 0.21, 0.9)
        assert np.array_equal(w.evaluate_many(X), u.evaluate_many(X))

    def test_ring_energy_scan_has_small_minimum(self):
        u = disk_defect_field_3d()
        vals = []
        for r in EPS_SCAN:
            w = remove_point_singularity(u, (0, 0, 0), r, r * r,
                                         linear_disk_filler(r))
            ring, _ = point_removal_report(w, (0, 0, 0), r, r * r, 1e-6)
            vals.append(ring.mass.value)
        assert min(vals) <= 0.05

    def test_delta_ball_scaling_exponents(self):
        # minor term scales as (delta/r)^{n-2}, gradient as (delta/r)^{n-1}
        u = disk_defect_field_3d()
        r = 0.1
        reports = {}
        for delta in (0.01, 0.005):
            w = remove_point_singularity(u, (0, 0, 0), r, delta,
                                         linear_disk_filler(r))
            _, core = point_removal_report(w, (0, 0, 0), r, delta, 1e-7)
            reports[delta] = core
        minor_ratio = reports[0.005].minor.value / reports[0.01].minor.value
        grad_ratio = reports[0.005].grad.value / reports[0.01].grad.value
        assert minor_ratio == pytest.approx(0.5, rel=1e-3)
        assert grad_ratio == pytest.approx(0.25, rel=1e-3)

    def test_invalid_scales(self):
        u = disk_defect_field_3d()
        with pytest.raises(InvalidGeometry):
            remove_point_singularity(u, (0, 0, 0), 0.1, 0.2,
                                     linear_disk_filler(0.1))


class TestConeExtension4d:
    def test_equals_field_outside_exactly(self, rng):
        u = cone_defect_field_4d()
        eps = 0.1
        w = homogeneous_cone_extension(u, (-1.0, 1.0), eps,
                                       filler=cone_defect_filler((-1.0, 1.0), eps))
        X = rng.uniform(-0.8, 0.8, (800, 4))
        rho = np.linalg.norm(X[:, :3], axis=1)
        X = X[rho > eps * (1 - np.abs(X[:, 3])) + 1e-6][:100]
        assert np.array_equal(w.evaluate_many(X), u.evaluate_many(X))

    def test_shell_gradient_scan_vanishes(self):
        u = cone_defect_field_4d()
        vals = []
        for eps in EPS_SCAN[:5]:
            fil = cone_defect_filler((-1.0, 1.0), eps)
            w = homogeneous_cone_extension(u, (-1.0, 1.0), eps, filler=fil)
            shell, _ = cone_extension_report(w, (-1.0, 1.0), eps, eps * eps,
                                             3e-5)
            vals.append(shell.grad.value)
        assert min(vals) <= 0.05
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_shell_minor_mass_decreases_with_eps(self):
        u = cone_defect_field_4d()
        vals = []
        for eps in (0.2, 0.1, 0.05):
            fil = cone_defect_filler((-1.0, 1.0), eps)
            w = homogeneous_cone_extension(u, (-1.0, 1.0), eps, filler=fil)
            shell, _ = cone_extension_report(w, (-1.0, 1.0), eps, eps * eps,
                                             3e-5)
            vals.append(shell.minor.value)
        assert all(np.isfinite(vals))
        assert vals[0] > vals[1] > vals[2]

    def test_core_mass_vanishes_like_eps_squared(self):
        # measured falls 4.1x and 4.0x per halving; a core Jacobian without
        # the chain-rule factor 1/eps on its transverse columns fell 16x
        u = cone_defect_field_4d()
        masses = []
        for eps in (0.2, 0.1, 0.05):
            fil = cone_defect_filler((-1.0, 1.0), eps)
            w = homogeneous_cone_extension(u, (-1.0, 1.0), eps, filler=fil)
            core = Cone(4, (-1.0, 1.0), eps * eps, codim=3)
            masses.append(graph_functionals(w, core, 1e-6, ("area",))[0].value)
        for coarse, fine in zip(masses, masses[1:]):
            assert 3.0 * fine <= coarse <= 5.0 * fine

    def test_axis_past_the_declared_segment_is_non_finite(self):
        # the segment ends at z = 1.5; past it the field is still singular
        u = cone_defect_field_4d()
        X = np.array([[0.3, 0.1, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]])
        for read in (u.evaluate_many, u.jacobian_many):
            with pytest.raises(NonFinite), np.errstate(divide="ignore",
                                                       invalid="ignore"):
                read(X)

    def test_delta_defaults_to_eps_squared(self):
        u = cone_defect_field_4d()
        w = homogeneous_cone_extension(u, (-1.0, 1.0), 0.1,
                                       filler=cone_defect_filler((-1.0, 1.0), 0.1))
        assert w.chart_breaks["t"] == (pytest.approx(0.1),)  # delta/eps = eps


class TestCounterexample:
    def test_ball_variant_det_is_exact(self):
        for k in (2, 4, 8, 16):
            f = counterexample_sequence("ball", k)
            res = integrate(
                lambda X: minors2(f.jacobian_many(X))[:, -1],
                Ball(3, 1.0 / k), 1e-9, breaks=f.chart_breaks,
            )
            assert abs(res.value - 4 * math.pi / 3) <= 1e-9 * 4 * math.pi / 3

    def test_both_variants_equal_vortex_outside(self, rng):
        sv = make_example_field("sphere_vortex")
        k = 8
        ball = counterexample_sequence("ball", k)
        cyl = counterexample_sequence("cylinder", k)
        X = sample_ring(rng, 3, 1.5 / k, 0.95, 300)
        keep = np.arctan2(np.hypot(X[:, 0], X[:, 1]), X[:, 2]) > 1.5 / k
        X = X[keep][:100]
        expect = sv.evaluate_many(X)
        assert np.allclose(ball.evaluate_many(X), expect, atol=1e-15)
        assert np.allclose(cyl.evaluate_many(X), expect, atol=1e-15)

    def test_cylinder_is_sphere_valued_and_rank_deficient(self, rng):
        f = counterexample_sequence("cylinder", 8)
        X = rng.uniform(-0.9, 0.9, (5000, 3))
        U = f.evaluate_many(X)
        assert np.max(np.abs(np.linalg.norm(U, axis=1) - 1)) <= 1e-9
        dets = minors2(f.jacobian_many(X[:500]))[:, -1]
        assert np.max(np.abs(dets)) <= 1e-9

    def test_cylinder_sweep_covers_all_but_polar_cap(self):
        k = 16
        f = counterexample_sequence("cylinder", k)
        for r in (0.2, 0.6):
            phi = np.linspace(1e-4, math.pi - 1e-4, 2000)
            pts = np.stack([r * np.sin(phi), np.zeros_like(phi),
                            r * np.cos(phi)], axis=1)
            U = f.evaluate_many(pts)
            lat = np.arccos(np.clip(U[:, 2], -1, 1))
            # image latitudes fill [1/k, pi]: the missing cap has angular
            # radius 1/k, i.e. area O(1/k^2) <= O(1/k)
            # lattice of 2000 samples along phi resolves alpha to ~pi/2000
            assert lat.min() == pytest.approx(1.0 / k, abs=2e-3)
            assert lat.min() >= 1.0 / k - 1e-9  # the cap is never entered
            assert lat.max() >= math.pi - 1e-3

    def test_cylinder_boundary_degree_zero(self):
        # S^2-valued with degree 0 on concentric spheres: the integral of
        # det over any ball between 1/k and 1 vanishes (it equals the
        # signed image volume)
        f = counterexample_sequence("cylinder", 8)
        res = integrate(
            lambda X: minors2(f.jacobian_many(X))[:, -1],
            Ball(3, 0.6), 1e-6, breaks=f.chart_breaks, raise_on_failure=False,
        )
        assert abs(res.value) <= 1e-6

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            counterexample_sequence("torus", 8)
        with pytest.raises(InvalidParams):
            counterexample_sequence("ball", 1)


class TestCylinderAnalogue2d:
    def test_continuous_across_seams(self, rng):
        k = 8
        f = cylinder_analogue_2d(k)
        alpha = 1.0 / k
        h = 1e-8
        rs = rng.uniform(0.2, 0.95, 50)
        for sign in (-1.0, 1.0):
            t0 = sign * alpha
            a = np.stack([rs * np.cos(t0 - h), rs * np.sin(t0 - h)], axis=1)
            b = np.stack([rs * np.cos(t0 + h), rs * np.sin(t0 + h)], axis=1)
            gap = np.linalg.norm(f.evaluate_many(a) - f.evaluate_many(b), axis=1)
            assert np.max(gap) < 1e-5
        th = rng.uniform(-math.pi, math.pi, 50)
        a = np.stack([(1 / k - h) * np.cos(th), (1 / k - h) * np.sin(th)], axis=1)
        b = np.stack([(1 / k + h) * np.cos(th), (1 / k + h) * np.sin(th)], axis=1)
        gap = np.linalg.norm(f.evaluate_many(a) - f.evaluate_many(b), axis=1)
        assert np.max(gap) < 1e-5

    def test_tv_overshoots_by_two_pi(self):
        f = cylinder_analogue_2d(32)
        g, = graph_functionals(f, Ball(2, 1.0), 1e-6, ("tv",))
        # analytic: 2 * (2pi - 2/k) * (1 - 1/k) + O(1/k)
        assert g.value == pytest.approx(4 * math.pi, rel=0.05)
