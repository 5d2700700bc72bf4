import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VORTEX_TV_B2, PLANAR_TV_B3, vortex_cube2_area_oracle

from relaxarea.domains import (
    Annulus,
    Ball,
    Cone,
    Cube,
    Difference,
    make_domain,
    row_norms,
)
from relaxarea.errors import (
    InvalidGeometry,
    InvalidParams,
    NoConvergence,
    NonFinite,
)
from relaxarea.fields import (
    VectorField,
    area_integrand,
    chain_centers_radii,
    make_example_field,
    minors2,
)
from relaxarea import quadrature
from relaxarea.quadrature import (
    QuadStats,
    area_functional,
    graph_functionals,
    integrate,
)
from relaxarea.recovery import (
    cone_defect_field_4d,
    cone_defect_filler,
    cone_dipole,
    counterexample_sequence,
    cylinder_analogue_2d,
    homogeneous_cone_extension,
    vortex_smoothing_2d,
)


def ones(X):
    return np.ones(X.shape[0])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("rows", [1, 10_000])
@pytest.mark.parametrize("order", ["C", "F"])
def test_row_norms_equal_linalg_norm_bit_for_bit(n, rows, order):
    rng = np.random.default_rng(n * rows)
    scale = 10.0 ** rng.uniform(-3, 3, (rows, 1))
    X = np.array(rng.standard_normal((rows, n)) * scale, order=order)
    X[::7, 0] = 0.0
    if rows > 1:
        X[1] = 0.0
        X[2, n - 1] = np.nan
    got = row_norms(X)
    want = np.linalg.norm(X, axis=1)
    assert got.tobytes() == want.tobytes()
    # and on a strided column slice
    want = np.linalg.norm(X[:, 1:], axis=1)
    assert row_norms(X[:, 1:]).tobytes() == want.tobytes()


class TestDomains:
    def test_ball2_volume(self):
        assert make_domain("ball", n=2, radius=1.0).volume() == pytest.approx(
            math.pi, abs=1e-10
        )

    def test_ball3_and_annulus_volume(self):
        assert Ball(3, 0.5).volume() == pytest.approx(4 * math.pi / 24, rel=1e-12)
        ann = Annulus(3, 0.5, 1.0)
        assert ann.volume() == pytest.approx(
            4 * math.pi / 3 * (1 - 0.125), rel=1e-12
        )

    def test_cone_volume_closed_form(self):
        # stack of disks of radius eps*(1-|z|): pi eps^2 * int (1-|z|)^2 dz
        cone = Cone(3, (-1.0, 1.0), 0.3)
        assert cone.volume() == pytest.approx(math.pi * 0.09 * 2 / 3, rel=1e-12)
        got = integrate(ones, cone, 1e-8)
        assert got.value == pytest.approx(cone.volume(), rel=1e-8)

    def test_cone_membership_profile(self):
        cone = Cone(3, (-1.0, 1.0), 0.2)
        assert (0.05, 0.0, 0.5) in cone
        assert (0.15, 0.0, 0.5) not in cone  # profile there is 0.1
        assert (0.05, 0.0, 1.2) not in cone

    def test_difference_membership(self):
        dom = make_domain(
            "difference",
            outer=Ball(3, 1.0),
            inner=Ball(3, 0.5),
        )
        x = np.array([0.7, 0.0, 0.0])
        assert tuple(x) in dom
        assert (0.3, 0.0, 0.0) not in dom

    # pairs without exact charts: each is refused when built
    @pytest.mark.parametrize("outer, inner", [
        (Ball(2, 1.0), Ball(2, 0.5, (0.4, 0.0))),  # off-centre
        (Ball(2, 1.0), Ball(2, 0.5, (1e-9, 0.0))),  # off by one part in 1e9
        (Cube(2, 1.0), Cube(2, 0.5, (0.75, 0.0))),  # sticks out
        (Cube(2, 1.0), Cube(2, 1.0)),  # equal: no peel box is left
        (Ball(3, 1.0), Cube(3, 0.5)),
        (Annulus(2, 0.5, 1.0), Ball(2, 0.25)),  # smaller than the hole
    ])
    def test_difference_without_exact_charts_refused(self, outer, inner):
        for build in (lambda: Difference(outer, inner),
                      lambda: make_domain("difference", outer=outer,
                                          inner=inner)):
            with pytest.raises(InvalidGeometry, match=(
                    f"a {outer.kind} minus a {inner.kind} has no exact charts")):
                build()

    @pytest.mark.parametrize("build, match", [
        (lambda: Annulus(3, 0.9, 0.3), "r_in < r_out"),
        (lambda: Cone(3, (1.0, -1.0), 0.1), "base"),
        (lambda: Ball(2, -1.0), "radius"),
        (lambda: make_domain("torus", n=3), "unknown domain kind"),
        # a parameter the kind does not read used to be dropped silently
        (lambda: make_domain("ball", n=2, centre=(0.3, 0.0)),
         r"ball does not read \['centre'\]"),
        (lambda: make_domain("cone", n=3, eps=0.2, t_min=0.5),
         r"cone does not read \['t_min'\]"),
        # a missing required key used to raise a bare KeyError
        (lambda: make_domain("ball", radius=0.5), "ball domains need 'n'"),
        (lambda: make_domain("annulus", n=2, r_out=1.0),
         "annulus domains need 'r_in'"),
        # a centre of another length used to build (a cube of volume 4
        # integrated to 8) or fail later in numpy
        (lambda: Cube(2, 1.0, center=(0, 0, 0)), "centre must be 2 finite"),
        (lambda: Ball(2, 1.0, (0.1, 0.2, 0.3)), "centre must be 2 finite"),
        (lambda: Annulus(3, 0.5, 1.0, (0.0,)), "centre must be 3 finite"),
        # cubes, like balls, annuli and fields, have n in 2..4
        (lambda: Cube(1, 1.0), "cubes supported for n in 2..4"),
        (lambda: Cube(6, 1.0), "cubes supported for n in 2..4"),
    ])
    def test_invalid_geometry(self, build, match):
        with pytest.raises(InvalidGeometry, match=match):
            build()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sizes_refused(self, bad):
        for build in (lambda: Ball(2, bad), lambda: Ball(3, 1.0, (0.0, bad, 0.0)),
                      lambda: Annulus(3, bad, 1.0), lambda: Annulus(2, 0.5, bad),
                      lambda: Cube(2, bad), lambda: Cube(2, 1.0, (bad, 0.0)),
                      lambda: Cone(3, (bad, 1.0), 0.2),
                      lambda: Cone(3, (-1.0, bad), 0.2),
                      lambda: Cone(3, (-1.0, 1.0), bad),
                      lambda: Cone(4, (-1.0, 1.0), 0.2, codim=3, t_min=bad)):
            with pytest.raises(InvalidGeometry):
                build()


#: every domain with charts, for the chart-weight check below
CHARTED_DOMAINS = {
    **{f"ball{n}": Ball(n, 1.0, (0.25,) * n) for n in (2, 3, 4)},
    **{f"annulus{n}": Annulus(n, 0.5, 1.0) for n in (2, 3, 4)},
    "cube2": Cube(2, 1.0, (0.25, -0.5)),
    "cube3": Cube(3, 0.5),
    **{f"cone{c}-t{t}": Cone(c + 1, (-1.0, 1.0), 0.3, codim=c, t_min=t)
       for c in (2, 3) for t in (0.0, 0.5)},
    "ball-minus-ball": Difference(Ball(3, 1.0), Ball(3, 0.5)),
    "annulus-minus-ball": Difference(Annulus(2, 0.25, 1.0), Ball(2, 0.5)),
    "cube-minus-cube": Difference(Cube(2, 1.0), Cube(2, 0.5, (0.2, 0.1))),
}


class TestChartWeights:
    # the integrand is called on every node of a cell, so no chart may give
    # a node zero or non-finite weight
    @pytest.mark.parametrize("breaks", [{}, {"r": (0.25, 0.75), "t": (0.5,),
                                             "phi": (0.3,), "theta": (-0.3, 0.3),
                                             "z": (0.5,), "x0": (0.5,)}])
    @pytest.mark.parametrize("name", sorted(CHARTED_DOMAINS))
    def test_weight_positive_at_every_initial_node(self, name, breaks):
        for chart in CHARTED_DOMAINS[name].charts():
            dim = len(chart.box)
            lo, hi = quadrature._split_box_at_breaks(chart.box, chart.axes,
                                                     breaks)
            Q, _ = quadrature._tensor_rule(quadrature.GAUSS_ORDER, dim)
            P = (lo[:, None, :] + Q * (hi - lo)[:, None, :]).reshape(-1, dim)
            w = chart.weight(P)
            assert w.shape == (len(P),)
            assert np.all(np.isfinite(w)) and np.all(w > 0), (name, chart.axes)


class TestChartGeometry:
    # each chart maps its interior Gauss nodes into the domain, with weight
    # |det d(to_physical)|, the differential taken by central differences
    @pytest.mark.parametrize("name", sorted(CHARTED_DOMAINS))
    def test_nodes_inside_and_weight_is_the_jacobian(self, name):
        dom, h = CHARTED_DOMAINS[name], 1e-6
        for chart in dom.charts():
            dim = len(chart.box)
            lo, hi = np.array(chart.box).T
            Q, _ = quadrature._tensor_rule(quadrature.GAUSS_ORDER, dim)
            P = lo + Q * (hi - lo)
            assert np.all(dom.membership(chart.to_physical(P))), chart.axes
            J = np.stack([(chart.to_physical(P + h * e)
                           - chart.to_physical(P - h * e)) / (2 * h)
                          for e in np.eye(dim)], axis=2)
            np.testing.assert_allclose(chart.weight(P),
                                       np.abs(np.linalg.det(J)), rtol=1e-6,
                                       err_msg=f"{name} {chart.axes}")


def stacked_spherical_map(P, k, center=None, profile=None):
    """The spherical chart's map as ``np.stack`` of its columns."""
    s = P[:, 0] if profile is None else P[:, 0] * profile(P[:, k])
    cols = [] if profile is None else [P[:, k]]  # last column first
    for j in range(1, k - 1):
        cols.append(s * np.cos(P[:, j]))
        s = s * np.sin(P[:, j])
    cols += [s * np.sin(P[:, k - 1]), s * np.cos(P[:, k - 1])]
    X = np.stack(cols[::-1], axis=1)
    return X if center is None else center + X


class TestSphericalChartColumns:
    # the chart writes its columns into one array, each entry as the stacked
    # columns gave it: balls and annuli in 2d, 3d and 4d, both cones, and
    # the shells of differences
    @pytest.mark.parametrize("name", [name for name in sorted(CHARTED_DOMAINS)
                                      if not name.startswith("cube")])
    def test_map_matches_the_stacked_columns_bit_for_bit(self, name):
        dom = CHARTED_DOMAINS[name]
        if isinstance(dom, Cone):
            k, center, profile = dom.codim, None, dom.profile
        else:
            k, profile = dom.n, None
            center = (dom.inner if isinstance(dom, Difference) else dom).center
        rng = np.random.default_rng(len(name))
        for chart in dom.charts():
            lo, hi = np.array(chart.box).T
            corners = np.array(list(itertools.product(*chart.box)))
            P = np.concatenate([lo + (hi - lo) * rng.random((5000, len(lo))),
                                corners])
            X = chart.to_physical(P)
            assert X.shape == (len(P), dom.n)
            assert X.tobytes() == stacked_spherical_map(
                P, k, center, profile).tobytes(), chart.axes


class TestIntegrate:
    def test_unit_over_disk(self):
        res = integrate(ones, Ball(2, 1.0), 1e-8)
        assert res.converged and res.error_estimate <= 1e-8
        assert res.value == pytest.approx(math.pi, rel=1e-10)

    def test_vortex_gradient_mass(self):
        v = make_example_field("vortex", d=1)
        grad, = graph_functionals(v, Ball(2, 1.0), 1e-8, ("tv",))
        assert grad.value == pytest.approx(VORTEX_TV_B2, rel=1e-10)

    def test_planar_vortex_gradient_mass(self):
        pv = make_example_field("planar_vortex")
        grad, minor = graph_functionals(pv, Ball(3, 1.0), 1e-8, ("tv", "minor"))
        assert grad.value == pytest.approx(PLANAR_TV_B3, rel=1e-9)
        assert abs(minor.value) <= 1e-12  # all 2x2 minors vanish off the axis

    def test_tolerance_floor(self):
        with pytest.raises(InvalidParams):
            integrate(ones, Ball(2, 1.0), 1e-12)

    def test_polynomial_exactness_fixed(self):
        # tensor Gauss of order 8 integrates total degree <= 15 exactly
        cube = Cube(2, 1.0)
        def f(X):
            return X[:, 0] ** 8 * X[:, 1] ** 6 + 3.0 * X[:, 0] ** 15 + 1.0
        exact = (2.0 / 9) * (2.0 / 7) + 4.0  # odd power integrates to zero
        res = integrate(f, cube, 1e-8)
        assert res.value == pytest.approx(exact, abs=1e-12)

    @given(st.lists(st.floats(-3, 3), min_size=6, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_polynomial_exactness_random_quadratics(self, coef):
        a, b, c, d, e, f0 = coef
        cube = Cube(3, 0.5, center=(0.2, -0.1, 0.4))

        def f(X):
            return (a + b * X[:, 0] + c * X[:, 1] ** 2 + d * X[:, 2] ** 3
                    + e * X[:, 0] * X[:, 1] + f0 * X[:, 2])

        lo, hi = cube.bounding_box()

        def exact_1d(p, lo, hi):
            return (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)

        vol1 = [hi[i] - lo[i] for i in range(3)]
        exact = (
            a * vol1[0] * vol1[1] * vol1[2]
            + b * exact_1d(1, lo[0], hi[0]) * vol1[1] * vol1[2]
            + c * vol1[0] * exact_1d(2, lo[1], hi[1]) * vol1[2]
            + d * vol1[0] * vol1[1] * exact_1d(3, lo[2], hi[2])
            + e * exact_1d(1, lo[0], hi[0]) * exact_1d(1, lo[1], hi[1]) * vol1[2]
            + f0 * vol1[0] * vol1[1] * exact_1d(1, lo[2], hi[2])
        )
        res = integrate(f, cube, 1e-6)
        assert res.value == pytest.approx(exact, abs=1e-12 + 1e-12 * abs(exact))

    def test_monotone_in_nested_domains(self):
        v = make_example_field("vortex", d=1)
        inner = area_functional(v, Ball(2, 0.5), 1e-7)
        outer = area_functional(v, Ball(2, 1.0), 1e-7)
        assert inner.value <= outer.value + 1e-7

    def test_additivity_of_differences(self):
        v = make_example_field("vortex", d=1)
        whole = area_functional(v, Ball(2, 1.0), 1e-8)
        inner = area_functional(v, Ball(2, 0.4), 1e-8)
        shell = area_functional(
            v, Difference(Ball(2, 1.0), Ball(2, 0.4)), 1e-8
        )
        budget = whole.abs_error + inner.abs_error + shell.abs_error + 1e-10
        assert abs(inner.value + shell.value - whole.value) <= budget

    def test_additivity_cube_difference(self):
        def f(X):
            return np.exp(X[:, 0]) + X[:, 1] ** 2
        outer, inner = Cube(2, 1.0), Cube(2, 0.5, center=(0.2, 0.1))
        whole = integrate(f, outer, 1e-9)
        part = integrate(f, inner, 1e-9)
        shell = integrate(f, Difference(outer, inner), 1e-9)
        assert part.value + shell.value == pytest.approx(whole.value, rel=1e-9)

    def test_constant_field_energy_triple(self):
        c = make_example_field("constant", value=(0.6, -0.8))
        grad, tva, minor = graph_functionals(c, Ball(2, 1.0), 1e-8,
                                             ("tv", "tv_area", "minor"))
        assert grad.value == 0.0
        assert tva.value == pytest.approx(math.pi, rel=1e-9)
        assert minor.value == 0.0

    def test_area_dominates_tv_area_dominates_volume(self):
        pv = make_example_field("planar_vortex")
        dom = Ball(3, 1.0)
        area = area_functional(pv, dom, 1e-7)
        tva, = graph_functionals(pv, dom, 1e-7, ("tv_area",))
        assert area.value >= tva.value - 1e-6
        assert tva.value >= dom.volume() - 1e-6

    def test_determinism(self):
        v = make_example_field("vortex", d=2)
        r1 = area_functional(v, Ball(2, 1.0), 1e-7)
        r2 = area_functional(v, Ball(2, 1.0), 1e-7)
        assert r1.value == r2.value and r1.error_estimate == r2.error_estimate

    def test_nonfinite_integrand_reported(self):
        def f(X):
            with np.errstate(invalid="ignore"):
                return np.log(X[:, 0])  # NaN on half the cube
        from relaxarea.errors import NonFinite
        with pytest.raises(NonFinite):
            integrate(f, Cube(2, 1.0), 1e-6)


class TestSingularGrading:
    """Cube-domain integration of a 1/r integrand: graded refinement down
    to the depth cap, where a cell keeps its own error estimate."""

    def test_modest_tolerance_converges(self):
        v = make_example_field("vortex", d=1)
        res = area_functional(v, Cube(2, 1.0), 1e-3)
        oracle = vortex_cube2_area_oracle()
        assert res.converged
        assert abs(res.value - oracle) <= 1e-3 * oracle

    def test_tight_tolerance_is_honestly_refused(self):
        v = make_example_field("vortex", d=1)
        with pytest.raises(NoConvergence,
                           match=r"^area did not reach tol=1e-08 \(estimate "):
            area_functional(v, Cube(2, 1.0), 1e-8)


class TestFailFast:
    """A depth-capped cell is final, so a refusal is decided as soon as the
    capped error alone exceeds tol times the largest reachable |value|."""

    def test_refusal_does_not_depend_on_the_cell_budget(self):
        v = make_example_field("vortex", d=1)
        raised = []
        for max_cells in (2000, 20000):
            with pytest.raises(NoConvergence) as info:
                area_functional(v, Cube(2, 1.0), 1e-8, max_cells=max_cells)
            raised.append(info.value)
        assert str(raised[0]) == str(raised[1])
        assert raised[0].value == raised[1].value
        assert raised[0].error_estimate == raised[1].error_estimate

    def test_refusal_is_decided_within_40_integrand_calls(self):
        v = make_example_field("vortex", d=1)
        calls = []

        def area(X):
            calls.append(len(X))
            return area_integrand(v.jacobian_many(X))

        with pytest.raises(NoConvergence):
            integrate(area, Cube(2, 1.0), 1e-8, singular_set=v.singular_set,
                      breaks=v.chart_breaks, max_cells=20000)
        assert len(calls) < 40  # one per wave; the heap makes 132

    def test_refusal_names_the_worst_capped_cell(self):
        v = make_example_field("vortex", d=1)  # singular at the origin
        res = area_functional(v, Cube(2, 1.0), 1e-8, raise_on_failure=False)
        centre, dist = res.capped_cell
        assert dist == pytest.approx(math.hypot(*centre), rel=1e-12)
        assert dist < 2.0 * 2.0**-14  # a cell at the depth cap of 14 halvings
        with pytest.raises(NoConvergence, match=(
                r"^area did not reach tol=1e-08 \(estimate .*\); worst "
                r"depth-capped cell at \(.*\), .* from the singular set$")) as info:
            area_functional(v, Cube(2, 1.0), 1e-8)
        assert info.value.capped_cell == res.capped_cell
        assert area_functional(v, Ball(2, 1.0), 1e-6).capped_cell is None

    def test_refusal_carries_the_counts_of_its_tree(self):
        v = make_example_field("vortex", d=1)
        res = area_functional(v, Cube(2, 1.0), 1e-8, raise_on_failure=False)
        with pytest.raises(NoConvergence) as info:
            area_functional(v, Cube(2, 1.0), 1e-8)
        assert info.value.stats == res.stats
        assert (res.stats.waves, res.stats.calls) == (29, 30)

    def test_chart_that_misses_tol_alone_does_not_refuse_the_whole(self):
        v = make_example_field("vortex", d=1)
        # the second of the two charts is this box, which holds the vortex
        # point; its capped error exceeds 7e-7 of its own value, but not of
        # the whole's
        small = Cube(2, 0.5, center=(0.25, 0.0))
        dom = Difference(Cube(2, 1.0, center=(-0.25, 0.5)),
                         Cube(2, 0.5, center=(0.25, 1.0)))
        boxes = [ch.box for ch in dom.charts()]
        assert len(boxes) == 2
        assert np.array_equal(np.array(boxes[1]).T, small.bounding_box())
        with pytest.raises(NoConvergence):
            area_functional(v, small, 7e-7, max_cells=200)
        assert area_functional(v, dom, 7e-7, max_cells=200).converged

    def test_max_cells_is_a_budget_per_integral(self):
        # neither chart converges at 1e-8; together they hold max_cells cells,
        # not max_cells each
        v = make_example_field("vortex", d=1)
        dom = Difference(Cube(2, 1.0, center=(-0.25, 0.5)),
                         Cube(2, 0.5, center=(0.25, 1.0)))
        initial = sum(len(quadrature._split_box_at_breaks(
            ch.box, ch.axes, v.chart_breaks)[0]) for ch in dom.charts())
        res = area_functional(v, dom, 1e-8, max_cells=50,
                              raise_on_failure=False)
        assert not res.converged
        # each split evaluates two cells and adds one to the tree
        per_cell = quadrature.GAUSS_ORDER**2
        assert (res.nodes_used // per_cell + initial) // 2 == 50

    def test_cell_flat_along_its_open_axes_is_final(self):
        # the planar vortex does not vary along its singular line, so a cell
        # next to it that reaches the depth cap on the two normal axes is
        # final rather than halved along the line again and again
        pv = make_example_field("planar_vortex")
        res = area_functional(pv, Cube(3, 1.0), 5e-7, raise_on_failure=False)
        assert not res.converged and res.nodes_used < 10**6
        assert abs(res.value - 2.0 * vortex_cube2_area_oracle()) <= res.abs_error
        assert res.capped_cell.distance < 2.0 * 2.0**-14

    def test_converging_component_refines_past_a_decided_one(self):
        v = make_example_field("vortex", d=1)

        def bump(X):  # smooth, but needs a few hundred cells to reach 1e-8
            return np.exp(-((X[:, 0] - 0.5) ** 2 + (X[:, 1] - 0.3) ** 2) / 0.003)

        def pair(X):
            return np.stack([bump(X), REFERENCE_INTEGRANDS["tv"](
                v.jacobian_many(X))], axis=1)

        res = integrate(pair, Cube(2, 1.0), 1e-8, singular_set=v.singular_set,
                        raise_on_failure=False)
        alone = integrate(bump, Cube(2, 1.0), 1e-8)
        assert res.error_estimate[0] <= 1e-8 < res.error_estimate[1]
        assert abs(res.value[0] - alone.value) <= res.abs_error[0] + alone.abs_error
        assert res.nodes_used < 1000 * 80  # decided, not run to 20000 cells
        with pytest.raises(NoConvergence, match=r"^component 1 did not reach") as info:
            integrate(pair, Cube(2, 1.0), 1e-8, singular_set=v.singular_set)
        assert "component 0" not in str(info.value)


# ---------------------------------------------------------------------------
# one refinement tree for several integrands
# ---------------------------------------------------------------------------

#: the graph functionals' integrands written out on their own: the reference
#: that the fused tree is checked against
REFERENCE_INTEGRANDS = {
    "area": area_integrand,
    "tv": lambda J: np.sqrt(np.sum(J * J, axis=(1, 2))),
    "tv_area": lambda J: np.sqrt(1.0 + np.sum(J * J, axis=(1, 2))),
    "minor": lambda J: np.linalg.norm(minors2(J), axis=1),
}


def _chain_disk():
    centers, radii = chain_centers_radii(6)
    return (make_example_field("vortex_chain", m=6),
            Ball(2, radii[0], tuple(centers[0])))


#: (field, domain) of one integral of each acceptance experiment, at tol 1e-6
ACCEPTANCE_INTEGRALS = {
    "vortex-ball2": lambda: (make_example_field("vortex", d=1), Ball(2, 1.0)),
    "planar-vortex-ball3": lambda: (make_example_field("planar_vortex"),
                                    Ball(3, 1.0)),
    "smoothing-row": lambda: (
        vortex_smoothing_2d(make_example_field("vortex", d=1), (0.0, 0.0), 1,
                            0.1),
        Ball(2, 1.0)),
    "cone-dipole-w": lambda: (
        cone_dipole(make_example_field("planar_vortex"), (-1.0, 1.0), 1, 0.1),
        Cone(3, (-1.0, 1.0), 0.1)),
    "cone-dipole-base": lambda: (make_example_field("planar_vortex"),
                                 Cone(3, (-1.0, 1.0), 0.1)),
    "chain-disk": _chain_disk,
    "counterexample-row": lambda: (counterexample_sequence("ball", 4),
                                   Ball(3, 1.0)),
    "cyl2d-row": lambda: (cylinder_analogue_2d(8), Ball(2, 1.0)),
}


#: value and abs_error of each functional, in the order of
#: REFERENCE_INTEGRANDS, at tol 1e-6, as the engine gave them while it
#: estimated a cell's error as |G8 - G4| with the embedded Gauss-4 rule
GAUSS4_ENGINE = {
    "chain-disk": (
        (1.5870087140701936, 1.1850076475639071e-11),
        (1.5707963267948966, 0.0),
        (1.5870087140701936, 1.1850076475639071e-11),
        (2.5072682087457603e-16, 3.973233746847143e-17),
    ),
    "cone-dipole-base": (
        (0.6288416072918498, 6.5503158452884236e-15),
        (0.6283185307179586, 0.0),
        (0.6288416072918498, 6.5503158452884236e-15),
        (6.557894645983365e-16, 3.240950670981268e-16),
    ),
    "cone-dipole-w": (
        (6.606963560834835, 7.993605777301127e-15),
        (0.5363728178570719, 0.0),
        (0.5368998448590205, 5.329070518200751e-15),
        (6.287110663282465, 2.6801033466722846e-15),
    ),
    "counterexample-row": (
        (18.1356810652322, 4.135458437914963e-07),
        (8.78385535010549, 2.0029723946102251e-07),
        (9.816376681149604, 2.1158831436940417e-07),
        (13.98940626035861, 3.189988166951707e-07),
    ),
    "cyl2d-row": (
        (12.542494961918399, 8.659943768696277e-06),
        (11.649283161771898, 8.398311805948855e-06),
        (12.542494961918399, 8.659943768696277e-06),
        (6.591713125024574e-16, 2.0285027090003015e-16),
    ),
    "planar-vortex-ball3": (
        (10.983248997319556, 9.769809060866663e-06),
        (9.869604401089358, 8.881784197001252e-16),
        (10.983248997319556, 9.769809060866663e-06),
        (7.209449144073279e-16, 1.9323047991165374e-16),
    ),
    "smoothing-row": (
        (10.046956243421773, 6.4376208852579e-07),
        (6.191170188728525, 5.551115123125783e-17),
        (7.119792551837309, 6.437620880817008e-07),
        (3.141592653589793, 1.6289805944803242e-16),
    ),
    "vortex-ball2": (
        (7.211799724210182, 1.9898104843818487e-06),
        (6.283185307179586, 0.0),
        (7.211799724210182, 1.9898104843818487e-06),
        (2.0886320216545612e-16, 2.393215676145999e-16),
    ),
}


class TestGraphFunctionals:
    @pytest.mark.parametrize("case", sorted(ACCEPTANCE_INTEGRALS))
    def test_values_agree_with_the_gauss4_engine(self, case):
        field, dom = ACCEPTANCE_INTEGRALS[case]()
        got = graph_functionals(field, dom, 1e-6, tuple(REFERENCE_INTEGRANDS))
        for name, res, (value, abs_error) in zip(REFERENCE_INTEGRANDS, got,
                                                  GAUSS4_ENGINE[case], strict=True):
            assert abs(res.value - value) <= res.abs_error + abs_error, (name, res)

    @pytest.mark.parametrize("case", sorted(ACCEPTANCE_INTEGRALS))
    def test_fused_tree_matches_separate_integrals(self, case):
        field, dom = ACCEPTANCE_INTEGRALS[case]()
        names = tuple(REFERENCE_INTEGRANDS)
        fused = graph_functionals(field, dom, 1e-6, names)
        for name, got in zip(names, fused):
            integrand = REFERENCE_INTEGRANDS[name]
            ref = integrate(lambda X: integrand(field.jacobian_many(X)), dom,
                            1e-6, singular_set=field.singular_set,
                            breaks=field.chart_breaks, raise_on_failure=False)
            assert got.converged, name
            assert got.nodes_used == fused[0].nodes_used
            assert abs(got.value - ref.value) <= got.abs_error + ref.abs_error, (
                name, got, ref)

    def test_fused_tree_no_larger_than_largest_separate_tree(self):
        # the 4d cone shell's area, TV and minor mass are roughest along
        # different axes; splitting by the roughest of all components
        # instead of the one that ranked the cell grows this tree 8-fold
        segment = (-1.0, 1.0)
        ext = homogeneous_cone_extension(cone_defect_field_4d(), segment, 0.2,
                                         0.04, cone_defect_filler(segment, 0.2))
        shell = Cone(4, segment, 0.2, codim=3, t_min=0.2)
        names = ("area", "tv", "minor")
        fused = graph_functionals(ext, shell, 1e-5, names)
        alone = [graph_functionals(ext, shell, 1e-5, (name,))[0]
                 for name in names]
        assert fused[0].nodes_used <= max(r.nodes_used for r in alone)
        for got, ref in zip(fused, alone):
            assert abs(got.value - ref.value) <= got.abs_error + ref.abs_error

    def test_cone_shell_minor_mass_within_its_estimate(self):
        # a smooth even part dominates the pair norms of this integrand's
        # profiles while its odd part decays slowly; read from the pair norms
        # alone, the minor mass converged at 1.0462153 with an estimate of
        # 1.2e-6, so the estimate also reads the parity that is the smaller
        # (1.0462536364: the Gauss-4 engine at 1e-7, estimate 1.0e-7)
        segment = (-1.0, 1.0)
        ext = homogeneous_cone_extension(cone_defect_field_4d(), segment, 0.2,
                                         0.04, cone_defect_filler(segment, 0.2))
        shell = Cone(4, segment, 0.2, codim=3, t_min=0.2)
        minor = graph_functionals(ext, shell, 1e-5, ("minor",))[0]
        assert abs(minor.value - 1.0462536364) <= minor.abs_error

    # node counts of the one-integrand engine these trees must keep
    @pytest.mark.parametrize("kind, params, dom, tol, nodes", [
        ("vortex", {"d": 1}, Ball(2, 1.0), 1e-6, 64),
        ("vortex", {"d": 2}, Cube(2, 1.0), 3e-6, 16576),
        ("planar_vortex", {}, Ball(3, 1.0), 1e-6, 3584),
    ])
    def test_scalar_tree_unchanged(self, kind, params, dom, tol, nodes):
        res = area_functional(make_example_field(kind, **params), dom, tol)
        assert res.converged and res.nodes_used == nodes

    def test_scalar_refusal_value(self):
        v = make_example_field("vortex", d=1)
        with pytest.raises(NoConvergence) as info:
            area_functional(v, Cube(2, 1.0), 1e-8, max_cells=2000)
        assert info.value.value == 8.364443029613083  # bit for bit
        res = area_functional(v, Cube(2, 1.0), 1e-8, raise_on_failure=False)
        assert (res.value, res.abs_error, res.nodes_used) == (
            8.364443029613083, 1.3266810982166541e-05, 17344)
        assert res.capped_cell.centre == (-2.0**-14, 2.0**-14)
        # the value of the same refusal run on to its 2000-cell cap
        estimate = info.value.error_estimate * info.value.value
        assert abs(info.value.value - 8.364443029588793) <= estimate

    def test_scalar_refusal_stats(self):
        # the benchmark's refusal (its 2000-cell budget is never reached): a
        # wave per level to the depth cap, one integrand call for the first
        # cell and one per wave
        v = make_example_field("vortex", d=1)
        res = area_functional(v, Cube(2, 1.0), 1e-8, max_cells=2000,
                              raise_on_failure=False)
        assert res.nodes_used == 17344
        assert res.stats == QuadStats(cells=136, final_cells=4, max_depth=14,
                                      waves=29, calls=30, points=17344)

    def test_capped_3d_tree_value(self):
        # 1 + 1/r^2 converges with depth-capped cells at the origin
        res = area_functional(make_example_field("sphere_vortex"), Cube(3, 1.0),
                              1e-6)
        assert (res.value, res.abs_error, res.nodes_used) == (
            23.348245376688855, 2.3344881194047342e-05, 905728)  # bit for bit
        assert res.capped_cell.centre == (-2.0**-14, -2.0**-14, 2.0**-14)

    def test_result_types_of_vector_and_scalar_integrands(self):
        def first(X):
            return np.exp(X[:, 0])

        def pair(X):
            return np.stack([first(X), np.exp(-8.0 * X[:, 1] ** 2)], axis=1)

        res = integrate(pair, Ball(2, 1.0), 1e-8)
        alone = integrate(first, Ball(2, 1.0), 1e-8)
        for got in (res.value, res.error_estimate, res.abs_error):
            assert isinstance(got, np.ndarray) and got.shape == (2,)
        for got in (alone.value, alone.error_estimate, alone.abs_error):
            assert isinstance(got, float)
        # the shared tree can refine further than the lone one
        assert res.nodes_used >= alone.nodes_used
        assert abs(res.value[0] - alone.value) <= res.abs_error[0] + alone.abs_error

    @pytest.mark.parametrize("names", [("area", "minor"), ("minor", "area")])
    def test_zero_component_neither_blocks_nor_ends_refinement(self, names):
        pv = make_example_field("planar_vortex")  # minors vanish off the axis
        parts = graph_functionals(pv, Ball(3, 1.0), 1e-6, names)
        area, minor = parts if names[0] == "area" else parts[::-1]
        alone = area_functional(pv, Ball(3, 1.0), 1e-6)
        assert abs(minor.value) <= 1e-12 and minor.converged
        assert area.converged and alone.nodes_used > 1000  # refined
        assert (area.value, area.nodes_used) == (alone.value, alone.nodes_used)

    def test_converged_is_the_and_of_components(self):
        v = make_example_field("vortex", d=1)  # circle-valued: minors vanish
        minor, tv = graph_functionals(v, Cube(2, 1.0), 1e-8, ("minor", "tv"),
                                      max_cells=200, raise_on_failure=False)
        assert minor.converged and not tv.converged

        def pair(X):
            J = v.jacobian_many(X)
            return np.stack([REFERENCE_INTEGRANDS["minor"](J),
                             REFERENCE_INTEGRANDS["tv"](J)], axis=1)

        res = integrate(pair, Cube(2, 1.0), 1e-8, singular_set=v.singular_set,
                        max_cells=200, raise_on_failure=False)
        assert not res.converged
        assert res.error_estimate[0] <= 1e-8 < res.error_estimate[1]
        with pytest.raises(NoConvergence, match=r"^component 1 did not reach"):
            integrate(pair, Cube(2, 1.0), 1e-8, singular_set=v.singular_set,
                      max_cells=200)

    def test_no_convergence_names_each_missed_functional(self):
        v = make_example_field("vortex", d=1)
        names = ("minor", "tv", "tv_area")
        parts = graph_functionals(v, Cube(2, 1.0), 1e-8, names, max_cells=200,
                                  raise_on_failure=False)
        worst = max(parts[1:], key=lambda r: r.error_estimate)
        with pytest.raises(NoConvergence) as info:
            graph_functionals(v, Cube(2, 1.0), 1e-8, names, max_cells=200)
        msg = str(info.value)
        assert "tv did not reach tol=1e-08" in msg
        assert "tv_area did not reach tol=1e-08" in msg
        assert "minor" not in msg
        assert info.value.value == worst.value
        assert info.value.error_estimate == worst.error_estimate

    def test_unknown_functional_rejected(self):
        v = make_example_field("vortex", d=1)
        with pytest.raises(InvalidParams):
            graph_functionals(v, Ball(2, 1.0), 1e-6, ("area", "energy"))

    def test_domain_of_another_dimension_refused(self):
        # the planar vortex lives in R^3; over a disk it used to fail in numpy
        v = make_example_field("planar_vortex")
        with pytest.raises(InvalidGeometry, match=(
                r"field 'planar_vortex' lives in R\^3, the ball domain in R\^2")):
            area_functional(v, Ball(2, 1.0), 1e-6)


class TestQuadStats:
    @pytest.mark.parametrize("case", ["vortex-ball2", "planar-vortex-ball3",
                                      "cone-dipole-base", "chain-disk"])
    def test_counts_match_the_integrand_calls(self, case):
        field, dom = ACCEPTANCE_INTEGRALS[case]()
        seen = []

        def f(X):
            seen.append(len(X))
            return area_integrand(field.jacobian_many(X))

        res = integrate(f, dom, 1e-6, singular_set=field.singular_set,
                        breaks=field.chart_breaks)
        stats = res.stats
        assert stats.calls == len(seen)
        assert stats.points == sum(seen) == res.nodes_used
        initial = sum(len(quadrature._split_box_at_breaks(
            ch.box, ch.axes, field.chart_breaks)[0]) for ch in dom.charts())
        # each split evaluates two cells and adds one to the table
        per_cell = quadrature.GAUSS_ORDER**dom.n
        assert 2 * stats.cells - initial == res.nodes_used // per_cell
        assert stats.final_cells == 0 and res.capped_cell is None
        assert stats.max_depth <= quadrature.MAX_DEPTH

    def test_wide_waves_call_in_blocks(self):
        # a 3d sphere-vortex wave holds more than BLOCK_POINTS points
        seen = []
        field = make_example_field("sphere_vortex")

        def f(X):
            seen.append(len(X))
            return area_integrand(field.jacobian_many(X))

        res = integrate(f, Cube(3, 1.0), 1e-4, singular_set=field.singular_set)
        assert max(seen) <= quadrature.BLOCK_POINTS < res.nodes_used
        assert res.stats.calls == len(seen) > res.stats.waves
        assert res.stats.points == sum(seen) == res.nodes_used

    def test_reruns_compare_equal_and_components_share_the_stats(self):
        v = make_example_field("vortex", d=1)
        first = graph_functionals(v, Ball(2, 1.0), 1e-6, ("area", "tv"))
        assert first == graph_functionals(v, Ball(2, 1.0), 1e-6, ("area", "tv"))
        assert first[0].stats is first[1].stats is not None


class TestCellReduction:
    """A cell's value and error are 1-d products of its rows with the rule's
    weights, so they do not depend on the cells evaluated with it."""

    @pytest.mark.parametrize("dim", [2, 3, 4])  # 64, 512 and 4096 nodes
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_rows_reduce_as_one_dimensional_products(self, dim, K, rng):
        _, w8 = quadrature._tensor_rule(quadrature.GAUSS_ORDER, dim)
        rules = quadrature._cell_rules(dim)  # the Gauss-8 weights, null rules
        n8 = len(w8)
        assert n8 == 8**dim and rules.shape == (1 + 6 * dim, n8)
        C = 9
        F = (rng.normal(size=(C, K, n8))
             * 10.0 ** rng.uniform(-3, 3, (C, K, 1)))
        # the Gauss-8 rule alone and all the rules at once, as the engine
        # reduces a cell's nodes
        for rows, w, want in (
                (F, w8, [[r @ w8 for r in cell] for cell in F]),
                (F[:, :, None, :], rules,
                 [[[r @ v for v in rules] for r in cell] for cell in F])):
            got = quadrature._dots(rows, w)
            assert got.shape == (C, K) + w.shape[:-1]
            assert got.tobytes() == np.array(want).tobytes()
            for i in range(C):
                alone = quadrature._dots(rows[i:i + 1], w)
                assert alone.tobytes() == got[i:i + 1].tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_cell_alone_equals_its_row_in_a_wave(self, dim, K):
        def f(X):
            r2 = np.sum(X * X, axis=1)
            cols = [np.exp(X[:, 0]), 1.0 / (1e-3 + r2), np.sin(7.0 * X[:, -1]),
                    np.sqrt(r2)]
            return cols[0] if K == 1 else np.stack(cols[:K], axis=1)

        tree = quadrature._Tree(quadrature._Integrand(f), Cube(dim, 1.0).charts(),
                                None, {})
        C = 5
        lo = np.linspace(-1.0, 0.5, C)[:, None] * np.linspace(1.0, 0.3, dim)
        hi = lo + np.linspace(0.7, 0.1, dim)
        splits = np.zeros((C, dim))
        wave = tree.eval_cells(lo, hi, splits, np.zeros(C))
        assert wave.rows.shape[0] == C and wave.K == K
        for i in range(C):
            alone = tree.eval_cells(lo[i:i + 1], hi[i:i + 1], splits[i:i + 1],
                                    np.zeros(1))
            assert alone.rows.tobytes() == wave.rows[i:i + 1].tobytes()


class _Captured(Exception):
    """Raised by a stand-in for ``integrate`` to hand over its integrand."""


def graph_integrand(monkeypatch, field, names):
    """The integrand that ``graph_functionals`` passes to ``integrate``."""
    def capture(f, *args, **kwargs):
        raise _Captured(f)

    monkeypatch.setattr(quadrature, "integrate", capture)
    with pytest.raises(_Captured) as info:
        graph_functionals(field, Ball(field.n, 1.0), 1e-6, names)
    monkeypatch.undo()
    return info.value.args[0]


def stack_field(J):
    """A field whose analytic Jacobian is the given stack (N, m, n)."""
    _, m, n = J.shape
    return VectorField(n, m, lambda X: np.zeros((len(X), m)), lambda X: J)


#: each graph functional's integrand on its own, bit for bit the columns of
#: the shared integrand
EXACT_INTEGRANDS = {
    "area": area_integrand,
    "tv": lambda J: np.sqrt(np.sum(J * J, axis=(1, 2))),
    "tv_area": lambda J: np.sqrt(1.0 + np.sum(J * J, axis=(1, 2))),
    "minor": lambda J: np.sqrt(np.sum(minors2(J) ** 2, axis=1)),
}


class TestSharedIntegrand:
    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_columns_match_each_integrand_bit_for_bit(self, m, n, rng,
                                                      monkeypatch):
        N = 777
        J = rng.normal(size=(N, m, n)) * 10.0 ** rng.uniform(-8, 4, (N, 1, 1))
        J[:5] = 0.0
        field = stack_field(J)
        X = np.zeros((N, n))
        for k in range(1, 5):
            for names in itertools.permutations(tuple(EXACT_INTEGRANDS), k):
                got = graph_integrand(monkeypatch, field, names)(X)
                assert got.shape == (N, k)
                for col, name in enumerate(names):
                    assert np.array_equal(got[:, col], EXACT_INTEGRANDS[name](J)), (
                        names, name)

    @pytest.mark.parametrize("names", [("area",), ("tv",), ("minor", "tv_area")])
    def test_non_finite_jacobian_is_refused(self, names):
        def jac(X):
            J = np.ones((len(X), 2, 2))
            J[len(X) // 2, 1, 0] = np.nan
            return J

        field = VectorField(2, 2, lambda X: np.zeros((len(X), 2)), jac)
        with pytest.raises(NonFinite):
            graph_functionals(field, Ball(2, 1.0), 1e-6, names)

    @pytest.mark.parametrize("names, calls", [
        (("area",), 1), (("minor", "tv"), 1), (("area", "minor"), 1),
        (("tv", "tv_area"), 0)])
    def test_minors_once_per_call_through_the_module(self, names, calls, rng,
                                                     monkeypatch):
        # a wrapper put on quadrature.minors2 (as a tracer does) sees each
        # call, once however many columns need the minors
        J = rng.normal(size=(40, 2, 3))
        f = graph_integrand(monkeypatch, stack_field(J), names)
        seen = []
        monkeypatch.setattr(quadrature, "minors2",
                            lambda A: seen.append(len(A)) or minors2(A))
        f(np.zeros((40, 3)))
        assert seen == [40] * calls


# ---------------------------------------------------------------------------
# the wave engine against the heap schedule it replaced
# ---------------------------------------------------------------------------


def reference_heap(f, domain, tol, singular_set=None, breaks=None,
                   max_cells=20000):
    """The one-split-per-call schedule that the wave engine replaced, on the
    engine's own cell evaluation: each chart in turn pops its worst cell from
    a heap, splits it or keeps it as final at the depth cap, and stops once
    each component has met tol or been decided.  Returns (value, abs_error,
    nodes_used, capped_cell, integrand calls)."""
    calls = []

    def counted(X):
        calls.append(len(X))
        return f(X)

    integs = [quadrature._Tree(
        quadrature._Integrand(counted), [chart], singular_set,
        breaks or {}) for chart in domain.charts()]
    capped = [[] for _ in integs]  # each chart's final cells
    seq = itertools.count()
    heaps = []
    for integ in integs:
        first = integ.cells
        heaps.append([(r, next(seq), first.take([i]))
                      for i, r in enumerate(first.rank)])
        heapq.heapify(heaps[-1])
        integ.total_val = sum(first.value)
        integ.total_err = sum(first.err)
    decided = False
    for integ, heap, final in zip(integs, heaps, capped):
        while heap:
            scale = np.maximum(np.abs(integ.total_val), quadrature.SCALE_FLOOR)
            met = integ.total_err <= tol * scale
            if np.all(met | decided) or len(final) + len(heap) >= max_cells:
                break
            _, _, cell = heapq.heappop(heap)
            if cell.splits.min() >= quadrature.MAX_DEPTH:
                final.append(cell)  # keeps cell.err in the total
            else:
                children = integ._split(cell.rows)
                integ.total_val += sum(children.value) - cell.value[0]
                integ.total_err += sum(children.err) - cell.err[0]
                for i, r in enumerate(children.rank):
                    heapq.heappush(heap, (r, next(seq), children.take([i])))
            if any(capped):
                # the capped error alone exceeds tol times the largest
                # |value| that refinement can still reach, over all charts
                errs = [sum((c.err[0] for c in cs), 0.0) for cs in capped]
                reach = sum(np.abs(i.total_val) + (i.total_err - e)
                            for i, e in zip(integs, errs))
                decided = decided | (sum(errs) > tol * np.maximum(
                    reach, quadrature.SCALE_FLOOR))

    rows = [(tuple(c.splits[0]), tuple(c.lo[0]), tuple(c.hi[0]), c.value[0],
             c.err[0]) for heap, final in zip(heaps, capped)
            for c in final + [c for _, _, c in heap]]
    rows.sort(key=lambda r: r[:3])
    value, err = sum(r[3] for r in rows), sum(r[4] for r in rows)
    scale = np.maximum(np.abs(value), quadrature.SCALE_FLOOR)
    shares = [(np.max(c.err[0] / scale), integ, c)
              for integ, final in zip(integs, capped) for c in final]
    worst = None
    if shares:
        _, integ, cell = max(shares, key=lambda p: p[0])
        worst = integ.capped_cell(cell)
    return value, err, sum(i.nodes_used for i in integs), worst, len(calls)


def _stacked(field, names):
    return lambda X: np.stack([REFERENCE_INTEGRANDS[name](
        field.jacobian_many(X)) for name in names], axis=1)


class TestWaveEngine:
    """Waves split the worst cells, in rank order, until what is left would
    meet tol; on every acceptance integral they grow the heap's tree."""

    @pytest.mark.parametrize("case", sorted(ACCEPTANCE_INTEGRALS))
    def test_acceptance_trees_match_the_heap(self, case):
        field, dom = ACCEPTANCE_INTEGRALS[case]()
        f = _stacked(field, tuple(REFERENCE_INTEGRANDS))
        kw = dict(singular_set=field.singular_set, breaks=field.chart_breaks)
        got = integrate(f, dom, 1e-6, raise_on_failure=False, **kw)
        value, err, nodes, _, _ = reference_heap(f, dom, 1e-6, **kw)
        assert got.converged
        assert np.array_equal(got.value, value)
        assert np.array_equal(got.abs_error, err)
        assert got.nodes_used == nodes

    @pytest.mark.parametrize("kind, params, dom, tol", [
        ("vortex", {"d": 1}, Ball(2, 1.0), 1e-6),
        ("vortex", {"d": 2}, Cube(2, 1.0), 3e-6),
        ("planar_vortex", {}, Ball(3, 1.0), 1e-6),
    ])
    def test_pinned_trees_match_the_heap(self, kind, params, dom, tol):
        field = make_example_field(kind, **params)
        got = area_functional(field, dom, tol)
        value, err, nodes, _, calls = reference_heap(
            _stacked(field, ("area",)), dom, tol,
            singular_set=field.singular_set, breaks=field.chart_breaks)
        assert (got.value, got.abs_error, got.nodes_used) == (
            value[0], err[0], nodes)

    def test_reference_is_the_replaced_engine(self):
        # the heap engine's refusal, pinned bit for bit before waves
        v = make_example_field("vortex", d=1)
        value, err, nodes, worst, calls = reference_heap(
            _stacked(v, ("area",)), Cube(2, 1.0), 1e-8,
            singular_set=v.singular_set, breaks=v.chart_breaks)
        assert value[0] == 8.364443029641988
        assert (nodes, calls) == (16832, 132)
        with pytest.raises(NoConvergence) as info:
            area_functional(v, Cube(2, 1.0), 1e-8)
        assert info.value.capped_cell == worst  # the same worst capped cell
        assert abs(info.value.value - value[0]) <= err[0]
