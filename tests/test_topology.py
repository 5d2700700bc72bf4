import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angle_free_twin, line_field, random_phase_field

from relaxarea.chains import (
    SingularChain,
    chain_boundary,
    chain_csv_text,
    chain_from_csv_text,
    chain_mass,
    distance_to_chain,
    interior_boundary,
)
from relaxarea.domains import Ball, Cube
from relaxarea.errors import (
    AmbiguousWinding,
    InvalidGeometry,
    InvalidParams,
    SingularOnLoop,
    SingularPoint,
)
from relaxarea import topology
from relaxarea.recovery import cylinder_analogue_2d
from relaxarea.fields import (
    SINGULAR_GUARD,
    VectorField,
    chain_centers_radii,
    make_example_field,
)
from relaxarea.topology import (
    PROXIMITY_LENGTHS,
    Circle,
    GridSpec,
    extract_lines_3d,
    extract_vortices_2d,
    grid_edge_data_2d,
    plaquette_windings_2d,
    region_boundary_winding,
    relaxed_area_rhs,
    winding_number,
    _angles,
    _block_points,
    _close_nodes,
    _edge_increments,
    _near_singular_edges,
    _node_distances,
    _wrap,
)


def lift_field(f, grad_f=None, n=2):
    return make_example_field("smooth_lift", f=f, grad_f=grad_f, n=n)


class TestWindingNumber:
    def test_all_degrees_both_radii(self):
        for d in range(-3, 4):
            v = make_example_field("vortex", d=d)
            for r in (0.3, 0.7):
                assert winding_number(v, Circle((0.0, 0.0), r)) == d

    def test_smooth_lift_always_unwinds(self):
        f = lift_field(lambda X: np.sin(3 * X[:, 0]) + X[:, 1] ** 2)
        assert winding_number(f, Circle((0.1, -0.2), 0.7)) == 0

    def test_polyline_loop(self):
        v = make_example_field("vortex", d=2)
        square = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        assert winding_number(v, square, samples=128) == 2

    def test_singular_on_loop(self):
        v = make_example_field("vortex", d=1)
        with pytest.raises(SingularOnLoop):
            winding_number(v, Circle((0.5, 0.0), 0.5), samples=64)

    @pytest.mark.parametrize("samples", [1, 0, -3, 2.5, 64.0])
    def test_samples_below_three_or_not_integer_are_refused(self, samples):
        # a single sample closes no loop (it read 0 for a degree-1 vortex)
        v = make_example_field("vortex", d=1)
        with pytest.raises(InvalidParams, match="samples"):
            winding_number(v, Circle((0.0, 0.0), 0.5), samples=samples)

    def test_resampling_resolves_coarse_start(self):
        # 3 * 2pi / 4 wraps; doubling twice brings increments under pi/2
        v = make_example_field("vortex", d=3)
        assert winding_number(v, Circle((0.0, 0.0), 0.5), samples=4) == 3

    def test_gives_up_on_unresolvably_steep_phase(self):
        # slope ~800 keeps increments above pi/2 at the resampling cap
        f = lift_field(lambda X: 2.0 * np.tanh(
            400.0 * np.sin(np.arctan2(X[:, 1], X[:, 0]))))
        with pytest.raises(AmbiguousWinding):
            winding_number(f, Circle((0.0, 0.0), 0.5), samples=64)

    @given(st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=20, deadline=None)
    def test_concatenation_additivity(self, d1, d2):
        """Windings of two placed vortices add along an enclosing loop."""
        f, *_ = _two_vortex_field(d1, d2)
        total = winding_number(f, Circle((0.0, 0.0), 0.9), samples=256)
        assert total == d1 + d2

    @given(st.integers(-3, 3))
    @settings(max_examples=14, deadline=None)
    def test_conjugation_negates(self, d):
        v = make_example_field("vortex", d=d)
        conj = VectorField(
            2, 2,
            lambda X: v.evaluate_many(X) * np.array([1.0, -1.0]),
            None, singular_set=v.singular_set,
        )
        assert winding_number(conj, Circle((0.0, 0.0), 0.5)) == -d


def _two_vortex_field(d1, d2):
    c1, c2 = np.array([-0.3, 0.0]), np.array([0.35, 0.1])

    def f(X):
        return (d1 * np.arctan2(X[:, 1] - c1[1], X[:, 0] - c1[0])
                + d2 * np.arctan2(X[:, 1] - c2[1], X[:, 0] - c2[0]))

    field = VectorField(
        2, 2, lambda X: np.stack([np.cos(f(X)), np.sin(f(X))], axis=1), None,
        singular_set=SingularChain.points(
            2, [(c1, d1 or 1), (c2, d2 or 1)]
        ),
    )
    return field, c1, c2


class TestExtract2d:
    def test_single_vortex_location_and_multiplicity(self):
        v = make_example_field("vortex", d=1)
        grid = GridSpec(2, 64)
        chain = extract_vortices_2d(v, grid)
        assert len(chain) == 1
        (p, mult), = chain.cells
        assert mult == 1
        assert np.linalg.norm(np.asarray(p)) <= grid.h

    def test_chain_alternating_multiplicities(self):
        f = make_example_field("vortex_chain", m=3)
        chain = extract_vortices_2d(f, GridSpec(2, 64))
        mults = [m for _, m in chain.cells]
        assert mults == [1, -1, 1]
        assert chain_mass(chain) == 3.0
        centers, _ = chain_centers_radii(3)
        for (p, _), c in zip(chain.cells, centers):
            assert np.linalg.norm(np.asarray(p) - c) <= GridSpec(2, 64).h

    def test_smooth_lift_yields_empty_chain(self):
        f = lift_field(lambda X: np.sin(2 * X[:, 0] + X[:, 1]))
        chain = extract_vortices_2d(f, GridSpec(2, 32))
        assert len(chain) == 0

    def test_higher_degree_resolved_by_edge_lifting(self):
        v = make_example_field("vortex", d=-2)
        chain = extract_vortices_2d(v, GridSpec(2, 32))
        assert [m for _, m in chain.cells] == [-2]

    def test_defect_on_node_is_ambiguous(self):
        h = 2.0 / 32
        node = -1 + 16.5 * h  # lattice node 16 on both axes
        v = make_example_field("vortex", center=(node, node))
        with pytest.raises(AmbiguousWinding) as err:
            extract_vortices_2d(v, GridSpec(2, 32))
        # the reported lattice edge ends on the defect's node
        assert err.value.index in {(15, 16), (16, 15), (16, 16)}
        assert all(type(i) is int for i in err.value.index)
        assert str((node, node)) in str(err.value)

    def test_extraction_matches_loop_winding(self, rng):
        f, centers, degrees = random_phase_field(rng, 3)
        grid = GridSpec(2, 64)
        chain = extract_vortices_2d(f, grid)
        assert len(chain) == 3
        for p, mult in chain.cells:
            # radius 1.5h encloses the whole detecting plaquette and only it
            assert mult == winding_number(
                f, Circle(tuple(p), 1.5 * grid.h), samples=256
            )

    def test_discrete_stokes_on_random_configurations(self, rng):
        grid = GridSpec(2, 32)
        for trial in range(100):
            f, *_ = random_phase_field(rng, int(rng.integers(0, 4)))
            _, _, _, d1, d2 = grid_edge_data_2d(f, grid)
            circ = plaquette_windings_2d(d1, d2)
            i0, j0 = rng.integers(0, 12, 2)
            i1 = int(i0 + rng.integers(2, 18))
            j1 = int(j0 + rng.integers(2, 18))
            plaquette_sum = int(round(circ[i0:i1, j0:j1].sum() / (2 * math.pi)))
            assert plaquette_sum == region_boundary_winding(d1, d2, i0, i1, j0, j1)


class TestExtract3d:
    def test_planar_vortex_axis_chain(self):
        pv = make_example_field("planar_vortex")
        grid = GridSpec(3, 64)
        chain = extract_lines_3d(pv, grid)
        assert chain.k == 1
        mults = {m for _, m in chain.cells}
        assert mults == {1} or mults == {-1}  # consistent orientation
        assert 1.9 <= chain_mass(chain) <= 2.1
        lo, hi = grid.bounds()
        assert len(interior_boundary(chain, lo, hi, 1.5 * grid.h)) == 0

    def test_refinement_stability_under_halving(self):
        pv = make_example_field("planar_vortex")
        m64 = chain_mass(extract_lines_3d(pv, GridSpec(3, 64)))
        m128 = chain_mass(extract_lines_3d(pv, GridSpec(3, 128)))
        assert abs(m128 - m64) <= 0.05

    def test_smooth_field_empty(self):
        f = lift_field(lambda X: np.sin(X[:, 0]) + X[:, 1] * X[:, 2], n=3)
        assert len(extract_lines_3d(f, GridSpec(3, 16))) == 0

    def test_tilted_line_staircase_mass(self):
        ang = math.radians(30)
        R = np.array([
            [1, 0, 0],
            [0, math.cos(ang), -math.sin(ang)],
            [0, math.sin(ang), math.cos(ang)],
        ])

        def ev(X):
            Y = X @ R
            r = np.hypot(Y[:, 0], Y[:, 1])
            return np.stack([Y[:, 0] / r, Y[:, 1] / r], axis=1)

        rot = VectorField(3, 2, ev, None)
        chain = extract_lines_3d(rot, GridSpec(3, 32))
        clipped = chain.filtered(lambda p: np.linalg.norm(p) <= 1.0)
        # staircase (l1) length of a diameter chord, at most sqrt(2) overestimate
        assert 2.0 <= chain_mass(clipped) <= 2.0 * math.sqrt(2.0)

    def test_boundary_of_extracted_chains_vanishes(self, rng):
        grid = GridSpec(3, 16)
        lo, hi = grid.bounds()
        for trial in range(20):
            axis = int(rng.integers(0, 3))
            offset = rng.uniform(-0.3, 0.3, 2)
            coeffs = rng.uniform(-0.5, 0.5, 3)
            f = line_field(axis, offset, coeffs)
            chain = extract_lines_3d(f, grid)
            assert len(chain) > 0
            assert len(interior_boundary(chain, lo, hi, 1.5 * grid.h)) == 0

    def test_line_through_nodes_is_ambiguous(self):
        grid = GridSpec(3, 16)
        node = float(grid.axis_nodes(0)[5])  # the line runs through (5, 5, .)
        f = line_field(2, (node, node), (0.0, 0.0, 0.0))
        with pytest.raises(AmbiguousWinding) as err:
            extract_lines_3d(f, grid)
        index = err.value.index
        assert all(type(i) is int for i in index)
        assert index[:2] in {(4, 5), (5, 4), (5, 5)}
        # endpoints in field axis order: (x, y) on the line, then z
        assert f"({node}, {node}, " in str(err.value)

    def test_grid_invariants(self):
        with pytest.raises(InvalidParams):
            GridSpec(2, 4)

    @pytest.mark.parametrize("kwargs", [
        dict(resolution=16.5), dict(resolution=7), dict(resolution=True),
        dict(half_side=-1.0), dict(half_side=0.0), dict(half_side=math.nan),
        dict(half_side=math.inf), dict(center=(0, 0)),
        dict(center=(0, 0, math.nan)), dict(center=(0, 0, math.inf)),
        dict(center="abc"), dict(offset=1.0), dict(offset=-0.1),
        dict(offset=math.nan),
    ])
    def test_grid_rejects_invalid_geometry(self, kwargs):
        args = dict(n=3, resolution=16) | kwargs
        with pytest.raises(InvalidParams):
            GridSpec(**args)

    def test_grid_accepts_numpy_integers_and_integer_centers(self):
        grid = GridSpec(3, np.int64(16), center=(0, 1, 2), offset=0.0)
        assert grid.center == (0.0, 1.0, 2.0)
        assert grid.axis_nodes(1)[0] == 0.0


def _midpoint_mask(field, grid, axis):
    """Reference proximity mask: the distance of every edge midpoint."""
    h = grid.h
    coords = [grid.axis_nodes(i) for i in range(grid.n)]
    coords[axis] = coords[axis][:-1] + h / 2
    G = np.meshgrid(*coords, indexing="ij")
    mids = np.stack([g.ravel() for g in G], axis=1)
    dist = distance_to_chain(mids, field.singular_set)
    return (dist < PROXIMITY_LENGTHS * h).reshape(G[0].shape)


def _assert_pruned_mask_exact(field, grid):
    G = np.meshgrid(*[grid.axis_nodes(i) for i in range(grid.n)], indexing="ij")
    X = np.stack([g.ravel() for g in G], axis=1)
    D = distance_to_chain(X, field.singular_set).reshape(G[0].shape)
    for axis in range(grid.n):
        expect = _midpoint_mask(field, grid, axis)
        assert expect.any()
        coords = [grid.axis_nodes(i) for i in range(grid.n)]
        assert np.array_equal(
            _near_singular_edges(field, coords, grid.h, _close_nodes(D, grid.h),
                                 axis), expect)


class TestPrunedProximityMask:
    """The Lipschitz-pruned mask equals the all-midpoint reference exactly."""

    @pytest.mark.parametrize("resolution", [16, 32])
    def test_planar_vortex(self, resolution):
        _assert_pruned_mask_exact(make_example_field("planar_vortex"),
                                  GridSpec(3, resolution))

    @given(st.integers(0, 2), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))
    @settings(max_examples=25, deadline=None)
    def test_off_lattice_line(self, axis, u, v):
        _assert_pruned_mask_exact(line_field(axis, (u, v), (0.1, -0.2, 0.3)),
                                  GridSpec(3, 16))

    def test_degree_two_vortex_2d(self):
        _assert_pruned_mask_exact(
            make_example_field("vortex", d=2, center=(0.13, -0.21)),
            GridSpec(2, 32))

    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_defect_within_half_step_of_node(self, fx, fy):
        grid = GridSpec(2, 32)
        node = grid.axis_nodes(0)[16]
        center = (node + fx * grid.h, node + fy * grid.h)
        _assert_pruned_mask_exact(
            make_example_field("vortex", d=2, center=center), grid)
        line = line_field(1, center, (0.0, 0.0, 0.0))
        _assert_pruned_mask_exact(line, GridSpec(3, 32))


def modulo_wrap(d):
    """The reference wrap into [-pi, pi)."""
    return (d + math.pi) % (2.0 * math.pi) - math.pi


class TestWrap:
    """The conditional-shift wrap equals the modulo form on [-2pi, 2pi]."""

    def test_bit_identical_to_modulo_form(self):
        two_pi = 2.0 * math.pi
        specials = [two_pi, -two_pi, math.pi, -math.pi, 0.0, -0.0, np.nan]
        for v in (math.pi, -math.pi, two_pi, -two_pi):
            lo, hi = np.nextafter(v, -np.inf), np.nextafter(v, np.inf)
            specials += [lo, hi, np.nextafter(lo, -np.inf),
                         np.nextafter(hi, np.inf)]
        specials = [v for v in specials if np.isnan(v) or abs(v) <= two_pi]
        d = np.concatenate([
            np.random.default_rng(8).uniform(-two_pi, two_pi, 10**6),
            np.array(specials)])
        got, want = _wrap(d), modulo_wrap(d)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.array_equal(got[ok], want[ok])
        assert np.array_equal(np.signbit(got[ok]), np.signbit(want[ok]))

    def test_range(self):
        d = np.random.default_rng(9).uniform(-2 * math.pi, 2 * math.pi, 10**5)
        w = _wrap(d)
        assert np.all((w >= -math.pi) & (w < math.pi))


def reference_windings(circ, where):
    """Windings of circulations, checked in their own C order."""
    if not np.all(np.isfinite(circ)):
        bad = np.argwhere(~np.isfinite(circ))[0]
        raise AmbiguousWinding(f"{where}: sample on the singular set",
                               index=tuple(int(v) for v in bad))
    scaled = circ / (2.0 * math.pi)
    mult = np.round(scaled).astype(np.int64)
    off = np.abs(scaled - mult)
    if np.any(off > 0.25):
        bad = np.argwhere(off > 0.25)[0]
        raise AmbiguousWinding(f"{where}: non-integer plaquette circulation",
                               index=tuple(int(v) for v in bad))
    return mult


def reference_nodes(field, grid):
    """Node angles and exact node distances over the whole lattice."""
    G = np.meshgrid(*[grid.axis_nodes(a) for a in range(grid.n)], indexing="ij")
    X = np.stack([g.ravel() for g in G], axis=1)
    D = distance_to_chain(X, field.singular_set)
    return _angles(field, X, D).reshape(G[0].shape), D.reshape(G[0].shape)


def reference_lines_3d(field, grid):
    """``extract_lines_3d`` in one full-lattice pass with exact node
    distances, and the sweep on transposed (b, c, a) views."""
    nodes = [grid.axis_nodes(a) for a in range(3)]
    A, D = reference_nodes(field, grid)
    edges = _edge_increments(field, nodes, (0, 0, 0), grid.h, A,
                             _close_nodes(D, grid.h))
    h = grid.h
    cells = []
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        d1 = np.transpose(edges[b], (b, c, a))
        d2 = np.transpose(edges[c], (b, c, a))
        circ = d1[:, :-1, :] + d2[1:, :, :] - d1[:, 1:, :] - d2[:-1, :, :]
        mult = reference_windings(circ, f"3d sweep, normal axis {a}")
        for ib, ic, ia in np.argwhere(mult != 0):
            p = np.empty(3)
            p[b] = nodes[b][ib] + h / 2
            p[c] = nodes[c][ic] + h / 2
            p[a] = nodes[a][ia]
            p0, p1 = p.copy(), p.copy()
            p0[a] -= h / 2
            p1[a] += h / 2
            cells.append(((p0, p1), int(mult[ib, ic, ia])))
    cells.sort(key=lambda cell: tuple(np.concatenate([cell[0][0], cell[0][1]])))
    return SingularChain.segments(3, cells, spacing=h)


class TestLatticeOrderSweep:
    """The sweep in lattice index order gives the transposed-view chain."""

    def test_random_line_fields(self):
        rng = np.random.default_rng(16)
        grid = GridSpec(3, 16)
        for trial in range(20):
            f = line_field(int(rng.integers(0, 3)), rng.uniform(-0.3, 0.3, 2),
                           rng.uniform(-0.5, 0.5, 3))
            chain = extract_lines_3d(f, grid)
            assert len(chain) > 0
            assert chain_csv_text(chain) == chain_csv_text(
                reference_lines_3d(f, grid))

    def test_planar_vortex(self):
        f = make_example_field("planar_vortex")
        grid = GridSpec(3, 24)
        assert chain_csv_text(extract_lines_3d(f, grid)) == chain_csv_text(
            reference_lines_3d(f, grid))


def chain_or_refusal(field, grid):
    """The extracted chain's CSV text, or the refusal's type and message."""
    extract = extract_vortices_2d if field.n == 2 else extract_lines_3d
    try:
        return chain_csv_text(extract(field, grid))
    except (AmbiguousWinding, SingularPoint) as exc:
        return type(exc), str(exc)


def assert_same_as_value_path(field, grid):
    """``field``'s own angles give the chain or refusal of its values'."""
    got = chain_or_refusal(field, grid)
    assert got == chain_or_refusal(angle_free_twin(field), grid)
    return got


#: (k, resolution, offset) of test_cylinder_analogue where ``sweep_tie``
SWEEP_TIES = [(8, 8, 0.5), (16, 8, 0.5), (16, 16, 0.5), (16, 17, 0.0),
              (32, 8, 0.5), (32, 16, 0.5), (32, 17, 0.0), (32, 32, 0.5),
              (32, 33, 0.0)]
PLANE_LOOPS = [Circle((0.0, 0.0), 0.5), Circle((0.1, -0.2), 0.05),
               Circle((0.6, 0.2), 0.3), Circle((0.4, 0.0), 0.6),
               [(0.9, 0.9), (-0.9, 0.9), (-0.9, -0.9), (0.9, -0.9)]]


class TestAngleEvaluator:
    """Every field's own angles give the chains, refusals and winding
    numbers of the angles taken from its values."""

    OFF_AXIS = (0.013, -0.02, 0.1)

    @pytest.mark.parametrize("resolution", [8, 9, 16, 33, 100])
    def test_chains_and_refusals_match_the_value_path(self, resolution):
        pv = make_example_field("planar_vortex")
        twin = angle_free_twin(pv)
        for offset in (0.0, 0.37, 0.5):
            for center in ((0.0, 0.0, 0.0), self.OFF_AXIS):
                grid = GridSpec(3, resolution, center=center, offset=offset)
                got = chain_or_refusal(pv, grid)
                assert got == chain_or_refusal(twin, grid)
                if (resolution, offset, center) == (100, 0.0, self.OFF_AXIS):
                    # a node within the guard of the axis but not on it
                    assert got == (SingularPoint,
                                   "planar vortex evaluated on its axis")

    def test_default_128_lattice(self):
        pv = make_example_field("planar_vortex")
        grid = GridSpec(3, 128)
        assert chain_csv_text(extract_lines_3d(pv, grid)) == chain_csv_text(
            extract_lines_3d(angle_free_twin(pv), grid))

    @pytest.mark.parametrize("loop", [
        Circle((0.0, 0.0, 0.3), 0.5),
        Circle((0.01, -0.02, -0.9), 0.05),
        Circle((0.6, 0.2, 0.0), 0.3),
        [(0.5, 0.5, 0.2), (-0.5, 0.5, 0.2), (-0.5, -0.5, -0.2), (0.5, -0.5, 0.0)],
    ])
    def test_winding_numbers_match(self, loop):
        pv = make_example_field("planar_vortex")
        assert winding_number(pv, loop) == winding_number(angle_free_twin(pv), loop)

    @pytest.mark.parametrize("d, center, phase", [
        (1, (0.0, 0.0), 0.0), (2, (0.1, -0.2), 0.7), (-3, (0.013, 0.02), -1.3)])
    @pytest.mark.parametrize("resolution", [8, 9, 16, 33, 100])
    def test_vortex(self, d, center, phase, resolution):
        v = make_example_field("vortex", d=d, center=center, phase=phase)
        for offset in (0.0, 0.37, 0.5):
            got = assert_same_as_value_path(
                v, GridSpec(2, resolution, offset=offset))
            if (d, resolution, offset) == (1, 9, 0.5):  # a node on the centre
                assert got[0] is AmbiguousWinding
        assert_same_windings(v)

    @pytest.mark.parametrize("m", [3, 6])
    @pytest.mark.parametrize("resolution", [32, 64, 128, 129, 256])
    def test_vortex_chain(self, m, resolution):
        f = make_example_field("vortex_chain", m=m)
        got = assert_same_as_value_path(f, GridSpec(2, resolution))
        refused = resolution == 129 or (m, resolution) == (6, 32)
        assert (got[0] is AmbiguousWinding) == refused
        assert_same_windings(f)

    @pytest.mark.parametrize("k", [4, 8, 16, 32])
    @pytest.mark.parametrize("resolution", [8, 16, 17, 32, 33, 64, 129])
    def test_cylinder_analogue(self, k, resolution):
        f = cylinder_analogue_2d(k)
        for offset in (0.0, 0.37, 0.5):
            grid = GridSpec(2, resolution, offset=offset)
            if sweep_tie(k, grid):
                assert (k, resolution, offset) in SWEEP_TIES
            else:
                assert_same_as_value_path(f, grid)
        assert_same_windings(f)

    @pytest.mark.xfail(strict=True, reason=(
        "the tied edge is lifted on the value path, which finds the sweep's "
        "extra turn, and wrapped on the angle path"))
    @pytest.mark.parametrize("k, resolution, offset", SWEEP_TIES)
    def test_cylinder_analogue_tie(self, k, resolution, offset):
        assert_same_as_value_path(cylinder_analogue_2d(k),
                                  GridSpec(2, resolution, offset=offset))

    @pytest.mark.parametrize("resolution", [8, 16, 33, 64])
    def test_smooth_lift(self, resolution):
        # two unit vortices and a phase of a few turns, not declared singular
        f = lift_field(lambda X: (5.0 * np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2
                                  + np.arctan2(X[:, 1] - 0.31, X[:, 0] + 0.27)
                                  - np.arctan2(X[:, 1] + 0.4, X[:, 0] - 0.45)))
        for offset in (0.0, 0.37, 0.5):
            assert_same_as_value_path(f, GridSpec(2, resolution, offset=offset))
        assert_same_windings(f)


def assert_same_windings(field):
    """``field``'s own angles give the winding numbers, or the refusals, of
    its values' on each of PLANE_LOOPS."""
    twin = angle_free_twin(field)
    for loop in PLANE_LOOPS:
        try:
            want = winding_number(twin, loop)
        except SingularOnLoop as exc:  # the loop meets the singular set
            with pytest.raises(SingularOnLoop, match=f"^{exc}$"):
                winding_number(field, loop)
        else:
            assert winding_number(field, loop) == want


def sweep_tie(k, grid):
    """Whether the lattice edge across the +x axis nearest the origin has
    its ends at +-45 degrees, outside the filled disk of radius 1/k of
    ``cylinder_analogue_2d(k)``.

    Its angle difference is then pi/2, the lift threshold, up to rounding,
    while inside the edge the sweep turns once more across its sector of
    half-angle 1/k: a lattice that does not resolve the field.
    """
    y = grid.axis_nodes(1)
    i = np.searchsorted(y, 0.0)
    return -y[i - 1] == y[i] and math.sqrt(2.0) * y[i] >= 1.0 / k


def slab_monkeypatch(monkeypatch, grid, layers, tile):
    """Shrink the slabs of ``extract_lines_3d`` to ``layers`` node layers
    and its distance-cull tiles to ``tile`` nodes a side."""
    monkeypatch.setattr(topology, "SLAB_NODES", layers * grid.resolution**2)
    monkeypatch.setattr(topology, "CULL_TILE", tile)


class TestSlabStreaming:
    """Any slab and tile size gives the full-lattice reference chain."""

    def test_random_line_fields(self, monkeypatch):
        rng = np.random.default_rng(10)
        for trial in range(24):
            grid = GridSpec(3, (16, 24, 40)[trial % 3])
            slab_monkeypatch(monkeypatch, grid, (3, 7)[trial % 2],
                             2 + trial % 4)
            f = line_field(int(rng.integers(0, 3)), rng.uniform(-0.3, 0.3, 2),
                           rng.uniform(-0.5, 0.5, 3))
            chain = extract_lines_3d(f, grid)
            assert len(chain) > 0
            assert chain_csv_text(chain) == chain_csv_text(
                reference_lines_3d(f, grid))

    @pytest.mark.parametrize("resolution, layers, tile",
                             [(24, 3, 5), (24, 1, 2), (64, 7, 3)])
    def test_planar_vortex(self, monkeypatch, resolution, layers, tile):
        f = make_example_field("planar_vortex")
        grid = GridSpec(3, resolution)
        slab_monkeypatch(monkeypatch, grid, layers, tile)
        assert chain_csv_text(extract_lines_3d(f, grid)) == chain_csv_text(
            reference_lines_3d(f, grid))

    def test_error_index_is_global(self, monkeypatch):
        grid = GridSpec(3, 16)
        slab_monkeypatch(monkeypatch, grid, 3, 4)
        node = float(grid.axis_nodes(0)[11])  # in the fourth slab
        f = line_field(1, (node, node), (0.0, 0.0, 0.0))
        with pytest.raises(AmbiguousWinding) as err:
            extract_lines_3d(f, grid)
        assert err.value.index == (10, 0, 11)
        assert all(type(i) is int for i in err.value.index)


def _edge_key(P0, P1, index):
    """(lower node, axis) of each edge passed to ``_lift_edges``."""
    axes = np.argmax(np.abs(P1 - P0), axis=1)
    return [tuple(map(int, i)) + (int(a),) for i, a in zip(index, axes)]


def lift_monkeypatch(monkeypatch, extra):
    """Make ``_lift_edges`` add ``extra(key)`` turns to the lift of the edge
    with ``_edge_key`` ``key``, and record every key it is called with."""
    seen = []
    lift = topology._lift_edges

    def patched(field, P0, P1, B0, B1, index):
        keys = _edge_key(P0, P1, index)
        seen.extend(keys)
        turns = np.array([extra(k) for k in keys], dtype=float)
        return lift(field, P0, P1, B0, B1, index) + 2 * math.pi * turns

    monkeypatch.setattr(topology, "_lift_edges", patched)
    return seen


class TestTurnCounts:
    """Windings are integer sums of edge turn counts."""

    def test_counts_are_int8_and_increments_match(self):
        f = make_example_field("planar_vortex")
        grid = GridSpec(3, 16)
        coords = [grid.axis_nodes(a) for a in range(3)]
        A, D = reference_nodes(f, grid)
        close = _close_nodes(D, grid.h)
        turns = topology._block_turns(f, coords, (0, 0, 0), grid.h, A, close)
        increments = _edge_increments(f, coords, (0, 0, 0), grid.h, A, close)
        for axis, (K, inc) in enumerate(zip(turns, increments)):
            delta = np.diff(A, axis=axis)
            assert K.dtype == np.int8 and set(np.unique(K)) <= {-1, 0, 1}
            assert np.array_equal(inc, delta + 2 * math.pi * K)
            assert np.all(np.abs(modulo_wrap(inc) - inc) < 1e-12)

    def test_non_integer_lift_names_the_edge_across_slabs(self, monkeypatch):
        f = make_example_field("planar_vortex")
        grid = GridSpec(3, 16)
        slab_monkeypatch(monkeypatch, grid, 3, 4)
        seen = lift_monkeypatch(monkeypatch, lambda key: 0)
        extract_lines_3d(f, grid)
        # a lifted axis-1 edge whose lower node lies in the fourth slab
        target = next(k for k in seen if k[0] == 10 and k[3] == 1)
        lift_monkeypatch(monkeypatch, lambda key: 0.4 * (key == target))
        with pytest.raises(AmbiguousWinding) as err:
            extract_lines_3d(f, grid)
        assert err.value.index == target[:3]
        assert all(type(i) is int for i in err.value.index)
        assert "whole number of turns" in str(err.value)
        lo = tuple(float(grid.axis_nodes(a)[i]) for a, i in enumerate(target[:3]))
        assert str(lo) in str(err.value)

    def test_non_integer_lift_in_2d(self, monkeypatch):
        f = make_example_field("vortex", d=2, center=(0.13, -0.21))
        lift_monkeypatch(monkeypatch, lambda key: -0.3)
        with pytest.raises(AmbiguousWinding) as err:
            extract_vortices_2d(f, GridSpec(2, 32))
        assert "whole number of turns" in str(err.value)
        assert len(err.value.index) == 2

    def test_counts_beyond_int8_never_wrap_2d(self, monkeypatch):
        f = make_example_field("vortex", d=2, center=(0.13, -0.21))
        grid = GridSpec(2, 32)
        lift_monkeypatch(monkeypatch, lambda key: 200 * (key[0] % 3 == 0))
        chain = extract_vortices_2d(f, grid)
        *_, d1, d2 = grid_edge_data_2d(f, grid)
        want = reference_windings(plaquette_windings_2d(d1, d2), "2d")
        got = np.zeros_like(want)
        for p, m in chain.cells:
            i, j = (int(round((p[a] - grid.axis_nodes(a)[0]) / grid.h - 0.5))
                    for a in range(2))
            got[i, j] = m
        assert max(abs(m) for _, m in chain.cells) > 127
        assert np.array_equal(got, want)

    def test_counts_beyond_int8_never_wrap_3d(self, monkeypatch):
        # int64 counts of one layer meet int8 counts carried between slabs
        f = make_example_field("planar_vortex")
        grid = GridSpec(3, 16)
        slab_monkeypatch(monkeypatch, grid, 3, 4)
        lift_monkeypatch(monkeypatch, lambda key: 150 * (key[0] == 5))
        chain = extract_lines_3d(f, grid)
        assert max(abs(m) for _, m in chain.cells) > 127
        assert chain_csv_text(chain) == chain_csv_text(
            reference_lines_3d(f, grid))


def reference_lift(field, P0, P1, B0, B1, index):
    """``_lift_edges`` with an exact midpoint distance for every sub-edge of
    every wave and ``np.linalg.norm`` lengths: the totals and errors that
    the bounded distances must reproduce."""
    totals = np.zeros(len(P0))
    owner = np.arange(len(P0))
    Q0, Q1 = P0, P1
    level = topology._LIFT_LEVELS
    while len(owner):
        if level < 0:
            raise topology._edge_error("stayed ambiguous under bisection",
                                       P0, P1, index, owner[0])
        bad = ~np.isfinite(B0) | ~np.isfinite(B1)
        if np.any(bad):
            k = int(np.argmax(bad))
            at = Q0[k] if not np.isfinite(B0[k]) else Q1[k]
            raise topology._edge_error(
                "passes through the singular set near "
                f"{tuple(map(float, at))}", P0, P1, index, owner[k])
        inc = _wrap(B1 - B0)
        lengths = np.linalg.norm(Q1 - Q0, axis=1)
        mids = (Q0 + Q1) / 2
        dist = distance_to_chain(mids, field.singular_set)
        safe = lengths <= topology.SAFE_LENGTH_RATIO * np.maximum(
            dist - lengths / 2, 0.0)
        done = (np.abs(inc) < math.pi / 2) & safe
        np.add.at(totals, owner[done], inc[done])
        rest = np.flatnonzero(~done)
        if len(rest) == 0:
            break
        mids = mids[rest]
        ams = _angles(field, mids, dist[rest])
        owner = np.repeat(owner[rest], 2)
        Q0 = np.repeat(Q0[rest], 2, axis=0)
        Q1 = np.repeat(Q1[rest], 2, axis=0)
        Q0[1::2] = mids
        Q1[0::2] = mids
        B0 = np.repeat(B0[rest], 2)
        B1 = np.repeat(B1[rest], 2)
        B0[1::2] = ams
        B1[0::2] = ams
        level -= 1
    return totals


def checked_lift_monkeypatch(monkeypatch):
    """Make every ``_lift_edges`` call also run ``reference_lift`` on its
    edges and require the same totals bit for bit, or the same error
    message and index; records each call's ``_edge_key`` list."""
    calls = []
    lift = topology._lift_edges

    def checked(field, P0, P1, B0, B1, index):
        calls.append(_edge_key(P0, P1, index))
        try:
            want = reference_lift(field, P0, P1, B0, B1, index)
        except AmbiguousWinding as exc:
            with pytest.raises(AmbiguousWinding) as err:
                lift(field, P0, P1, B0, B1, index)
            assert (str(err.value), err.value.index) == (str(exc), exc.index)
            raise
        got = lift(field, P0, P1, B0, B1, index)
        assert np.array_equal(got, want)
        return got

    monkeypatch.setattr(topology, "_lift_edges", checked)
    return calls


class TestBlockLift:
    """One lift per node block, with Lipschitz-bounded sub-edge distances,
    gives the exact-distance lift's totals and errors bit for bit."""

    def test_random_line_fields(self, monkeypatch):
        calls = checked_lift_monkeypatch(monkeypatch)
        rng = np.random.default_rng(17)
        for trial in range(12):
            grid = GridSpec(3, (16, 32)[trial % 2])
            f = line_field(int(rng.integers(0, 3)), rng.uniform(-0.3, 0.3, 2),
                           rng.uniform(-0.5, 0.5, 3))
            assert len(extract_lines_3d(f, grid)) > 0
        assert len(calls) >= 12

    @pytest.mark.parametrize("field, grid", [
        (make_example_field("planar_vortex"), GridSpec(3, 64)),
        (make_example_field("vortex", d=2, center=(0.13, -0.21)),
         GridSpec(2, 64)),
        (make_example_field("vortex", d=-3), GridSpec(2, 32)),
    ], ids=["planar64", "vortex2", "vortex-3"])
    def test_fields(self, monkeypatch, field, grid):
        calls = checked_lift_monkeypatch(monkeypatch)
        extract = extract_lines_3d if grid.n == 3 else extract_vortices_2d
        assert len(extract(field, grid)) > 0
        # the lifts of a block cover edges of every axis in one call
        assert {key[-1] for key in calls[0]} == set(range(grid.n))

    @pytest.mark.parametrize("case", [
        lambda mp: TestExtract2d().test_defect_on_node_is_ambiguous(),
        lambda mp: TestExtract3d().test_line_through_nodes_is_ambiguous(),
        lambda mp: TestSlabStreaming().test_error_index_is_global(mp),
    ], ids=["node-2d", "line-3d", "slabs-3d"])
    def test_error_cases(self, monkeypatch, case):
        # each case asserts its own error index; the check adds the reference
        checked_lift_monkeypatch(monkeypatch)
        case(monkeypatch)

    def test_skipped_distances_are_certified_bounds(self, monkeypatch):
        skipped = []
        resolve = topology._bounded_distances

        def checked(field, mids, lengths, small, bound):
            dist = resolve(field, mids, lengths, small, bound)
            exact = distance_to_chain(mids, field.singular_set)
            kept = dist != exact
            assert np.all(dist[kept] <= exact[kept])
            assert np.all(dist[kept] > 4 * SINGULAR_GUARD)
            skipped.append(int(np.count_nonzero(kept)))
            return dist

        monkeypatch.setattr(topology, "_bounded_distances", checked)
        rng = np.random.default_rng(18)
        fields = [make_example_field("planar_vortex"),
                  make_example_field("vortex", d=2, center=(0.13, -0.21)),
                  make_example_field("vortex_chain", m=3)]
        fields += [line_field(int(rng.integers(0, 3)),
                              rng.uniform(-0.3, 0.3, 2),
                              rng.uniform(-0.5, 0.5, 3)) for _ in range(4)]
        for f in fields:
            grid = GridSpec(f.n, 32)
            extract = extract_lines_3d if f.n == 3 else extract_vortices_2d
            extract(f, grid)
        assert sum(skipped) > 0

    def test_one_lift_per_slab(self, monkeypatch):
        f = make_example_field("planar_vortex")
        grid = GridSpec(3, 16)
        slab_monkeypatch(monkeypatch, grid, 3, 4)
        seen = lift_monkeypatch(monkeypatch, lambda key: 0)
        calls = []
        counted = topology._lift_edges

        def once(field, P0, P1, B0, B1, index):
            calls.append({int(i) for i in index[:, 0]})
            return counted(field, P0, P1, B0, B1, index)

        monkeypatch.setattr(topology, "_lift_edges", once)
        extract_lines_3d(f, grid)
        slabs = -(-grid.resolution // 3)
        assert 0 < len(calls) <= slabs
        # each call's edges start in one slab (or its carried layer)
        assert all(max(c) - min(c) <= 3 for c in calls)
        assert {key[3] for key in seen} == {0, 1, 2}


class TestDistanceCull:
    """A node without an exact distance stores a lower bound of it above
    every threshold the node distances are compared with."""

    @pytest.mark.parametrize("field, grid, tile", [
        (make_example_field("planar_vortex"), GridSpec(3, 32), 8),
        (make_example_field("planar_vortex"), GridSpec(3, 24), 5),
        (line_field(0, (0.1, -0.2), (0.1, -0.2, 0.3)), GridSpec(3, 40), 3),
        (make_example_field("vortex", d=2, center=(0.13, -0.21)),
         GridSpec(2, 64), 4),
        (make_example_field("vortex_chain", m=3), GridSpec(2, 64), 4),
    ], ids=["planar32", "planar24-ragged", "line40", "vortex2d", "chain2d"])
    def test_skipped_nodes_hold_certified_bounds(self, monkeypatch, field,
                                                 grid, tile):
        monkeypatch.setattr(topology, "CULL_TILE", tile)
        coords = [grid.axis_nodes(a) for a in range(grid.n)]
        X = _block_points(coords)
        D = _node_distances(field, X, coords, grid.h)
        exact = distance_to_chain(X, field.singular_set)
        skipped = D != exact
        assert skipped.any()
        assert np.all(D[skipped] <= exact[skipped])
        assert np.all(D[skipped] > (PROXIMITY_LENGTHS + 1) * grid.h)

    def test_most_nodes_skip_the_exact_distance_at_128(self, monkeypatch):
        rows = []

        def counted(X, chain):
            rows.append(len(X))
            return distance_to_chain(X, chain)

        monkeypatch.setattr(topology, "distance_to_chain", counted)
        extract_lines_3d(make_example_field("planar_vortex"), GridSpec(3, 128))
        # tile centres, near tiles, edge midpoints and lifts together
        assert sum(rows) < 128**3 // 4


class TestExtractionMemory:
    def test_peak_below_one_full_lattice_array(self):
        field, grid = make_example_field("planar_vortex"), GridSpec(3, 128)
        extract_lines_3d(field, grid)  # warm
        tracemalloc.start()
        try:
            extract_lines_3d(field, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.resolution**3 * 8


class TestChains:
    def test_boundary_of_single_segment(self):
        seg = SingularChain.segments(3, [(((0, 0, 0), (0, 0, 1)), 2)])
        bnd = chain_boundary(seg)
        assert sorted(m for _, m in bnd.cells) == [-2, 2]

    def test_boundary_of_empty_chain(self):
        assert len(chain_boundary(SingularChain.empty(3, 1))) == 0

    def test_mass_examples(self):
        v = make_example_field("vortex", d=1)
        assert chain_mass(v.singular_set) == 1.0  # P(u) = delta_0
        assert chain_mass(SingularChain.empty(2, 0)) == 0.0
        seg = SingularChain.segments(2, [(((0, 0), (0, 0.5)), -3)])
        assert chain_mass(seg) == pytest.approx(1.5)

    def test_multiplicities_must_be_nonzero_integers(self):
        with pytest.raises(InvalidParams):
            SingularChain.points(2, [((0.0, 0.0), 0)])

    def test_csv_round_trip_is_bit_exact(self):
        pv = make_example_field("planar_vortex")
        chain = extract_lines_3d(pv, GridSpec(3, 16))
        text = chain_csv_text(chain)
        back = chain_from_csv_text(text)
        assert chain_csv_text(back) == text
        for (s1, m1), (s2, m2) in zip(chain.cells, back.cells):
            assert m1 == m2 and np.array_equal(np.asarray(s1), np.asarray(s2))

    def test_csv_round_trip_keeps_spacing_and_boundary(self, tmp_path):
        pv = make_example_field("planar_vortex")
        chain = extract_lines_3d(pv, GridSpec(3, 24))
        path = tmp_path / "chain.csv"
        chain.to_csv(path)
        back = SingularChain.from_csv(path)
        assert back.spacing == chain.spacing == 2.0 / 24
        assert len(back) == len(chain)
        for (s1, m1), (s2, m2) in zip(chain.cells, back.cells):
            assert m1 == m2 and np.array_equal(s1, s2)
        bnd, back_bnd = chain_boundary(chain), chain_boundary(back)
        assert len(bnd) == len(back_bnd) == 2  # the line leaves the box twice
        for (p1, m1), (p2, m2) in zip(bnd.cells, back_bnd.cells):
            assert m1 == m2 and np.array_equal(p1, p2)

    def test_csv_without_spacing_column_loads_with_zero_spacing(self):
        text = ("k,x0_0,x0_1,x0_2,x1_0,x1_1,x1_2,multiplicity\n"
                "1,0,0,-0.5,0,0,0.5,2\n")
        chain = chain_from_csv_text(text)
        assert chain.spacing == 0.0
        assert chain.k == 1 and chain.cells[0][1] == 2
        assert chain_mass(chain) == 2.0

    def test_empty_chain_csv_has_header_only(self):
        text = chain_csv_text(SingularChain.empty(2, 0))
        assert text == "k,x0_0,x0_1,x1_0,x1_1,multiplicity\n"

    @pytest.mark.parametrize("chain", [
        SingularChain.segments(3, [], spacing=0.1),
        SingularChain.segments(3, []),
        SingularChain(2, 0, (), 0.25),
    ])
    def test_empty_chain_round_trips_k_and_spacing(self, tmp_path, chain):
        path = tmp_path / "empty.csv"
        chain.to_csv(path)
        back = SingularChain.from_csv(path)
        assert (back.n, back.k, back.spacing, len(back)) == (
            chain.n, chain.k, chain.spacing, 0)
        assert chain_csv_text(back) == path.read_text()


class TestRelaxedRhs:
    def test_vortex_rhs(self):
        v = make_example_field("vortex", d=1)
        rhs = relaxed_area_rhs(v, Ball(2, 1.0), v.singular_set, 1e-7)
        expect = math.pi * (math.sqrt(2) + math.asinh(1)) + math.pi
        assert rhs == pytest.approx(expect, rel=1e-8)

    def test_constant_field_rhs_is_volume(self):
        c = make_example_field("constant", value=(1.0, 0.0))
        rhs = relaxed_area_rhs(c, Ball(2, 1.0), SingularChain.empty(2, 0), 1e-8)
        assert rhs == pytest.approx(math.pi, rel=1e-9)

    def test_only_the_chain_inside_counts(self):
        # a constant field: tv_area is the volume, the rest pi * inner mass
        flat2 = make_example_field("constant", value=(1.0, 0.0))
        points = make_example_field("vortex_chain", m=3).singular_set
        rhs = relaxed_area_rhs(flat2, Ball(2, 0.3), points, 1e-8)
        assert rhs == pytest.approx(math.pi * 0.09 + math.pi, rel=1e-9)
        flat3 = lift_field(lambda X: 0.0 * X[:, 0],
                           lambda X: np.zeros((len(X), 3)), n=3)
        axis = make_example_field("planar_vortex").singular_set
        rhs = relaxed_area_rhs(flat3, Cube(3, 0.5), axis, 1e-8)
        assert rhs == pytest.approx(1.0 + math.pi, rel=1e-9)

    def test_planar_vortex_rhs(self):
        pv = make_example_field("planar_vortex")
        rhs = relaxed_area_rhs(pv, Ball(3, 1.0), pv.singular_set, 1e-7)
        from conftest import planar_tv_area_b3_oracle
        assert rhs == pytest.approx(planar_tv_area_b3_oracle() + 2 * math.pi,
                                    rel=1e-6)

    def test_a_chain_that_ends_inside_is_refused(self, monkeypatch):
        # the axis ends at z = -1 and 1 inside B_2, but P(u) has no boundary
        # there; on B_1 and B_0.5 its ends lie on the sphere or outside it
        pv = make_example_field("planar_vortex")
        for r, rhs in ((1.0, 17.266434828848155), (0.5, 5.68386048158361)):
            got = relaxed_area_rhs(pv, Ball(3, r), pv.singular_set, 1e-3)
            assert got == pytest.approx(rhs, rel=1e-12)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(topology, "graph_functionals", no_quadrature)
        with pytest.raises(InvalidGeometry,
                           match=r"\(0, 0, -1\) and \(0, 0, 1\) inside"):
            relaxed_area_rhs(pv, Ball(3, 2.0), pv.singular_set, 1e-3)

    def test_a_map_into_the_two_sphere_is_refused(self, monkeypatch):
        # the formula is proved for maps into S^1; the S^2-valued vortex's
        # fillings show that its defect is not local (criterion 7)
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(topology, "graph_functionals", no_quadrature)
        sv = make_example_field("sphere_vortex")
        with pytest.raises(InvalidParams, match="maps into S\\^1"):
            relaxed_area_rhs(sv, Ball(3, 1.0), sv.singular_set, 1e-4)


class TestRestrictedMass:
    """The two sources of the singular current agree inside a domain: the
    lattice chain and the declared chain, both restricted to the domain,
    have masses within 2h.  Only axis-parallel lines are checked: the
    dual-edge staircase of an oblique line has the l1 length of the line,
    not its Euclidean length, so oblique lines are left out."""

    @pytest.mark.parametrize("resolution", [32, 64])
    @pytest.mark.parametrize("domain", [Ball(3, 0.5), Ball(3, 1.0),
                                        Cube(3, 0.5), Cube(3, 1.0)],
                             ids=["ball0.5", "ball1", "cube0.5", "cube1"])
    @pytest.mark.parametrize("field", [
        make_example_field("planar_vortex"),
        line_field(1, (0.1, -0.2), (0.3, -0.2, 0.1)),
    ], ids=["planar", "line"])
    def test_extracted_mass_matches_declared_mass(self, field, domain,
                                                   resolution):
        grid = GridSpec(3, resolution)
        extracted = extract_lines_3d(field, grid).restricted(domain)
        declared = field.singular_set.restricted(domain)
        assert chain_mass(declared) > 0.5
        assert abs(chain_mass(extracted) - chain_mass(declared)) <= 2 * grid.h
