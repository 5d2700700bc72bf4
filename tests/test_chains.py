"""Blocked singular-set distance (bit-exact against the per-cell recipe,
and no full-size (N, n) temporaries) and the restriction of chains to a
domain."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaxarea.chains import (
    DISTANCE_BLOCK,
    SINGULAR_GUARD,
    SingularChain,
    chain_csv_text,
    chain_mass,
    distance_to_chain,
)
from relaxarea.domains import Annulus, Ball, Cone, Cube, Difference
from relaxarea.errors import InvalidGeometry
from relaxarea.fields import make_example_field


def reference_distance(X, chain):
    """Unblocked distance: one (N, n) pass and one norm per cell."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if len(chain.cells) == 0:
        return np.full(X.shape[0], np.inf)
    best = np.full(X.shape[0], np.inf)
    for simplex, _ in chain.cells:
        if chain.k == 0:
            d = np.linalg.norm(X - np.asarray(simplex)[None, :], axis=1)
        else:
            a, b = simplex[0], simplex[1]
            ab = b - a
            denom = float(ab @ ab)
            if denom == 0.0:
                d = np.linalg.norm(X - a[None, :], axis=1)
            else:
                t = np.clip((X - a[None, :]) @ ab / denom, 0.0, 1.0)
                proj = a[None, :] + t[:, None] * ab[None, :]
                d = np.linalg.norm(X - proj, axis=1)
        best = np.minimum(best, d)
    return best


def random_chain(rng, n, k, cells, degenerate):
    """A k-chain of ``cells`` random cells; the first ``degenerate``
    segments have zero length."""
    if k == 0:
        return SingularChain.points(
            n, [(rng.uniform(-1, 1, n), 1) for _ in range(cells)])
    items = []
    for i in range(cells):
        a = rng.uniform(-1, 1, n)
        b = a.copy() if i < degenerate else rng.uniform(-1, 1, n)
        items.append((np.stack([a, b]), int(rng.choice([-2, -1, 1, 3]))))
    return SingularChain.segments(n, items)


SIZES = [0, 1, 2, 7, DISTANCE_BLOCK - 1, DISTANCE_BLOCK, DISTANCE_BLOCK + 1,
         2 * DISTANCE_BLOCK + 3]


class TestBlockedDistance:
    @given(n=st.integers(2, 4), k=st.integers(0, 1), cells=st.integers(0, 5),
           degenerate=st.integers(0, 2), size=st.sampled_from(SIZES),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(n=2, k=1, cells=4, degenerate=0, size=DISTANCE_BLOCK + 1,
             seed=2**32 - 1)  # a lone last row
    def test_bit_identical_to_per_cell_norms(self, n, k, cells, degenerate,
                                             size, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, n, k, cells, degenerate)
        X = rng.uniform(-2, 2, (size, n))
        if size:  # points on cells, where the distance is exactly 0 or tiny
            for j, (simplex, _) in enumerate(chain.cells[:size]):
                X[j] = simplex if k == 0 else simplex[0]
        got = distance_to_chain(X, chain)
        assert got.shape == (size,)
        assert np.array_equal(got, reference_distance(X, chain))

    def test_lattice_nodes_of_the_planar_vortex(self):
        field = make_example_field("planar_vortex")
        axis = -1 + (np.arange(64) + 0.5) / 32
        X = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis,
                                                     indexing="ij")], axis=1)
        assert np.array_equal(distance_to_chain(X, field.singular_set),
                              reference_distance(X, field.singular_set))

    def test_vortex_chain_points_2d(self):
        chain = make_example_field("vortex_chain", m=6).singular_set
        assert chain.k == 0 and len(chain) == 6
        X = np.random.default_rng(3).uniform(-1, 1, (DISTANCE_BLOCK + 5, 2))
        assert np.array_equal(distance_to_chain(X, chain),
                              reference_distance(X, chain))

    def test_single_point_and_nan_rows(self):
        chain = SingularChain.segments(3, [(((0, 0, 0), (0, 0, 1)), 1)])
        x = np.array([0.3, 0.4, 0.5])
        assert distance_to_chain(x, chain).tolist() == [0.5]
        X = np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 2.0]])
        got = distance_to_chain(X, chain)
        assert np.isnan(got[0]) and got[1] == 1.0

    @pytest.mark.parametrize("k", [0, 1])
    def test_cell_table_is_built_once_per_chain(self, k):
        # repeated calls on one chain, whose cell table is kept, and calls on
        # an equal chain built afresh give the same bits, for one block, a
        # block and a lone row, and several blocks
        def build():
            return random_chain(np.random.default_rng(11), 3, k, 4, 1)

        chain = build()
        rng = np.random.default_rng(12)
        for size in (1, 7, DISTANCE_BLOCK, DISTANCE_BLOCK + 1,
                     2 * DISTANCE_BLOCK + 3):
            X = rng.uniform(-2, 2, (size, 3))
            first = distance_to_chain(X, chain)
            table = chain._distance_cells
            again = distance_to_chain(X, chain)
            assert chain._distance_cells is table
            fresh = distance_to_chain(X, build())
            assert first.tobytes() == again.tobytes() == fresh.tobytes()
            assert np.array_equal(first, reference_distance(X, chain))

    def test_empty_chain_is_infinite(self):
        X = np.zeros((5, 3))
        assert np.all(distance_to_chain(X, SingularChain.empty(3, 1)) == np.inf)


class TestDistanceMemory:
    """A call allocates its (N,) output and scratch of a few blocks, not a
    full-size (N, n) temporary per cell."""

    @pytest.mark.parametrize("chain", [
        make_example_field("planar_vortex").singular_set,
        random_chain(np.random.default_rng(5), 3, 1, 5, 0),
    ], ids=["planar_vortex", "five_segments"])
    def test_peak_below_twice_the_output(self, chain):
        X = np.random.default_rng(0).uniform(-1, 1, (2**18, 3))
        out_bytes = X.shape[0] * 8
        tracemalloc.start()
        try:
            distance_to_chain(X, chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out_bytes


def sampled_inside_length(segment, domain, samples=20001):
    """Length of the part of ``segment`` inside ``domain``, from membership
    at evenly spaced points (error below two spacings)."""
    a, b = segment
    t = np.linspace(0.0, 1.0, samples)
    inside = domain.membership(a + t[:, None] * (b - a))
    return np.count_nonzero(inside) / samples * float(np.linalg.norm(b - a))


class TestRestricted:
    @pytest.mark.parametrize("domain", [
        Ball(3, 0.7), Ball(3, 1.3, center=(0.2, -0.1, 0.3)), Cube(3, 0.6),
        Cube(3, 0.9, center=(-0.3, 0.1, 0.0)), Ball(2, 0.8), Cube(2, 0.5),
    ])
    def test_clipped_length_matches_sampled_membership(self, domain):
        rng = np.random.default_rng(30)
        n = domain.n
        for _ in range(60):
            seg = rng.uniform(-1.5, 1.5, (2, n))
            clipped = SingularChain.segments(n, [(seg, 2)]).restricted(domain)
            length = float(np.linalg.norm(seg[1] - seg[0]))
            want = sampled_inside_length(seg, domain)
            assert chain_mass(clipped) == pytest.approx(
                2 * want, abs=2 * 2 * length / 20000)
            for (p0, p1), m in clipped.cells:
                assert m == 2 and domain.membership((p0 + p1) / 2)[0]

    def test_endpoints_inside_stay_bit_for_bit(self):
        seg = np.array([[0.1, -0.3, 0.7], [np.nextafter(0.2, 1), 0.4, -0.6]])
        chain = SingularChain.segments(3, [(seg, -1)], spacing=0.125)
        for domain in (Ball(3, 1.0), Cube(3, 0.8)):
            kept = chain.restricted(domain)
            assert chain_csv_text(kept) == chain_csv_text(chain)
        half = chain.restricted(Cube(3, 0.5, center=(0, 0, 0.5)))
        assert np.array_equal(half.cells[0][0][0], seg[0])
        assert half.cells[0][0][1][2] == pytest.approx(0.0, abs=1e-15)
        assert half.spacing == 0.125

    def test_exact_clips_of_axis_lines(self):
        pv = make_example_field("planar_vortex").singular_set
        for domain in (Ball(3, 0.5), Cube(3, 0.5)):
            (seg, m), = pv.restricted(domain).cells
            assert m == 1
            assert np.array_equal(seg, [[0, 0, -0.5], [0, 0, 0.5]])
        assert chain_mass(pv.restricted(Ball(3, 0.25, center=(0, 0, 0.9)))) \
            == pytest.approx(0.35, rel=1e-12)

    @pytest.mark.parametrize("seg", [
        [[-1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],  # tangent to the ball
        [[2.0, 0.0, 0.0], [3.0, 0.0, 0.0]],  # outside
        [[0.2, 0.1, 0.0], [0.2, 0.1, 0.0]],  # zero length
    ])
    def test_segments_meeting_the_ball_in_one_point_or_none_are_dropped(
            self, seg):
        chain = SingularChain.segments(3, [(seg, 1)])
        assert len(chain.restricted(Ball(3, 1.0))) == 0

    def test_cube_drops_parallel_segment_outside_a_slab(self):
        chain = SingularChain.segments(3, [(((2.0, -3.0, 0.0), (2.0, 3.0, 0.0)), 1),
                                           (((0.5, -3.0, 0.2), (0.5, 3.0, 0.2)), 3)])
        (seg, m), = chain.restricted(Cube(3, 1.0)).cells
        assert m == 3
        assert np.array_equal(seg, [[0.5, -1.0, 0.2], [0.5, 1.0, 0.2]])

    def test_points_strictly_inside_are_kept(self):
        chain = make_example_field("vortex_chain", m=3).singular_set
        assert [m for _, m in chain.restricted(Ball(2, 0.3)).cells] == [1]
        assert [m for _, m in chain.restricted(Ball(2, 0.6)).cells] == [1, -1]
        assert [m for _, m in chain.restricted(Cube(2, 0.8)).cells] == [1, -1, 1]
        # the cube ends 1e3 guards short of the point at x = 0.5
        short = Cube(2, 0.25, center=(0.25 - 1e3 * SINGULAR_GUARD, 0.0))
        assert [m for _, m in chain.restricted(short).cells] == [1]

    @pytest.mark.parametrize("domain", [
        Ball(2, 0.5), Ball(2, 0.5 - SINGULAR_GUARD / 2), Cube(2, 0.75),
        Cube(2, 0.25, center=(0.5 + SINGULAR_GUARD / 2, 0.0)),
        Cube(2, 1.0, center=(1.5, 1.0)),
    ])
    def test_point_on_the_boundary_is_refused(self, domain):
        chain = make_example_field("vortex_chain", m=3).singular_set
        with pytest.raises(InvalidGeometry, match="boundary"):
            chain.restricted(domain)

    @pytest.mark.parametrize("domain", [
        Annulus(3, 0.2, 1.0), Cone(3, (-1.0, 1.0), 0.2),
        Difference(Ball(3, 1.0), Ball(3, 0.5)), Ball(2, 1.0), Cube(4, 1.0),
    ])
    def test_other_domains_are_refused(self, domain):
        chain = make_example_field("planar_vortex").singular_set
        with pytest.raises(InvalidGeometry, match="restricts only"):
            chain.restricted(domain)
