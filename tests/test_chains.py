"""Blocked singular-set distance: bit-exact against the per-cell recipe,
and no full-size (N, n) temporaries."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxarea.chains import DISTANCE_BLOCK, SingularChain, distance_to_chain
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
