"""Topological degree and extraction of the singularity current.

Winding numbers are sums of principal-branch angle increments.  Lattice
extraction counts plaquette windings in integers.  The differences
``delta = A[hi] - A[lo]`` of the principal node angles ``A`` telescope
exactly around every plaquette, so a face's winding is the signed sum of
its edges' integer turn counts ``K``, an edge's increment being
``delta + 2 pi K`` (the residue test of phase unwrapping, which counts
branch-cut crossings).  An edge whose wrapped difference stays below pi/2
takes the count of the wrap, in {-1, 0, 1}.  Edges whose wrapped
difference reaches pi/2, or which pass near the declared singular set
(where a higher-degree defect can alias a full turn into a small wrapped
value), are re-measured by bisecting the edge until every sub-increment is
an unambiguous fraction of a turn; a lift ``L`` gives
``K = rint((L - delta) / 2 pi)`` and is refused unless it lies within a
quarter turn of ``delta + 2 pi K``.  Every face reads the one count of each
of its edges, and the counts are int8 (int64 once a lifted count could
overflow a sum of four), so the sums are exact and there is no float
circulation to round.  In 3d a nonzero winding on a 2-face contributes the
dual edge crossing it, with orientation fixed by the right-hand rule
(counterclockwise in the face plane seen from the positive dual
direction).  The sign convention is pinned here once; acceptance-level
claims use masses and |multiplicities|.

Lattice nodes are processed in blocks, each given by its per-axis node
coordinates and the lattice index of its first node.  A block's node
coordinates are written into one (N, n) array, and its node angles are
evaluated on it directly when every node clears the singular-set guard
(masked copies are made only when some node does not), by the field's own
angle evaluator where it has one (``VectorField.angles_many``).  Index
tuples are built only for the edges and plaquettes that are hit.  The 2d
grid is one block.

The 3d lattice is streamed in slabs of whole axis-0 node layers, about
SLAB_NODES nodes each, so no full-lattice array is made.  A slab
evaluates the angles and distances of its new layers and counts the turns
of their axis-1 and axis-2 edges; the last layer of the previous slab is
carried over with its angles, near-singular node marks and axis-1 and
axis-2 counts, so the axis-0 edges from it into the slab and the faces
with normal 1 or 2 between consecutive layers are taken in the slab as
well.  Faces with normal 0 are summed on the new layers only.  So every
node is evaluated once, every edge lifted once and every face summed
once, in any slab size; the cells are sorted by position at the end, so
the chain does not depend on the slab size either.

Each block (a slab, or the 2d grid) marks its near-singular nodes once:
an edge is a proximity candidate when either end node may lie within
PROXIMITY_LENGTHS * h + h/2 of the declared singular set.  The flagged
edges of all the block's axes are lifted in one call.  Within it, only
the first bisection wave gets exact midpoint distances: a child sub-edge
inherits the 1-Lipschitz bound ``dist(parent mid) - len(parent) / 4``
(less a float slack), and the exact distance is computed only where that
bound cannot decide the tests it is read by, both monotone in the
distance, so every decision, angle and total is the one exact distances
give.  With faults on edges of more than one axis of a block, the error
names the first in wave and row order, which need not be the one a
separate lift per axis would name first; a single fault is named by the
same edge and index either way.

Node distances to the declared singular set are culled by tiles of
CULL_TILE x CULL_TILE nodes in each layer.  Distance is 1-Lipschitz, so
every node of a tile lies at least ``dist(centre) - half-diagonal`` from
the set.  A tile whose bound (less a float slack) exceeds
``(PROXIMITY_LENGTHS + 1) * h`` stores that bound on its nodes, and only
the other tiles get exact distances.  The node distances are read only
against thresholds below that value: the Lipschitz prune of
near-singular edges and SINGULAR_GUARD.  A stored bound therefore decides
every test as the exact distance would.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .chains import SingularChain, chain_mass, distance_to_chain
from .domains import row_norms
from .errors import (
    AmbiguousWinding,
    InvalidParams,
    SingularOnLoop,
    SingularPoint,
)
from .fields import SINGULAR_GUARD, VectorField
from .quadrature import graph_functionals

#: edge increments at or above pi/2 in magnitude are re-measured by lifting;
#: below that a wrapped increment is provably the true lift step (same trust
#: threshold as the loop-sampling criterion)
PLAQUETTE_MARGIN = math.pi / 2
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Circle:
    """Sampling loop for winding numbers."""

    center: tuple
    radius: float


@dataclass(frozen=True)
class GridSpec:
    """Sampling lattice inside a bounding cube.

    Nodes sit at ``lo + (i + offset) * h`` per axis, i = 0..resolution-1,
    so at an even resolution the default half-cell offset keeps nodes off
    the centre and off singular sets symmetric about it; at an odd one the
    middle node sits on the centre.
    """

    n: int
    resolution: int
    half_side: float = 1.0
    center: tuple = None
    offset: float = 0.5

    def __post_init__(self):
        if (not isinstance(self.resolution, numbers.Integral)
                or isinstance(self.resolution, bool) or self.resolution < 8):
            raise InvalidParams("grid resolution must be an integer >= 8 per "
                                f"axis, got {self.resolution!r}")
        if not 0 < self.half_side < math.inf:
            raise InvalidParams("grid half side must be finite and positive, "
                                f"got {self.half_side!r}")
        if not 0 <= self.offset < 1:
            raise InvalidParams("grid offset must lie in [0, 1), "
                                f"got {self.offset!r}")
        center = (0.0,) * self.n if self.center is None else self.center
        try:
            c = np.asarray(center, dtype=float)
        except (TypeError, ValueError):
            c = None
        if c is None or c.shape != (self.n,) or not np.all(np.isfinite(c)):
            raise InvalidParams(f"grid center must be {self.n} finite values, "
                                f"got {center!r}")
        object.__setattr__(self, "center", tuple(c.tolist()))

    @property
    def h(self) -> float:
        return 2.0 * self.half_side / self.resolution

    def axis_nodes(self, a: int) -> np.ndarray:
        lo = self.center[a] - self.half_side
        return lo + (np.arange(self.resolution) + self.offset) * self.h

    def bounds(self):
        c = np.asarray(self.center)
        return c - self.half_side, c + self.half_side


def _wrap(d):
    """``d`` wrapped into [-pi, pi), for ``d`` a difference of two principal
    angles, so within [-2pi, 2pi] (or NaN).

    One conditional shift by 2pi replaces ``(d + pi) % 2pi - pi``; on that
    range the two agree bit for bit (NaN stays NaN), because each shift is
    either exact or the same rounded addition that ``np.remainder`` makes.
    Outside it they differ: ``fields._wrap`` wraps unbounded lifts with the
    modulo form.
    """
    y = d + math.pi
    y -= _TWO_PI * (y >= _TWO_PI)
    y += _TWO_PI * (y < 0)
    y -= math.pi
    return y


def _angles(field: VectorField, X: np.ndarray, dist: np.ndarray | None = None
            ) -> np.ndarray:
    """Principal target angles at sample points (``field.angles_many``);
    with ``dist`` (their distances to the declared singular set) given, NaN
    within the guard and no recomputed distances for the rest.

    This one call serves lattice nodes, lift midpoints and loop samples,
    whether the field gives its angle directly or from its values.  The two
    agree modulo 2 pi up to rounding: in the last bit (``arctan2(y, x)``
    against ``arctan2(y / r, x / r)``, or a lift's ``_wrap(T)`` against
    ``arctan2(sin T, cos T)``), and pi against -pi.  Neither moves a turn
    count: an edge whose difference ``delta`` has ``||delta| - pi| < pi/2``
    is flagged, and its count comes from a lift that is refused unless
    within a quarter turn of a whole number of turns; every other edge has
    ``|delta| <= pi/2`` or ``|delta| >= 3 pi/2``, where the wrap absorbs
    both changes.  Only at ``|delta|`` = pi/2 can the flag move, and the
    lift agrees with the wrap there if the lattice resolves the field.
    """
    ok = None if dist is None else dist > SINGULAR_GUARD
    if ok is None or np.all(ok):  # every point clears the guard: no copies
        return field.angles_many(X, dist)
    ang = np.full(X.shape[0], np.nan)
    if np.any(ok):
        ang[ok] = field.angles_many(X[ok], dist[ok])
    return ang


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------


def _loop_points(loop, samples: int) -> np.ndarray:
    if isinstance(loop, Circle):
        t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        c = np.asarray(loop.center, dtype=float)
        ring = np.stack([np.cos(t), np.sin(t)], axis=1) * loop.radius
        if c.shape[0] == 2:
            return c + ring
        pts = np.tile(c, (samples, 1))
        pts[:, 0] += ring[:, 0]
        pts[:, 1] += ring[:, 1]
        return pts
    verts = np.asarray(loop, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 3:
        raise InvalidParams("polyline loop needs at least 3 vertices")
    seglen = row_norms(np.roll(verts, -1, axis=0) - verts)
    total = seglen.sum()
    pts = []
    for i, L in enumerate(seglen):
        k = max(1, int(round(samples * L / total)))
        a, b = verts[i], verts[(i + 1) % len(verts)]
        s = np.arange(k) / k
        pts.append(a[None, :] + s[:, None] * (b - a)[None, :])
    return np.concatenate(pts, axis=0)


def winding_number(field: VectorField, loop, samples: int = 64) -> int:
    """Brouwer degree of an m=2 field around a closed loop.

    Uses principal-branch increments between ``samples`` points (an
    integer >= 3); if any increment reaches pi/2 the loop is resampled at
    twice the density, up to four times.
    """
    if field.m != 2:
        raise InvalidParams("winding numbers are defined for m=2 fields")
    if not isinstance(samples, (int, np.integer)) or samples < 3:
        raise InvalidParams(f"samples must be an integer >= 3, got {samples!r}")
    for attempt in range(5):
        pts = _loop_points(loop, samples * 2**attempt)
        try:
            ang = _angles(field, pts)
        except SingularPoint as exc:
            raise SingularOnLoop(str(exc)) from exc
        inc = _wrap(np.diff(ang, append=ang[:1]))
        if np.all(np.isfinite(inc)) and np.max(np.abs(inc)) < math.pi / 2:
            total = float(np.sum(inc)) / (2.0 * math.pi)
            d = int(round(total))
            if abs(total - d) > 0.25:
                raise AmbiguousWinding(f"non-integer winding sum {total:.4f}")
            return d
    raise AmbiguousWinding(
        "angle increments stayed >= pi/2 after maximum resampling"
    )


# ---------------------------------------------------------------------------
# plaquette sweeps
# ---------------------------------------------------------------------------


#: a sub-edge increment is trusted once the edge is this much shorter than
#: its distance to the declared singular set (keeps |d| * l / dist well
#: below pi for any realistic multiplicity)
SAFE_LENGTH_RATIO = 0.25
#: edges closer to the declared singular set than this many edge lengths
#: are always re-measured by lifting (a defect of degree |d| >= 2 hugging
#: an edge can alias its wrapped increment below every local threshold)
PROXIMITY_LENGTHS = 4.5
_LIFT_LEVELS = 40
#: float slack of the pruned proximity mask, in units of h; the bound it
#: guards is loose by about 0.47 h at the proximity limit (parallelogram law),
#: so rounding of nodes, midpoints and distances cannot drop a near edge
_PRUNE_SLACK = 1e-9
#: lattice nodes per slab of ``extract_lines_3d`` (whole axis-0 layers, at
#: least one): 4 layers of a 128^3 lattice, so each float array of a slab
#: is 0.5 MB while its numpy passes still run over thousands of nodes
SLAB_NODES = 2**16
#: tile side, in nodes along each of the last two axes, of the distance cull
CULL_TILE = 8


def _edge_error(what, P0, P1, index, edge) -> AmbiguousWinding:
    """AmbiguousWinding naming a lattice edge by its endpoints and lower node,
    followed by ``what`` went wrong on it."""
    return AmbiguousWinding(
        f"lattice edge {tuple(map(float, P0[edge]))} -> "
        f"{tuple(map(float, P1[edge]))} {what}",
        index=tuple(map(int, index[edge])))


def _safe(lengths, dist):
    """Sub-edges short enough against their midpoint distance ``dist`` to
    the declared singular set for their wrapped increment to be trusted;
    the test is monotone (non-decreasing) in ``dist``."""
    return lengths <= SAFE_LENGTH_RATIO * np.maximum(dist - lengths / 2, 0.0)


def _bounded_distances(field, mids, lengths, small, bound):
    """Midpoint distances of sub-edges that carry certified lower bounds
    ``bound`` of them (overwritten): a bound is kept where it decides both
    tests the distance is read by, and the exact distance is computed
    elsewhere.

    The guard test ``dist > SINGULAR_GUARD`` and ``_safe`` are monotone in
    the distance, so a bound above the guard decides the former, and a
    bound that passes ``_safe`` decides the latter.  The safe test counts
    only for rows whose increment is ``small`` (below pi/2); the others are
    bisected whatever their distance.
    """
    exact = ~(bound > SINGULAR_GUARD) | (small & ~_safe(lengths, bound))
    if np.any(exact):
        bound[exact] = distance_to_chain(mids[exact], field.singular_set)
    return bound


def _lift_edges(field, P0, P1, B0, B1, index) -> np.ndarray:
    """Continuous-lift increments of the straight edges ``P0 -> P1``.

    ``B0``/``B1`` are the endpoint angles, ``index`` each edge's lower
    lattice node (for error reports).  One call serves every flagged edge
    of a node block, whatever its axis.  Each edge is bisected until every
    sub-increment is below pi/2 AND the sub-edge is short relative to its
    distance from the declared singular set (``_safe``); a wave's midpoint
    distances serve both that test and the evaluation guard.  ``owner``
    maps sub-edges to edges, whose sub-increments are summed in wave and
    row order.  Fails only for defects sitting on the edge itself (within
    the lift depth cap); with faults on several edges it names the first
    in wave and row order, so a block with faults on edges of more than one
    axis may name another of them than a lift per axis would.

    The first wave gets exact midpoint distances.  Distance is 1-Lipschitz
    and a child's midpoint lies a quarter of its parent's length from the
    parent's, so a child inherits the certified bound ``dist(parent mid) -
    len(parent) / 4`` less a float slack of ``_PRUNE_SLACK`` lattice steps
    (argued as for the tile cull), and ``_bounded_distances`` computes the
    exact distance only where that bound cannot decide a test.  Every
    ``done`` decision, evaluated angle and summed total is the one the
    exact distances give.
    """
    totals = np.zeros(len(P0))
    owner = np.arange(len(P0))
    Q0, Q1 = P0, P1
    bound = None  # lower bounds of the midpoint distances after wave one
    level = _LIFT_LEVELS
    while len(owner):
        if level < 0:
            raise _edge_error("stayed ambiguous under bisection",
                              P0, P1, index, owner[0])
        bad = ~np.isfinite(B0) | ~np.isfinite(B1)
        if np.any(bad):  # a lattice endpoint or a bisection midpoint
            k = int(np.argmax(bad))
            at = Q0[k] if not np.isfinite(B0[k]) else Q1[k]
            raise _edge_error("passes through the singular set near "
                              f"{tuple(map(float, at))}", P0, P1, index, owner[k])
        inc = _wrap(B1 - B0)
        lengths = row_norms(Q1 - Q0)
        mids = (Q0 + Q1) / 2
        small = np.abs(inc) < math.pi / 2
        if bound is None:
            dist = distance_to_chain(mids, field.singular_set)
            slack = _PRUNE_SLACK * float(np.max(lengths))
        else:
            dist = _bounded_distances(field, mids, lengths, small, bound)
        done = small & _safe(lengths, dist)
        np.add.at(totals, owner[done], inc[done])
        rest = np.flatnonzero(~done)
        if len(rest) == 0:
            break
        mids = mids[rest]
        dist = dist[rest]
        ams = _angles(field, mids, dist)
        dist -= lengths[rest] / 4
        dist -= slack
        bound = np.repeat(dist, 2)
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


def _edge_ends(ndim: int, axis: int):
    """Slices of the lower and the upper nodes of the edges along ``axis``."""
    lo = tuple(slice(None, -1) if i == axis else slice(None) for i in range(ndim))
    hi = tuple(slice(1, None) if i == axis else slice(None) for i in range(ndim))
    return lo, hi


def _hits(mask: np.ndarray):
    """Flat positions of the True entries of ``mask`` and their index tuple."""
    flat = np.flatnonzero(mask)
    return flat, np.unravel_index(flat, mask.shape)


def _close_nodes(D, h) -> np.ndarray:
    """Nodes whose distance ``D`` to the declared singular set leaves an
    edge from them possibly within PROXIMITY_LENGTHS * h of it.

    Distance is 1-Lipschitz, so an edge midpoint is at least ``D - h/2``
    from the set for each end node.  Rounding ``D - h/2`` is monotone, so
    an edge is a candidate (``close`` at either end) exactly when
    ``min(D[lo], D[hi]) - h/2`` falls below the limit.
    """
    return D - h / 2 < PROXIMITY_LENGTHS * h + _PRUNE_SLACK * h


def _near_singular_edges(field, coords, h, close, axis) -> np.ndarray:
    """Edges along ``axis`` with midpoints within PROXIMITY_LENGTHS * h of
    the declared singular set, on the block of nodes with per-axis
    coordinates ``coords`` and near-singular nodes ``close``
    (``_close_nodes``).

    Only edges with a ``close`` end get an exact distance at their midpoint
    ``node + h/2``.
    """
    lo, hi = _edge_ends(close.ndim, axis)
    maybe = close[lo] | close[hi]
    flat, at = _hits(maybe)
    mids = np.stack([(c[:-1] + h / 2 if i == axis else c)[k]
                     for i, (c, k) in enumerate(zip(coords, at))], axis=1)
    near = np.zeros(maybe.shape, dtype=bool)
    near.reshape(-1)[flat] = (distance_to_chain(mids, field.singular_set)
                              < PROXIMITY_LENGTHS * h)
    return near


#: largest |turn count| for which a sum of four counts fits in int8
_INT8_TURNS = 127 // 4


def _turn_counts(field, coords, h, A, close, axis):
    """Turn counts ``K`` of the edges along lattice ``axis`` of the block of
    nodes with per-axis coordinates ``coords`` and node angles ``A``, as
    the wrap gives them, and the edges to lift instead.

    Each edge's increment is ``delta + 2 pi K`` for ``delta = A[hi] -
    A[lo]``.  An edge whose wrapped difference stays below pi/2 in
    magnitude takes the count of the wrap, ``K`` in {-1, 0, 1}:
    |wrap(delta)| is ``pi - ||delta| - pi|``.  Flagged edges carry
    near-wrap differences or a NaN endpoint, or lie close to the declared
    singular set (``_near_singular_edges`` on the nodes ``close``, None
    when no node is), where a |degree| >= 2 defect can alias a full extra
    turn into a small wrapped value.  Returns ``K`` (int8) and the flagged
    edges' flat positions, lower-node index tuple and ``delta``; the full
    ``delta`` is not kept.
    """
    lo, hi = _edge_ends(A.ndim, axis)
    delta = A[hi] - A[lo]
    K = np.less(delta, -math.pi).view(np.int8)
    K -= np.greater_equal(delta, math.pi).view(np.int8)
    gap = np.abs(delta)
    gap -= math.pi
    np.abs(gap, out=gap)
    flag = ~(gap >= PLAQUETTE_MARGIN)  # a NaN endpoint fails too
    if close is not None:
        flag |= _near_singular_edges(field, coords, h, close, axis)
    flat, i0 = _hits(flag)
    return K, flat, i0, delta.reshape(-1)[flat]


def _block_turns(field, coords, origin, h, A, close, carried=0):
    """Integer turn counts ``K`` of the edges along every lattice axis of a
    block of nodes, one array per axis: each edge's increment is
    ``A[hi] - A[lo] + 2 pi K``.

    ``A`` and ``close`` are the node angles and near-singular nodes
    (``_block_nodes``) of the block with per-axis coordinates ``coords``
    whose first node has lattice index ``origin``; errors name edges by
    their lattice index.  Edges along the axes other than 0 are taken from
    layer ``carried`` of axis 0 on (the layers before it were counted with
    an earlier block).  The flagged edges of all axes (``_turn_counts``)
    are lifted in one ``_lift_edges`` call, axis by axis in C order, and
    their edge arrays are built once: a lift ``L`` gives
    ``K = rint((L - delta) / 2 pi)``, refused unless within a quarter turn.
    The principal angles telescope around every plaquette, so a face's
    winding is the signed sum of its edges' counts.

    ``K`` is int8, widened to int64 when a lifted count could make a sum
    of four counts overflow it.
    """
    if not np.any(close):
        close = None  # no edge is near the singular set
    turns, flats, lower, deltas = [], [], [], []
    for axis in range(A.ndim):
        skip = carried if axis else 0
        K, flat, i0, delta = _turn_counts(
            field, [coords[0][skip:]] + list(coords[1:]), h, A[skip:],
            None if close is None else close[skip:], axis)
        turns.append(K)
        flats.append(flat)
        lower.append((i0[0] + skip,) + i0[1:])
        deltas.append(delta)
    ends = np.cumsum([0] + [len(flat) for flat in flats])  # axis segments
    if not ends[-1]:
        return turns
    i0 = [np.concatenate(k) for k in zip(*lower)]
    del lower
    P0 = np.stack([c[k] for c, k in zip(coords, i0)], axis=1)
    B0 = A[tuple(i0)]
    index = np.stack(i0, axis=1)
    index += np.asarray(origin)
    for axis in range(A.ndim):  # i0 becomes the upper nodes
        i0[axis][ends[axis]:ends[axis + 1]] += 1
    P1 = np.stack([c[k] for c, k in zip(coords, i0)], axis=1)
    B1 = A[tuple(i0)]
    del i0
    lifts = _lift_edges(field, P0, P1, B0, B1, index)
    lifts -= np.concatenate(deltas)
    lifts /= _TWO_PI
    lifted = np.rint(lifts)
    whole = np.abs(lifts - lifted) <= 0.25
    if not np.all(whole):
        raise _edge_error("lifts to an increment that is not a whole "
                          "number of turns from the angle difference",
                          P0, P1, index, int(np.argmin(whole)))
    for axis, flat in enumerate(flats):
        part = lifted[ends[axis]:ends[axis + 1]]
        if len(part) and np.max(np.abs(part)) > _INT8_TURNS:
            turns[axis] = turns[axis].astype(np.int64)
        turns[axis].reshape(-1)[flat] = part
    return turns


def _edge_increments(field, coords, origin, h, A, close) -> list:
    """Increments ``delta + 2 pi K`` of the node angles ``A`` along each
    lattice axis, from the turn counts of ``_block_turns`` (same
    arguments)."""
    increments = []
    for axis, K in enumerate(_block_turns(field, coords, origin, h, A, close)):
        lo, hi = _edge_ends(A.ndim, axis)
        delta = A[hi] - A[lo]
        delta += _TWO_PI * K
        increments.append(delta)
    return increments


def _block_points(coords) -> np.ndarray:
    """The (N, n) nodes of the block with per-axis coordinates ``coords``,
    rows in the block's C order, written in place (no meshgrid); each
    column is contiguous, so a field reads one axis in one pass."""
    n = len(coords)
    X = np.empty((n,) + tuple(len(c) for c in coords))
    for a, c in enumerate(coords):
        X[a] = c.reshape([-1 if i == a else 1 for i in range(n)])
    return X.reshape(n, -1).T


def _node_distances(field, X, coords, h) -> np.ndarray:
    """Distances of the block nodes ``X`` to the declared singular set, or
    certified lower bounds of them above ``(PROXIMITY_LENGTHS + 1) * h``.

    The nodes are cut into tiles of CULL_TILE x CULL_TILE along the last
    two axes, one node deep along the others.  Distance is 1-Lipschitz, so
    every node of a tile is at least ``dist(centre) - half-diagonal`` away;
    a tile whose bound clears ``(PROXIMITY_LENGTHS + 1) * h`` keeps that
    bound (less a float slack) on its nodes, and the other tiles get exact
    distances.  Every reader compares a distance with a threshold below
    that value (the proximity prune and SINGULAR_GUARD), so a bound decides
    it as the exact distance would.
    """
    *lead, c1, c2 = coords
    tiles = []  # per axis: tile centres and half-extents (the last is ragged)
    for c in (c1, c2):
        first = np.arange(0, len(c), CULL_TILE)
        last = np.minimum(first + CULL_TILE, len(c)) - 1
        tiles.append(((c[first] + c[last]) / 2, (c[last] - c[first]) / 2))
    (m1, r1), (m2, r2) = tiles
    centres = _block_points(lead + [m1, m2])
    bound = (distance_to_chain(centres, field.singular_set).reshape(
        tuple(len(c) for c in lead) + (len(m1), len(m2)))
        - np.hypot(r1[:, None], r2[None, :]) - _PRUNE_SLACK * h)
    D = np.repeat(np.repeat(bound, CULL_TILE, axis=-2)[..., :len(c1), :],
                  CULL_TILE, axis=-1)[..., :len(c2)].reshape(-1)
    exact = np.flatnonzero(D <= (PROXIMITY_LENGTHS + 1) * h)
    D[exact] = distance_to_chain(X[exact], field.singular_set)
    return D


def _block_nodes(field, coords, h):
    """Node angles (NaN on the singular set) on the block with per-axis
    coordinates ``coords``, and its near-singular nodes (``_close_nodes``
    of the node distances of ``_node_distances``)."""
    X = _block_points(coords)
    D = _node_distances(field, X, coords, h)
    shape = tuple(len(c) for c in coords)
    return _angles(field, X, D).reshape(shape), _close_nodes(D, h).reshape(shape)


def grid_edge_data_2d(field: VectorField, grid: GridSpec):
    """Node angles and (lift-corrected) edge increments on the grid."""
    coords = [grid.axis_nodes(0), grid.axis_nodes(1)]
    A, close = _block_nodes(field, coords, grid.h)
    d1, d2 = _edge_increments(field, coords, (0, 0), grid.h, A, close)
    return coords[0], coords[1], A, d1, d2


def plaquette_windings_2d(d1: np.ndarray, d2: np.ndarray):
    """Counterclockwise sum per plaquette of the shared edge values: a
    circulation in radians for increments, a winding for turn counts."""
    return d1[:, :-1] + d2[1:, :] - d1[:, 1:] - d2[:-1, :]


def region_boundary_winding(d1: np.ndarray, d2: np.ndarray,
                            i0: int, i1: int, j0: int, j1: int) -> int:
    """Winding of the boundary of the plaquette rectangle [i0,i1) x [j0,j1)."""
    total = (
        d1[i0:i1, j0].sum() + d2[i1, j0:j1].sum()
        - d1[i0:i1, j1].sum() - d2[i0, j0:j1].sum()
    )
    return int(round(total / (2.0 * math.pi)))


def extract_vortices_2d(field: VectorField, grid: GridSpec) -> SingularChain:
    """Integer point chain of per-plaquette windings on the sampling grid."""
    if field.n != 2 or field.m != 2:
        raise InvalidParams("extract_vortices_2d expects an n=2, m=2 field")
    coords = [grid.axis_nodes(0), grid.axis_nodes(1)]
    A, close = _block_nodes(field, coords, grid.h)
    K1, K2 = _block_turns(field, coords, (0, 0), grid.h, A, close)
    mult = plaquette_windings_2d(K1, K2)
    cells = []
    for i, j in np.argwhere(mult != 0):
        center = (coords[0][i] + grid.h / 2, coords[1][j] + grid.h / 2)
        cells.append((center, int(mult[i, j])))
    cells.sort(key=lambda c: c[0])
    return SingularChain.points(2, cells)


def _slab_cells(mult, a, origin, nodes, h):
    """Dual edges of the nonzero windings ``mult`` (faces of normal ``a``,
    lattice axis order, first axis-0 layer at ``origin``)."""
    b, c = (a + 1) % 3, (a + 2) % 3
    flat, at = _hits(mult != 0)
    cells = []
    for f, i0, i1, i2 in zip(flat, at[0] + origin, at[1], at[2]):
        i = (i0, i1, i2)
        p = np.empty(3)
        p[b] = nodes[b][i[b]] + h / 2
        p[c] = nodes[c][i[c]] + h / 2
        p[a] = nodes[a][i[a]]
        p0, p1 = p.copy(), p.copy()
        p0[a] -= h / 2
        p1[a] += h / 2
        cells.append(((p0, p1), int(mult.flat[f])))
    return cells


def extract_lines_3d(field: VectorField, grid: GridSpec) -> SingularChain:
    """Dual-edge chain of nonzero 2-face windings on the sampling lattice.

    For a face with normal along axis a, the winding is taken
    counterclockwise in the (a+1, a+2) plane, and a winding d assigns
    multiplicity d to the dual edge through the face along +a.

    The lattice is streamed in slabs of axis-0 layers (SLAB_NODES nodes),
    each extended by the last layer of the slab before it (see the module
    docstring), so every node is evaluated, every edge lifted and every
    face summed once, and no full-lattice array is made.
    """
    if field.n != 3 or field.m != 2:
        raise InvalidParams("extract_lines_3d expects an n=3, m=2 field")
    nodes = [grid.axis_nodes(a) for a in range(3)]
    h, res = grid.h, grid.resolution
    step = max(1, SLAB_NODES // res**2)
    cells = []
    carried = None  # A, close and axis-1 and axis-2 turns of the last layer
    for start in range(0, res, step):
        stop = min(start + step, res)
        new = [nodes[0][start:stop], nodes[1], nodes[2]]
        A, close = _block_nodes(field, new, h)
        k = 0 if carried is None else 1  # layers carried over
        first = start - k
        if k:
            A = np.concatenate([carried[0], A])
            close = np.concatenate([carried[1], close])
        block = [nodes[0][first:stop], nodes[1], nodes[2]]
        turns = _block_turns(field, block, (first, 0, 0), h, A, close, k)
        if k:
            for axis in (1, 2):
                turns[axis] = np.concatenate([carried[1 + axis], turns[axis]])
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            # plaquettes live in (b, c), summed in integers;
            # normal-0 faces on the new layers, the others between layers
            lo_b, hi_b = _edge_ends(3, b)
            lo_c, hi_c = _edge_ends(3, c)
            kb, kc = turns[b], turns[c]
            at = first
            if a == 0:
                kb, kc, at = kb[k:], kc[k:], start
            mult = kb[lo_c] + kc[hi_b]
            mult -= kb[hi_c]
            mult -= kc[lo_b]
            cells += _slab_cells(mult, a, at, nodes, h)
        carried = [x[-1:].copy() for x in (A, close, turns[1], turns[2])]
    cells.sort(key=lambda cell: tuple(np.concatenate([cell[0][0], cell[0][1]])))
    return SingularChain.segments(3, cells, spacing=h)


# ---------------------------------------------------------------------------
# the relaxed-area right-hand side
# ---------------------------------------------------------------------------


def relaxed_area_rhs(field: VectorField, domain, chain: SingularChain,
                     tol: float, **kwargs) -> float:
    """Total-variation graph area plus pi times the mass of the current
    ``chain`` inside ``domain`` (``SingularChain.current_in``, which
    refuses a 1-chain that ends inside the domain before any quadrature).
    The formula is proved for maps into S^1, so another target is refused."""
    if field.m != 2:
        raise InvalidParams(f"the relaxed area formula holds for maps into "
                            f"S^1, and {field.name} maps into S^{field.m - 1}")
    inside = chain.current_in(domain)
    tv_area, = graph_functionals(field, domain, tol, ("tv_area",), **kwargs)
    return tv_area.value + math.pi * chain_mass(inside)
