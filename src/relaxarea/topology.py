"""Topological degree and extraction of the singularity current.

Winding numbers are sums of principal-branch angle increments.  Lattice
extraction computes per-plaquette windings from corner values; edges whose
wrapped increment reaches pi/2, or which pass near the declared singular
set (where a higher-degree defect can alias a full turn into a small
wrapped value), are re-measured by bisecting the edge until every
sub-increment is an unambiguous fraction of a turn.  Lifted values are
written back into the shared edge arrays, so plaquette sums telescope
exactly to boundary windings.  In 3d a nonzero winding on a 2-face
contributes the dual edge crossing it, with orientation fixed by the
right-hand rule (counterclockwise in the face plane seen from the positive
dual direction).  The sign convention is pinned here once;
acceptance-level claims use masses and |multiplicities|.

The lattice passes avoid full-grid copies: node coordinates are written
into one (N, n) array, the node angles are evaluated on it directly when
every node clears the singular-set guard (masked copies are made only when
some node does not), and the plaquette sums read the edge arrays in the
lattice's own index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import SingularChain, chain_mass, distance_to_chain
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
    so the default half-cell offset keeps nodes off symmetric singular sets.
    """

    n: int
    resolution: int
    half_side: float = 1.0
    center: tuple = None
    offset: float = 0.5

    def __post_init__(self):
        if self.resolution < 8:
            raise InvalidParams("grid resolution must be >= 8 per axis")
        if self.center is None:
            object.__setattr__(self, "center", (0.0,) * self.n)

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
    Outside it they differ: ``recovery`` wraps unbounded phases with the
    modulo form.
    """
    y = d + math.pi
    y -= _TWO_PI * (y >= _TWO_PI)
    y += _TWO_PI * (y < 0)
    y -= math.pi
    return y


def _singular_distance(field: VectorField, X: np.ndarray) -> np.ndarray:
    """Distance of each point to the declared singular set (inf without one)."""
    if field.singular_set is None:
        return np.full(X.shape[0], np.inf)
    return distance_to_chain(X, field.singular_set)


def _angles(field: VectorField, X: np.ndarray, dist: np.ndarray | None = None
            ) -> np.ndarray:
    """Target angles at sample points; with ``dist`` (their distances to the
    declared singular set) given, NaN within the guard and no recomputed
    distances for the rest."""
    ok = None if dist is None else dist > SINGULAR_GUARD
    if ok is None or np.all(ok):  # every point clears the guard: no copies
        return _principal_angles(field.evaluate_many(X, dist))
    ang = np.full(X.shape[0], np.nan)
    if np.any(ok):
        ang[ok] = _principal_angles(field.evaluate_many(X[ok], dist[ok]))
    return ang


def _principal_angles(U: np.ndarray) -> np.ndarray:
    a = np.arctan2(U[:, 1], U[:, 0])
    a[np.hypot(U[:, 0], U[:, 1]) < 1e-12] = np.nan  # vanishing values cannot wind
    return a


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
    seglen = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
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

    Uses principal-branch increments; if any increment reaches pi/2 the
    loop is resampled at twice the density, up to four times.
    """
    if field.m != 2:
        raise InvalidParams("winding numbers are defined for m=2 fields")
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


def _edge_error(msg, P0, P1, index, edge) -> AmbiguousWinding:
    """AmbiguousWinding naming a lattice edge by its endpoints and lower node."""
    return AmbiguousWinding(
        f"{msg}: lattice edge {tuple(map(float, P0[edge]))} -> "
        f"{tuple(map(float, P1[edge]))}", index=tuple(map(int, index[edge])))


def _lift_edges(field, P0, P1, B0, B1, index) -> np.ndarray:
    """Continuous-lift increments of the straight edges ``P0 -> P1``.

    ``B0``/``B1`` are the endpoint angles, ``index`` each edge's lower
    lattice node (for error reports).  Each edge is bisected until every
    sub-increment is below pi/2 AND the sub-edge is short relative to its
    distance from the declared singular set; a wave's midpoint distances
    serve both that test and the evaluation guard.  ``owner`` maps
    sub-edges to edges, whose sub-increments are summed in wave and row
    order.  Fails only for defects sitting on the edge itself (within the
    lift depth cap).
    """
    totals = np.zeros(len(P0))
    owner = np.arange(len(P0))
    Q0, Q1 = P0, P1
    level = _LIFT_LEVELS
    while len(owner):
        if level < 0:
            raise _edge_error("edge increment stayed ambiguous under bisection",
                              P0, P1, index, owner[0])
        bad = ~np.isfinite(B0) | ~np.isfinite(B1)
        if np.any(bad):
            raise _edge_error("edge endpoint on the singular set",
                              P0, P1, index, owner[int(np.argmax(bad))])
        inc = _wrap(B1 - B0)
        lengths = np.linalg.norm(Q1 - Q0, axis=1)
        mids = (Q0 + Q1) / 2
        dist = _singular_distance(field, mids)
        safe = lengths <= SAFE_LENGTH_RATIO * np.maximum(dist - lengths / 2, 0.0)
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


def _edge_ends(ndim: int, axis: int):
    """Slices of the lower and the upper nodes of the edges along ``axis``."""
    lo = tuple(slice(None, -1) if i == axis else slice(None) for i in range(ndim))
    hi = tuple(slice(1, None) if i == axis else slice(None) for i in range(ndim))
    return lo, hi


def _near_singular_edges(field, grid, D, axis) -> np.ndarray:
    """Edges along ``axis`` with midpoints within PROXIMITY_LENGTHS * h of
    the declared singular set, given the node distances ``D`` to it.

    Distance is 1-Lipschitz, so dist(mid) >= min(node dist) - h/2; only
    edges that bound cannot clear get an exact distance at their midpoint
    ``node + h/2``.
    """
    lo, hi = _edge_ends(D.ndim, axis)
    h = grid.h
    limit = PROXIMITY_LENGTHS * h
    nodes = [grid.axis_nodes(i) for i in range(D.ndim)]
    maybe = np.minimum(D[lo], D[hi]) - h / 2 < limit + _PRUNE_SLACK * h
    idx = np.nonzero(maybe)
    mids = np.stack([(c[:-1] + h / 2 if i == axis else c)[at]
                     for i, (c, at) in enumerate(zip(nodes, idx))], axis=1)
    near = np.zeros(maybe.shape, dtype=bool)
    near[idx] = _singular_distance(field, mids) < limit
    return near


def _edge_increments(field, grid, A, D, axis) -> np.ndarray:
    """Wrapped increments of the node angles ``A`` along lattice ``axis``,
    with each untrustworthy one replaced by its continuous lift.

    Flagged edges carry near-wrap increments or a NaN endpoint, or lie close
    to the declared singular set (where a |degree| >= 2 defect can alias a
    full extra turn into a small wrapped value); their endpoint arrays are
    lifted together.  Every plaquette sweep reads these shared increments,
    so plaquette sums telescope exactly.
    """
    lo, hi = _edge_ends(A.ndim, axis)
    d = _wrap(A[hi] - A[lo])
    flag = ~(np.abs(d) <= math.pi - PLAQUETTE_MARGIN)  # a NaN endpoint fails too
    flag |= _near_singular_edges(field, grid, D, axis)
    i0 = np.nonzero(flag)
    if len(i0[0]):
        i1 = tuple(at + 1 if i == axis else at for i, at in enumerate(i0))
        nodes = [grid.axis_nodes(i) for i in range(A.ndim)]
        P0 = np.stack([c[at] for c, at in zip(nodes, i0)], axis=1)
        P1 = np.stack([c[at] for c, at in zip(nodes, i1)], axis=1)
        d[i0] = _lift_edges(field, P0, P1, A[i0], A[i1], np.stack(i0, axis=1))
    return d


def _lattice_nodes(field: VectorField, grid: GridSpec):
    """Node angles (NaN on the singular set) and node distances to it."""
    shape = (grid.resolution,) * field.n
    X = np.empty(shape + (field.n,))
    for a in range(field.n):  # node coordinates written in place, no meshgrid
        X[..., a] = grid.axis_nodes(a).reshape([-1 if i == a else 1
                                                for i in range(field.n)])
    X = X.reshape(-1, field.n)
    D = _singular_distance(field, X)
    return _angles(field, X, D).reshape(shape), D.reshape(shape)


def grid_edge_data_2d(field: VectorField, grid: GridSpec):
    """Node angles and (lift-corrected) edge increments on the grid."""
    A, D = _lattice_nodes(field, grid)
    d1, d2 = (_edge_increments(field, grid, A, D, axis) for axis in (0, 1))
    return grid.axis_nodes(0), grid.axis_nodes(1), A, d1, d2


def plaquette_windings_2d(d1: np.ndarray, d2: np.ndarray):
    """Counterclockwise circulation (radians) per plaquette from shared edges."""
    return d1[:, :-1] + d2[1:, :] - d1[:, 1:] - d2[:-1, :]


def region_boundary_winding(d1: np.ndarray, d2: np.ndarray,
                            i0: int, i1: int, j0: int, j1: int) -> int:
    """Winding of the boundary of the plaquette rectangle [i0,i1) x [j0,j1)."""
    total = (
        d1[i0:i1, j0].sum() + d2[i1, j0:j1].sum()
        - d1[i0:i1, j1].sum() - d2[i0, j0:j1].sum()
    )
    return int(round(total / (2.0 * math.pi)))


def _windings_from_circ(circ, where: str, order=None):
    """Windings of the circulations ``circ`` (overwritten), as integer-valued
    floats; callers convert the nonzero ones.

    An error names the first offending plaquette in C order of
    ``circ.transpose(order)``: a non-finite circulation before a
    non-integer one.
    """
    circ /= _TWO_PI
    mult = np.rint(circ)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, reported below
        off = circ - mult
    np.abs(off, out=off)
    if not np.all(off <= 0.25):  # NaN fails the test too
        for msg, bad in (("sample on the singular set", ~np.isfinite(circ)),
                         ("non-integer plaquette circulation", off > 0.25)):
            if np.any(bad):
                first = np.argwhere(bad if order is None
                                    else bad.transpose(order))[0]
                raise AmbiguousWinding(f"{where}: {msg}",
                                       index=tuple(int(v) for v in first))
    return mult


def extract_vortices_2d(field: VectorField, grid: GridSpec) -> SingularChain:
    """Integer point chain of per-plaquette windings on the sampling grid."""
    if field.n != 2 or field.m != 2:
        raise InvalidParams("extract_vortices_2d expects an n=2, m=2 field")
    xs, ys, _, d1, d2 = grid_edge_data_2d(field, grid)
    mult = _windings_from_circ(plaquette_windings_2d(d1, d2), "2d sweep")
    cells = []
    for i, j in np.argwhere(mult != 0):
        center = (xs[i] + grid.h / 2, ys[j] + grid.h / 2)
        cells.append((center, int(mult[i, j])))
    cells.sort(key=lambda c: c[0])
    return SingularChain.points(2, cells)


def extract_lines_3d(field: VectorField, grid: GridSpec) -> SingularChain:
    """Dual-edge chain of nonzero 2-face windings on the sampling lattice.

    For a face with normal along axis a, the winding is taken
    counterclockwise in the (a+1, a+2) plane, and a winding d assigns
    multiplicity d to the dual edge through the face along +a.
    """
    if field.n != 3 or field.m != 2:
        raise InvalidParams("extract_lines_3d expects an n=3, m=2 field")
    nodes = [grid.axis_nodes(a) for a in range(3)]
    A, D = _lattice_nodes(field, grid)
    edges = [_edge_increments(field, grid, A, D, axis) for axis in range(3)]
    h = grid.h
    cells = []
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        # plaquettes live in (b, c); sum in the lattice's own index order
        lo_b, hi_b = _edge_ends(3, b)
        lo_c, hi_c = _edge_ends(3, c)
        eb, ec = edges[b], edges[c]
        circ = eb[lo_c] + ec[hi_b] - eb[hi_c] - ec[lo_b]
        mult = _windings_from_circ(circ, f"3d sweep, normal axis {a}",
                                   order=(b, c, a))
        for at in np.argwhere(mult != 0):
            ib, ic, ia = at[b], at[c], at[a]
            p = np.empty(3)
            p[b] = nodes[b][ib] + h / 2
            p[c] = nodes[c][ic] + h / 2
            p[a] = nodes[a][ia]
            p0, p1 = p.copy(), p.copy()
            p0[a] -= h / 2
            p1[a] += h / 2
            cells.append(((p0, p1), int(mult[tuple(at)])))
    cells.sort(key=lambda cell: tuple(np.concatenate([cell[0][0], cell[0][1]])))
    return SingularChain.segments(3, cells, spacing=h)


# ---------------------------------------------------------------------------
# the relaxed-area right-hand side
# ---------------------------------------------------------------------------


def relaxed_area_rhs(field: VectorField, domain, chain: SingularChain,
                     tol: float, **kwargs) -> float:
    """Total-variation graph area plus pi times the singularity mass."""
    tv_area, = graph_functionals(field, domain, tol, ("tv_area",), **kwargs)
    return tv_area.value + math.pi * chain_mass(chain)
