"""Singularity-aware adaptive integration over the package's domains.

The engine runs a tensor Gauss rule of order 8 per axis on each cell of a
chart's parameter box, estimates the cell error from the same 8^d values,
and refines in waves until the summed estimate meets the requested
relative tolerance.  A cell is split dyadically, along the axis with the
largest error, up to the depth cap of 14 halvings per axis.

The error estimate uses null rules of the Gauss-8 nodes (J. Berntsen &
T. O. Espelid, ACM TOMS 17, 1991, the estimator of DCUHRE).  Along each
axis a, the cell's values integrated over the other axes with the Gauss
weights form an 8-value profile, and its orthonormal Legendre coefficients
c2..c7 are null rules: each gives 0 on polynomials of lower degree along
a.  Gauss-8 integrates degree 15 exactly, so the first coefficient it
misses is c16.  A sequence of these coefficients, of top value e1 and
decay ratio q = min(1, max(e1 / e2, e2 / e3)) over its three entries, is
carried on to degree 16 by the algebraic decay through its top two
entries, e1 q^DECAY; for q <= 1 this is never below the geometric
extrapolation.  It is never carried below e1 / 64 (EXTRAPOLATION_FLOOR):
a weak crease inside a cell, under a smooth part that dominates c2..c7,
shows only above degree 7, so a fast decay of the low coefficients does
not rule it out.  The sequences read per axis are the norms of the pairs
(c2, c3), (c4, c5), (c6, c7), as in DCUHRE, and the parity (even or odd
coefficients) that is the smaller in the top pair or in the middle one,
because a smooth part of the other parity can dominate the pair norms
while that parity decays slowly; where the two pairs disagree, both
parities are read.  An axis's error is |G8(P~16)| = 1.226 times the
largest extrapolation, and the cell's error is twice its largest axis
error, times its volume.  Where the coefficients decay as a smooth
integrand's do, the estimate is sharp down to the floor; where they
decay slowly, next to a singular set or at the depth cap, q is large and
the estimate stays within a small factor of e1.  Each cell's error is
floored at QUADPACK's roundoff level 50 eps sum |w f| vol (R. Piessens et
al., Springer 1983), so that no estimate is exactly 0.  The estimate
reads only what the Gauss-8 nodes sample.  Its known misses, which the
calibration tests keep as expected failures, are creases off the chart
breaks: the profiles integrate a crease across a cell's diagonal into a
smoother curve, and a crease near a cell's side can hide below the
floor.  The value is the Gauss-8 value, and the value and every null rule
of a cell come from one product, each row reduced alone (``_dots``).

An integral has one refinement tree, as in DCUHRE (Berntsen, Espelid &
Genz, ACM TOMS 17, 1991): one table holds the cells of every chart of the
domain, and one weight vector, one stop rule and one ``max_cells`` budget
serve them all.  An integrand returns (N,) or (N, K) values; the K
components share the tree, and each must meet the tolerance on its own.
Weighted by 1 / max(|initial total|, SCALE_FLOOR), a cell's largest
component error ranks it, and the split axis is the one whose weighted
error most exceeds the roundoff floor, over all components.

Waves follow the parallel globally adaptive rule of Bull & Freeman (the
vectorized mode of S. G. Johnson's ``cubature`` works alike).  Each wave
orders the open cells by rank, worst first, and takes the fewest leading
cells whose summed error reaches the excess
total_err - tol * max(|total_val|, SCALE_FLOOR) in every component that
has neither met tol nor been decided; it takes no cell whose weighted
error is below half of the worst one's, and always at least one.  A taken
cell is split along an open axis, one below the depth cap whose error
exceeds the roundoff floor, and all the children are evaluated together,
passed to the integrand in equal blocks of at most ``BLOCK_POINTS``; a
taken cell with no open axis becomes final.  On every acceptance integral
the waves grow the same tree as splitting the one worst cell per call
did, so values, errors and node counts are unchanged; they save integrand
calls, most of all in a refusal, which reaches the depth cap in about one
wave per level.  A wave splits no more cells than ``max_cells`` has left.

A final cell stays in the table, is never split again, as in DCUHRE, and
keeps its own error estimate in the sum, so a refusal can be decided
before the cell budget runs out.  "Capped" (``CappedCell`` and the
"depth-capped" of a refusal) names a final cell, which also covers a cell
whose error is at the roundoff floor along every axis below the cap, such
as one that is flat along them.  With C_k the capped error of component
k, V_k = |value_k| and U_k the error of the open cells, component k is
*decided* once

    C_k > tol * max(V_k + U_k, SCALE_FLOOR).

This refusal is safe: the final absolute error is at least C_k, because
refinement only replaces open cells, and it moves the value by at most
U_k, so the final |value_k| is at most V_k + U_k.  (This trusts the cell
error estimates, as the convergence test itself does.  Next to a singular
set the null-rule coefficients decay slowly, so a capped cell's estimate
is extrapolated only a little below its top null-rule values; the
calibration table checks the estimates of refused results against exact
values.)  Neither argument depends on how many cells a wave splits.  The
test runs after every wave; refinement stops once each component has met
tol or been decided, and a component that can still converge refines on.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .chains import SingularChain, distance_to_chain
from .errors import InvalidGeometry, InvalidParams, NoConvergence, NonFinite
from .domains import Domain
from .fields import VectorField, minors2

GAUSS_ORDER = 8
MAX_DEPTH = 14

#: most points per call of the integrand: a wave's children are passed in
#: equal blocks of at most this many, so that a wide wave does not raise the
#: peak memory of the integrand's temporaries, nor spill them out of cache
#: (a 3d counterexample field's graph integrand costs 35% more per point at
#: 3456 points than at 1152)
BLOCK_POINTS = 2048

#: floor used to turn absolute error estimates into relative ones; integrals
#: smaller than this are resolved in absolute terms at tol * floor
SCALE_FLOOR = 1e-6


#: a capped (final) cell: its centre in physical coordinates and its
#: distance to the singular set (inf without one)
CappedCell = namedtuple("CappedCell", "centre distance")


@dataclass(frozen=True)
class QuadStats:
    """How a result was obtained: the ``cells`` of the refinement tree, of
    which ``final_cells`` are final (capped); ``max_depth``, the most
    halvings of a cell along one axis; the refinement ``waves``; the
    ``calls`` of the integrand and the ``points`` passed to it, which are
    the result's ``nodes_used``; and the wall seconds of :func:`integrate`,
    split into ``integrand_s``, inside the integrand, and ``engine_s``, the
    rest.  The seconds are left out of equality, so that reruns compare
    equal."""

    cells: int
    final_cells: int
    max_depth: int
    waves: int
    calls: int
    points: int
    integrand_s: float = field(default=0.0, compare=False)
    engine_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class QuadratureResult:
    """Value, relative error estimate, node count and convergence flag; (K,)
    arrays for an (N, K) integrand, converged when all components are.
    ``capped_cell`` is the depth-capped cell with the largest relative error,
    None when no cell was capped; ``stats`` counts the tree that gave the
    result."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    nodes_used: int
    converged: bool
    abs_error: float | np.ndarray = 0.0
    capped_cell: CappedCell | None = None
    stats: QuadStats | None = None


@functools.cache
def _tensor_rule(order: int, dim: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.ones(order**dim)
    for a in range(dim):
        wts *= np.meshgrid(*([w] * dim), indexing="ij")[a].ravel()
    return pts, wts


def _g8_error_of_p16():
    """|G8 - integral| of the orthonormal Legendre polynomial of degree 16 on
    [0, 1], the lowest degree that the Gauss-8 rule does not integrate."""
    x, w = _tensor_rule(GAUSS_ORDER, 1)
    c = np.zeros(2 * GAUSS_ORDER + 1)
    c[-1] = math.sqrt(4 * GAUSS_ORDER + 1)
    return abs(float(w @ np.polynomial.legendre.legval(2.0 * x[:, 0] - 1.0, c)))


#: the exponent of the algebraic decay through the pairs (c4, c5) and
#: (c6, c7), centred at degrees 4.5 and 6.5, carried on to degree 16
DECAY = math.log(16 / 6.5) / math.log(6.5 / 4.5)
#: an axis's error per unit of its extrapolated degree-16 coefficient,
#: 2 |G8(P~16)|
ERROR_FACTOR = 2.0 * _g8_error_of_p16()
#: the least an extrapolation keeps of its sequence's top value: a weak
#: crease inside a cell, under a smooth part that dominates c2..c7, shows
#: only in the coefficients above degree 7, so no decay read from them is
#: trusted below this (of 30 results for random |x - x0|^b + y^2 over
#: Cube(2), 12 missed their estimate with no floor, 7 at 1/128, 1 at 1/64)
EXTRAPOLATION_FLOOR = 1.0 / 64.0
#: the same floor on the decay ratio q, 0.18
RATIO_FLOOR = EXTRAPOLATION_FLOOR ** (1.0 / DECAY)
#: QUADPACK's roundoff floor per cell, in units of sum |w f| vol
ROUNDOFF = 50.0 * np.finfo(float).eps
#: keeps 0 / 0 out of the decay ratios
TINY = np.finfo(float).tiny


@functools.cache
def _cell_rules(dim: int):
    """The (1 + 6 dim, 8^dim) rules of a cell's one product: the Gauss-8
    weights W8, then per axis a the null rules c2..c7 times ERROR_FACTOR.
    c_j = sum W8 P~_j(x_a) f is the orthonormal Legendre coefficient of
    degree j of the cell's profile along a (its values integrated over the
    other axes with the Gauss weights); it vanishes on polynomials of degree
    below j along a."""
    x, w = _tensor_rule(GAUSS_ORDER, dim)
    j = np.arange(2, GAUSS_ORDER)
    # (nodes, dim, 6): sqrt(2 j + 1) P_j(2 x_a - 1)
    P = (np.polynomial.legendre.legvander(2.0 * x - 1.0, GAUSS_ORDER - 1)[:, :, 2:]
         * np.sqrt(2.0 * j + 1.0))
    null = ERROR_FACTOR * (P * w[:, None, None]).reshape(len(w), -1).T
    return np.concatenate([w[None], null])


def _axis_errors(c):
    """Each axis's error from its c2..c7 as (..., pair, member), the pairs
    (c2, c3), (c4, c5), (c6, c7).  A sequence of top value e1 and decay
    ratio q = min(1, max(e1 / e2, e2 / e3)) is carried on to degree 16 as
    e1 max(q, RATIO_FLOOR)^DECAY, never below e1 EXTRAPOLATION_FLOOR.  The
    sequences read are the pair norms, as DCUHRE does, and the parity (even
    or odd coefficients) that is the smaller in the top pair or in the
    middle one: a smooth part of the other parity can dominate the pair
    norms while that parity decays slowly, as in the minor mass of the 4d
    cone shell, which the pair norms alone leave 3 times outside its
    estimate (``test_cone_shell_minor_mass_within_its_estimate``)."""
    z = np.empty(c.shape[:-1] + (3,))  # |even|, |odd|, pair norm
    a = np.abs(c, out=z[..., :2])
    np.hypot(a[..., 0], a[..., 1], out=z[..., 2])
    r = z[..., 1:, :] / (np.maximum(z[..., 1:, :], z[..., :-1, :]) + TINY)
    t = z[..., 2, :] * r.max(axis=-2, initial=RATIO_FLOOR) ** DECAY
    hidden = np.where(a[..., 1:, 1] < a[..., 1:, 0],
                      t[..., None, 1], t[..., None, 0])
    return np.maximum(t[..., 2], hidden.max(axis=-1))


def _dots(rows, w):
    """w @ each row of rows (C, K, len(w)), bit for bit the 1-d products
    ``[[r @ w for r in cell] for cell in rows]``, so that a cell's value does
    not depend on the cells evaluated with it.  ``np.vecdot`` runs the kernel
    of a 1-d ``r @ w`` on each row; ``einsum``, a batched ``matmul`` and
    ``(rows * w).sum(-1)`` add in other orders."""
    return np.vecdot(rows, w)


def _joined(parts):
    """The one array of ``parts``, or their concatenation: a lone part is
    not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Integrand:
    """f on a batch of points as (N, K) columns, in equal blocks of at most
    ``BLOCK_POINTS``; ``scalar`` records whether f returns (N,)."""

    def __init__(self, f):
        self.f = f
        self.scalar = True
        self.calls = self.points = 0  # of f
        self.seconds = 0.0  # in f

    def __call__(self, X):
        blocks = -(-len(X) // BLOCK_POINTS)
        step = -(-len(X) // blocks)  # equal blocks
        start = time.perf_counter()
        parts = [np.asarray(self.f(X[i:i + step]), dtype=float)
                 for i in range(0, len(X), step)]
        self.seconds += time.perf_counter() - start
        self.calls += len(parts)
        self.points += len(X)
        out = _joined(parts)
        self.scalar = out.ndim == 1
        out = out.reshape(len(X), -1)
        if not np.isfinite(out).all():
            raise NonFinite("integrand returned NaN/Inf off the singular set")
        return out


class _Cells:
    """Cells as the rows of one float array, so that taking cells is one
    operation.  Its column blocks: halvings per axis ``splits``, corners
    ``lo``, ``hi`` (dim each) and the ``chart`` index, so that the leading
    columns order cells as the reduction does; ``value`` and ``err`` (K
    each); ``rank``, minus the largest weighted error, +inf once the cell is
    final; and ``above_floor`` (dim), per axis the most by which a
    component's weighted axis error exceeds its roundoff floor."""

    def __init__(self, rows, dim):
        self.rows, self.dim = rows, dim
        self.K = (rows.shape[1] - 4 * dim - 2) // 2

    splits = property(lambda c: c.rows[:, :c.dim])
    lo = property(lambda c: c.rows[:, c.dim:2 * c.dim])
    hi = property(lambda c: c.rows[:, 2 * c.dim:3 * c.dim])
    chart = property(lambda c: c.rows[:, 3 * c.dim])
    value = property(lambda c: c.rows[:, 3 * c.dim + 1:3 * c.dim + 1 + c.K])
    err = property(lambda c: c.rows[:, 3 * c.dim + 1 + c.K:3 * c.dim + 1 + 2 * c.K])
    rank = property(lambda c: c.rows[:, 3 * c.dim + 1 + 2 * c.K])
    above_floor = property(lambda c: c.rows[:, 3 * c.dim + 2 + 2 * c.K:])

    def __len__(self):
        return self.rows.shape[0]

    def take(self, idx):
        return _Cells(self.rows.take(idx, axis=0), self.dim)


def _split_box_at_breaks(box, axes, breaks):
    """Corners lo, hi (C, dim) of a parameter box's cells cut at the breaks."""
    per_axis = []
    for (lo, hi), name in zip(box, axes):
        cuts = sorted(v for v in breaks.get(name, ())
                      if lo + 1e-14 < v < hi - 1e-14)
        edges = [lo] + cuts + [hi]
        per_axis.append(list(zip(edges[:-1], edges[1:])))
    boxes = np.array(list(itertools.product(*per_axis)), dtype=float)
    return boxes[:, :, 0], boxes[:, :, 1]


class _Tree:
    """One integral's refinement tree: the cells of all its charts, open and
    final, in one table, with their totals; ``f`` is an _Integrand, which
    counts the nodes evaluated."""

    def __init__(self, f, charts, singular_set, breaks):
        self.f = f
        self.charts = charts
        self.singular_set = singular_set
        self.weight = None  # per component, set by the first batch
        self.dim = len(charts[0].box)
        self.Q, W8 = _tensor_rule(GAUSS_ORDER, self.dim)
        self.rules = _cell_rules(self.dim)
        self.roundoff_w = ROUNDOFF * W8
        self.waves = 0
        boxes = [_split_box_at_breaks(ch.box, ch.axes, breaks) for ch in charts]
        lo, hi = (np.concatenate(b) for b in zip(*boxes))
        chart = np.repeat(np.arange(len(charts)), [len(b) for b, _ in boxes])
        self.cells = self.eval_cells(lo, hi, np.zeros(lo.shape), chart)
        self._total()

    nodes_used = property(lambda t: t.f.points)

    def _total(self):
        self.total_val = self.cells.value.sum(axis=0)
        self.total_err = self.cells.err.sum(axis=0)

    def eval_cells(self, lo, hi, splits, chart):
        """Evaluate the cells [lo, hi] (C, dim) of the charts ``chart`` (C,),
        grouped by chart, together in one wave."""
        C, n = lo.shape[0], len(self.Q)
        P = (lo[:, None, :] + self.Q * (hi - lo)[:, None, :]).reshape(-1, self.dim)
        # each chart's points are one slice of P, mapped without a copy
        ends = ([0, len(P)] if len(self.charts) == 1 else
                (chart.searchsorted(np.arange(len(self.charts) + 1)) * n).tolist())
        X, w = [], []
        for ch, a, b in zip(self.charts, ends, ends[1:]):
            if a < b:
                X.append(ch.to_physical(P[a:b]))
                w.append(ch.weight(P[a:b]))
        F = self.f(_joined(X)) * _joined(w)[:, None]
        # (C, K, nodes), each row contiguous, so that it sums in the order it
        # would for a lone cell
        F = np.ascontiguousarray(F.reshape(C, n, -1).transpose(0, 2, 1))
        vol = (hi - lo).prod(axis=1)[:, None]
        # the value and every null rule from one product, each row reduced
        # alone, so that a cell's value and error do not depend on its wave
        c = _dots(F[:, :, None, :], self.rules)
        value = c[..., 0] * vol
        axis_err = _axis_errors(c[..., 1:].reshape(C, -1, self.dim, 3, 2))
        roundoff = _dots(np.abs(F), self.roundoff_w)
        err = np.maximum(axis_err.max(axis=2), roundoff) * vol
        if self.weight is None:  # 1 / max(|total|, floor), the largest being 1
            scale = np.maximum(np.abs(value.sum(axis=0)), SCALE_FLOOR)
            self.weight = scale.min() / scale
        weighted = err * self.weight
        above_floor = ((axis_err - roundoff[..., None])
                       * self.weight[:, None]).max(axis=1)
        return _Cells(np.concatenate([splits, lo, hi, chart[:, None], value, err,
                                      -weighted.max(axis=1)[:, None], above_floor],
                                     axis=1), self.dim)

    def refine(self, tol, max_cells):
        """Split or finalize the worst open cells in waves, each taking cells
        in rank order until what is left would meet tol, and stop once every
        component has met tol or been decided, no cell is open or the cells
        reach ``max_cells``."""
        decided = np.zeros(len(self.total_err), dtype=bool)
        while True:
            cells = self.cells
            # take and count_nonzero rather than indexing and any(): on a
            # wave's small arrays they cost a third as much
            order = cells.rank.argsort(kind="stable")
            rank = cells.rank.take(order)
            n_open = int(rank.searchsorted(math.inf))  # final cells rank last
            if n_open < len(cells):
                capped = cells.err.take(order[n_open:], axis=0).sum(axis=0)
                decided |= capped > tol * np.maximum(
                    np.abs(self.total_val) + self.total_err - capped, SCALE_FLOOR)
            excess = self.total_err - tol * np.maximum(np.abs(self.total_val),
                                                       SCALE_FLOOR)
            todo = (excess > 0) & ~decided
            budget = max_cells - len(cells)
            if not n_open or budget <= 0 or not np.count_nonzero(todo):
                return
            # the fewest leading cells whose errors cover every open excess,
            # but only those within half of the worst, and at least one
            short = cells.err.take(order[:n_open], axis=0).cumsum(axis=0) < excess
            need = 1 + int(short.sum(axis=0)[todo].max())
            n = max(1, min(need, int(rank.searchsorted(0.5 * rank[0], "right"))))
            taken = cells.take(order[:n])
            # an axis is open below the depth cap where its error exceeds
            # the roundoff floor
            splittable = ((taken.splits < MAX_DEPTH)
                          & (taken.above_floor > 0)).any(axis=1)
            if n > budget:  # each split adds a cell, finalizing none
                n = int(splittable.cumsum().searchsorted(budget, "right"))
                taken, splittable = _Cells(taken.rows[:n], self.dim), splittable[:n]
            parts = [cells.rows.take(np.sort(order[n:]), axis=0)]
            n_split = np.count_nonzero(splittable)
            if n_split < n:
                final = _Cells(taken.rows[~splittable], self.dim)
                final.rank[:] = math.inf
                parts.append(final.rows)
            if n_split:  # the children are evaluated grouped by chart
                split = _Cells(taken.rows[splittable], self.dim)
                if len(self.charts) > 1:
                    split = split.take(split.chart.argsort(kind="stable"))
                parts.append(self._split(split.rows).rows)
            self.cells = _Cells(np.concatenate(parts), self.dim)
            self.waves += 1
            self._total()

    def _split(self, rows):
        """The children of halving each cell of ``rows`` (of a _Cells table,
        grouped by chart) along its open axis of largest error above the
        floor, evaluated together."""
        kids = _Cells(rows.repeat(2, axis=0), self.dim)
        lo, hi, splits = kids.lo, kids.hi, kids.splits
        above = np.where(splits < MAX_DEPTH, kids.above_floor, -np.inf)
        cut = above.argmax(axis=1)[:, None] == np.arange(self.dim)
        mid = 0.5 * (lo + hi)
        np.copyto(hi[0::2], mid[0::2], where=cut[0::2])
        np.copyto(lo[1::2], mid[1::2], where=cut[1::2])
        splits += cut
        return self.eval_cells(lo, hi, splits, kids.chart)

    def capped_cell(self, cell):
        """The CappedCell of a one-row _Cells table."""
        centre = self.charts[int(cell.chart[0])].to_physical(
            0.5 * (cell.lo + cell.hi))
        dist = (float(distance_to_chain(centre, self.singular_set)[0])
                if self.singular_set else math.inf)
        return CappedCell(tuple(float(x) for x in centre[0]), dist)


def _components(res: QuadratureResult, tol: float) -> list:
    """One scalar result per component, each with its own flag."""
    if np.ndim(res.value) == 0:
        return [res]
    return [QuadratureResult(float(v), float(e), res.nodes_used, bool(e <= tol),
                             float(a), res.capped_cell, res.stats)
            for v, e, a in zip(res.value, res.error_estimate, res.abs_error)]


def _refuse_unconverged(names, results, tol):
    """NoConvergence naming each result that missed tol, with the worst one's
    value and estimate, the tree's worst depth-capped cell and its counts,
    if any did."""
    missed = [(name, r) for name, r in zip(names, results) if not r.converged]
    if missed:
        worst = max((r for _, r in missed), key=lambda r: r.error_estimate)
        msg = "; ".join(f"{name} did not reach tol={tol:g} "
                        f"(estimate {r.error_estimate:.3g})" for name, r in missed)
        where = worst.capped_cell
        if where is not None:
            centre = ", ".join(f"{x:.6g}" for x in where.centre)
            msg += (f"; worst depth-capped cell at ({centre}), "
                    f"{where.distance:.3g} from the singular set")
        raise NoConvergence(msg, value=worst.value,
                            error_estimate=worst.error_estimate, capped_cell=where,
                            stats=worst.stats)


def integrate(
    f,
    domain: Domain,
    tol: float,
    singular_set: SingularChain | None = None,
    breaks: dict | None = None,
    max_cells: int = 20000,
    raise_on_failure: bool = True,
) -> QuadratureResult:
    """Adaptive integral of a vectorized integrand f((N, n)) -> (N,) or (N, K).

    ``tol`` is a relative tolerance (>= 1e-10); ``breaks`` maps chart axis
    names to known non-smooth parameter values so initial cells align with
    integrand creases.

    The K components of an (N, K) integrand share one refinement tree and
    each meets ``tol`` relative to its own value; the result then holds
    (K,) arrays and is converged when all components are.

    A cell's value is its tensor Gauss-8 value.  Its error is estimated from
    the same 8^d values: per axis, the null rules c2..c7 of the Gauss-8
    nodes are extrapolated to the degree-16 coefficient that the rule
    misses, sharply where they decay fast (but never below 1/64 of their
    top values) and near their top values where they decay slowly, and the
    cell's error is twice the largest axis error, floored at 50 eps
    sum |w f| vol (see the module docstring).

    Refinement runs in waves: each splits the integral's worst cells, worst
    first, until their errors would cover the excess over ``tol``, but
    none below half of the worst cell's weighted error, and evaluates all
    the children together, passing them to f in equal blocks of at most
    ``BLOCK_POINTS`` points (see the module docstring).
    ``max_cells`` caps the cells of the integral, over all its charts.

    Refinement stops early once the capped (final) cells decide that a
    component cannot meet ``tol``: their summed error exceeds ``tol`` times
    the largest |value| that refinement can still reach (|value| plus the
    error of the open cells; see the module docstring).  The argument holds
    as far as the cell estimates do: refinement never lowers the error of a
    final cell, and the null-rule estimate of a capped cell, whose
    coefficients decay slowly, stays close to its top coefficients.
    Components that can still converge refine on.  With
    ``raise_on_failure=False`` an unconverged result is returned as the
    tree stood when it stopped: the value of all its cells, their summed
    error, every node evaluated, and in ``capped_cell`` the capped cell
    with the largest relative error.
    Otherwise ``NoConvergence`` carries that value, relative error and
    capped cell.
    """
    start = time.perf_counter()
    if tol < 1e-10:
        raise InvalidParams("tol must be >= 1e-10")
    g = _Integrand(f)
    tree = _Tree(g, domain.charts(), singular_set, breaks or {})
    tree.refine(tol, max_cells)

    # deterministic reduction: the cells in a fixed order, by splits, then lo,
    # then hi, then chart, whatever the schedule, summed one after another
    cells = tree.cells
    order = np.lexsort(cells.rows[:, :3 * cells.dim + 1].T[::-1])
    value = cells.value[order].cumsum(axis=0)[-1]
    abs_err = cells.err[order].cumsum(axis=0)[-1]
    scale = np.maximum(np.abs(value), SCALE_FLOOR)
    rel = abs_err / scale
    final = np.flatnonzero(cells.rank == math.inf)
    where = None
    if len(final):  # the capped cell with the largest relative error
        worst = final[(cells.err[final] / scale).max(axis=1).argmax()]
        where = tree.capped_cell(cells.take([worst]))
    if g.scalar:
        value, rel, abs_err = float(value[0]), float(rel[0]), float(abs_err[0])
    stats = QuadStats(len(cells), len(final), int(cells.splits.max()), tree.waves,
                      g.calls, g.points, g.seconds,
                      time.perf_counter() - start - g.seconds)
    res = QuadratureResult(value, rel, tree.nodes_used, bool(np.all(rel <= tol)),
                           abs_err, where, stats)
    if raise_on_failure:
        parts = _components(res, tol)
        _refuse_unconverged(["integral"] if g.scalar else
                            [f"component {k}" for k in range(len(parts))], parts, tol)
    return res


# ---------------------------------------------------------------------------
# graph functionals
# ---------------------------------------------------------------------------


#: the graph functionals, in the order their names are listed
_GRAPH_FUNCTIONALS = ("area", "tv", "tv_area", "minor")


def graph_functionals(field: VectorField, domain: Domain, tol: float, which,
                      raise_on_failure: bool = True, **kwargs) -> list:
    """One result per name in ``which``, all from one refinement tree.

    Names: ``"area"`` (graph area, all minor orders), ``"tv"`` (|grad u|),
    ``"tv_area"`` (sqrt(1 + |grad u|^2)) and ``"minor"`` (|M2(grad u)|).
    Each result has its own convergence flag; ``NoConvergence`` names every
    functional that missed ``tol``.  Other keyword arguments go to
    :func:`integrate`.
    """
    which = tuple(which)
    if not which or not set(which) <= set(_GRAPH_FUNCTIONALS):
        raise InvalidParams(f"graph functionals {which}: choose from "
                            f"{_GRAPH_FUNCTIONALS}")
    if field.n != domain.n:
        raise InvalidGeometry(f"field {field.name!r} lives in R^{field.n}, "
                              f"the {domain.kind} domain in R^{domain.n}")
    with_minors = not {"area", "minor"}.isdisjoint(which)

    def f(X):
        # S = |J|^2 and M2 = |minors2(J)|^2 once per call, shared by the
        # columns; minors2 is looked up in the module at each call
        J = field.jacobian_many(X)
        # the sum over one axis of length m n adds in the order that the sum
        # over axes (1, 2) does, at less cost
        S = (J * J).reshape(len(J), -1).sum(axis=1)
        if with_minors:
            M = minors2(J)
            M2 = np.sum(M * M, axis=1)
        out = np.empty((len(J), len(which)))
        for col, name in enumerate(which):
            if name == "area":  # area_integrand(J)
                out[:, col] = np.sqrt(1.0 + S + M2)
            elif name == "tv":
                out[:, col] = np.sqrt(S)
            elif name == "tv_area":
                out[:, col] = np.sqrt(1.0 + S)
            else:
                out[:, col] = np.sqrt(M2)
        return out

    res = integrate(f, domain, tol, singular_set=field.singular_set,
                    breaks=field.chart_breaks, raise_on_failure=False,
                    **kwargs)
    results = _components(res, tol)
    if raise_on_failure:
        _refuse_unconverged(which, results, tol)
    return results


def area_functional(field: VectorField, domain: Domain, tol: float,
                    **kwargs) -> QuadratureResult:
    """Graph area of the field over the domain (all minor orders included)."""
    return graph_functionals(field, domain, tol, ("area",), **kwargs)[0]
