"""Singularity-aware adaptive integration over the package's domains.

The engine runs a tensor Gauss rule of order 8 per axis on each cell of a
chart's parameter box, estimates the cell error against the embedded
order-4 rule, and refines in waves until the summed estimate meets the
requested relative tolerance.  A cell is split dyadically, along the axis
with the roughest value profile, up to the depth cap of 14 halvings per
axis.

An integrand returns (N,) or (N, K) values.  The K components share one
refinement tree, as in DCUHRE (Berntsen, Espelid & Genz, ACM TOMS 17,
1991), and each must meet the tolerance on its own.  Weighted by
1 / max(|initial chart total|, SCALE_FLOOR), a cell's largest component
error ranks it, and that component's value profile picks the split axis.

Waves follow the parallel globally adaptive rule of Bull & Freeman (the
vectorized mode of S. G. Johnson's ``cubature`` works alike).  In each
wave a chart orders its cells by rank, worst first, and takes the fewest
leading cells whose summed error reaches its excess
total_err - tol * max(|total_val|, SCALE_FLOOR) in every component that
has neither met tol nor been decided; it takes no cell whose weighted
error is below half of the worst one's, and always at least one.  Taken
cells at the depth cap become final; the others are split, and all their
children are evaluated with one integrand call.  On every acceptance
integral the waves grow the same tree as splitting the one worst cell per
call did, so values, errors and node counts are unchanged; they save
integrand calls, most of all in a refusal, which reaches the depth cap in
about one call per level.  ``max_cells`` caps the cells of each chart: a wave splits no more cells
than that budget has left.

Cells that hit the cap while touching a declared singular set have their
error replaced by an analytic bound C * diam^(n-g) for the declared local
growth |f| <= C / dist^g, with C sampled from the cell's own nodes times a
safety factor of 4.

A depth-capped cell is final, as in DCUHRE: it is never split again and
its error stays in the sum.  So a refusal can be decided before the cell
budget runs out.  With C_k the capped error of component k summed over all
charts, V_k the sum over charts of |chart value_k| and U_k their uncapped
error, component k is *decided* once

    C_k > tol * max(V_k + U_k, SCALE_FLOOR).

The bound is safe: the final absolute error is at least C_k, because
refinement only replaces uncapped cells, and refinement moves each chart's
value by at most its uncapped error, so the final |value_k| is at most
V_k + U_k.  (This trusts the cell error estimates, as the convergence test
itself does.)  Neither argument depends on how many cells a step splits,
so both hold for waves.  Every chart's first cells are evaluated before
any is refined, so the sums cover the whole integral: a chart that cannot
meet tol on its own value does not refuse an integral that converges as a
whole.  The test runs after every wave, over all charts; a chart stops
once each component has met tol on the chart or been decided, and a
component that can still converge keeps refining.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .chains import SingularChain, distance_to_chain
from .errors import InvalidParams, NoConvergence, NonFinite
from .domains import Domain
from .fields import VectorField, minors2

GAUSS_ORDER = 8
ERROR_ORDER = 4
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


#: a depth-capped cell: its centre in physical coordinates and its distance
#: to the singular set (inf without one)
CappedCell = namedtuple("CappedCell", "centre distance")


@dataclass(frozen=True)
class QuadratureResult:
    """Value, relative error estimate, node count and convergence flag; (K,)
    arrays for an (N, K) integrand, converged when all components are.
    ``capped_cell`` is the depth-capped cell with the largest relative error,
    None when no cell was capped."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    nodes_used: int
    converged: bool
    abs_error: float | np.ndarray = 0.0
    capped_cell: CappedCell | None = None


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


def _per_cell(A, C):
    """One rule's (C * points, K) values as (C, K, points), each row
    contiguous so that it sums in the order it would for a lone cell."""
    return np.ascontiguousarray(A.reshape(C, -1, A.shape[1]).transpose(0, 2, 1))


def _dots(rows, w):
    """w @ each row of rows (C, K, len(w)), one 1-d product per row: a batched
    product adds in another order, so values would depend on the batch."""
    return np.array([[r @ w for r in cell] for cell in rows])


class _Integrand:
    """f on a batch of points as (N, K) columns, in equal blocks of at most
    ``BLOCK_POINTS``; ``scalar`` records whether f returns (N,)."""

    def __init__(self, f):
        self.f = f
        self.scalar = True

    def __call__(self, X):
        blocks = -(-len(X) // BLOCK_POINTS)
        step = -(-len(X) // blocks)  # equal blocks
        out = np.concatenate([np.asarray(self.f(X[i:i + step]), dtype=float)
                              for i in range(0, len(X), step)])
        self.scalar = out.ndim == 1
        out = out.reshape(len(X), -1)
        if not np.all(np.isfinite(out)):
            raise NonFinite("integrand returned NaN/Inf off the singular set")
        return out


class _Cells:
    """Cells as the rows of one float array, so that taking and joining
    cells are single operations.  Its column blocks: halvings per axis
    ``splits`` and corners ``lo``, ``hi`` (dim each), so that the leading
    columns order cells as the reduction does; ``value``, ``err`` and
    ``chat`` (K each; chat is read only at the depth cap and NaN below it);
    ``rank``, minus the largest weighted error; and ``rough``, the value
    profile of that component (dim)."""

    def __init__(self, rows, dim):
        self.rows, self.dim = rows, dim
        self.K = (rows.shape[1] - 4 * dim - 1) // 3

    splits = property(lambda c: c.rows[:, :c.dim])
    lo = property(lambda c: c.rows[:, c.dim:2 * c.dim])
    hi = property(lambda c: c.rows[:, 2 * c.dim:3 * c.dim])
    value = property(lambda c: c.rows[:, 3 * c.dim:3 * c.dim + c.K])
    err = property(lambda c: c.rows[:, 3 * c.dim + c.K:3 * c.dim + 2 * c.K])
    chat = property(lambda c: c.rows[:, 3 * c.dim + 2 * c.K:3 * c.dim + 3 * c.K])
    rank = property(lambda c: c.rows[:, 3 * c.dim + 3 * c.K])
    rough = property(lambda c: c.rows[:, 3 * c.dim + 3 * c.K + 1:])

    def __len__(self):
        return self.rows.shape[0]

    def take(self, idx):
        return _Cells(self.rows[idx], self.dim)

    @staticmethod
    def join(parts):
        return _Cells(np.concatenate([c.rows for c in parts]), parts[0].dim)


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


class _ChartIntegrator:
    """One chart's refinement tree: its open cells in the order they were
    made, the depth-capped cells that are final, and their totals."""

    def __init__(self, f, chart, singular_set, growth, breaks):
        self.f = f
        self.chart = chart
        self.singular_set = singular_set
        self.growth = growth
        self.weight = None  # per component, set by the first batch
        self.dim = len(chart.box)
        self.P8, self.W8 = _tensor_rule(GAUSS_ORDER, self.dim)
        self.P4, self.W4 = _tensor_rule(ERROR_ORDER, self.dim)
        self.nodes_used = 0
        lo, hi = _split_box_at_breaks(chart.box, chart.axes, breaks)
        self.open = self.eval_cells(lo, hi, np.zeros(lo.shape, dtype=int))
        self.capped = []  # batches of depth-capped cells, which are final
        self.where = []  # the CappedCell of each, in the same order
        self.n_capped = 0
        self.capped_val = self.capped_err = 0.0  # their sums
        self._total()

    def _total(self):
        self.total_val = self.open.value.sum(axis=0) + self.capped_val
        self.total_err = self.open.err.sum(axis=0) + self.capped_err

    def eval_cells(self, lo, hi, splits):
        """Evaluate the cells [lo, hi] (C, dim) with one integrand call."""
        C = lo.shape[0]
        n8 = C * len(self.W8)  # the Gauss-8 points of all cells come first
        span = (hi - lo)[:, None, :]
        P = np.concatenate([(lo[:, None, :] + Q * span).reshape(-1, self.dim)
                            for Q in (self.P8, self.P4)])
        X = self.chart.to_physical(P)
        w = np.asarray(self.chart.weight(P), dtype=float)
        raw = self.f(X)
        self.nodes_used += P.shape[0]
        F = raw * w[:, None]
        F8, F4 = _per_cell(F[:n8], C), _per_cell(F[n8:], C)
        vol = np.prod(hi - lo, axis=1)[:, None]
        value = _dots(F8, self.W8) * vol
        err = np.abs(value - _dots(F4, self.W4) * vol)
        if self.weight is None:  # 1 / max(|total|, floor), the largest being 1
            scale = np.maximum(np.abs(value.sum(axis=0)), SCALE_FLOOR)
            self.weight = scale.min() / scale
        weighted = err * self.weight
        top = weighted.argmax(axis=1)
        grid = F8[np.arange(C), top].reshape((C,) + (GAUSS_ORDER,) * self.dim)
        rough = np.array([np.abs(np.diff(grid, n=2, axis=1 + a)).reshape(
            C, -1).sum(axis=1) for a in range(self.dim)]).T
        # read only by _cap, so sampled only at the depth cap
        chat = np.full(value.shape, np.nan)
        at_cap = self.singular_set is not None and splits.min(axis=1) >= MAX_DEPTH
        if np.count_nonzero(at_cap):
            X8 = X[:n8].reshape(C, -1, X.shape[1])[at_cap]
            d = distance_to_chain(X8.reshape(-1, X.shape[1]), self.singular_set)
            chat[at_cap] = (np.abs(raw[:n8].reshape(C, -1, raw.shape[1])[at_cap])
                            * (d ** self.growth).reshape(X8.shape[:2])[:, :, None]
                            ).max(axis=1)
        return _Cells(np.concatenate([splits, lo, hi, value, err, chat,
                                      -weighted.max(axis=1)[:, None], rough],
                                     axis=1), self.dim)

    def wave(self, tol, decided, max_cells):
        """Split or cap the worst open cells, in rank order, until what is
        left would meet tol; False, doing nothing, once the chart has stopped.
        """
        cells = self.open
        excess = self.total_err - tol * np.maximum(np.abs(self.total_val),
                                                   SCALE_FLOOR)
        todo = (excess > 0) & ~decided
        budget = max_cells - len(cells) - self.n_capped
        if not len(cells) or budget <= 0 or not np.count_nonzero(todo):
            return False
        # take and count_nonzero rather than indexing and any(): on a wave's
        # small arrays they cost a third as much
        order = cells.rank.argsort(kind="stable")
        rank = cells.rank.take(order)
        # the fewest leading cells whose errors cover every open excess, but
        # only those within half of the worst, and at least one
        short = cells.err.take(order, axis=0).cumsum(axis=0) < excess
        need = 1 + int(short.sum(axis=0)[todo].max())
        n = max(1, min(need, int(rank.searchsorted(0.5 * rank[0], "right"))))
        splittable = cells.splits.take(order[:n], axis=0).min(axis=1) < MAX_DEPTH
        if n > budget:  # each split adds a cell, capping none
            n = int(splittable.cumsum().searchsorted(budget, "right"))
        sel, splittable = order[:n], splittable[:n]
        parts = [cells.rows.take(np.sort(order[n:]), axis=0)]
        n_split = np.count_nonzero(splittable)
        if n_split < n:
            self._cap(cells.take(sel[~splittable]))
        if n_split:
            parts.append(self._split(cells.rows.take(sel[splittable], axis=0)).rows)
        self.open = _Cells(np.concatenate(parts), self.dim)
        self._total()
        return True

    def _split(self, rows):
        """The children of halving each cell of ``rows`` (of a _Cells table)
        along its roughest open axis, evaluated with one integrand call."""
        kids = _Cells(rows.repeat(2, axis=0), self.dim)
        lo, hi, splits = kids.lo, kids.hi, kids.splits
        rough = np.where(splits < MAX_DEPTH, kids.rough, -np.inf)
        cut = rough.argmax(axis=1)[:, None] == np.arange(self.dim)
        mid = 0.5 * (lo + hi)
        np.copyto(hi[0::2], mid[0::2], where=cut[0::2])
        np.copyto(lo[1::2], mid[1::2], where=cut[1::2])
        splits += cut
        return self.eval_cells(lo, hi, splits)

    def _cap(self, cells):
        """Keep depth-capped cells as final, the error of each that touches
        the singular set cut to its analytic bound, and note where they are.
        """
        C = len(cells)
        span = (cells.hi - cells.lo)[:, None, :]
        X = self.chart.to_physical(np.concatenate(  # Gauss-8 points, centres
            [(cells.lo[:, None, :] + self.P8 * span).reshape(-1, self.dim),
             0.5 * (cells.lo + cells.hi)]))
        X8, centres = X[:-C].reshape(C, -1, X.shape[1]), X[-C:]
        if self.singular_set is None:
            dist = np.full(C, math.inf)
        else:
            dist = distance_to_chain(centres, self.singular_set)
        g, n = self.growth, X.shape[1]
        surf = 2.0 * math.pi if n == 2 else 4.0 * math.pi
        err = cells.err.copy()
        for i in range(C):
            diam = float(np.linalg.norm(X8[i].max(axis=0) - X8[i].min(axis=0)))
            if n - g > 0 and dist[i] <= 2.0 * diam:  # never without a set
                bound = 4.0 * cells.chat[i] * surf * diam ** (n - g) / (n - g)
                err[i] = np.minimum(err[i], bound)
        self.where += [CappedCell(tuple(float(x) for x in c), float(d))
                       for c, d in zip(centres, dist)]
        cells.err[:] = err
        self.capped.append(cells)
        self.n_capped += C
        self.capped_val = self.capped_val + cells.value.sum(axis=0)
        self.capped_err = self.capped_err + err.sum(axis=0)


def _decided(integs, tol):
    """Components whose refusal is decided: their depth-capped error alone
    exceeds tol times the largest |value| that refinement can still reach."""
    capped = sum(i.capped_err for i in integs)
    reach = sum(np.abs(i.total_val) + (i.total_err - i.capped_err)
                for i in integs)
    return capped > tol * np.maximum(reach, SCALE_FLOOR)


def _integrate_charts(f, charts, tol, singular_set, growth, breaks, max_cells):
    # the first cells of every chart come before any refinement, so that a
    # refusal is decided against the whole integral, not one chart of it
    integs = [_ChartIntegrator(f, chart, singular_set, growth, breaks or {})
              for chart in charts]
    decided = np.zeros(np.shape(integs[0].total_err), dtype=bool)
    live = integs
    while live:
        live = [i for i in live if i.wave(tol, decided, max_cells)]
        if any(i.n_capped for i in integs):  # else nothing can be decided
            decided = decided | _decided(integs, tol)

    # deterministic reduction: the cells in a fixed order, by splits, then lo,
    # then hi, whatever the schedule, summed one after another
    capped = [c for i in integs for c in i.capped]
    cells = _Cells.join(capped + [i.open for i in integs])
    order = np.lexsort(cells.rows[:, :3 * cells.dim].T[::-1])
    value = cells.value[order].cumsum(axis=0)[-1]
    err = cells.err[order].cumsum(axis=0)[-1]
    worst = None
    if capped:
        scale = np.maximum(np.abs(value), SCALE_FLOOR)
        shares = (_Cells.join(capped).err / scale).max(axis=1)
        worst = [w for i in integs for w in i.where][int(np.argmax(shares))]
    return value, err, sum(i.nodes_used for i in integs), worst


def _components(res: QuadratureResult, tol: float) -> list:
    """One scalar result per component, each with its own flag."""
    if np.ndim(res.value) == 0:
        return [res]
    return [QuadratureResult(float(v), float(e), res.nodes_used, bool(e <= tol),
                             float(a), res.capped_cell)
            for v, e, a in zip(res.value, res.error_estimate, res.abs_error)]


def _refuse_unconverged(names, results, tol):
    """NoConvergence naming each result that missed tol, with the worst one's
    value and estimate and the tree's worst depth-capped cell, if any did."""
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
                            error_estimate=worst.error_estimate, capped_cell=where)


def integrate(
    f,
    domain: Domain,
    tol: float,
    singular_set: SingularChain | None = None,
    breaks: dict | None = None,
    growth: float = 1.0,
    max_cells: int = 20000,
    raise_on_failure: bool = True,
) -> QuadratureResult:
    """Adaptive integral of a vectorized integrand f((N, n)) -> (N,) or (N, K).

    ``tol`` is a relative tolerance (>= 1e-10); ``breaks`` maps chart axis
    names to known non-smooth parameter values so initial cells align with
    integrand creases; ``growth`` is the declared worst local growth
    exponent g in |f| <= C / dist(x, singular_set)^g.

    The K components of an (N, K) integrand share one refinement tree and
    each meets ``tol`` relative to its own value; the result then holds
    (K,) arrays and is converged when all components are.

    Refinement runs in waves: each chart splits its worst cells, worst
    first, until their errors would cover the excess over ``tol``, but
    none below half of the worst cell's weighted error, and evaluates all
    the children with one call of f (see the module docstring).
    ``max_cells`` caps the cells of each chart, not of the integral.

    Refinement stops early once the depth-capped cells decide that a
    component cannot meet ``tol``: their summed error exceeds ``tol`` times
    the largest |value| that refinement can still reach (the sum over
    charts of |value| plus uncapped error; see the module docstring).
    Components that can still converge refine on.  With
    ``raise_on_failure=False`` an unconverged result is returned as the
    tree stood when it stopped: the value of all its cells, their summed
    error with capped cells at their bound, every node evaluated, and in
    ``capped_cell`` the capped cell with the largest relative error.
    Otherwise ``NoConvergence`` carries that value, relative error and
    capped cell.
    """
    if tol < 1e-10:
        raise InvalidParams("tol must be >= 1e-10")
    if singular_set is not None and len(singular_set.cells) == 0:
        singular_set = None
    g = _Integrand(f)
    value, abs_err, nodes, where = _integrate_charts(
        g, domain.charts(), tol, singular_set, growth, breaks, max_cells)
    rel = abs_err / np.maximum(np.abs(value), SCALE_FLOOR)
    if g.scalar:
        value, rel, abs_err = float(value[0]), float(rel[0]), float(abs_err[0])
    res = QuadratureResult(value, rel, nodes, bool(np.all(rel <= tol)), abs_err,
                           where)
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
    with_minors = not {"area", "minor"}.isdisjoint(which)

    def f(X):
        # S = |J|^2 and M2 = |minors2(J)|^2 once per call, shared by the
        # columns; minors2 is looked up in the module at each call
        J = field.jacobian_many(X)
        S = np.sum(J * J, axis=(1, 2))
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
