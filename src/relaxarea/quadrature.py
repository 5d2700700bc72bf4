"""Singularity-aware adaptive integration over the package's domains.

The engine runs a tensor Gauss rule of order 8 per axis on each cell of a
chart's parameter box, estimates the cell error against the embedded
order-4 rule, and subdivides the worst cell dyadically (splitting along
the axis with the roughest value profile) until the summed estimate meets
the requested relative tolerance or the depth cap of 14 is reached.

Cells that hit the cap while touching a declared singular set have their
error replaced by an analytic bound C * diam^(n-g) for the declared local
growth |f| <= C / dist^g, with C sampled from the cell's own nodes times a
safety factor of 4.  Difference domains with awkward geometry fall back to
stratified Monte Carlo with a fixed seed; the deterministic result is kept
whenever it converged.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chains import SingularChain, distance_to_chain
from .errors import InvalidParams, NoConvergence, NonFinite
from .domains import Domain
from .fields import VectorField, area_integrand, minors2

GAUSS_ORDER = 8
ERROR_ORDER = 4
MAX_DEPTH = 14
MC_SEED = 0x5EED

#: floor used to turn absolute error estimates into relative ones; integrals
#: smaller than this are resolved in absolute terms at tol * floor
SCALE_FLOOR = 1e-6


@dataclass(frozen=True)
class QuadratureResult:
    """Value, relative error estimate, node count and convergence flag."""

    value: float
    error_estimate: float
    nodes_used: int
    converged: bool
    abs_error: float = 0.0

    def __float__(self):
        return self.value


_rule_cache: dict = {}


def _tensor_rule(order: int, dim: int):
    key = (order, dim)
    if key not in _rule_cache:
        x, w = np.polynomial.legendre.leggauss(order)
        x = 0.5 * (x + 1.0)
        w = 0.5 * w
        grids = np.meshgrid(*([x] * dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        wts = np.ones(order**dim)
        for a in range(dim):
            wts *= np.meshgrid(*([w] * dim), indexing="ij")[a].ravel()
        _rule_cache[key] = (pts, wts)
    return _rule_cache[key]


class _Cell:
    __slots__ = ("lo", "hi", "splits", "value", "err", "rough", "chat", "diam",
                 "done")

    def __init__(self, lo, hi, splits):
        self.lo = lo
        self.hi = hi
        self.splits = splits  # dyadic halvings so far, per axis
        self.done = False


def _split_box_at_breaks(box, axes, breaks):
    """Cartesian refinement of a parameter box at declared break values."""
    per_axis = []
    for (lo, hi), name in zip(box, axes):
        cuts = sorted(
            v for v in breaks.get(name, ()) if lo + 1e-14 < v < hi - 1e-14
        )
        edges = [lo] + cuts + [hi]
        per_axis.append(list(zip(edges[:-1], edges[1:])))
    return [tuple(combo) for combo in itertools.product(*per_axis)]


class _ChartIntegrator:
    def __init__(self, f, chart, singular_set, growth, n_phys):
        self.f = f
        self.chart = chart
        self.singular_set = singular_set
        self.growth = growth
        self.n_phys = n_phys
        self.dim = len(chart.box)
        self.P8, self.W8 = _tensor_rule(GAUSS_ORDER, self.dim)
        self.P4, self.W4 = _tensor_rule(ERROR_ORDER, self.dim)
        self.nodes_used = 0

    def _values(self, P):
        X = self.chart.to_physical(P)
        w = np.asarray(self.chart.weight(P), dtype=float)
        if self.chart.mask is not None:
            w = w * self.chart.mask(X)
        raw = np.zeros(P.shape[0])
        live = w != 0.0
        if np.any(live):
            raw[live] = self.f(X[live])
        if not np.all(np.isfinite(raw)):
            raise NonFinite("integrand returned NaN/Inf off the singular set")
        self.nodes_used += P.shape[0]
        return raw, raw * w, X

    def eval_cells(self, boxes, splits_list):
        """Evaluate a batch of cells with one integrand call."""
        n8, n4 = len(self.W8), len(self.W4)
        blocks = []
        for box in boxes:
            lo = np.array([b[0] for b in box])
            hi = np.array([b[1] for b in box])
            blocks.append(lo + self.P8 * (hi - lo))
            blocks.append(lo + self.P4 * (hi - lo))
        raw, F, X = self._values(np.concatenate(blocks, axis=0))
        cells = []
        off = 0
        for box, splits in zip(boxes, splits_list):
            lo = np.array([b[0] for b in box])
            hi = np.array([b[1] for b in box])
            vol = float(np.prod(hi - lo))
            F8 = F[off : off + n8]
            F4 = F[off + n8 : off + n8 + n4]
            cell = _Cell(lo, hi, splits)
            cell.value = float(F8 @ self.W8) * vol
            cell.err = abs(cell.value - float(F4 @ self.W4) * vol)
            arr = F8.reshape((GAUSS_ORDER,) * self.dim)
            cell.rough = np.array(
                [np.abs(np.diff(arr, n=2, axis=a)).sum() for a in range(self.dim)]
            )
            if self.singular_set is not None:
                X8 = X[off : off + n8]
                d = distance_to_chain(X8, self.singular_set)
                cell.chat = float(np.max(np.abs(raw[off : off + n8]) * d**self.growth))
                span = X8.max(axis=0) - X8.min(axis=0)
                cell.diam = float(np.linalg.norm(span))
            else:
                cell.chat = 0.0
                cell.diam = 0.0
            cells.append(cell)
            off += n8 + n4
        return cells

    def capped_error(self, cell):
        """Analytic bound for a depth-capped cell touching the singular set."""
        if self.singular_set is None:
            return cell.err
        g = self.growth
        n = self.n_phys
        if n - g <= 0:
            return cell.err
        center = self.chart.to_physical(
            (0.5 * (cell.lo + cell.hi))[None, :]
        )[0]
        dist = float(distance_to_chain(center[None, :], self.singular_set)[0])
        if dist > 2.0 * cell.diam:
            return cell.err
        surf = 2.0 * math.pi if n == 2 else 4.0 * math.pi
        bound = 4.0 * cell.chat * surf * cell.diam ** (n - g) / (n - g)
        return min(cell.err, bound)


def _integrate_charts(f, charts, n_phys, tol, singular_set, growth, breaks,
                      max_depth, max_cells):
    all_cells = []
    nodes = 0
    for chart in charts:
        integ = _ChartIntegrator(f, chart, singular_set, growth, n_phys)
        boxes = _split_box_at_breaks(chart.box, chart.axes, breaks or {})
        cells = integ.eval_cells(boxes, [(0,) * integ.dim] * len(boxes))
        heap = []
        seq = itertools.count()
        for c in cells:
            heapq.heappush(heap, (-c.err, next(seq), c))
        kept = []
        total_val = sum(c.value for c in cells)
        total_err = sum(c.err for c in cells)

        while heap:
            scale = max(abs(total_val), SCALE_FLOOR)
            if total_err <= tol * scale:
                break
            if len(kept) + len(heap) >= max_cells:
                break
            neg_err, _, cell = heapq.heappop(heap)
            open_axes = [a for a in range(integ.dim)
                         if cell.splits[a] < max_depth]
            if not open_axes:
                new_err = integ.capped_error(cell)
                total_err += new_err - cell.err
                cell.err = new_err
                cell.done = True
                kept.append(cell)
                continue
            axis = max(open_axes, key=lambda a: cell.rough[a])
            mid = 0.5 * (cell.lo[axis] + cell.hi[axis])
            box = [(cell.lo[a], cell.hi[a]) for a in range(integ.dim)]
            left = list(box)
            right = list(box)
            left[axis] = (cell.lo[axis], mid)
            right[axis] = (mid, cell.hi[axis])
            child_splits = tuple(
                s + 1 if a == axis else s for a, s in enumerate(cell.splits)
            )
            children = integ.eval_cells([tuple(left), tuple(right)],
                                        [child_splits] * 2)
            total_val += sum(c.value for c in children) - cell.value
            total_err += sum(c.err for c in children) - cell.err
            for c in children:
                heapq.heappush(heap, (-c.err, next(seq), c))

        kept.extend(c for _, _, c in heap)
        all_cells.extend(kept)
        nodes += integ.nodes_used

    # deterministic reduction: fixed cell order regardless of refinement schedule
    all_cells.sort(key=lambda c: (c.splits, tuple(c.lo), tuple(c.hi)))
    value = float(sum(c.value for c in all_cells))
    abs_err = float(sum(c.err for c in all_cells))
    rel = abs_err / max(abs(value), SCALE_FLOOR)
    return value, abs_err, rel, nodes


def _stratified_mc(f, domain, tol, seed):
    lo, hi = domain.bounding_box()
    n = domain.n
    per_axis = 4 if n <= 3 else 3
    samples = 256 if n == 2 else 64
    rng = np.random.default_rng(seed)
    edges = [np.linspace(lo[a], hi[a], per_axis + 1) for a in range(n)]
    value = 0.0
    var = 0.0
    nodes = 0
    for idx in itertools.product(range(per_axis), repeat=n):
        slo = np.array([edges[a][i] for a, i in enumerate(idx)])
        shi = np.array([edges[a][i + 1] for a, i in enumerate(idx)])
        vol = float(np.prod(shi - slo))
        X = slo + rng.random((samples, n)) * (shi - slo)
        inside = domain.membership(X)
        vals = np.zeros(samples)
        if np.any(inside):
            vals[inside] = f(X[inside])
        if not np.all(np.isfinite(vals)):
            raise NonFinite("integrand returned NaN/Inf during Monte Carlo")
        value += vol * float(vals.mean())
        var += vol**2 * float(vals.var(ddof=1)) / samples
        nodes += samples
    abs_err = 3.0 * math.sqrt(var)
    rel = abs_err / max(abs(value), SCALE_FLOOR)
    return value, abs_err, rel, nodes


def montecarlo_volume(domain: Domain, seed: int = MC_SEED) -> float:
    value, _, _, _ = _stratified_mc(lambda X: np.ones(X.shape[0]), domain, 1e-2, seed)
    return value


def integrate(
    f,
    domain: Domain,
    tol: float,
    singular_set: SingularChain | None = None,
    breaks: dict | None = None,
    growth: float = 1.0,
    max_depth: int = MAX_DEPTH,
    max_cells: int = 20000,
    raise_on_failure: bool = True,
) -> QuadratureResult:
    """Adaptive integral of a vectorized integrand f((N, n)) -> (N,).

    ``tol`` is a relative tolerance (>= 1e-10); ``breaks`` maps chart axis
    names to known non-smooth parameter values so initial cells align with
    integrand creases; ``growth`` is the declared worst local growth
    exponent g in |f| <= C / dist(x, singular_set)^g.
    """
    if tol < 1e-10:
        raise InvalidParams("tol must be >= 1e-10")
    if singular_set is not None and len(singular_set.cells) == 0:
        singular_set = None
    charts = domain.charts()
    det = None
    if charts is not None:
        value, abs_err, rel, nodes = _integrate_charts(
            f, charts, domain.n, tol, singular_set, growth, breaks,
            max_depth, max_cells,
        )
        det = QuadratureResult(value, rel, nodes, rel <= tol, abs_err)
        if det.converged:
            return det
    masked = charts is not None and any(ch.mask is not None for ch in charts)
    if charts is None or masked:
        value, abs_err, rel, nodes = _stratified_mc(f, domain, tol, MC_SEED)
        mc = QuadratureResult(value, rel, nodes, rel <= tol,
                              abs_err)
        if det is None or mc.abs_error < det.abs_error:
            det = mc
    if not det.converged and raise_on_failure:
        raise NoConvergence(
            f"integral did not reach tol={tol:g} (estimate {det.error_estimate:.3g})",
            value=det.value, error_estimate=det.error_estimate,
        )
    return det


# ---------------------------------------------------------------------------
# energy functionals
# ---------------------------------------------------------------------------


def _field_breaks(field: VectorField, extra: dict | None = None) -> dict:
    breaks = dict(field.chart_breaks)
    for k, v in (extra or {}).items():
        breaks[k] = tuple(sorted(set(breaks.get(k, ())) | set(v)))
    return breaks


def area_functional(field: VectorField, domain: Domain, tol: float,
                    **kwargs) -> QuadratureResult:
    """Graph area of the field over the domain (all minor orders included)."""

    def f(X):
        return area_integrand(field.jacobian_many(X))

    return integrate(f, domain, tol, singular_set=field.singular_set,
                     breaks=_field_breaks(field), **kwargs)


def sobolev_energy(field: VectorField, domain: Domain, tol: float, **kwargs):
    """Triple of integrals (|grad u|, sqrt(1+|grad u|^2), |M2(grad u)|)."""

    def grad_norm(X):
        J = field.jacobian_many(X)
        return np.sqrt(np.sum(J * J, axis=(1, 2)))

    def tv_area(X):
        J = field.jacobian_many(X)
        return np.sqrt(1.0 + np.sum(J * J, axis=(1, 2)))

    def minor_mass(X):
        M = minors2(field.jacobian_many(X))
        return np.sqrt(np.sum(M * M, axis=1))

    common = dict(singular_set=field.singular_set, breaks=_field_breaks(field))
    common.update(kwargs)
    return (
        integrate(grad_norm, domain, tol, **common),
        integrate(tv_area, domain, tol, **common),
        integrate(minor_mass, domain, tol, **common),
    )
