"""Convergence-study engine for the recovery constructions.

A study evaluates the graph area, the total-variation energy and the minor
mass of a one-parameter family of fields, then extrapolates each metric
with the power model a + b * x^p.  p is searched on [0.5, 2], on a coarse
grid and then on a fine one; each grid is one closed-form least-squares
pass over all its exponents at once, and a single ``lstsq`` at the chosen
p gives the returned coefficients.  Every bound realized by the
constructions decays like a power of the parameter, so the model
summarizes both the limit and the observed rate.  A schedule needs at
least 3 distinct parameter values.

The subadditivity experiment localizes the two counterexample fillings of
the 3d vortex to concentric balls and records the resulting gap bounds;
a radius pair whose optimal local bounds order the wrong way witnesses the
failure of the localized relaxed functional to be subadditive.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .domains import Ball, Cone
from .errors import InsufficientData, InvalidParams, IoFailure
from .fields import VectorField, make_example_field, chain_centers_radii
from .quadrature import area_functional, graph_functionals
from .recovery import (
    cone_dipole,
    counterexample_sequence,
    cylinder_analogue_2d,
    vortex_smoothing_2d,
)

#: study metrics, each named as the graph functional it integrates
METRICS = ("area", "tv", "minor")

#: studies whose fit residual exceeds this are flagged inconclusive
RESIDUAL_CAP = 0.05

#: relative distance of a TV limit from its reference that reads as equal
STRICT_TOL = 0.01

#: smoothing radii of a chain-disk study, as fractions of the disk's radius
CHAIN_DISK_FRACS = (0.4, 0.2, 0.1, 0.05)


@dataclass(frozen=True)
class StudyRow:
    param: float
    area: float
    tv: float
    minor: float
    err_area: float
    err_tv: float
    err_minor: float
    wall: float = 0.0
    converged: bool = True


@dataclass
class ConvergenceReport:
    """Rows plus per-metric extrapolated limits, rates and fit residuals."""

    parameter: str
    rows: list
    limits: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)

    def converged_rows(self):
        return [r for r in self.rows if r.converged]

    def column(self, metric: str, rows=None):
        rows = self.rows if rows is None else rows
        return np.array([getattr(r, metric) for r in rows])

    def min_row(self, metric: str) -> float:
        return float(np.min(self.column(metric, self.converged_rows())))

    def inconclusive(self, metric: str) -> bool:
        res = self.residuals.get(metric)
        return res is None or res > RESIDUAL_CAP


# ---------------------------------------------------------------------------
# power-model fitting
# ---------------------------------------------------------------------------


def _lstsq_for_p(x, y, p):
    M = np.stack([np.ones_like(x), x**p], axis=1)
    coef, *_ = np.linalg.lstsq(M, y, rcond=None)
    resid = M @ coef - y
    return coef, float(resid @ resid)


def _best_p(x, y, grid):
    """The grid exponent whose line fit of y on x^p has the least SSE.

    One array pass over the whole grid: each row of X = x^p gets the
    closed-form two-parameter least squares from centred sums, and its SSE
    is summed from the explicit residuals (syy - sxy^2/sxx would cancel for
    a nearly exact fit).  argmin returns the first of equal values.
    """
    X = x[None, :] ** grid[:, None]
    Xbar = X.mean(axis=1)
    Xc = X - Xbar[:, None]
    ybar = y.mean()
    b = (Xc @ (y - ybar)) / np.einsum("ij,ij->i", Xc, Xc)
    a = ybar - b * Xbar
    r = a[:, None] + b[:, None] * X - y
    return grid[np.argmin(np.einsum("ij,ij->i", r, r))]


def fit_power_model(x, y):
    """Least-squares fit of a + b * x^p with p in [0.5, 2].

    p is searched on 61 points of [0.5, 2], then on 51 points within 0.025
    of the best; each grid is one closed-form array pass (``_best_p``), and
    one ``lstsq`` at the chosen p gives the returned a and b.

    Returns (a, b, p, residual) where residual is the max fit error
    relative to the data scale.  Constant data short-circuits to
    (mean, 0, None, 0).  x must be finite and non-negative
    (``InvalidParams``) and, unless y is constant, hold at least 3 distinct
    values (``InsufficientData``): through 2 points every p fits exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xs = x.tolist()
    if not all(math.isfinite(v) and v >= 0.0 for v in xs):
        raise InvalidParams("power-model abscissae must be finite and >= 0")
    if not all(map(math.isfinite, y.tolist())):
        raise InvalidParams("power-model data must be finite")
    scale = float(np.max(np.abs(y)))
    if scale == 0.0 or float(np.ptp(y)) <= 1e-12 * max(scale, 1.0):
        return float(np.mean(y)), 0.0, None, 0.0
    if len(set(xs)) < 3:
        raise InsufficientData("power-model fit needs at least 3 distinct x")

    p = _best_p(x, y, np.linspace(0.5, 2.0, 61))
    lo, hi = max(0.5, p - 0.025), min(2.0, p + 0.025)
    p = _best_p(x, y, np.linspace(lo, hi, 51))
    coef, _ = _lstsq_for_p(x, y, p)
    a, b = float(coef[0]), float(coef[1])
    fit = a + b * x**p
    residual = float(np.max(np.abs(fit - y))) / scale
    return a, b, float(p), residual


def extrapolate_limit(report: ConvergenceReport, metric: str = "area"):
    """(limit, rate, fit residual) for one metric of a report.

    Needs >= 3 converged rows; the rate is reported only with >= 4 rows
    (with exactly 3 the model is an interpolation, not a fit).
    """
    rows = report.converged_rows()
    if len(rows) < 3:
        raise InsufficientData(f"{len(rows)} converged rows; need >= 3")
    x = report.column("param", rows)
    y = report.column(metric, rows)
    a, _, p, residual = fit_power_model(x, y)
    rate = p if len(rows) >= 4 else None
    return a, rate, residual


def _finalize(report: ConvergenceReport):
    rows = report.converged_rows()
    if len(rows) < 3:
        return report
    for metric in METRICS:
        limit, rate, residual = extrapolate_limit(report, metric)
        report.limits[metric] = limit
        report.rates[metric] = rate
        report.residuals[metric] = residual
    return report


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def convergence_study(builder, schedule, domain, tol: float,
                      parameter: str = "eps") -> ConvergenceReport:
    """Energy rows for builder(param) over domain, with extrapolation.

    ``domain`` may be a Domain or a callable param -> Domain for
    constructions whose natural region shrinks with the parameter.
    Quadrature failures mark the row unconverged and drop it from the fit.
    """

    def row(p):
        dom = domain(p) if callable(domain) else domain
        f = builder(p)
        start = time.monotonic()
        parts = graph_functionals(f, dom, tol, METRICS, raise_on_failure=False)
        return StudyRow(p, *(r.value for r in parts), *(r.abs_error for r in parts),
                        time.monotonic() - start,
                        converged=all(r.converged for r in parts))

    return study_from_rows(row, schedule, parameter)


def study_from_rows(row_fn, schedule,
                    parameter: str = "eps") -> ConvergenceReport:
    """Study driven by a custom row function param -> StudyRow.

    The schedule needs at least 3 distinct values; no row runs otherwise.
    """
    schedule = list(schedule)
    if len(set(schedule)) < 3:
        raise InsufficientData(
            "schedule needs at least 3 distinct parameter values")
    rows = sorted((row_fn(p) for p in schedule), key=lambda r: r.param)
    return _finalize(ConvergenceReport(parameter, rows))


def strict_bv_check(report: ConvergenceReport, reference_tv: float) -> str:
    """'strict' when the TV limit matches the reference within
    ``STRICT_TOL``, 'non_strict' when the excess is clearly positive, else
    'inconclusive'."""
    limit = report.limits.get("tv")
    if limit is None or report.inconclusive("tv"):
        return "inconclusive"
    excess = limit - reference_tv
    if abs(excess) <= STRICT_TOL * reference_tv:
        return "strict"
    if excess > 3.0 * STRICT_TOL * reference_tv:
        return "non_strict"
    return "inconclusive"


# -- prebuilt studies -------------------------------------------------------


def study_vortex_smoothing(schedule, tol: float = 1e-6) -> ConvergenceReport:
    """Core smoothing of the degree-1 vortex over the unit disk."""
    base = make_example_field("vortex", d=1)
    dom = Ball(2, 1.0)
    return convergence_study(
        lambda eps: vortex_smoothing_2d(base, (0.0, 0.0), 1, eps),
        schedule, dom, tol)


def study_cone_dipole(schedule, tol: float = 1e-6) -> ConvergenceReport:
    """Dipole removal of the planar-vortex segment, energies over B^3.

    Rows are assembled additively: the construction only modifies the cone,
    so each metric is (value of the base field over B^3) corrected by the
    cone-local difference.  The base minor mass vanishes identically off
    the segment (circle-valued map), so the minor column is cone-local.
    """
    base = make_example_field("planar_vortex")
    ball = Ball(3, 1.0)
    base_area, base_grad = graph_functionals(base, ball, tol, ("area", "tv"))

    def row(eps):
        start = time.monotonic()
        w = cone_dipole(base, (-1.0, 1.0), 1, eps)
        cone = Cone(3, (-1.0, 1.0), eps)
        a_w, g_w, m_w = graph_functionals(w, cone, tol, METRICS,
                                          raise_on_failure=False)
        a_u, g_u = graph_functionals(base, cone, tol, ("area", "tv"),
                                     raise_on_failure=False)
        ok = all(p.converged for p in (a_w, g_w, m_w, a_u, g_u))
        return StudyRow(
            eps,
            base_area.value - a_u.value + a_w.value,
            base_grad.value - g_u.value + g_w.value,
            m_w.value,
            base_area.abs_error + a_u.abs_error + a_w.abs_error,
            base_grad.abs_error + g_u.abs_error + g_w.abs_error,
            m_w.abs_error,
            time.monotonic() - start,
            converged=ok,
        )

    return study_from_rows(row, schedule)


def study_dipole_gradient(schedule, tol: float = 1e-6) -> ConvergenceReport:
    """Cone-local energies of the dipole map (the O(eps) vanishing terms)."""
    base = make_example_field("planar_vortex")
    return convergence_study(
        lambda eps: cone_dipole(base, (-1.0, 1.0), 1, eps),
        schedule, lambda eps: Cone(3, (-1.0, 1.0), eps), tol)


def study_chain_disk(chain_field: VectorField, j: int, tol: float = 1e-6):
    """Smoothing study localized to the j-th chain disk (1-based).

    Returns (report, reference tv-area of the unmodified chain map on the
    disk); the extrapolated area limit minus the reference is the disk's
    relaxed-energy gap, which the superadditivity argument bounds below
    by pi per disk.
    """
    cells = chain_field.singular_set.cells
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
        raise InvalidParams(f"disk index must be an integer, got {j!r}")
    if not 1 <= j <= len(cells):
        raise InsufficientData(f"disk index {j} outside 1..{len(cells)}")
    c, d = cells[j - 1]  # the disk's centre and degree, as declared
    h = chain_centers_radii(len(cells))[1][j - 1]
    dom = Ball(2, h, tuple(c))
    ref, = graph_functionals(chain_field, dom, tol, ("tv_area",))
    report = convergence_study(
        lambda eps: vortex_smoothing_2d(chain_field, tuple(c), d, eps),
        [h * f for f in CHAIN_DISK_FRACS], dom, tol)
    return report, ref.value


def _check_k_schedule(k_schedule):
    """Reject a k < 2 or a non-integer k before any 1/k is taken."""
    k_schedule = list(k_schedule)
    for k in k_schedule:
        if not float(k).is_integer() or k < 2:
            raise InvalidParams(f"k must be an integer >= 2, got {k}")
    return k_schedule


def study_counterexample(variant: str, k_schedule, tol: float = 1e-6,
                         radius: float = 1.0) -> ConvergenceReport:
    """Graph energies of the filling sequence over B_radius, fitted in 1/k."""
    k_schedule = _check_k_schedule(k_schedule)

    def builder(invk):
        return counterexample_sequence(variant, int(round(1.0 / invk)))

    return convergence_study(builder, [1.0 / k for k in k_schedule],
                             Ball(3, radius), tol, parameter="1/k")


def study_cylinder_analogue_2d(k_schedule,
                               tol: float = 1e-6) -> ConvergenceReport:
    """The 2d negative control: TV should overshoot the vortex by ~2 pi."""
    k_schedule = _check_k_schedule(k_schedule)
    dom = Ball(2, 1.0)

    def builder(invk):
        return cylinder_analogue_2d(int(round(1.0 / invk)))

    return convergence_study(builder, [1.0 / k for k in k_schedule], dom, tol,
                             parameter="1/k")


# ---------------------------------------------------------------------------
# subadditivity experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubadditivityRow:
    variant: str
    r: float
    k: int
    area_local: float
    base_area_local: float

    @property
    def gap(self) -> float:
        return self.area_local - self.base_area_local


@dataclass
class SubadditivityReport:
    radii: list
    rows: list
    ball_bound: dict
    cylinder_bound: dict
    chosen_min: dict
    violation_witnessed: bool
    witness: tuple | None


def subadditivity_experiment(radii, k_schedule,
                             tol: float = 1e-6) -> SubadditivityReport:
    """Localized gap bounds of the two fillings and the AcDM-style witness.

    For each radius the ball filling costs ~4 pi/3 while the cylinder
    filling costs ~4 pi r, so the optimal local bound is their minimum.
    The annulus between two radii carries no defect (gap 0); a measure
    extension would force gap(R) <= gap(r) for r < R, so observing
    gap(R) > gap(r) witnesses the failure of subadditivity.  The k
    schedule needs at least 3 distinct integers k >= 2, checked before
    any area is computed.
    """
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0 or radii[-1] > 1.0:
        raise InsufficientData("radii must lie in (0, 1]")
    k_schedule = _check_k_schedule(k_schedule)
    if len(set(k_schedule)) < 3:
        raise InsufficientData("k schedule needs at least 3 distinct values")
    base = make_example_field("sphere_vortex")
    base_area = {
        r: area_functional(base, Ball(3, r), tol).value for r in radii
    }
    rows = []
    bounds = {"ball": {}, "cylinder": {}}
    for variant in ("ball", "cylinder"):
        fields = {k: counterexample_sequence(variant, k) for k in k_schedule}
        for r in radii:
            for k in k_schedule:
                a = area_functional(fields[k], Ball(3, r), tol)
                rows.append(SubadditivityRow(variant, r, k, a.value,
                                             base_area[r]))
            gaps = [row.gap for row in rows
                    if row.variant == variant and row.r == r]
            x = np.array([1.0 / k for k in k_schedule])
            a_fit, _, _, _ = fit_power_model(x, np.array(gaps))
            bounds[variant][r] = a_fit
    chosen = {r: min(bounds["ball"][r], bounds["cylinder"][r]) for r in radii}
    witness = None
    for i, r_small in enumerate(radii):
        for r_big in radii[i + 1:]:
            if chosen[r_big] > 1.05 * chosen[r_small]:
                witness = (r_small, r_big)
                break
        if witness:
            break
    return SubadditivityReport(
        radii=radii, rows=rows,
        ball_bound=bounds["ball"], cylinder_bound=bounds["cylinder"],
        chosen_min=chosen,
        violation_witnessed=witness is not None, witness=witness,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def report_csv_text(report: ConvergenceReport) -> str:
    buf = io.StringIO()
    buf.write("param,A,TV,M2,err_A,err_TV,err_M2\n")
    for r in report.rows:
        vals = (r.param, r.area, r.tv, r.minor, r.err_area, r.err_tv, r.err_minor)
        buf.write(",".join(f"{v:.17g}" for v in vals) + "\n")
    return buf.getvalue()


def report_json_dict(report: ConvergenceReport, verdicts: dict | None = None):
    out = {
        "parameter": report.parameter,
        "limits": {k: report.limits.get(k) for k in METRICS},
        "rates": {k: report.rates.get(k) for k in METRICS},
        "residuals": {k: report.residuals.get(k) for k in METRICS},
        "converged_rows": len(report.converged_rows()),
        "rows": len(report.rows),
    }
    if verdicts:
        out["verdicts"] = dict(verdicts)
    return out


def subadd_csv_text(report: SubadditivityReport) -> str:
    buf = io.StringIO()
    buf.write("variant,r,k,A_local,A_base,gap\n")
    for row in report.rows:
        buf.write(
            f"{row.variant},{row.r:.17g},{row.k},"
            f"{row.area_local:.17g},{row.base_area_local:.17g},{row.gap:.17g}\n"
        )
    return buf.getvalue()


def subadd_json_dict(report: SubadditivityReport):
    return {
        "radii": report.radii,
        "ball_bound": {f"{r:g}": report.ball_bound[r] for r in report.radii},
        "cylinder_bound": {f"{r:g}": report.cylinder_bound[r] for r in report.radii},
        "chosen_min": {f"{r:g}": report.chosen_min[r] for r in report.radii},
        "violation_witnessed": report.violation_witnessed,
        "witness": list(report.witness) if report.witness else None,
    }


def write_text(text: str, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_json(obj, path) -> None:
    write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)
