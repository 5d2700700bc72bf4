"""The benchmark's four workloads: their tasks and the checks on each output.

A task is one call into relaxarea that ends in a result the benchmark can
verify.  ``run`` is the timed part; ``check`` reads the result (and output
files) afterwards and returns the list of violated bounds, so a wrong
answer counts as a failed task just like an unexpected exception.

Every relaxarea function is looked up through its module at call time, so
the tracer's rebinding (see ``bench_trace``) sees each call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from relaxarea import (chains, cli, domains, errors, fields, quadrature, recovery,
                       topology)

VORTEX_AREA_B2 = math.pi * (math.sqrt(2.0) + math.asinh(1.0))
VORTEX_TV_B2 = 2.0 * math.pi
PLANAR_TV_B3 = math.pi**2
BALL_FILL_AREA = 16.0 * math.pi / 3.0 + 4.0 * math.pi / 3.0
CYLINDER_FILL_AREA = 16.0 * math.pi / 3.0 + 4.0 * math.pi

#: the unreachable request whose refusal time is ``refusal_s``: the area of
#: the vortex over Cube(2) at tol 1e-8, as ``relaxarea area --field vortex
#: --domain cube2 --tol 1e-8`` asks, but with a tenth of the engine's default
#: 20,000-cell budget.  The full request takes 7-11 s on a 2-vCPU host, too
#: long to time more than once or twice a run; this one takes under 1 s.
REFUSAL_TOL = 1e-8
REFUSAL_CELLS = 2000

#: generated smooth-plus-line fields per pass of lattice-extract, and their grid
GENERATED_FIELDS = 4
GENERATED_RESOLUTION = 32

#: graph-4d values at the seed commit (value, absolute error estimate), per eps
#: and region, for the three reported graph masses
SEED_CONE4 = {
    0.2: {
        "shell": {"mass": (1.0787479333845686, 1.0774502359979965e-06),
                  "grad": (0.1890557392450556, 1.4853293301049248e-07),
                  "minor": (1.046253623679052, 8.484138689121394e-07)},
        "core": {"mass": (0.007158998871492873, 2.8202589880967598e-09),
                 "grad": (0.001298775785798906, 2.935968756760871e-10),
                 "minor": (0.007024952851329378, 2.8109063433665775e-09)},
    },
    0.1: {
        "shell": {"mass": (0.5759641413174266, 3.166943170554437e-07),
                  "grad": (0.04788347639946111, 3.8004018242961514e-08),
                  "minor": (0.5711618372510194, 3.6608822168160415e-07)},
        "core": {"mass": (0.0004260044246242385, 3.398232379340512e-11),
                 "grad": (3.9768007681147286e-05, 1.3152432112028647e-12),
                 "minor": (0.0004239100239206329, 3.400900438733129e-11)},
    },
    0.05: {
        "shell": {"mass": (0.29988856869936853, 1.8933806187961823e-07),
                  "grad": (0.012007601509406713, 9.554629721828282e-09),
                  "minor": (0.29919806341333166, 9.590746641308101e-09)},
        "core": {"mass": (2.6291220733114905e-05, 7.079474928931721e-14),
                 "grad": (1.2362924446506933e-06, 1.4207885690833003e-14),
                 "minor": (2.6258495803892664e-05, 7.150402662551749e-14)},
    },
}


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    #: (result, results of the earlier tasks of this pass) -> failure messages
    check: Callable[[object, dict], list]


@dataclass
class Workload:
    name: str
    tasks: list
    #: small task run once before timing, and by the set-up measurement
    warmup: Task
    #: True when --seed changes the inputs; otherwise fixed acceptance inputs
    seeded: bool
    #: the host-speed kernel ``wall_s`` is scaled by, the one whose work is
    #: most like this workload's (see "Host speed" in README.md)
    speed_kernel: str = "small-arrays"


def _rel_close(value, target, rel, label):
    if abs(value - target) <= rel * abs(target):
        return []
    return [f"{label} {value:.10g} vs {target:.10g} (rel bound {rel:g})"]


# ---------------------------------------------------------------------------
# the refusal, which every workload times
# ---------------------------------------------------------------------------


def refusal_task() -> Task:
    """Expects NoConvergence, the error the CLI turns into exit 3."""
    field = fields.make_example_field("vortex", d=1)
    cube = domains.make_domain("cube", n=2, half_side=1.0)

    def run():
        try:
            return quadrature.area_functional(field, cube, REFUSAL_TOL,
                                              max_cells=REFUSAL_CELLS)
        except errors.NoConvergence as exc:
            return exc

    def check(result, earlier):
        if not isinstance(result, errors.NoConvergence):
            return [f"expected NoConvergence, got {result!r}"]
        return []

    return Task("refusal", run, check)


# ---------------------------------------------------------------------------
# CLI tasks (acceptance-studies)
# ---------------------------------------------------------------------------


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    out: Path

    def fields(self) -> dict:
        """``key=value`` tokens of the summary line."""
        pairs = (tok.split("=", 1) for tok in self.stdout.split() if "=" in tok)
        return {k: v for k, v in pairs}

    def csv_rows(self) -> list:
        with open(self.out, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def json(self) -> dict:
        with open(self.out.with_suffix(".json"), encoding="utf-8") as fh:
            return json.load(fh)


def _call_cli(argv, out: Path) -> CliRun:
    full = list(argv) + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(full)
    return CliRun(code, stdout.getvalue(), stderr.getvalue(), out)


def _cli_task(name, argv, check, out_dir: Path) -> Task:
    out = out_dir / f"{name}.csv"

    def checked(run: CliRun, earlier):
        if run.code != 0:
            return [f"exit code {run.code}: {run.stderr.strip()}"]
        return check(run, earlier)

    return Task(name, lambda: _call_cli(argv, out), checked)


def _check_area(run, earlier):
    row = run.csv_rows()[0]
    return _rel_close(float(row["value"]), VORTEX_AREA_B2, 1e-3, "area")


def _check_vortex_energy(run, earlier):
    vals = {r["quantity"]: float(r["value"]) for r in run.csv_rows()}
    rhs = float(run.fields()["relaxed_rhs"])
    return (_rel_close(vals["tv"], VORTEX_TV_B2, 1e-3, "tv")
            + _rel_close(vals["tv_area"], VORTEX_AREA_B2, 1e-3, "tv_area")
            + _rel_close(rhs, vals["tv_area"] + math.pi, 1e-6, "relaxed rhs"))


def _check_smoothing(run, earlier):
    rep = run.json()
    fails = (_rel_close(rep["limits"]["area"], VORTEX_AREA_B2 + math.pi, 0.01,
                        "area limit")
             + _rel_close(rep["limits"]["tv"], VORTEX_TV_B2, 0.01, "tv limit"))
    if rep["verdicts"]["tv_vs_2pi"] != "strict":
        fails.append(f"verdict {rep['verdicts']['tv_vs_2pi']}")
    return fails


def _check_planar_energy(run, earlier):
    vals = {r["quantity"]: float(r["value"]) for r in run.csv_rows()}
    return _rel_close(vals["tv"], PLANAR_TV_B3, 1e-3, "tv")


def _check_dipole(run, earlier):
    rep = run.json()
    return _rel_close(rep["limits"]["minor"], 2 * math.pi, 0.02, "minor limit")


def _check_dipole_scan(run, earlier):
    rep = run.json()
    min_tv = min(float(r["TV"]) for r in run.csv_rows())
    fails = []
    if abs(rep["limits"]["tv"]) > 0.02:
        fails.append(f"gradient scan limit {rep['limits']['tv']:.4g}")
    if min_tv > 0.05:
        fails.append(f"gradient scan min row {min_tv:.4g}")
    return fails


def _check_chain_disk(run, earlier):
    gap = float(run.json()["verdicts"]["disk_gap"])
    return [] if gap >= 0.98 * math.pi else [f"disk gap {gap:.6g} < 0.98 pi"]


def _check_ball_fill(run, earlier):
    fails = _rel_close(run.json()["limits"]["area"], BALL_FILL_AREA, 0.02,
                       "ball limit")
    dev = float(run.fields()["det_ball_max_dev"])
    if dev > 1e-9 * 4 * math.pi / 3:
        fails.append(f"det integral deviates by {dev:.2e}")
    return fails


def _check_cylinder_fill(run, earlier):
    return _rel_close(run.json()["limits"]["area"], CYLINDER_FILL_AREA, 0.05,
                      "cylinder limit")


def _check_subadd(run, earlier):
    rep = run.json()
    fails = []
    if not rep["violation_witnessed"] or rep["witness"] != [0.2, 0.9]:
        fails.append(f"violation {rep['violation_witnessed']} "
                     f"witness {rep['witness']}")
    if not rep["cylinder_bound"]["0.2"] < rep["ball_bound"]["0.2"]:
        fails.append("cylinder bound not below ball bound at r=0.2")
    return fails


def _check_negative_control(run, earlier):
    rep = run.json()
    fails = []
    if rep["verdicts"]["tv_vs_2pi"] != "non_strict":
        fails.append(f"verdict {rep['verdicts']['tv_vs_2pi']}")
    if rep["limits"]["tv"] - VORTEX_TV_B2 <= 0.5:
        fails.append(f"tv excess {rep['limits']['tv'] - VORTEX_TV_B2:.4f}")
    return fails


def acceptance_studies(out_dir: Path) -> Workload:
    eps4 = "0.2,0.1,0.05,0.025"
    scan = ",".join(repr(0.2 * 2.0**-j) for j in range(7))
    specs = [
        ("c1-area", ["area", "--field", "vortex", "--d", "1", "--domain", "ball2",
                     "--tol", "1e-6"], _check_area),
        ("c1-energy", ["energy", "--field", "vortex", "--d", "1", "--domain",
                       "ball2", "--tol", "1e-6"], _check_vortex_energy),
        ("c2-smoothing", ["relax", "--study", "smoothing", "--eps", eps4],
         _check_smoothing),
        ("c3-planar", ["energy", "--field", "planar_vortex", "--domain", "ball3",
                       "--tol", "1e-6"], _check_planar_energy),
        ("c3-dipole", ["relax", "--study", "dipole", "--eps", eps4], _check_dipole),
        ("c3-scan", ["relax", "--study", "dipole-grad", "--eps", scan],
         _check_dipole_scan),
    ]
    specs += [(f"c6-disk{j}", ["relax", "--study", "chain", "--m", "6", "--disk",
                               str(j)], _check_chain_disk) for j in range(1, 7)]
    specs += [
        ("c7-ball", ["counterexample", "--variant", "ball", "--k", "2,4,8,16"],
         _check_ball_fill),
        ("c7-cylinder", ["counterexample", "--variant", "cylinder", "--k",
                         "4,8,16,32"], _check_cylinder_fill),
        ("c7-subadd", ["subadd", "--radii", "0.2,0.9", "--k", "8,16,32"],
         _check_subadd),
        ("c8-cyl2d", ["relax", "--study", "cyl2d", "--k", "4,8,16,32"],
         _check_negative_control),
    ]
    tasks = [_cli_task(name, argv, check, out_dir) for name, argv, check in specs]
    return Workload("acceptance-studies", tasks, tasks[0], seeded=False)


def minor_rate(out_dir: Path):
    """Criterion 3's fitted minor-mass rate, recorded but never asserted.

    Its acceptance window [0.7, 1.3] is intentionally red: the construction's
    Frobenius minor mass decays at rate 2.
    """
    path = out_dir / "c3-dipole.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["rates"]["minor"]


# ---------------------------------------------------------------------------
# singular-cube
# ---------------------------------------------------------------------------


def _gauss(order, a, b):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def vortex_square_area(d: int) -> float:
    """Area of the degree-d vortex over [-1, 1]^2: integrand sqrt(1 + d^2/r^2).

    In polar coordinates the radial integral is closed-form,
    int_0^R sqrt(r^2 + d^2) dr = (R sqrt(R^2 + d^2) + d^2 asinh(R/d)) / 2,
    and eight symmetric triangles leave a smooth integral over theta.
    """
    th, w = _gauss(80, 0.0, math.pi / 4)
    R = 1.0 / np.cos(th)
    F = 0.5 * (R * np.sqrt(R * R + d * d) + d * d * np.arcsinh(R / d))
    return 8.0 * float(w @ F)


def sphere_vortex_cube_area() -> float:
    """Area of x/|x| over [-1, 1]^3: integrand 1 + 1/r^2.

    Over each of the six pyramids x = t (u, v, 1) the weight t^2 cancels
    1/r^2, leaving 6 * int_{[-1,1]^2} du dv / (1 + u^2 + v^2).
    """
    u, w = _gauss(80, -1.0, 1.0)
    U, V = np.meshgrid(u, u, indexing="ij")
    return 8.0 + 6.0 * float(w @ (1.0 / (1.0 + U * U + V * V)) @ w)


def singular_cube() -> Workload:
    cases = [
        ("vortex1-cube2", lambda: fields.make_example_field("vortex", d=1), 2, 3e-6,
         vortex_square_area(1)),
        ("vortex2-cube2", lambda: fields.make_example_field("vortex", d=2), 2, 3e-6,
         vortex_square_area(2)),
        ("sphere-cube3", lambda: fields.make_example_field("sphere_vortex"), 3,
         1e-6, sphere_vortex_cube_area()),
        ("planar-cube3", lambda: fields.make_example_field("planar_vortex"), 3,
         3e-6, 2.0 * vortex_square_area(1)),
    ]
    tasks = []
    for name, make, n, tol, exact in cases:
        field, cube = make(), domains.Cube(n, 1.0)

        def run(field=field, cube=cube, tol=tol):
            return quadrature.area_functional(field, cube, tol)

        def check(res, earlier, tol=tol, exact=exact):
            if not res.converged:
                return ["not converged"]
            return _rel_close(res.value, exact, tol, "area")

        tasks.append(Task(name, run, check))
    return Workload("singular-cube", tasks, tasks[0], seeded=False)


# ---------------------------------------------------------------------------
# lattice-extract
# ---------------------------------------------------------------------------


def line_field(axis, offset, phase_coeffs):
    """Vortex around an axis-parallel line composed with a smooth phase."""
    a, b, c = phase_coeffs
    keep = [i for i in range(3) if i != axis]

    def angle(X):
        w = X[:, keep]
        t = np.arctan2(w[:, 1] - offset[1], w[:, 0] - offset[0])
        return t + a * np.sin(X[:, 0]) + b * X[:, 1] ** 2 + c * np.cos(X[:, 2])

    seg = np.zeros((2, 3))
    seg[0, axis], seg[1, axis] = -1.0, 1.0
    seg[0, keep] = seg[1, keep] = offset
    return fields.VectorField(
        3, 2,
        lambda X: np.stack([np.cos(angle(X)), np.sin(angle(X))], axis=1), None,
        singular_set=chains.SingularChain.segments(3, [(seg, 1)]),
        sphere_valued=True, name="line_field",
    )


def _check_line_chain(chain, grid, label):
    lo, hi = grid.bounds()
    fails = []
    mass = chains.chain_mass(chain)
    if not 1.9 <= mass <= 2.1:
        fails.append(f"{label} mass {mass}")
    bnd = chains.interior_boundary(chain, lo, hi, 1.5 * grid.h)
    if len(bnd):
        fails.append(f"{label}: {len(bnd)} unbalanced interior dual vertices")
    return fails


def lattice_extract(seed: int) -> Workload:
    planar = fields.make_example_field("planar_vortex")
    grid64, grid128 = topology.GridSpec(3, 64), topology.GridSpec(3, 128)

    def check64(chain, earlier):
        return _check_line_chain(chain, grid64, "64^3")

    def check128(chain, earlier):
        fails = _check_line_chain(chain, grid128, "128^3")
        if "planar-64" in earlier:
            delta = abs(chains.chain_mass(chain)
                        - chains.chain_mass(earlier["planar-64"]))
            if delta > 0.05:
                fails.append(f"halving changed mass by {delta}")
        return fails

    tasks = [
        Task("planar-64", lambda: topology.extract_lines_3d(planar, grid64), check64),
        Task("planar-128", lambda: topology.extract_lines_3d(planar, grid128),
             check128),
    ]

    chain_field = fields.make_example_field("vortex_chain", m=6)
    grid2 = topology.GridSpec(2, 128)
    centers, _ = fields.chain_centers_radii(6)

    def check_chain2d(chain, earlier):
        mults = [m for _, m in chain.cells]
        if len(mults) != 6:
            return [f"{len(mults)} vortices detected, expected 6"]
        fails = []
        if any(abs(m) != 1 for m in mults) or any(
                a * b >= 0 for a, b in zip(mults, mults[1:])):
            fails.append(f"multiplicities {mults} not alternating +-1")
        far = [float(np.linalg.norm(p - c)) for (p, _), c in zip(chain.cells, centers)]
        if max(far) > grid2.h:
            fails.append(f"vortex {max(far):.3g} away from its disk center")
        return fails

    chain_task = Task("chain6-2d",
                      lambda: topology.extract_vortices_2d(chain_field, grid2),
                      check_chain2d)
    tasks.append(chain_task)

    gen = np.random.default_rng(seed)
    grid32 = topology.GridSpec(3, GENERATED_RESOLUTION)
    for i in range(GENERATED_FIELDS):
        f = line_field(int(gen.integers(0, 3)), gen.uniform(-0.3, 0.3, 2),
                       gen.uniform(-0.5, 0.5, 3))

        def check_gen(chain, earlier, i=i):
            if len(chain) == 0:
                return [f"generated field {i}: empty chain"]
            return _check_line_chain(chain, grid32, f"generated {i}")

        tasks.append(Task(f"line{i}-32",
                          lambda f=f: topology.extract_lines_3d(f, grid32),
                          check_gen))
    return Workload("lattice-extract", tasks, chain_task, seeded=True,
                    speed_kernel="gather")


# ---------------------------------------------------------------------------
# graph-4d
# ---------------------------------------------------------------------------


def _check_graph_masses(eps, regions):
    """Graph masses agree with the seed-commit values within both estimates."""
    fails = []
    for region, rep in regions:
        for q, (ref, ref_err) in SEED_CONE4[eps][region].items():
            res = getattr(rep, q)
            if not res.converged:
                fails.append(f"eps={eps} {region} {q} not converged")
            elif abs(res.value - ref) > res.abs_error + ref_err:
                fails.append(f"eps={eps} {region} {q} {res.value!r} vs seed {ref!r}")
    return fails


def graph_4d() -> Workload:
    base_segment = (-1.0, 1.0)
    base = recovery.cone_defect_field_4d()
    tasks = []
    for eps in (0.2, 0.1, 0.05):
        delta = eps * eps
        ext = recovery.homogeneous_cone_extension(
            base, base_segment, eps, delta,
            recovery.cone_defect_filler(base_segment, eps))

        def run(ext=ext, eps=eps, delta=delta):
            return recovery.cone_extension_report(ext, base_segment, eps, delta, 1e-6)

        def check(reports, earlier, eps=eps):
            return _check_graph_masses(eps, zip(("shell", "core"), reports))

        tasks.append(Task(f"cone4-eps{eps:g}", run, check))

    # the warm-up is the smallest piece of the last report: its rescaled core
    core = domains.Cone(4, base_segment, delta, codim=3)
    warmup = Task("cone4-core-eps0.05",
                  lambda: recovery.graph_mass(ext, core, 1e-6),
                  lambda rep, earlier: _check_graph_masses(0.05, [("core", rep)]))
    return Workload("graph-4d", tasks, warmup, seeded=False)


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """The named workload; only lattice-extract draws inputs from ``seed``."""
    if name == "acceptance-studies":
        return acceptance_studies(out_dir)
    if name == "singular-cube":
        return singular_cube()
    if name == "lattice-extract":
        return lattice_extract(seed)
    if name == "graph-4d":
        return graph_4d()
    raise ValueError(f"unknown workload {name!r}")
