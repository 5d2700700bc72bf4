"""Command-line front end: one subcommand per experiment.

Subcommands: ``area``, ``energy``, ``jacobian``, ``recover``, ``relax``,
``counterexample``, ``subadd``, ``sweep``.  A JSON config file may supply
any flag value (flags win), held to the flag's choices as the line is.  Exit codes: 0 success, 2 invalid arguments,
3 quadrature/extraction non-convergence, 4 I/O failure.

Outputs are UTF-8 CSV with LF line endings and 17 significant digits, so
identical configurations reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import relaxation as rx
from .chains import (
    SINGULAR_GUARD,
    chain_csv_text,
    chain_mass,
    distance_to_chain,
)
from .domains import Ball, Cone, make_domain
from .errors import (
    AmbiguousWinding,
    InvalidParams,
    IoFailure,
    NoConvergence,
    RelaxAreaError,
)
from .fields import make_example_field, minors2
from .quadrature import area_functional, graph_functionals, integrate
from .recovery import (
    cone_defect_field_4d,
    cone_defect_filler,
    cone_dipole,
    cone_extension_report,
    counterexample_sequence,
    disk_defect_field_3d,
    graph_mass,
    homogeneous_cone_extension,
    linear_disk_filler,
    point_removal_report,
    remove_point_singularity,
    vortex_smoothing_2d,
)
from .topology import GridSpec, extract_lines_3d, extract_vortices_2d

TOL_MIN, TOL_MAX = 1e-10, 1e-2


def _number_list(text, flag, kind=float):
    """The comma-separated values of ``flag``, each parsed by ``kind``."""
    try:
        return [kind(v) for v in text.split(",") if v]
    except ValueError:
        raise InvalidParams(f"{flag} takes comma-separated {kind.__name__} "
                            f"values, got {text!r}") from None


def _positive(values, what):
    """The values, refused unless each is finite and positive."""
    for v in values:
        if not 0 < v < math.inf:
            raise InvalidParams(f"{what} must be finite and positive, got {v!r}")
    return values


def _refuse_unread(args, choice, readers):
    """Refuse a flag that the value of ``--choice`` does not read.

    ``readers`` maps each flag's dest to the values of ``choice`` that read
    it; an unset flag is None, given neither on the line nor in a config.
    """
    value = getattr(args, choice)
    for dest, values in readers.items():
        if getattr(args, dest) is not None and value not in values:
            raise InvalidParams(f"--{dest} has no effect on --{choice} {value}")


def _build_field(args):
    _refuse_unread(args, "field", {"d": ("vortex",), "m": ("vortex_chain",)})
    return make_example_field(args.field, **{
        k: getattr(args, k) for k in ("d", "m") if getattr(args, k) is not None})


def _build_domain(args):
    table = {
        "ball2": ("ball", 2), "ball3": ("ball", 3),
        "cube2": ("cube", 2), "cube3": ("cube", 3),
    }
    kind, n = table[args.domain]
    if kind == "ball":
        return make_domain("ball", n=n, radius=args.radius)
    return make_domain("cube", n=n, half_side=args.radius)


def _scalar_csv(pairs):
    lines = ["quantity,value,error_estimate,nodes"]
    for name, res in pairs:
        lines.append(f"{name},{res.value:.17g},{res.error_estimate:.17g},"
                     f"{res.nodes_used}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _run_area(args):
    field = _build_field(args)
    dom = _build_domain(args)
    res = area_functional(field, dom, args.tol)
    print(f"area={res.value:.12g} err={res.error_estimate:.3g} "
          f"nodes={res.nodes_used}")
    if args.out:
        rx.write_text(_scalar_csv([("area", res)]), args.out)
    return 0


def _run_energy(args):
    field = _build_field(args)
    dom = _build_domain(args)
    # the singular current inside the domain, refused before any quadrature
    inside = field.singular_set.current_in(dom)
    grad, tva, minor = graph_functionals(field, dom, args.tol,
                                         ("tv", "tv_area", "minor"))
    rhs = tva.value + math.pi * chain_mass(inside)
    print(f"tv={grad.value:.12g} tv_area={tva.value:.12g} "
          f"m2={minor.value:.12g} relaxed_rhs={rhs:.12g}")
    if args.out:
        rx.write_text(
            _scalar_csv([("tv", grad), ("tv_area", tva), ("m2", minor)]),
            args.out)
    return 0


def _run_jacobian(args):
    _positive([args.radius], "--radius")
    field = _build_field(args)
    grid = GridSpec(field.n, args.grid, half_side=args.radius)
    # an odd resolution puts the middle node on the grid centre
    if (args.grid % 2
            and distance_to_chain(np.array([grid.center]), field.singular_set)[0]
            <= SINGULAR_GUARD):
        raise InvalidParams(
            f"--grid {args.grid} puts the middle lattice node on the singular "
            f"set at the grid centre; use an even grid, such as "
            f"{args.grid - 1} or {args.grid + 1}")
    if field.n == 2:
        chain = extract_vortices_2d(field, grid)
    else:
        chain = extract_lines_3d(field, grid)
    print(f"cells={len(chain)} mass={chain_mass(chain):.12g}")
    if args.out:
        rx.write_text(chain_csv_text(chain), args.out)
    return 0


def _run_recover(args):
    name = args.construction
    # the vortex constructions read a degree, the removals an inner radius
    _refuse_unread(args, "construction", {"d": ("smoothing", "dipole"),
                                          "delta": ("point", "cone4")})
    _positive([args.eps], "--eps")
    if args.delta is not None:
        _positive([args.delta], "--delta")
    d = 1 if args.d is None else args.d
    if name == "smoothing":
        base = make_example_field("vortex", d=d)
        f = vortex_smoothing_2d(base, (0.0, 0.0), d, args.eps)
        rep = graph_mass(f, Ball(2, 1.0), args.tol)
        print(f"area={rep.mass.value:.12g} tv={rep.grad.value:.12g} "
              f"m2={rep.minor.value:.12g}")
    elif name == "dipole":
        base = make_example_field("planar_vortex")
        f = cone_dipole(base, (-1.0, 1.0), d, args.eps)
        rep = graph_mass(f, Cone(3, (-1.0, 1.0), args.eps), args.tol)
        print(f"cone_mass={rep.mass.value:.12g} cone_tv={rep.grad.value:.12g} "
              f"cone_m2={rep.minor.value:.12g}")
    elif name == "point":
        base = disk_defect_field_3d()
        delta = args.eps**2 if args.delta is None else args.delta
        f = remove_point_singularity(base, (0, 0, 0), args.eps, delta,
                                     linear_disk_filler(args.eps))
        ring, core = point_removal_report(f, (0, 0, 0), args.eps, delta, args.tol)
        print(f"ring_mass={ring.mass.value:.12g} core_mass={core.mass.value:.12g}")
    else:  # cone4
        base = cone_defect_field_4d()
        delta = args.eps**2 if args.delta is None else args.delta
        f = homogeneous_cone_extension(base, (-1.0, 1.0), args.eps, delta,
                                       cone_defect_filler((-1.0, 1.0), args.eps))
        shell, core = cone_extension_report(f, (-1.0, 1.0), args.eps, delta,
                                            args.tol)
        print(f"shell_tv={shell.grad.value:.12g} shell_m2={shell.minor.value:.12g} "
              f"core_mass={core.mass.value:.12g}")
    return 0


_STUDIES = ("smoothing", "dipole", "dipole-grad", "chain", "cyl2d")


def _run_relax(args):
    name = args.study
    _refuse_unread(args, "study", {
        "eps": ("smoothing", "dipole", "dipole-grad"), "k": ("cyl2d",),
        "m": ("chain",), "disk": ("chain",)})
    verdicts = {}
    if name in ("smoothing", "dipole", "dipole-grad"):
        text = "0.2,0.1,0.05,0.025" if args.eps is None else args.eps
        eps = _positive(_number_list(text, "--eps"), "--eps values")
    if name == "smoothing":
        report = rx.study_vortex_smoothing(eps, args.tol)
        verdicts["tv_vs_2pi"] = rx.strict_bv_check(report, 2 * math.pi)
    elif name == "dipole":
        report = rx.study_cone_dipole(eps, args.tol)
    elif name == "dipole-grad":
        report = rx.study_dipole_gradient(eps, args.tol)
    elif name == "chain":
        m = 3 if args.m is None else args.m
        disk = 1 if args.disk is None else args.disk
        report, ref = rx.study_chain_disk(make_example_field("vortex_chain", m=m),
                                          disk, tol=args.tol)
        verdicts["disk_gap"] = f"{report.limits['area'] - ref:.6g}"
    else:  # cyl2d
        text = "4,8,16,32" if args.k is None else args.k
        report = rx.study_cylinder_analogue_2d(_number_list(text, "--k", int),
                                               args.tol)
        verdicts["tv_vs_2pi"] = rx.strict_bv_check(report, 2 * math.pi)
    lim = report.limits
    print(f"study={name} limit_A={lim.get('area', float('nan')):.10g} "
          f"limit_TV={lim.get('tv', float('nan')):.10g} "
          f"limit_M2={lim.get('minor', float('nan')):.10g} "
          + " ".join(f"{k}={v}" for k, v in verdicts.items()))
    if args.out:
        rx.write_text(rx.report_csv_text(report), args.out)
        rx.write_json(rx.report_json_dict(report, verdicts),
                      _json_sibling(args.out))
    return 0


def _json_sibling(path):
    return (path[:-4] if path.endswith(".csv") else path) + ".json"


def _run_counterexample(args):
    ks = _number_list(args.k, "--k", int)
    report = rx.study_counterexample(args.variant, ks, args.tol,
                                     radius=args.radius)
    line = f"variant={args.variant} limit_A={report.limits['area']:.10g}"
    if args.variant == "ball":
        dets = []
        for k in ks:
            f = counterexample_sequence("ball", k)
            res = integrate(
                lambda X: minors2(f.jacobian_many(X))[:, -1],
                Ball(3, 1.0 / k), max(args.tol, 1e-9), breaks=f.chart_breaks,
            )
            dets.append(res.value)
        worst = max(abs(v - 4 * math.pi / 3) for v in dets)
        line += f" det_ball_max_dev={worst:.3g}"
    print(line)
    if args.out:
        rx.write_text(rx.report_csv_text(report), args.out)
        rx.write_json(rx.report_json_dict(report), _json_sibling(args.out))
    return 0


def _run_subadd(args):
    report = rx.subadditivity_experiment(
        _number_list(args.radii, "--radii"), _number_list(args.k, "--k", int),
        args.tol)
    print(f"violation={report.violation_witnessed} witness={report.witness} "
          + " ".join(f"min[{r:g}]={report.chosen_min[r]:.6g}"
                     for r in report.radii))
    if args.out:
        rx.write_text(rx.subadd_csv_text(report), args.out)
        rx.write_json(rx.subadd_json_dict(report), _json_sibling(args.out))
    return 0


def _run_sweep(args):
    d = 1 if args.d is None else args.d
    field_of = {
        "smoothing": lambda eps: vortex_smoothing_2d(
            make_example_field("vortex", d=d), (0.0, 0.0), d, eps),
        "ball": lambda invk: counterexample_sequence("ball", int(round(1 / invk))),
        "cylinder": lambda invk: counterexample_sequence(
            "cylinder", int(round(1 / invk))),
    }
    _refuse_unread(args, "family", {"d": ("smoothing",)})
    values = _positive(_number_list(args.values, "--values"), "sweep values")
    if args.family in ("ball", "cylinder"):
        for v in values:  # each value is 1/k; none may round to another k
            inv = 1 / v
            k = round(inv) if math.isfinite(inv) else 0
            if k < 2 or abs(inv - k) > 1e-9 * k:
                raise InvalidParams(
                    f"sweep value {v!r} of family {args.family} is not 1/k "
                    "for an integer k >= 2")
    dom = _build_domain(args)
    lines = ["param,value,error_estimate"]
    for v in values:
        f = field_of[args.family](v)
        name = "minor" if args.quantity == "m2" else args.quantity
        res, = graph_functionals(f, dom, args.tol, (name,))
        lines.append(f"{v:.17g},{res.value:.17g},{res.error_estimate:.17g}")
    text = "\n".join(lines) + "\n"
    print(f"sweep family={args.family} quantity={args.quantity} "
          f"rows={len(values)}")
    if args.out:
        rx.write_text(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _config_parser():
    """The ``--config`` pre-parser, built once per process; no call changes it."""
    # no abbreviations: the pre-parse must leave recover's "--con" alone, and
    # the full parser must not take a "--conf" that the pre-parse skipped
    parser = argparse.ArgumentParser(prog="relaxarea", add_help=False,
                                     allow_abbrev=False)
    parser.add_argument("--config", help="JSON file with flag defaults")
    return parser


def _read_config(argv):
    """(flag defaults from ``--config PATH``, argv without that flag)."""
    pre = _config_parser()
    known, rest = pre.parse_known_args(argv)
    for arg in rest:  # the options before the subcommand
        if not arg.startswith("-"):
            break
        flag = arg.split("=", 1)[0]
        if len(flag) > 2 and "--config".startswith(flag):
            pre.error(f"unrecognized argument {flag}: write --config in full")
    if known.config is None:
        return {}, rest
    try:
        with open(known.config, "r", encoding="utf-8") as fh:
            defaults = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        pre.error(f"cannot read config {known.config}: {exc}")
    if not isinstance(defaults, dict):
        pre.error(f"config {known.config} must hold a JSON object")
    for key, value in defaults.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            pre.error(f"config {known.config}: {key!r} must be a string or a "
                      f"number, got {json.dumps(value)}")
    # argparse runs a flag's type on string defaults only, so a number goes
    # in as its text and its flag parses it
    return {k: v if isinstance(v, str) else repr(v)
            for k, v in defaults.items()}, rest


def build_parser():
    """The full parser with the built-in defaults (one per process)."""
    return _build_parser()[0]


def _apply_config(commands, config):
    """Make a config's flag values the defaults of the subcommand parsers
    ``commands``, and a flag it supplies optional.  Returns each replaced
    (action, default, required), so a caller can restore them."""
    replaced = []
    for p in commands.values():
        for action in p._actions:
            if action.dest in config:
                replaced.append((action, action.default, action.required))
                action.default, action.required = config[action.dest], False
    return replaced


def _check_choices(command, args):
    """Refuse a value outside its flag's choices.  argparse checks only the
    values on the line, so this also checks those that a config gave."""
    for action in command._actions:
        if action.choices is None:
            continue
        value = getattr(args, action.dest)
        if value not in action.choices:
            command.error(f"argument {action.option_strings[0]}: invalid "
                          f"choice: {value!r} (choose from "
                          f"{', '.join(map(repr, action.choices))})")


@functools.cache
def _build_parser():
    """(the full parser with built-in defaults, its subcommand parsers by
    name), built once per process."""
    parser = argparse.ArgumentParser(
        prog="relaxarea",
        description="Graph-area functionals and singularity experiments "
                    "for circle-valued maps",
        parents=[_config_parser()],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {}

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--out", default=None)
        commands[name] = p
        return p

    def field_flags(p):
        p.add_argument("--field", default="vortex",
                       choices=["vortex", "planar_vortex", "vortex_chain",
                                "sphere_vortex", "constant"])
        p.add_argument("--d", type=int, default=None,
                       help="degree of --field vortex (default 1)")
        p.add_argument("--m", type=int, default=None,
                       help="disks of --field vortex_chain (default 3)")

    def domain_flags(p):
        p.add_argument("--domain", default="ball2",
                       choices=["ball2", "ball3", "cube2", "cube3"])
        p.add_argument("--radius", type=float, default=1.0)

    p = command("area", "graph area of a field over a domain")
    field_flags(p); domain_flags(p)

    p = command("energy", "Sobolev energy triple and relaxed RHS")
    field_flags(p); domain_flags(p)

    p = command("jacobian", "lattice extraction of the singularity chain")
    field_flags(p)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--radius", type=float, default=1.0,
                   help="half side of the sampling cube")

    p = command("recover", "build one recovery map and report its masses")
    p.add_argument("--construction", required=True,
                   choices=["smoothing", "dipole", "point", "cone4"])
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="inner radius of point and cone4 (default eps^2)")
    p.add_argument("--d", type=int, default=None,
                   help="degree of smoothing and dipole (default 1)")

    p = command("relax", "convergence study along a schedule")
    p.add_argument("--study", required=True,
                   choices=list(_STUDIES))
    p.add_argument("--eps", default=None,
                   help="schedule of smoothing, dipole and dipole-grad "
                        "(default 0.2,0.1,0.05,0.025)")
    p.add_argument("--k", default=None,
                   help="schedule of cyl2d (default 4,8,16,32)")
    p.add_argument("--m", type=int, default=None,
                   help="disks of the chain study (default 3)")
    p.add_argument("--disk", type=int, default=None,
                   help="disk of the chain study (default 1)")

    p = command("counterexample", "filling sequences of the 3d vortex")
    p.add_argument("--variant", required=True,
                   choices=["ball", "cylinder"])
    p.add_argument("--k", default="4,8,16,32")
    p.add_argument("--radius", type=float, default=1.0)

    p = command("subadd",
                "localized gap bounds and the subadditivity witness")
    p.add_argument("--radii", default="0.2,0.9")
    p.add_argument("--k", default="8,16,32")

    p = command("sweep", "plot-ready sweep of one quantity")
    domain_flags(p)
    p.add_argument("--family", default="smoothing",
                   choices=["smoothing", "ball", "cylinder"])
    p.add_argument("--quantity", default="area", choices=["area", "tv", "m2"])
    p.add_argument("--values", default="0.2,0.1,0.05,0.025")
    p.add_argument("--d", type=int, default=None,
                   help="degree of the smoothing family (default 1)")

    return parser, commands


_RUNNERS = {
    "area": _run_area,
    "energy": _run_energy,
    "jacobian": _run_jacobian,
    "recover": _run_recover,
    "relax": _run_relax,
    "counterexample": _run_counterexample,
    "subadd": _run_subadd,
    "sweep": _run_sweep,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    defaults, argv = _read_config(argv)
    parser, commands = _build_parser()
    replaced = _apply_config(commands, defaults)
    try:
        args = parser.parse_args(argv)
    finally:  # the config's defaults hold for this call only
        for action, default, required in replaced:
            action.default, action.required = default, required
    _check_choices(commands[args.subcommand], args)
    try:
        if not TOL_MIN <= args.tol <= TOL_MAX:
            raise InvalidParams(f"tolerance must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
        return _RUNNERS[args.subcommand](args)
    except (NoConvergence, AmbiguousWinding) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IoFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RelaxAreaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
