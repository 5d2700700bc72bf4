"""The region dispatch and the parameter checks of the recovery builders."""

import math
from collections import Counter

import numpy as np
import pytest

from relaxarea.errors import InvalidGeometry, InvalidParams, NonFinite
from relaxarea.fields import VectorField, make_example_field
from relaxarea.recovery import (
    cone_defect_field_4d,
    cone_defect_filler,
    cone_dipole,
    counterexample_sequence,
    cylinder_analogue_2d,
    disk_defect_field_3d,
    homogeneous_cone_extension,
    linear_disk_filler,
    remove_point_singularity,
    vortex_smoothing_2d,
)

#: eps (or r) of every construction below; each modifies |x~| < 0.2 at x_n = 0
EPS = 0.2

CONSTRUCTIONS = {
    "smoothing": lambda: vortex_smoothing_2d(
        make_example_field("vortex", d=1), (0.0, 0.0), 1, EPS),
    "dipole": lambda: cone_dipole(
        make_example_field("planar_vortex"), (-1.0, 1.0), 1, EPS),
    "point": lambda: remove_point_singularity(
        disk_defect_field_3d(), (0.0, 0.0, 0.0), EPS, EPS**2,
        linear_disk_filler(EPS)),
    "cone4": lambda: homogeneous_cone_extension(
        cone_defect_field_4d(), (-1.0, 1.0), EPS,
        filler=cone_defect_filler((-1.0, 1.0), EPS)),
}


@pytest.mark.parametrize("build, breaks", [
    (CONSTRUCTIONS["smoothing"], {"r": (0.1, 0.2)}),
    (CONSTRUCTIONS["dipole"], {"t": (0.5,)}),
    (CONSTRUCTIONS["point"], {"r": (EPS**2, EPS)}),
    (CONSTRUCTIONS["cone4"], {"t": (EPS**2 / EPS,)}),
    (lambda: counterexample_sequence("ball", 4), {"r": (0.25,)}),
    (lambda: counterexample_sequence("cylinder", 4),
     {"r": (0.25,), "phi": (0.25,)}),
    (lambda: cylinder_analogue_2d(4), {"r": (0.25,), "theta": (-0.25, 0.25)}),
], ids=list(CONSTRUCTIONS) + ["ball", "cylinder", "cyl2d"])
def test_chart_breaks_pinned(build, breaks):
    got = build().chart_breaks
    assert got == breaks
    assert all(type(v) is float for axis in got.values() for v in axis)


def spanning_batch(n, radii=(0.5, 0.15, 0.02)):
    """One point per region: outside, in the ring or shell, in the core."""
    X = np.zeros((len(radii), n))
    X[:, 0] = radii
    return X


@pytest.mark.parametrize("method", ["evaluate_many", "jacobian_many"])
@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_nan_row_raises_non_finite(name, method):
    w = CONSTRUCTIONS[name]()
    X = np.vstack([spanning_batch(w.n), np.full((1, w.n), math.nan)])
    getattr(w, method)(X[:-1])  # the regular rows alone are fine
    with pytest.raises(NonFinite):
        getattr(w, method)(X)


@pytest.mark.parametrize("build, error, match", [
    (lambda: vortex_smoothing_2d(make_example_field("vortex", d=1),
                                 (0.0, 0.0), 1, math.nan), InvalidParams, "eps"),
    (lambda: vortex_smoothing_2d(make_example_field("vortex", d=1),
                                 (0.0, 0.0), 1, math.inf), InvalidParams, "eps"),
    (lambda: vortex_smoothing_2d(make_example_field("vortex", d=1),
                                 (math.nan, 0.0), 1, EPS), InvalidGeometry,
     "center"),
    (lambda: cone_dipole(make_example_field("planar_vortex"), (-1.0, 1.0), 1,
                         math.nan), InvalidGeometry, "eps"),
    (lambda: cone_dipole(make_example_field("planar_vortex"), (-1.0, 1.0), 1,
                         math.inf), InvalidGeometry, "eps"),
    (lambda: cone_dipole(make_example_field("planar_vortex"), (-1.0, math.inf),
                         1, EPS), InvalidGeometry, "base"),
    (lambda: remove_point_singularity(disk_defect_field_3d(), (0.0, 0.0, 0.0),
                                      math.inf, 0.04, linear_disk_filler(EPS)),
     InvalidGeometry, "r=inf"),
    (lambda: remove_point_singularity(disk_defect_field_3d(),
                                      (0.0, math.inf, 0.0), EPS, 0.04,
                                      linear_disk_filler(EPS)),
     InvalidGeometry, "center"),
    (lambda: remove_point_singularity(disk_defect_field_3d(), (0.0, 0.0),
                                      EPS, 0.04, linear_disk_filler(EPS)),
     InvalidGeometry, "center"),
    (lambda: vortex_smoothing_2d(make_example_field("vortex", d=1),
                                 (0.0, 0.0, 0.0), 1, EPS), InvalidGeometry,
     "center"),
    (lambda: vortex_smoothing_2d(make_example_field("vortex", d=1), (0.0,), 1,
                                 EPS), InvalidGeometry, "center"),
    (lambda: homogeneous_cone_extension(
        cone_defect_field_4d(), (-1.0, 1.0), math.inf, 0.04,
        cone_defect_filler((-1.0, 1.0), EPS)), InvalidGeometry, "eps"),
    (lambda: remove_point_singularity(cone_defect_field_4d(), (0.0, 0.0, 0.0, 0.5),
                                      EPS, 0.04, linear_disk_filler(EPS)),
     InvalidParams, r"\(3, 2\) but the field has \(4, 2\)"),
    (lambda: homogeneous_cone_extension(
        cone_defect_field_4d(), (-1.0, 1.0), EPS, 0.04, linear_disk_filler(EPS)),
     InvalidParams, r"\(3, 2\) but the field has \(4, 2\)"),
], ids=["smoothing-eps-nan", "smoothing-eps-inf", "smoothing-center-nan",
        "dipole-eps-nan", "dipole-eps-inf", "dipole-base-inf", "point-r-inf",
        "point-center-inf", "point-center-short", "smoothing-center-3d",
        "smoothing-center-1d", "cone4-eps-inf", "point-filler-shape",
        "cone4-filler-shape"])
def test_bad_parameter_refused_when_built(build, error, match):
    with pytest.raises(error, match=match):
        build()


def counted(field, calls, name):
    """``field`` with every evaluate_many and jacobian_many call counted."""

    def ev(X):
        calls[name, "ev"] += 1
        return field.evaluate_many(X)

    def jac(X):
        calls[name, "jac"] += 1
        return field.jacobian_many(X)

    return VectorField(field.n, field.m, ev, jac,
                       singular_set=field.singular_set, name=field.name)


@pytest.mark.parametrize("method, kind", [("evaluate_many", "ev"),
                                          ("jacobian_many", "jac")])
def test_each_non_empty_region_calls_its_field_once(method, kind):
    calls = Counter()
    w = remove_point_singularity(
        counted(disk_defect_field_3d(), calls, "field"), (0.0, 0.0, 0.0), EPS,
        EPS**2, counted(linear_disk_filler(EPS), calls, "filler"))
    getattr(w, method)(spanning_batch(3))
    # once outside and once on the ring; the core calls the filler once
    assert calls == Counter({("field", kind): 2, ("filler", kind): 1})
    calls.clear()
    getattr(w, method)(spanning_batch(3, radii=(0.5, 0.15, 0.1)))
    assert calls == Counter({("field", kind): 2})


#: (build from the input and the filler, the input, the filler or None, a
#: row at rho = frac R): the vortex tubes' core reads nothing, and every
#: frac R below is exact, so the row lies on the inner boundary
BOUNDARY = {
    "smoothing": (lambda f, _: vortex_smoothing_2d(f, (0.0, 0.0), 1, EPS),
                  lambda: make_example_field("vortex", d=1), None,
                  (EPS / 2, 0.0)),
    "dipole": (lambda f, _: cone_dipole(f, (-1.0, 1.0), 1, EPS),
               lambda: make_example_field("planar_vortex"), None,
               (EPS / 2, 0.0, 0.0)),
    "point": (lambda f, g: remove_point_singularity(f, (0.0, 0.0, 0.0), 0.5,
                                                    0.25, g),
              disk_defect_field_3d, lambda: linear_disk_filler(0.5),
              (0.25, 0.0, 0.0)),
    "cone4": (lambda f, g: homogeneous_cone_extension(f, (-1.0, 1.0), 0.5,
                                                      0.25, g),
              cone_defect_field_4d, lambda: cone_defect_filler((-1.0, 1.0), 0.5),
              (0.25, 0.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("method", ["evaluate_many", "jacobian_many"])
@pytest.mark.parametrize("name", list(BOUNDARY))
def test_the_inner_boundary_belongs_to_the_shell(name, method):
    build, field, filler, row = BOUNDARY[name]
    calls = Counter()
    w = build(counted(field(), calls, "field"),
              filler and counted(filler(), calls, "filler"))
    calls.clear()  # the vortex tubes read the input when they are built
    getattr(w, method)(np.array([row]))
    # the shell reads the input, on the rim; the core never does
    assert calls and all(who == "field" for who, _ in calls)


def test_the_ball_filling_boundary_reads_the_vortex():
    w = counterexample_sequence("ball", 4)
    X = np.array([[0.25, 0.0, 0.0]])  # |x| = 1/k
    assert w.evaluate_many(X).tolist() == [[1.0, 0.0, 0.0]]
    # x/|x| has no radial derivative, where k x would have k
    assert w.jacobian_many(X)[0].tolist() == np.diag([0.0, 4.0, 4.0]).tolist()
