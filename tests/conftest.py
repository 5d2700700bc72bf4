import math

import numpy as np
import pytest

from relaxarea.chains import SingularChain, distance_to_chain
from relaxarea.domains import row_norms
from relaxarea.errors import SingularPoint
from relaxarea.fields import VectorField

# frozen closed-form oracle values (radial reductions computed by hand)
VORTEX_AREA_B2 = math.pi * (math.sqrt(2.0) + math.asinh(1.0))  # 2pi int sqrt(1+r^2)
VORTEX_TV_B2 = 2.0 * math.pi  # int (1/r) over B^2
PLANAR_TV_B3 = math.pi**2  # 2pi * area of the half disk {rho^2+z^2<=1}
SPHERE_AREA_B3 = 16.0 * math.pi / 3.0  # int (1 + 1/r^2) over B^3


def gauss_1d(f, a, b, order=120):
    """Dense 1d Gauss rule; the independent oracle for reduced integrals."""
    x, w = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (x + 1.0) * (b - a) + a
    return float(0.5 * (b - a) * np.sum(w * f(t)))


def planar_tv_area_b3_oracle():
    """2pi * iint over {rho^2+z^2<=1, rho>=0} of sqrt(1+rho^2), via z=sin(t).

    The per-z integral has the closed form (R sqrt(1+R^2) + asinh R)/2 with
    R = cos(t); the substitution removes the sqrt edge singularity.
    """

    def f(t):
        R = np.cos(t)
        return (R * np.sqrt(1.0 + R**2) + np.arcsinh(R)) / 2.0 * np.cos(t)

    return 2.0 * math.pi * gauss_1d(f, -math.pi / 2, math.pi / 2)


def vortex_cube2_area_oracle(d=1):
    """Area of the degree-d vortex over [-1, 1]^2, sqrt(1 + d^2 / r^2)
    integrated: in polar coordinates the radial integral
    int_0^R sqrt(r^2 + d^2) dr = (R sqrt(R^2 + d^2) + d^2 asinh(R / d)) / 2
    is closed-form, and the eight triangles {0 < theta < pi/4, r < sec
    theta} leave a smooth integral over theta, by a Gauss rule."""
    x, w = np.polynomial.legendre.leggauss(200)
    th = (x + 1) * math.pi / 8
    R = 1.0 / np.cos(th)
    radial = 0.5 * (R * np.sqrt(R * R + d * d) + d * d * np.arcsinh(R / d))
    return math.pi * float(w @ radial)  # 8 triangles, weights times pi/8


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def fd_jacobian(ev, X, singular_set):
    """Central-difference Jacobian (N, m, n) of the evaluator ``ev`` at X,
    with the relative step 1e-5 * max(1, |x|); a stencil that comes within
    1.01 * step * sqrt(n) of ``singular_set`` raises SingularPoint."""
    N, n = X.shape
    h = 1e-5 * np.maximum(1.0, row_norms(X))
    if np.any(distance_to_chain(X, singular_set) <= 1.01 * h * math.sqrt(n)):
        raise SingularPoint("finite-difference stencil too near the singular set")
    cols = []
    for a in range(n):
        E = np.zeros_like(X)
        E[:, a] = h
        cols.append((ev(X + E) - ev(X - E)) / (2.0 * h)[:, None])
    return np.stack(cols, axis=2)


def random_phase_field(rng, n_vortices):
    """e^{i(sum of vortex angles + trigonometric phase)} with known degrees."""
    centers = np.empty((n_vortices, 2))
    count = 0
    while count < n_vortices:  # keep defects well separated
        cand = rng.uniform(-0.6, 0.6, 2)
        if count == 0 or np.min(
            np.linalg.norm(centers[:count] - cand, axis=1)
        ) > 0.35:
            centers[count] = cand
            count += 1
    degrees = rng.integers(1, 3, n_vortices) * rng.choice([-1, 1], n_vortices)
    a, b = rng.uniform(-1, 1, 2)

    def f(X):
        t = a * np.sin(math.pi * X[:, 0]) + b * np.cos(math.pi * X[:, 1])
        for (cx, cy), d in zip(centers, degrees):
            t = t + d * np.arctan2(X[:, 1] - cy, X[:, 0] - cx)
        return t

    field = VectorField(
        2, 2, lambda X: np.stack([np.cos(f(X)), np.sin(f(X))], axis=1), None,
        singular_set=SingularChain.points(
            2, [(c, int(d)) for c, d in zip(centers, degrees)]
        ),
        name="random_phase",
    )
    return field, centers, degrees


def angle_free_twin(field):
    """``field`` with the same evaluator, Jacobian, singular set and chart
    breaks but no angle evaluator, so that its angles are taken from its
    values."""
    return VectorField(field.n, field.m, field._eval, field._jac,
                       singular_set=field.singular_set,
                       chart_breaks=field.chart_breaks, name=field.name)


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
    return VectorField(
        3, 2,
        lambda X: np.stack([np.cos(angle(X)), np.sin(angle(X))], axis=1), None,
        singular_set=SingularChain.segments(3, [(seg, 1)]),
        name="line_field",
    )


@pytest.fixture
def counting_field():
    """Wrap a field in a VectorField whose evaluator and Jacobian count calls.

    ``counting_field(field)`` returns ``(wrapped, calls)``, where ``calls``
    holds the number of ``"evaluate"`` and ``"jacobian"`` calls made on the
    input through the wrapper.
    """

    def wrap(field):
        calls = {"evaluate": 0, "jacobian": 0}

        def ev(X):
            calls["evaluate"] += 1
            return field.evaluate_many(X)

        def jac(X):
            calls["jacobian"] += 1
            return field.jacobian_many(X)

        wrapped = VectorField(field.n, field.m, ev, jac,
                              singular_set=field.singular_set,
                              chart_breaks=field.chart_breaks, name=field.name)
        return wrapped, calls

    return wrap
