import math

import numpy as np
import pytest

from relaxarea.chains import SingularChain
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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


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
