"""Grid geometry, fields, quadrature and potential containers."""

from __future__ import annotations

import numpy as np
import pytest

from semidirac import (
    BoxPotential,
    Grid2D,
    GridMismatchError,
    NoPotential,
    Params,
    PerturbationField,
    SpinorField,
    XOnlyPotential,
    inner_product,
    sample,
)


def make_grid():
    return Grid2D(x_min=-3.0, x_max=3.0, y_max=2.0, nx=13, ny=9)


def test_grid_geometry():
    g = make_grid()
    assert g.hx == pytest.approx(0.5)
    assert g.hy == pytest.approx(0.25)
    assert g.n_nodes == 13 * 9
    assert g.reduced_dim == 2 * 13 * 9 - 13
    assert g.x()[0] == -3.0 and g.x()[-1] == 3.0
    assert g.y()[0] == 0.0 and g.y()[-1] == pytest.approx(2.0)
    X, Y = g.meshgrid()
    assert X.shape == (9, 13) and Y.shape == (9, 13)
    assert X[0, 1] == pytest.approx(-2.5)
    assert Y[1, 0] == pytest.approx(0.25)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x_min=1.0, x_max=1.0, y_max=2.0, nx=8, ny=8),
        dict(x_min=0.0, x_max=1.0, y_max=0.0, nx=8, ny=8),
        dict(x_min=0.0, x_max=1.0, y_max=2.0, nx=3, ny=8),
        dict(x_min=0.0, x_max=1.0, y_max=2.0, nx=8, ny=2),
        dict(x_min=np.inf, x_max=1.0, y_max=2.0, nx=8, ny=8),
    ],
)
def test_grid_rejects_bad_shapes(kwargs):
    with pytest.raises(ValueError):
        Grid2D(**kwargs)


def test_edge_weight_is_halved():
    g = make_grid()
    wy = g.weights_y()
    assert wy[0] == pytest.approx(0.5 * g.hy)
    assert np.all(wy[1:] == g.hy)
    assert np.all(g.weights_x() == g.hx)
    W = g.node_weights()
    assert W.shape == (g.ny, g.nx)
    assert W[0, 0] == pytest.approx(0.5 * g.hy * g.hx)
    assert W[1, 0] == pytest.approx(g.hy * g.hx)


def test_sample_vectorized_and_fallback_agree():
    g = make_grid()
    vec = sample(g, lambda x, y: np.sin(x) * np.cos(y))

    def scalar_only(x, y):
        # refuses broadcast input so sample must fall back per node
        return float(np.sin(x)) * float(np.cos(y))

    assert np.allclose(vec, sample(g, scalar_only), atol=0, rtol=0)


def test_sample_rejects_nonfinite():
    g = make_grid()
    with pytest.raises(ValueError, match="non-finite"):
        sample(g, lambda x, y: np.where(x == -3.0, np.nan, 1.0))


def test_spinor_field_shapes_and_bc():
    g = make_grid()
    f = SpinorField.from_callables(g, lambda x, y: np.exp(-x * x - y * y))
    assert f.bc_admissible()
    broken = SpinorField.from_callables(
        g, lambda x, y: np.exp(-x * x - y * y), lambda x, y: y + 1.0
    )
    assert not broken.bc_admissible()
    with pytest.raises(GridMismatchError):
        SpinorField(g, np.zeros((3, 3)), np.zeros((3, 3)))


def test_flatten_roundtrip_exact():
    g = make_grid()
    rng = np.random.default_rng(0)
    u1 = rng.standard_normal((g.ny, g.nx)) + 1j * rng.standard_normal((g.ny, g.nx))
    u2 = rng.standard_normal((g.ny, g.nx)) + 1j * rng.standard_normal((g.ny, g.nx))
    f = SpinorField(g, u1, u2)
    back = SpinorField.unflatten(g, f.flatten())
    assert np.array_equal(back.u1, f.u1)
    assert np.array_equal(back.u2, f.u2)
    with pytest.raises(GridMismatchError):
        SpinorField.unflatten(g, np.zeros(5))


def test_inner_product_is_conjugate_symmetric():
    g = make_grid()
    rng = np.random.default_rng(1)
    shape = (g.ny, g.nx)
    u = SpinorField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                    rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    v = SpinorField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                    rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert inner_product(u, v) == pytest.approx(np.conj(inner_product(v, u)))
    assert u.norm_sq() > 0.0
    other = Grid2D(-3.0, 3.0, 2.0, 13, 10)
    w = SpinorField(other, np.zeros((10, 13)), np.zeros((10, 13)))
    with pytest.raises(GridMismatchError):
        inner_product(u, w)


def test_box_potential_validation_and_sampling():
    with pytest.raises(ValueError):
        BoxPotential(-1.0, 2.0, -3.0)
    with pytest.raises(ValueError):
        BoxPotential(2.0, 1.0, -3.0)
    g = make_grid()
    pot = BoxPotential(0.5, 1.5, -3.0)
    v = pot.sample_on(g)
    X, Y = g.meshgrid()
    inside = (X >= 0.5) & (X <= 1.5) & (Y >= 0.5) & (Y <= 1.5)
    assert np.array_equal(v, np.where(inside, -3.0, 0.0))
    tall = BoxPotential(0.5, 2.5, -3.0)  # exceeds y_max = 2
    with pytest.raises(ValueError, match="does not fit"):
        tall.sample_on(g)


def test_xonly_potential():
    g = make_grid()
    with pytest.raises(ValueError):
        XOnlyPotential(np.array([1.0 + 1j]))
    with pytest.raises(ValueError):
        XOnlyPotential(np.zeros((2, 2)))
    pot = XOnlyPotential.from_callable(g, lambda x: x * x)
    assert np.allclose(pot.values, g.x() ** 2, atol=0)
    v = pot.sample_on(g)
    assert v.shape == (g.ny, g.nx)
    assert np.all(v[0] == v[-1])
    with pytest.raises(GridMismatchError):
        XOnlyPotential(np.zeros(5)).sample_on(g)
    assert isinstance(NoPotential(), object)


def test_perturbation_field_hermiticity_rules():
    g = make_grid()
    shape = (g.ny, g.nx)
    w12 = np.full(shape, 0.5 - 0.25j)
    PerturbationField(g, np.zeros(shape), w12, np.conj(w12), np.zeros(shape))
    with pytest.raises(ValueError, match="conj"):
        PerturbationField(g, np.zeros(shape), w12, w12, np.zeros(shape))
    with pytest.raises(ValueError, match="real"):
        PerturbationField(g, 1j * np.ones(shape), w12, np.conj(w12), np.zeros(shape))
    f = PerturbationField.from_callables(g, w12=lambda x, y: x + 1j * y)
    assert np.array_equal(f.w21, np.conj(f.w12))
    assert np.all(f.w11 == 0.0) and np.all(f.w22 == 0.0)


def test_params_positive_gap():
    assert Params(0.5).delta == 0.5
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            Params(bad)
