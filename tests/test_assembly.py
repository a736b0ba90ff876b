"""Discrete operators: exact Hermiticity, consistency, and the square form."""

from __future__ import annotations

import io
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from semidirac import assembly
from semidirac import (
    BoxPotential,
    Grid2D,
    NoPotential,
    Params,
    SpinorField,
    XOnlyPotential,
    apply,
    assemble_H,
    assemble_H_eps,
    assemble_square_form,
    assemble_T,
    box_perturbation,
    count_within,
    dense_eigs,
    PerturbationField,
    export_coordinate_text,
    fiber_operator,
    first_derivative_y,
    gap_eigs,
    lowest_of_square,
    read_coordinate_text,
    stiffness_x,
)

P1 = Params(1.0)
P2 = Params(2.0)


def small_grid():
    return Grid2D(-3.0, 3.0, 3.0, 13, 9)


def operators_under_test():
    g = small_grid()
    field = box_perturbation(-1.0, (-1.0, 1.0, 0.5, 1.5)).sample_on(g)
    return [
        assemble_T(g, P1),
        assemble_T(g, P2),
        assemble_H(g, P1, BoxPotential(0.5, 1.5, -2.0)),
        assemble_H(g, P1, XOnlyPotential.from_callable(g, lambda x: np.exp(-x * x))),
        assemble_H_eps(g, P1, field, 0.7),
        assemble_square_form(g, P1, None),
        assemble_square_form(g, P1, XOnlyPotential(np.ones(g.nx))),
    ]


def test_hermiticity_is_exact_not_approximate():
    # the weight rescaling must make M and M^H identical bit for bit
    g = Grid2D(-20.0, 20.0, 20.0, 101, 51)
    gaussian = XOnlyPotential.from_callable(g, lambda x: np.exp(-x * x))
    for op in operators_under_test() + [assemble_square_form(g, P1, gaussian)]:
        assert op.sym_defect == 0.0
        d = abs(op.matrix - op.matrix.getH())
        assert d.nnz == 0 or d.max() == 0.0


def test_planted_anti_hermitian_entry_is_refused(monkeypatch):
    """A defect of relative size 1e-6 is a bug, not roundoff."""
    original = assembly._first_order_blocks

    def planted(grid, params):
        A11, S, A22, W2 = original(grid, params)
        A11 = A11.tolil()
        A11[5, 5] = 1e-6j * abs(A11).max()
        return A11.tocsr(), S, A22, W2

    monkeypatch.setattr(assembly, "_first_order_blocks", planted)
    with pytest.raises(AssertionError, match="not Hermitian"):
        assemble_T(small_grid(), P1)


def test_reduced_dimension_counts_merged_edge():
    for nx, ny in ((13, 9), (21, 11)):
        g = Grid2D(-3.0, 3.0, 3.0, nx, ny)
        assert assemble_T(g, P1).dim == 2 * nx * ny - nx
        assert assemble_square_form(g, P1, None).dim == 2 * nx * ny - nx


def test_field_vector_roundtrip():
    g = small_grid()
    T = assemble_T(g, P1)
    rng = np.random.default_rng(3)
    u1 = rng.standard_normal((g.ny, g.nx)) + 1j * rng.standard_normal((g.ny, g.nx))
    u2 = rng.standard_normal((g.ny, g.nx)) + 1j * rng.standard_normal((g.ny, g.nx))
    u2[0] = u1[0]  # edge identification requires matching traces
    f = SpinorField(g, u1, u2)
    back = T.vector_to_field(T.field_to_vector(f))
    assert np.max(np.abs(back.u1 - f.u1)) < 1e-13
    assert np.max(np.abs(back.u2 - f.u2)) < 1e-13


def test_first_derivative_is_summation_by_parts():
    # Omega D + (Omega D)^T must reduce to the boundary terms alone
    ny, hy = 12, 0.25
    D, omega = first_derivative_y(ny, hy)
    B = ((sp.diags(omega) @ D) + (sp.diags(omega) @ D).T).toarray()
    assert B[0, 0] == pytest.approx(-1.0, abs=1e-14)
    off = B - np.diag(np.diag(B))
    assert np.max(np.abs(off)) == 0.0
    assert np.max(np.abs(np.diag(B)[1:])) < 1e-14


def test_stiffness_ghost_zero_walls():
    K = stiffness_x(6, 0.5).toarray()
    assert K[0, 0] == pytest.approx(8.0)   # 2/h^2 with the ghost dropped
    assert K[0, 1] == pytest.approx(-4.0)
    assert K[0, 2] == 0.0
    assert np.allclose(K[2, 1:4], [-4.0, 8.0, -4.0])
    assert np.array_equal(K, K.T)


def smooth_trial(grid):
    X, Y = grid.meshgrid()
    amp = np.exp(-(X**2) - (Y - 2.0) ** 2)
    win = np.sin(np.pi * Y / grid.y_max) ** 4
    u = amp * win
    return SpinorField(grid, u, u)


def action_closed_form(grid, delta):
    X, Y = grid.meshgrid()
    L = grid.y_max
    s, c = np.sin(np.pi * Y / L), np.cos(np.pi * Y / L)
    amp = np.exp(-(X**2) - (Y - 2.0) ** 2)
    win = s**4
    u = amp * win
    uy = -2.0 * (Y - 2.0) * amp * win + amp * 4.0 * s**3 * c * np.pi / L
    uxx = (4.0 * X**2 - 2.0) * amp * win
    r1 = -1j * uy - uxx + delta * u
    r2 = -uxx + delta * u + 1j * uy
    return r1, r2


def test_apply_matches_symbol_at_second_order():
    errs = []
    for n in (81, 161):
        g = Grid2D(-4.0, 4.0, 6.0, n, int(0.75 * (n - 1)) + 1)
        out = apply(assemble_T(g, P1), smooth_trial(g))
        r1, r2 = action_closed_form(g, 1.0)
        sel = slice(1, None)  # skip the one-sided edge row
        errs.append(max(np.max(np.abs(out.u1[sel] - r1[sel])),
                        np.max(np.abs(out.u2[sel] - r2[sel]))))
    assert errs[0] < 2e-2
    assert errs[1] < 4e-3
    assert errs[0] / errs[1] > 3.4


def quadratic_form_parts(grid, delta):
    """Gaussian trial and its four-term energy by grid quadrature."""
    X, Y = grid.meshgrid()
    e = np.exp(-(X**2) - (Y - 2.0) ** 2)
    uy = -2.0 * (Y - 2.0) * e
    ux = -2.0 * X * e
    uxx = (4.0 * X**2 - 2.0) * e
    dens = np.abs(uy) ** 2 + np.abs(uxx) ** 2 + 2.0 * delta * np.abs(ux) ** 2 + delta**2 * e**2
    return 2.0 * float(np.sum(grid.node_weights() * dens)), e


def test_square_form_reproduces_derivative_energy():
    # <z, S z> against the dy/dxx/dx/mass reading of the same trial
    rels = []
    for n in (129, 257):
        g = Grid2D(-4.5, 4.5, 7.0, n, n)
        qa, u = quadratic_form_parts(g, 1.0)
        S = assemble_square_form(g, P1, NoPotential())
        z = S.field_to_vector(SpinorField(g, u, u))
        qs = float(np.real(np.vdot(z, S.matrix @ z)))
        rels.append(abs(qs - qa) / qa)
    assert rels[0] < 5e-3
    assert rels[1] < 1e-3
    assert rels[0] / rels[1] > 3.0


def test_quadrature_reading_matches_closed_form():
    # closed-form full-plane Gaussian moments; the y < 0 tail is ~1e-4 relative
    g = Grid2D(-4.5, 4.5, 7.0, 257, 257)
    qa, _ = quadratic_form_parts(g, 1.0)
    sq = np.sqrt(np.pi / 2.0)
    i_u = sq * sq
    i_uxx = (3.0 * sq - 4.0 * sq + 4.0 * sq) * sq
    closed = 2.0 * (i_u + i_uxx + 2.0 * i_u + i_u)
    assert abs(qa - closed) / closed < 2e-4


def test_free_gap_has_no_spectrum():
    g = Grid2D(-10.0, 10.0, 10.0, 41, 21)
    T = assemble_T(g, P1)
    window = count_within(T, 0.9)
    assert window["count"] == 0
    rep = gap_eigs(T, -0.9, 0.9, k=4)
    assert rep.k == 0
    assert rep.certificate["certified"]


def test_constant_potential_shifts_square_bottom():
    # with V = 1 the bottom must settle toward (delta + V)^2 = 4 as the
    # domain grows; wall quantization keeps it strictly above
    vals = {}
    for L in (10.0, 20.0):
        nx = 2 * int(L / 0.5) + 1
        ny = int(L / 0.5) + 1
        g = Grid2D(-L, L, L, nx, ny)
        S = assemble_square_form(g, P1, XOnlyPotential(np.ones(nx)))
        vals[L] = float(lowest_of_square(S, k=1).eigenvalues[0])
    assert vals[10.0] == pytest.approx(4.1123485127668484, rel=1e-6)
    assert vals[20.0] == pytest.approx(4.0293872213461217, rel=1e-6)
    assert 4.0 < vals[20.0] < vals[10.0]


def test_box_well_pulls_state_into_gap():
    g = Grid2D(-6.0, 11.0, 11.0, 35, 21)
    H = assemble_H(g, P2, BoxPotential(1.0, 1.0 + np.pi, -3.0))
    rep = dense_eigs(H)
    lam = rep.eigenvalues
    assert np.min(np.abs(lam)) == pytest.approx(0.4552230658310274, rel=1e-8)
    assert int(np.sum(np.abs(lam) < 0.95 * 2.0)) == 24


def test_square_form_rejects_box_potential():
    g = small_grid()
    with pytest.raises(ValueError, match="y-constant"):
        assemble_square_form(g, P1, BoxPotential(0.5, 1.5, -1.0))


def test_eps_zero_reduces_to_free_operator():
    g = small_grid()
    field = box_perturbation(-1.0, (-1.0, 1.0, 0.5, 1.5)).sample_on(g)
    T = assemble_T(g, P1)
    H0 = assemble_H_eps(g, P1, field, 0.0)
    assert abs(T.matrix - H0.matrix).max() == 0.0
    lin = (assemble_H_eps(g, P1, field, 2.0).matrix - T.matrix) - 2.0 * (
        assemble_H_eps(g, P1, field, 1.0).matrix - T.matrix
    )
    assert abs(lin).max() == 0.0


def test_coordinate_text_roundtrip_is_exact():
    g = small_grid()
    T = assemble_T(g, P1)
    text = export_coordinate_text(T)
    dims = next(line for line in text.splitlines() if not line.startswith("%")).split()
    assert int(dims[0]) == T.dim and int(dims[1]) == T.dim
    M = read_coordinate_text(text)
    assert abs(M - T.matrix).max() == 0.0


def assert_same_bits(a: sp.spmatrix, b: sp.spmatrix):
    a, b = sp.csr_matrix(a, dtype=np.complex128), sp.csr_matrix(b, dtype=np.complex128)
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


@st.composite
def exported_operators(draw):
    """T, H with x-only Gaussian and box potentials, square forms, H_eps, fibers."""
    params = Params(draw(st.floats(0.5, 2.5)))
    kind = draw(st.sampled_from(["T", "H-gaussian", "H-box", "square", "H_eps", "fiber"]))
    if kind == "fiber":
        return fiber_operator(draw(st.floats(-2.0, 2.0)), params,
                              draw(st.integers(4, 40)), draw(st.floats(2.0, 20.0)))
    half = draw(st.floats(2.0, 6.0))
    y_max = draw(st.floats(2.0, 6.0))
    grid = Grid2D(-half, half, y_max, draw(st.integers(5, 15)), draw(st.integers(4, 9)))
    height = draw(st.floats(-2.0, 2.0))
    gaussian = XOnlyPotential.from_callable(grid, lambda x: height * np.exp(-x * x))
    if kind == "T":
        return assemble_T(grid, params)
    if kind == "H-gaussian":
        return assemble_H(grid, params, gaussian)
    if kind == "H-box":
        a = draw(st.floats(0.1, 1.0))
        b = draw(st.floats(a + 0.5, min(half, y_max)))
        return assemble_H(grid, params, BoxPotential(a, b, draw(st.floats(-4.0, 0.0))))
    if kind == "square":
        return assemble_square_form(grid, params, gaussian)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (grid.ny, grid.nx)
    w12 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    field = PerturbationField(grid, rng.standard_normal(shape), w12, rng.standard_normal(shape))
    return assemble_H_eps(grid, params, field, draw(st.floats(0.1, 2.0)))


def assert_reads_back(text: str, matrix: sp.spmatrix):
    """scipy.io.mmread itself and read_coordinate_text both return matrix bit for bit."""
    assert_same_bits(scipy.io.mmread(io.StringIO(text)), matrix)
    assert_same_bits(read_coordinate_text(text), matrix)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(op=exported_operators())
def test_export_is_matrix_market_read_back_bit_for_bit(op):
    text = export_coordinate_text(op)
    field = "complex" if op.matrix.dtype.kind == "c" else "real"
    assert text.startswith(f"%%MatrixMarket matrix coordinate {field} general\n")
    assert_reads_back(text, op.matrix)


@pytest.mark.parametrize("nnz", [7, 8192])
def test_grouped_export_keeps_signed_zeros_and_repeats(nnz):
    # every sign of zero in both parts and values repeated across rows, in an
    # export of a few entries and in one of thousands
    vals = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                     0.0, 1.5 - 2.5j, 1.5 - 2.5j, -1.5, 0.1 + 0.1j, 1e-300, -7.0])
    rng = np.random.default_rng(5)
    n = 400
    flat = rng.choice(n * n, nnz, replace=False)
    data = rng.permutation(np.resize(vals, nnz))
    M = sp.csr_matrix((data, (flat // n, flat % n)), shape=(n, n))
    text = export_coordinate_text(SimpleNamespace(matrix=M))
    assert_reads_back(text, M)
    assert " -0 0\n" in text and " 0 -0\n" in text and " -0 -0\n" in text
    empty = sp.csr_matrix((3, 3), dtype=np.complex128)
    assert_reads_back(export_coordinate_text(SimpleNamespace(matrix=empty)), empty)
