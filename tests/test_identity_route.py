"""Counts read off the separable identity: where they are certified they
equal the sparse inertia counts and dense eigvalsh, block by block, and
every way out of the identity route lands on the sparse count."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semidirac import (
    BoxPotential,
    FiberFamily,
    Grid2D,
    Params,
    PerturbationField,
    XOnlyPotential,
    assemble_H,
    assemble_H_eps,
    assemble_square_form,
    assemble_T,
    count_below,
    count_within,
    fiber_operator,
    gap_eigs,
    lowest_of_square,
)
from semidirac.assembly import YGrid, stiffness_x
from semidirac.eigensolve import _sparse_below, _sparse_within
from semidirac.fiber import separable_identity
from semidirac.scan import free_edge
from test_inertia_properties import count_margin

# fixed draws, so a failure reproduces on every run and machine
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
P1 = Params(1.0)
GRID = Grid2D(-3.0, 3.0, 3.0, 13, 9)
FAMILY = FiberFamily(YGrid(GRID.y_max, GRID.ny))


@st.composite
def separable_operators(draw, nx=(5, 15), ny=(4, 9)):
    """T, H with an x-only Gaussian well or bump, and its square form."""
    half = draw(st.floats(2.0, 6.0))
    grid = Grid2D(-half, half, draw(st.floats(2.0, 6.0)),
                  draw(st.integers(*nx)), draw(st.integers(*ny)))
    params = Params(draw(st.floats(0.5, 2.5)))
    kind = draw(st.sampled_from(["T", "xonly", "square"]))
    if kind == "T":
        return assemble_T(grid, params)
    height, centre = draw(st.floats(-3.0, 1.0)), draw(st.floats(-half, half))
    pot = XOnlyPotential.from_callable(grid, lambda x: height * np.exp(-(x - centre) ** 2))
    if kind == "xonly":
        return assemble_H(grid, params, pot)
    return assemble_square_form(grid, params, pot)


def edge_margin(op, radius, center) -> float:
    """How near an edge an eigenvalue of M, or of its identity, may lie.

    Each eigenvalue of M lies within the identity's margin of its identity
    counterpart (Weyl), and the identity route is taken when every identity
    eigenvalue lies farther than that margin from the edges; the sparse
    squared count agrees with eigvalsh past count_margin.  Twice the
    identity's margin beyond count_margin keeps both on their sides.
    """
    return count_margin(op, radius, center) + 2.0 * separable_identity(op).margin


def dense_counts(op, inside) -> list[int]:
    """inside(eigenvalues) counted on each decoupled block of the real
    form, or on the whole of it where it has no blocks (the fibers)."""
    work = op.real_form[0].toarray()
    return [int(np.count_nonzero(inside(np.linalg.eigvalsh(work[np.ix_(idx, idx)]))))
            for idx in op.blocks or (np.arange(op.dim),)]


def dense_within(op, radius) -> int:
    return sum(dense_counts(op, lambda v: np.abs(v) < radius))


@PROPERTY
@given(op=separable_operators(), radius=st.floats(0.05, 4.0),
       center=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       size=st.floats(0.1, 8.0), negative=st.booleans())
def test_identity_counts_equal_sparse_and_dense(op, radius, center, size, negative):
    threshold = -size if negative else size
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    assume(np.min(np.abs(np.abs(lam - center) - radius)) > edge_margin(op, radius, center))
    # 1e-8 as in test_count_below_matches_eigvalsh, past the identity's margin
    assume(np.min(np.abs(lam - threshold)) > 1e-8 + 2.0 * separable_identity(op).margin)
    # an exactly zero diagonal pivot is refused by the sparse count
    assume(np.min(np.abs(op.real_form[0].diagonal() - threshold)) > 1e-8)

    within, below = count_within(op, radius, center), count_below(op, threshold)
    sparse = (_sparse_within(op, radius, center), _sparse_below(op, threshold))
    tests = (lambda v: np.abs(v - center) < radius, lambda v: v < threshold)
    for cert, ref, inside in zip((within, below), sparse, tests):
        assert cert["route"] == "identity" and ref["route"] == "inertia"
        assert cert["count"] == ref["count"] == np.count_nonzero(inside(lam))
        assert cert["block_counts"] == ref["block_counts"] == dense_counts(op, inside)
        assert cert["arithmetic"] == ref["arithmetic"] == "real"
        assert 0.0 <= cert["defect"] <= cert["margin"] < 1e-6
    assert within["radius"] == radius and within["center"] == center
    assert below["threshold"] == threshold


@settings(max_examples=25, deadline=None, derandomize=True)
@given(op=separable_operators(nx=(20, 60), ny=(10, 30)), radius=st.floats(0.05, 4.0),
       center=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
def test_identity_counts_equal_sparse_past_small_grids(op, radius, center):
    identity = np.concatenate(separable_identity(op).blocks)
    assume(np.min(np.abs(np.abs(identity - center) - radius)) > edge_margin(op, radius, center))
    cert = count_within(op, radius, center)
    ref = _sparse_within(op, radius, center)
    assert cert["route"] == "identity"
    assert cert["count"] == ref["count"] and cert["block_counts"] == ref["block_counts"]


def test_an_empty_window_forces_no_rotation():
    """gap_eigs returns a certified zero without the real form or its blocks."""
    T = assemble_T(Grid2D(-20.0, 20.0, 20.0, 81, 41), P1)
    rep = gap_eigs(T, -0.95, 0.95)
    assert rep.certificate["route"] == "identity" and rep.certificate["count"] == 0
    assert rep.certificate["block_counts"] == [0, 0]
    assert "real_form" not in vars(T) and "blocks" not in vars(T)


# ---------------------------------------------------------------------------
# every way out of the identity route: each falls back to the sparse count


def test_a_box_well_is_counted_by_inertia():
    H = assemble_H(GRID, P1, BoxPotential(0.5, 2.5, -2.0))
    assert not H.separable and separable_identity(H) is None
    cert = count_within(H, 0.9)
    assert cert["route"] == "inertia" and cert["count"] == dense_within(H, 0.9)


def test_h_eps_and_the_fibers_are_counted_by_inertia():
    rng = np.random.default_rng(7)
    w11 = rng.standard_normal((GRID.ny, GRID.nx))
    field = PerturbationField(GRID, w11, rng.standard_normal(w11.shape), w11)
    fiber = fiber_operator(0.3, P1, 20, 10.0)
    for op in (assemble_H_eps(GRID, P1, field, 0.5), fiber):
        assert separable_identity(op) is None
        cert = count_within(op, 0.9)
        assert cert["route"] == "inertia" and cert["count"] == dense_within(op, 0.9)


def test_an_edge_on_an_identity_eigenvalue_is_counted_by_inertia():
    """The free edge delta + lambda_min(Kx) is T's unpaired identity
    eigenvalue; a window edge on it, or one ulp either side, lies inside
    the margin.  So does a threshold on the square form's bottom."""
    T = assemble_T(GRID, P1)
    nu = min(float(np.min(np.abs(lam))) for lam in separable_identity(T).blocks)
    for r in (free_edge(GRID, P1), nu, np.nextafter(nu, np.inf), np.nextafter(nu, 0.0)):
        assert count_within(T, r)["route"] == "inertia"
    S = assemble_square_form(GRID, P1, None)
    bottom = min(float(np.min(lam)) for lam in separable_identity(S).blocks)
    assert count_below(S, np.nextafter(bottom, np.inf))["route"] == "inertia"


def test_a_planted_shift_past_the_margin_is_counted_by_inertia():
    """M + eps I moves every eigenvalue by eps, which the identity does not
    see; the defect eps widens the margin past the window edge placed
    between the free edge and its shifted copy, so the count is the
    sparse one, which agrees with dense.  A square form's factors are read
    off its first y row and first x node, so there eps goes on every other
    diagonal entry: the bottom moves by about 0.9 eps, and a threshold
    halfway is counted by inertia."""
    T = assemble_T(GRID, P1)
    eps = 1e-6
    shifted = replace(T, matrix=(T.matrix + eps * sp.identity(T.dim)).tocsr())
    r = free_edge(GRID, P1) + 0.5 * eps
    assert count_within(T, r)["count"] == 1
    cert = count_within(shifted, r)
    assert cert["route"] == "inertia"
    assert cert["count"] == dense_within(shifted, r) == 0
    S = assemble_square_form(GRID, P1, None)
    threshold = min(float(np.min(lam)) for lam in separable_identity(S).blocks) + 0.5 * eps
    assert count_below(S, threshold)["count"] == 1
    unread = (np.arange(S.dim) >= GRID.nx) & (np.arange(S.dim) % GRID.nx != 0)
    shifted = replace(S, matrix=(S.matrix + eps * sp.diags(unread * 1.0)).tocsr())
    cert = count_below(shifted, threshold)
    assert cert["route"] == "inertia"
    assert cert["count"] == np.count_nonzero(np.linalg.eigvalsh(shifted.matrix.toarray()) < threshold)
    assert cert["count"] == 0


def with_coupling(coupling):
    """T on GRID with its unit coupling M_J replaced by coupling:
    kron(M_B, I) + kron(coupling, S), S = Kx + delta I."""
    s = stiffness_x(GRID.nx, GRID.hx) + P1.delta * sp.identity(GRID.nx)
    matrix = sp.kron(FAMILY.base[0].matrix, sp.identity(GRID.nx)) + sp.kron(coupling, s)
    return replace(assemble_T(GRID, P1), matrix=matrix.tocsr())


def test_a_scaled_coupling_is_certified_off_the_identity():
    """kron(M_B, I) + kron((1 + eps) M_J, S) still has the form
    kron(P, I) + kron(Q, X): the reader takes X = (1 + eps) S and Q = M_J,
    so the closed form's unpaired eigenvalue c (1 + eps) is M's, and a
    window edge at c (1 + eps / 2) is certified off the identity with
    dense's count."""
    eps = 1e-6
    op = with_coupling((1.0 + eps) * FAMILY.unit[0].matrix)
    r = free_edge(GRID, P1) * (1.0 + 0.5 * eps)
    assert separable_identity(op).margin < 1e-10
    cert = count_within(op, r)
    assert cert["route"] == "identity"
    assert cert["count"] == dense_within(op, r) == 0


def test_a_coupling_off_its_structure_is_counted_by_inertia():
    """A unit coupling with a symmetric eps entry from u1 row j to u2 row
    j + 1, and its image under the conjugation C (u2 row j to u1 row
    j + 1), still rotates to a real Q, and M is still kron(P, I) +
    kron(Q, X).  But R_Q is not J0, which the closed form takes: the
    structural term eps ||X||_inf widens the margin, and a window edge
    next to the free edge is counted by inertia, which agrees with dense."""
    eps, ny, j = 1e-6, GRID.ny, 2
    # u1 row k is unknown k, u2 row k >= 1 is unknown ny + k - 1
    rows, cols = [j, ny + j - 1], [ny + j, j + 1]
    off = sp.csr_matrix((np.full(4, eps), (rows + cols, cols + rows)), shape=(2 * ny - 1,) * 2)
    op = with_coupling(FAMILY.unit[0].matrix + off)
    x_norm = abs(op.matrix[:GRID.nx, :GRID.nx]).sum(axis=1).max()
    assert separable_identity(op).margin >= eps * x_norm
    r = free_edge(GRID, P1) * (1.0 + 0.5 * eps)
    cert = count_within(op, r)
    assert cert["route"] == "inertia"
    assert cert["count"] == dense_within(op, r)


def test_a_zero_entry_of_x_is_not_read():
    """A well v0 = v1 = -(2/hx^2 + delta) zeroes S's first two diagonal
    entries, so the square form's X[0, 1] = S01 (S00 + S11) is exactly 0.
    The reader takes Q at X's largest off-diagonal entry instead, and the
    bottom is certified off the identity."""
    v = np.zeros(GRID.nx)
    v[:2] = -(2.0 / GRID.hx**2 + P1.delta)
    S = assemble_square_form(GRID, P1, XOnlyPotential(v))
    assert S.matrix[0, 1] == 0.0
    rep = lowest_of_square(S, 1)
    assert rep.certificate["below"]["route"] == "identity"
    assert rep.eigenvalues[0] == pytest.approx(1.780564137425852, rel=1e-12)
