"""The decoupled blocks of the real form: what they are, that the counts
taken one block at a time are the whole matrix's, and that only one
block's factor is alive at a time."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import semidirac.eigensolve
from semidirac import (
    BoxPotential,
    ConvergenceError,
    Grid2D,
    Params,
    XOnlyPotential,
    assemble_H,
    assemble_square_form,
    assemble_T,
    count_within,
    fiber_operator,
)
from semidirac.assembly import SQUARE_FORM
from semidirac.eigensolve import _sparse_below, _sparse_within

# fixed draws, so a failure reproduces on every run and machine
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
P1 = Params(1.0)


@st.composite
def operators(draw):
    """Small T, box-well H, x-only H and square forms on random grids."""
    half = draw(st.floats(2.0, 6.0))
    y_max = draw(st.floats(2.0, 6.0))
    grid = Grid2D(-half, half, y_max, draw(st.integers(5, 15)), draw(st.integers(4, 9)))
    params = Params(draw(st.floats(0.5, 2.5)))
    kind = draw(st.sampled_from(["T", "box", "xonly", "square"]))
    if kind == "T":
        return assemble_T(grid, params)
    if kind == "box":
        a = draw(st.floats(0.1, 1.0))
        b = draw(st.floats(a + 0.5, min(half, y_max)))
        return assemble_H(grid, params, BoxPotential(a, b, draw(st.floats(-4.0, 0.0))))
    height = draw(st.floats(-2.0, 1.0))
    pot = XOnlyPotential.from_callable(grid, lambda x: height * np.exp(-x * x))
    if kind == "xonly":
        return assemble_H(grid, params, pot)
    return assemble_square_form(grid, params, pot)


def block_parity(op) -> np.ndarray:
    """Per real-basis column: sector xor (row j mod 2) for a first-order
    operator, the sector alone for a square form.

    Columns below dim - m are the merged edge and the (e1 + e2)/sqrt(2)
    sector on u1 slot k; the last m are i (e1 - e2)/sqrt(2) on u1 slot
    k - m (assembly.conjugation_basis).
    """
    nx = op.grid.nx
    m = (op.dim - nx) // 2
    col = np.arange(op.dim)
    sector = (col >= op.dim - m).astype(int)
    if op.kind == SQUARE_FORM:
        return sector
    row = np.where(sector == 1, col - m, col) // nx
    return sector ^ (row % 2)


@PROPERTY
@given(op=operators())
def test_blocks_are_the_decoupled_parity_classes(op):
    blocks = op.blocks
    assert len(blocks) == 2
    joined = np.concatenate(blocks)
    assert np.array_equal(np.sort(joined), np.arange(op.dim))
    for idx in blocks:
        assert np.all(np.diff(idx) > 0)
    work = op.real_form[0]
    a, b = blocks
    # not one entry between the blocks, not even a stored zero
    assert work[a][:, b].nnz == 0 and work[b][:, a].nnz == 0
    parity = block_parity(op)
    assert np.unique(parity[a]).tolist() == [0]
    assert np.unique(parity[b]).tolist() == [1]


@PROPERTY
@given(op=operators(), radius=st.floats(0.05, 4.0),
       size=st.floats(0.1, 8.0), negative=st.booleans())
def test_block_counts_are_the_blocks_eigenvalue_counts(op, radius, size, negative):
    threshold = -size if negative else size
    work = op.real_form[0]
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    assume(np.min(np.abs(np.abs(lam) - radius)) > 1e-8)
    assume(np.min(np.abs(lam - threshold)) > 1e-8)
    # an exactly zero diagonal pivot is refused (test_eigensolve)
    assume(np.min(np.abs(work.diagonal() - threshold)) > 1e-8)

    within = _sparse_within(op, radius, 0.0)
    below = _sparse_below(op, threshold)
    dense = work.toarray()
    for b, idx in enumerate(op.blocks):
        lam_b = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])
        assert within["block_counts"][b] == np.count_nonzero(np.abs(lam_b) < radius)
        assert below["block_counts"][b] == np.count_nonzero(lam_b < threshold)
    assert within["count"] == sum(within["block_counts"])
    assert within["count"] == np.count_nonzero(np.abs(lam) < radius)
    assert below["count"] == sum(below["block_counts"])
    assert below["count"] == np.count_nonzero(lam < threshold)
    for cert in (within, below):
        assert cert["symmetric_order"] is True
        assert cert["growth"] >= 1.0 and cert["min_pivot"] > 0.0 and cert["fill"] >= 1.0


@PROPERTY
@given(xi=st.floats(-2.0, 2.0), ny=st.integers(4, 60), y_max=st.floats(2.0, 20.0),
       radius=st.floats(0.05, 4.0))
def test_fibers_and_bare_matrices_are_counted_whole(xi, ny, y_max, radius):
    op = fiber_operator(xi, P1, ny, y_max)
    assert op.blocks is None
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    assume(np.min(np.abs(np.abs(lam) - radius)) > 1e-8)
    cert = count_within(op, radius)
    assert cert["block_counts"] == [cert["count"]]
    assert cert["count"] == np.count_nonzero(np.abs(lam) < radius)
    bare = count_within(op.real_form[0], radius)
    assert bare["block_counts"] == [cert["count"]]
    assert bare["fill"] == cert["fill"]


class _Reordered:
    """A SuperLU factor whose row permutation is rolled by one."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)

    @property
    def perm_r(self):
        return np.roll(self._lu.perm_r, 1)


@pytest.mark.parametrize("count, value, shift", [
    (lambda op, value: _sparse_within(op, value, 0.0), 0.5, "0.25"),
    (_sparse_below, 0.5, "0.5"),
], ids=["count_within-0.5-0.25", "count_below-0.5-0.5"])
def test_a_broken_order_in_one_block_names_the_block(monkeypatch, count, value, shift):
    exact = semidirac.eigensolve._factor
    sizes = []

    def second_block_leaves_the_order(matrix, at, diag_pivot_thresh=1.0):
        lu, nnz = exact(matrix, at, diag_pivot_thresh)
        sizes.append(matrix.shape[0])
        return (_Reordered(lu) if len(sizes) == 2 else lu), nnz

    monkeypatch.setattr(semidirac.eigensolve, "_factor", second_block_leaves_the_order)
    op = assemble_T(Grid2D(-3.0, 3.0, 3.0, 13, 9), P1)
    with pytest.raises(ConvergenceError,
                       match=f"symmetric order at shift {shift} in block 1 of 2"):
        count(op, value)
    # the first block was factored and passed; the second was its own factor
    assert sizes == [len(idx) for idx in op.blocks]


def test_the_count_keeps_one_blocks_factor_alive():
    """The Python-visible peak of a gap count at 161x81, rotation included,
    stays below the CSC copies of L and U of the whole factor, which is
    what counting the whole matrix at once holds on top of everything else.
    """
    op = assemble_T(Grid2D(-20.0, 20.0, 20.0, 161, 81), P1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cert = _sparse_within(op, 0.3, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert cert["count"] == 0 and len(cert["block_counts"]) == 2
    work = op.real_form[0]
    squared = sp.csr_matrix(work @ work)
    # fill = nnz(L + U) / nnz(R^2 - r^2 I), and R^2 has a nonzero diagonal
    factor_nnz = cert["fill"] * squared.nnz
    # a CSC copy holds an 8-byte value and a 4-byte row index per entry
    assert peak < 12 * factor_nnz
