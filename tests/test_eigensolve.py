"""Solver routes checked against dense LAPACK and against each other."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from semidirac import (
    BoxPotential,
    ConvergenceError,
    Grid2D,
    Params,
    XOnlyPotential,
    assemble_H,
    assemble_square_form,
    assemble_T,
    count_below,
    count_within,
    dense_eigs,
    gap_eigs,
    lowest_of_square,
    nearest_eigenvalues,
    participation_ratio,
)

P1 = Params(1.0)
P2 = Params(2.0)


def random_tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    main = rng.standard_normal(n)
    off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    return sp.diags([np.conj(off), main, off], [-1, 0, 1]).tocsr()


@pytest.fixture(scope="module")
def box_case():
    """Dense-solvable well with in-gap states, shared across oracle tests."""
    g = Grid2D(-6.0, 11.0, 11.0, 35, 21)
    H = assemble_H(g, P2, BoxPotential(1.0, 1.0 + np.pi, -3.0))
    return H, dense_eigs(H)


def test_dense_matches_lapack_directly():
    A = random_tridiagonal(80, seed=5)
    rep = dense_eigs(A)
    ref = np.linalg.eigvalsh(A.toarray())
    assert np.max(np.abs(rep.eigenvalues - ref)) < 1e-12
    assert np.all(np.diff(rep.eigenvalues) >= 0.0)
    assert rep.residuals.max() < 1e-11
    assert rep.method == "dense"


def test_dense_refuses_dimensions_over_cap():
    A = random_tridiagonal(300, seed=5)
    with pytest.raises(ValueError, match="cap"):
        dense_eigs(A, cap=100)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_count_within_agrees_with_dense(seed):
    A = random_tridiagonal(300, seed=seed)
    lam = np.linalg.eigvalsh(A.toarray())
    for r in (0.5, 1.5, 3.0):
        got = count_within(A, r)
        assert got["count"] == int(np.sum(np.abs(lam) < r))
        assert got["radius"] == r
    with pytest.raises(ValueError):
        count_within(A, -1.0)


@pytest.mark.parametrize("seed", [21, 22])
def test_count_below_agrees_with_dense(seed):
    A = random_tridiagonal(300, seed=seed)
    S = (A @ A + 0.1 * sp.eye(300)).tocsr()
    lam = np.linalg.eigvalsh(S.toarray())
    for t in (1.0, 4.0):
        assert count_below(S, t)["count"] == int(np.sum(lam < t))


def test_gap_eigs_certifies_empty_window():
    g = Grid2D(-10.0, 10.0, 10.0, 41, 21)
    rep = gap_eigs(assemble_T(g, P1), -0.9, 0.9, k=4)
    assert rep.k == 0
    assert rep.certificate["certified"] is True
    assert rep.certificate["count"] == 0
    assert rep.eigenvalues.shape == (0,)


def test_gap_eigs_matches_dense_oracle(box_case):
    H, ref = box_case
    rep = gap_eigs(H, -1.9, 1.9, k=4, tol=1e-10, seed=0)
    assert rep.certificate["count"] == 24
    lam = ref.eigenvalues
    want = np.sort(lam[np.argsort(np.abs(lam))[: rep.k]])
    assert np.max(np.abs(np.sort(rep.eigenvalues) - want)) < 1e-8


def test_nearest_matches_dense_oracle(box_case):
    H, ref = box_case
    rep = nearest_eigenvalues(H, 0.4, k=3, tol=1e-10, seed=0)
    lam = ref.eigenvalues
    want = np.sort(lam[np.argsort(np.abs(lam - 0.4))[:3]])
    assert np.max(np.abs(np.sort(rep.eigenvalues) - want)) < 1e-8


def test_lowest_of_square_matches_dense_oracle():
    g = Grid2D(-3.0, 3.0, 3.0, 13, 9)
    S = assemble_square_form(g, P1, XOnlyPotential(np.ones(13)))
    ref = dense_eigs(S)
    rep = lowest_of_square(S, k=2, tol=1e-9, seed=0)
    assert np.max(np.abs(rep.eigenvalues[:2] - ref.eigenvalues[:2])) < 1e-7
    assert count_below(S, float(ref.eigenvalues[2]) * 0.999999)["count"] == 2
    assert rep.certificate["certified"] and rep.certificate["below"]["count"] == 2
    # a short result is refused, not returned with fewer than k pairs
    with pytest.raises(ConvergenceError, match="within 20 iterations"):
        lowest_of_square(S, k=3, tol=1e-9, max_iter=20, seed=0)


def test_starved_solver_raises_with_history():
    g = Grid2D(-3.0, 3.0, 3.0, 13, 9)
    T = assemble_T(g, P1)
    with pytest.raises(ConvergenceError, match="within 1 iterations") as info:
        nearest_eigenvalues(T, 0.95, k=4, tol=1e-14, max_iter=1)
    assert len(info.value.history) >= 1


def test_gap_eigs_rejects_bad_requests():
    g = Grid2D(-3.0, 3.0, 3.0, 13, 9)
    T = assemble_T(g, P1)
    with pytest.raises(ValueError):
        gap_eigs(T, 1.0, -1.0)
    with pytest.raises(ValueError):
        gap_eigs(T, -1.0, 1.0, k=0)
    # ARPACK needs k < dim - 1; the dimension-28 T of a 4x4 grid allows 26
    small = assemble_T(Grid2D(-3.0, 3.0, 3.0, 4, 4), P1)
    for k in (27, 29):
        with pytest.raises(ValueError, match="dimension 28"):
            gap_eigs(small, -10.0, 10.0, k=k)
        with pytest.raises(ValueError, match="dimension 28"):
            nearest_eigenvalues(small, 0.5, k=k)


def test_low_precision_input_is_solved_in_double():
    # ARPACK runs in the matrix's dtype, so float32 input must be promoted
    D = np.diag(np.arange(1.0, 9.0)).astype(np.float32)
    rep = nearest_eigenvalues(D, 2.2, k=2, tol=1e-12)
    assert np.max(np.abs(rep.eigenvalues - [2.0, 3.0])) < 1e-12


def test_broken_factorizations_raise_naming_the_shift():
    # the shift is never moved: no diagonal pivot, or a singular factor, fails
    g = Grid2D(-3.0, 3.0, 3.0, 13, 9)
    with pytest.raises(ConvergenceError, match="symmetric order at shift 0.0"):
        count_below(assemble_T(g, P1), 0.0)
    D = sp.diags([1.0, 2.0, 3.0]).tocsr()
    with pytest.raises(ConvergenceError, match="singular at shift 2.0"):
        count_below(D, 2.0)
    with pytest.raises(ConvergenceError, match="singular at shift 2.0"):
        nearest_eigenvalues(D, 2.0)


def test_participation_ratio_limits():
    n = 64
    assert participation_ratio(np.ones(n)) == pytest.approx(1.0)
    one_hot = np.zeros(n)
    one_hot[7] = 3.0
    assert participation_ratio(one_hot) == pytest.approx(1.0 / n)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pr = participation_ratio(v)
    assert 0.0 < pr <= 1.0


def test_bound_state_vector_is_localized(box_case):
    H, _ = box_case
    rep = gap_eigs(H, -1.9, 1.9, k=2, tol=1e-8, seed=0)
    i = int(np.argmin(np.abs(rep.eigenvalues)))
    assert rep.participation[i] < 0.2
    assert rep.y_decay[i] < 0.0


def test_reports_carry_unit_vectors(box_case):
    H, ref = box_case
    norms = np.linalg.norm(ref.eigenvectors, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
