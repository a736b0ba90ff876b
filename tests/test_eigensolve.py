"""Solver routes checked against dense LAPACK and against each other."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from semidirac import (
    BoxPotential,
    ConvergenceError,
    Grid2D,
    Params,
    SpinorField,
    XOnlyPotential,
    assemble_H,
    assemble_square_form,
    assemble_T,
    count_below,
    count_within,
    dense_eigs,
    fiber_operator,
    gap_eigs,
    lowest_of_square,
    nearest_eigenvalues,
    participation_ratio,
    y_decay_rate,
)
from semidirac.eigensolve import (
    DENSE_CAP_DEFAULT,
    SpectrumReport,
    _block_inertia,
    _fix_phase,
    bottom_above_gap_square,
)
from semidirac.scan import window_evidence

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
    # refused from the shape, before a dense copy is made
    with pytest.raises(ValueError, match="cap"):
        dense_eigs(sp.identity(DENSE_CAP_DEFAULT + 1))


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


def test_gap_eigs_certifies_an_asymmetric_window(box_case):
    """A window off centre is counted like a symmetric one, by the squared
    count re-centred on its midpoint, and the pairs found are the dense
    ones inside it (k covers them all, so the two nearest outside are
    found and dropped)."""
    H, ref = box_case
    lo, hi = -0.5, 1.5
    lam = ref.eigenvalues
    want = np.sort(lam[(lo <= lam) & (lam <= hi)])
    rep = gap_eigs(H, lo, hi, k=want.size + 2, tol=1e-10, seed=0)
    cert = rep.certificate
    assert cert["certified"] is True
    assert cert["count"] == want.size == 9
    assert cert["center"] == 0.5 and cert["radius"] == 1.0 and cert["shift_squared"] == 1.0
    assert cert["count"] == count_within(H, 1.0, 0.5)["count"]
    assert sum(cert["block_counts"]) == cert["count"]
    assert rep.k == want.size
    assert np.max(np.abs(np.sort(rep.eigenvalues) - want)) < 1e-8
    evidence = window_evidence(rep)
    assert evidence["count"] == 9 and evidence["certified"] is True
    assert evidence["block_counts"] == cert["block_counts"]


def test_count_within_at_center_zero_factors_the_plain_square(box_case, monkeypatch):
    """Centre 0 factors R_b @ R_b itself, bit for bit, with no shift by 0."""
    H, _ = box_case
    factored = []
    monkeypatch.setattr("semidirac.eigensolve._block_inertia",
                        lambda m, shift, block: factored.append(m) or _block_inertia(m, shift, block))
    cert = count_within(H, 1.9)
    work = H.real_form[0]
    for m, idx in zip(factored, H.blocks):
        r = work[idx][:, idx]
        want = (r @ r).tocsr()
        assert np.array_equal(m.indptr, want.indptr) and np.array_equal(m.indices, want.indices)
        assert np.array_equal(m.data.view(np.uint64), want.data.view(np.uint64))
    assert cert["center"] == 0.0 and len(factored) == 2


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
    rep = lowest_of_square(S, k=2)
    assert np.max(np.abs(rep.eigenvalues[:2] - ref.eigenvalues[:2])) < 1e-7
    assert count_below(S, float(ref.eigenvalues[2]) * 0.999999)["count"] == 2
    assert rep.certificate["certified"] and rep.certificate["below"]["count"] == 2


def gaussian_square_form(nx, ny, height=1.0):
    g = Grid2D(-20.0, 20.0, 20.0, nx, ny)
    return assemble_square_form(g, P1, XOnlyPotential.from_callable(g, lambda x: height * np.exp(-x * x)))


def test_lowest_of_square_runs_no_eigensolver(monkeypatch):
    """The bottom comes from the Kronecker-sum identity: ARPACK agrees with
    it past the dense cap, but lowest_of_square runs no shift-invert solve
    and keeps one count_below record equal to k, midway to the next level."""
    import semidirac.eigensolve

    S = gaussian_square_form(81, 41)
    arpack = nearest_eigenvalues(S, 0.0, k=3).eigenvalues

    def refuse(*args, **kwargs):
        raise AssertionError("lowest_of_square must not run ARPACK")

    monkeypatch.setattr(semidirac.eigensolve, "eigsh", refuse)
    monkeypatch.setattr(semidirac.eigensolve, "_run_shift_invert", refuse)
    rep = lowest_of_square(S, k=2)
    assert np.max(np.abs(rep.eigenvalues - arpack[:2])) <= 1e-10 * arpack[1]
    cert = rep.certificate
    assert cert["iterations"] == 0 and cert["certified"] and cert["count"] == 2
    assert cert["below"]["count"] == 2 and cert["arithmetic"] == "real"
    assert arpack[1] < cert["below"]["threshold"] < arpack[2]


def test_lowest_of_square_refuses_a_skipped_pair(monkeypatch):
    """An identity that skips its lowest pair still returns true eigenpairs,
    so only the count can catch it."""
    import semidirac.eigensolve

    exact = semidirac.eigensolve.square_form_pairs

    def skipping(op, count):
        vals, vecs = exact(op, count + 1)
        return vals[1:], vecs[:, 1:]

    monkeypatch.setattr(semidirac.eigensolve, "square_form_pairs", skipping)
    with pytest.raises(ConvergenceError, match="but inertia counts 2") as info:
        lowest_of_square(gaussian_square_form(41, 21), k=1)
    assert info.value.history[0]["count"] == 2


def test_lowest_of_square_refuses_a_wrong_vector(monkeypatch):
    import semidirac.eigensolve

    exact = semidirac.eigensolve.square_form_pairs

    def rolled(op, count):
        vals, vecs = exact(op, count)
        return vals, np.roll(vecs, 1, axis=0)

    monkeypatch.setattr(semidirac.eigensolve, "square_form_pairs", rolled)
    with pytest.raises(ConvergenceError, match="identity pair residual"):
        lowest_of_square(gaussian_square_form(41, 21), k=1)


def test_lowest_of_square_refuses_a_rolled_band_vector(monkeypatch):
    """A wrong x factor vector from LAPACK is caught on the assembled form."""
    import semidirac.fiber

    exact = semidirac.fiber.eig_banded

    def rolled(*args, **kwargs):
        if kwargs.get("eigvals_only"):  # the identity's count takes no vectors
            return exact(*args, **kwargs)
        vals, vecs = exact(*args, **kwargs)
        return vals, np.roll(vecs, 1, axis=0)

    monkeypatch.setattr(semidirac.fiber, "eig_banded", rolled)
    with pytest.raises(ConvergenceError, match="identity pair residual"):
        lowest_of_square(gaussian_square_form(41, 21), k=1)


def test_lowest_of_square_builds_its_identity_once(monkeypatch):
    """One lowest_of_square call reads the square form's factors and builds
    its identity once; the pairs are solved from the factors it keeps, and
    later counts on the same operator reuse it."""
    import semidirac.fiber

    builds = []
    build = semidirac.fiber.separable_identity
    monkeypatch.setattr(semidirac.fiber, "separable_identity",
                        lambda op: builds.append(op) or build(op))
    S = gaussian_square_form(41, 21)
    rep = lowest_of_square(S, k=2)
    assert rep.certificate["below"]["route"] == "identity"
    assert len(builds) == 1
    assert count_below(S, rep.certificate["below"]["threshold"])["count"] == 2
    assert count_within(S, 0.5)["route"] == "identity"
    assert len(builds) == 1


def test_lowest_of_square_runs_no_dense_eigensolver(monkeypatch):
    """Both factors go to LAPACK's tridiagonal and banded drivers, so no
    dense eigensolver runs, not even on the 41- and 81-node factors."""
    import scipy.linalg

    S = gaussian_square_form(81, 41)
    want = lowest_of_square(S, k=2).eigenvalues

    def refuse(*args, **kwargs):
        raise AssertionError("lowest_of_square must not run a dense eigensolver")

    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (scipy.linalg, "eigh"),
                         (scipy.linalg, "eigvalsh"), (scipy.linalg, "svdvals")):
        monkeypatch.setattr(module, name, refuse)
    rep = lowest_of_square(S, k=2)
    assert np.array_equal(rep.eigenvalues, want)
    assert rep.certificate["certified"] and rep.certificate["below"]["count"] == 2


def test_lowest_of_square_needs_a_square_form():
    g = Grid2D(-3.0, 3.0, 3.0, 13, 9)
    with pytest.raises(ValueError, match="square form"):
        lowest_of_square(assemble_T(g, P1))
    with pytest.raises(ValueError, match="k must lie"):
        lowest_of_square(assemble_square_form(g, P1, None), k=0)


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
    T = assemble_T(g, P1)
    # the bare matrix has no layout, so it is not rotated into the real basis
    # and its zero diagonal blocks leave no diagonal pivot
    with pytest.raises(ConvergenceError, match="symmetric order at shift 0.0"):
        count_below(T.matrix, 0.0)
    # the real basis has nonzero diagonal pivots, and the count is exact
    cert = count_below(T, 0.0)
    assert cert["arithmetic"] == "real"
    assert cert["count"] == np.count_nonzero(np.linalg.eigvalsh(T.matrix.toarray()) < 0.0)
    assert cert["count"] == 104
    D = sp.diags([1.0, 2.0, 3.0]).tocsr()
    with pytest.raises(ConvergenceError, match="singular at shift 2.0"):
        count_below(D, 2.0)
    with pytest.raises(ConvergenceError, match="singular at shift 2.0"):
        nearest_eigenvalues(D, 2.0)


def test_solve_factor_shares_only_the_order_with_the_counts():
    # -1.0 is a diagonal entry of the rotated fiber: the counts' diagonal
    # pivots refuse it, while the solve factor's threshold pivoting does not
    op = fiber_operator(0.0, P1, 4, 2.0)
    rep = nearest_eigenvalues(op, -1.0, k=1)
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    assert abs(rep.eigenvalues[0] - lam[np.argmin(np.abs(lam + 1.0))]) < 1e-12
    assert rep.eigenvalues[0] == pytest.approx(-1.15304157, abs=1e-8)
    with pytest.raises(ConvergenceError, match="pivoting left the symmetric order"):
        count_below(op, -1.0)


def test_solve_factor_fill_on_the_box_well():
    # the symmetric minimum-degree order; the default COLAMD order gives 12.4
    g = Grid2D(-9.0, 14.0, 14.0, 93, 57)
    H = assemble_H(g, P2, BoxPotential(1.0, 1.0 + np.pi, -3.0))
    cert = gap_eigs(H, -1.9, 1.9, k=6, seed=3).certificate
    assert cert["count"] == 18 and cert["iterations"] > 0
    assert cert["solve_fill"] <= 7.0
    # the window count keeps its own fill, of the factor of R^2 - r^2 I
    assert cert["fill"] != cert["solve_fill"]


def test_shift_invert_drops_a_wrong_pair(box_case, monkeypatch):
    """ARPACK hands back its first vector rolled by one entry."""
    import semidirac.eigensolve

    exact = semidirac.eigensolve.eigsh

    def corrupted(*args, **kwargs):
        vals, vecs = exact(*args, **kwargs)
        vecs[:, 0] = np.roll(vecs[:, 0], 1)
        return vals, vecs

    monkeypatch.setattr(semidirac.eigensolve, "eigsh", corrupted)
    H, ref = box_case
    rep = nearest_eigenvalues(H, 0.4, k=3, tol=1e-10, seed=0)
    assert rep.k == 2
    assert rep.residuals.max() <= 1e-10 * np.abs(H.matrix).sum(axis=1).max()
    lam = ref.eigenvalues
    assert np.min(np.abs(lam[:, None] - rep.eigenvalues), axis=0).max() < 1e-8
    # a certified window with one pair short raises the shortfall
    with pytest.raises(ConvergenceError, match="found 3 of 4 certified") as info:
        gap_eigs(H, -1.9, 1.9, k=4, tol=1e-10, seed=0)
    assert max(h["residual"] for h in info.value.history if "residual" in h) > 1e-3


def test_dense_residual_gate_fires(monkeypatch):
    import semidirac.eigensolve

    exact = semidirac.eigensolve.eigh

    def rolled(a, **kwargs):
        vals, vecs = exact(a, **kwargs)
        vecs[:, 0] = np.roll(vecs[:, 0], 1)
        return vals, vecs

    monkeypatch.setattr(semidirac.eigensolve, "eigh", rolled)
    with pytest.raises(AssertionError, match="dense eigenpair residual"):
        dense_eigs(random_tridiagonal(40, seed=5))


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
    assert np.isnan(participation_ratio(np.zeros(n)))
    # a 2-d array gives one ratio per column, NaN for the zero column
    cols = np.column_stack([np.ones(n), one_hot, v, np.zeros(n)])
    batched = participation_ratio(cols)
    assert batched.shape == (4,)
    np.testing.assert_allclose(
        batched, [participation_ratio(cols[:, i]) for i in range(4)], rtol=1e-12
    )
    assert np.isnan(batched[3])


def polyfit_decay(op, v):
    """Reference y-decay of one vector: np.polyfit through the rows above 1e-20 of the peak."""
    f = op.vector_to_field(v)
    mass = (np.abs(f.u1) ** 2 + np.abs(f.u2) ** 2).sum(axis=1)
    floor = 1e-20 * mass.max()
    y = op.grid.y()
    sel = y >= 0.5 * y[-1]
    y, mass = y[sel], mass[sel]
    ok = mass > floor
    return np.polyfit(y[ok], np.log(mass[ok]), 1)[0] if ok.sum() >= 2 else np.nan


def test_y_decay_rate_batches_columns(box_case):
    H, ref = box_case
    vecs = ref.eigenvectors
    batched = y_decay_rate(H, vecs)
    one_by_one = [y_decay_rate(H, vecs[:, i]) for i in range(vecs.shape[1])]
    np.testing.assert_allclose(batched, one_by_one, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(
        batched, [polyfit_decay(H, vecs[:, i]) for i in range(vecs.shape[1])],
        rtol=1e-10, atol=1e-12,
    )
    np.testing.assert_allclose(ref.y_decay, batched, rtol=1e-12, atol=1e-14)
    # the fibers' one-column layout
    F = fiber_operator(0.4, P1, 60, 12.0)
    fvecs = dense_eigs(F).eigenvectors
    np.testing.assert_allclose(
        y_decay_rate(F, fvecs),
        [y_decay_rate(F, fvecs[:, i]) for i in range(fvecs.shape[1])],
        rtol=1e-12, atol=1e-14,
    )


def test_y_decay_rate_masked_rows_and_nan_cases(box_case):
    H, ref = box_case
    g = H.grid
    # mass on the top two rows: the empty rows drop out of the fit
    top = np.zeros((g.ny, g.nx))
    top[-2:, g.nx // 2] = [2.0, 1.0]
    two_rows = H.field_to_vector(SpinorField(g, top, top))
    # mass on the top row alone: one row of the outer half survives
    top[-2] = 0.0
    single_row = H.field_to_vector(SpinorField(g, top, top))
    cols = np.column_stack([two_rows, single_row, np.zeros(H.dim)])
    got = y_decay_rate(H, cols)
    assert got[0] == pytest.approx(-np.log(4.0) / g.hy, rel=1e-12)
    assert got[0] == pytest.approx(polyfit_decay(H, two_rows), rel=1e-12)
    assert np.isnan(got[1]) and np.isnan(got[2])
    assert np.isnan(y_decay_rate(H, single_row))
    assert np.isnan(y_decay_rate(H, np.zeros(H.dim)))
    # no y layout: NaN for every column
    assert np.isnan(y_decay_rate(None, cols[:, 0]))
    assert np.all(np.isnan(y_decay_rate(None, cols)))
    assert y_decay_rate(H, cols[:, :0]).shape == (0,)


def test_y_decay_rate_sign_does_not_depend_on_rounding_rows():
    # at xi = 0.4 several states live on one sublattice of rows; the other
    # rows hold rounding noise (1e-27 to 1e-34 of the peak) that differs
    # between the real and the complex eigensolver route
    F = fiber_operator(0.4, P1, 400, 20.0)
    real, cplx = dense_eigs(F), dense_eigs(F.matrix)
    assert real.certificate["arithmetic"] == "real"
    assert cplx.certificate["arithmetic"] == "complex"
    a = y_decay_rate(F, real.eigenvectors)
    b = y_decay_rate(F, cplx.eigenvectors)
    assert not np.isnan(a).any()
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)
    decided = np.maximum(np.abs(a), np.abs(b)) > 1e-9
    assert np.array_equal(np.sign(a[decided]), np.sign(b[decided]))
    # the lambda = delta + xi^2 band-edge state is flat, not growing or decaying
    edge = np.argmin(np.abs(real.eigenvalues - 1.16))
    assert abs(a[edge]) < 1e-9 and abs(b[edge]) < 1e-9


def test_fix_phase_rotates_each_column_and_skips_zero_ones():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    lead = np.zeros(16, dtype=complex)
    lead[3], lead[9] = 1e-14, -2.0j
    fixed = _fix_phase(np.column_stack([v, np.zeros(16), lead]))
    assert abs(fixed[0, 0].imag) <= 1e-15 * fixed[0, 0].real
    np.testing.assert_allclose(np.abs(fixed[:, 0]), np.abs(v), rtol=1e-15)
    assert np.all(fixed[:, 1] == 0.0)
    # entries below 1e-12 of the largest are not significant
    assert fixed[9, 2] == 2.0


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


def _spectrum(vals):
    vals = np.asarray(vals, dtype=np.float64)
    n = vals.size
    return SpectrumReport(vals, np.eye(n), np.zeros(n), np.ones(n), np.zeros(n), "dense")


@pytest.mark.parametrize("bottom,residual,above", [
    (4.0, 0.0, True), (3.99, 0.0, False), (4.25, 0.25, True), (4.25, 0.26, False),
])
def test_bottom_above_gap_square_reads_the_residual_enclosure(bottom, residual, above):
    """The bottom counts as at or above delta^2 only when its residual
    enclosure [lambda_0 - rho_0, lambda_0 + rho_0] does; a bottom 0.01
    below delta^2 reads false."""
    rep = replace(_spectrum([bottom, 5.0]), residuals=np.array([residual, 0.0]))
    assert bottom_above_gap_square(rep, 2.0) is above

