"""Sparse assembly of the half-plane operators.

Discretization
--------------
x direction: three-point second difference with ghost-zero Dirichlet one
spacing outside both walls.  y direction: central first difference in the
interior, ghost-zero beyond y_max, and a one-sided first-order closure on
the physical edge j = 0.  With the edge row carrying half weight, the
weighted derivative matrix Q = Omega D is antisymmetric except for a single
-1/2 defect in its (0, 0) corner; under the u1 = u2 edge identification the
defects of the two components cancel exactly, which is the discrete version
of the vanishing boundary term in the continuum integration by parts.

The assembled matrix is W^(-1/2) A W^(-1/2) where A is the (exactly
Hermitian) weighted form and W the diagonal of reduced node weights, so its
eigenvalues coincide with those of the physical finite-difference operator
and eigenvectors are plain-l2 orthogonal.

Unknown layout after the edge identification: all u1 nodes (j outer, i
inner), then u2 nodes for j >= 1; the merged edge values live in the u1
block.  Dimension 2*nx*ny - nx.

The central first difference carries the usual lattice doubler branch; its
dispersion stays outside the spectral gap.  It also splits T, H and the
square forms exactly in two: their real form (HermitianOperator.real_form)
has no entry between its two diagonal blocks (HermitianOperator.blocks).
In the real basis the x part, diagonal in the row j, keeps the
conjugation sector (the merged edge and the (e1 + e2)/sqrt(2) columns
against the i (e1 - e2)/sqrt(2) columns), while the central y difference
links row j to rows j +- 1 of the other sector; so a first-order block is
the set where sector xor (j mod 2) is fixed (13041 + 12880 unknowns for T
at 161x81, 5301 + 5208 for the 93x57 box well), and a square form, with
no first-order term, splits by sector alone (3321 + 3240 at 81x41).  An
H_eps with w11 = w22 and real w12 splits the same way; an imaginary w12
links the sectors within a row, and w11 != w22 leaves no real form, so
those are one block.  The localized eigenvalues inside the gap come in
doubled copies, one in each block, up to the copies' discretization
error (the 93x57 box-well window counts 18, 18, 13, 0 split as 9 + 9,
9 + 9, 7 + 6, 0 + 0).  Counts reported downstream are matrix eigenvalue
counts, not continuum multiplicities.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .lattice import (
    BoxPotential,
    Grid2D,
    GridMismatchError,
    NoPotential,
    Params,
    PerturbationField,
    PotentialSpec,
    SpinorField,
    XOnlyPotential,
)

# relative size above which the post-assembly symmetrization is considered
# a bug rather than roundoff
SYM_DEFECT_LIMIT = 1e-13

FIRST_ORDER = "first_order"
SQUARE_FORM = "square_form"


@dataclass(frozen=True)
class YGrid:
    """Uniform 1-d grid on [0, y_max], the fiber analogue of Grid2D."""

    y_max: float
    ny: int

    def __post_init__(self):
        if self.y_max <= 0.0 or not np.isfinite(self.y_max):
            raise ValueError(f"need finite y_max > 0, got {self.y_max}")
        if self.ny < 4:
            raise ValueError(f"grid too coarse: ny={self.ny} (need >= 4)")

    @property
    def hy(self) -> float:
        return self.y_max / (self.ny - 1)

    @property
    def nx(self) -> int:
        """One node per row, so the fiber shares the 2-d edge fold."""
        return 1

    def y(self) -> np.ndarray:
        return self.hy * np.arange(self.ny)

    def node_weights(self) -> np.ndarray:
        """(ny, 1) array of per-node weights, halved on the edge."""
        w = np.full((self.ny, 1), self.hy)
        w[0] = 0.5 * self.hy
        return w


def first_derivative_y(ny: int, hy: float) -> tuple[sp.csr_matrix, np.ndarray]:
    """Edge-closed first derivative and its weight vector.

    Returns (D, omega) with omega[0] = hy/2 and diag(omega) @ D equal to an
    antisymmetric matrix plus a -1/2 entry in the (0, 0) corner.
    """
    half = 0.5 / hy
    D = sp.diags([np.full(ny - 1, -half), np.full(ny - 1, half)], [-1, 1], format="lil")
    D[0, 0], D[0, 1] = -1.0 / hy, 1.0 / hy
    D = D.tocsr()
    omega = np.full(ny, hy)
    omega[0] = 0.5 * hy
    return D, omega


def stiffness_x(nx: int, hx: float) -> sp.csr_matrix:
    """Three-point -d2/dx2 with ghost-zero Dirichlet outside both walls."""
    main = np.full(nx, 2.0 / hx**2)
    off = np.full(nx - 1, -1.0 / hx**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def forward_difference_y(ny: int, hy: float) -> sp.csr_matrix:
    """Cell forward difference, last cell closing onto the top ghost zero."""
    return sp.diags([np.full(ny, -1.0 / hy), np.full(ny - 1, 1.0 / hy)], [0, 1], format="csr")


def edge_embedding(grid: Grid2D | YGrid) -> tuple[sp.csr_matrix, np.ndarray]:
    """Embedding E of reduced unknowns into the full 2-component layout.

    Columns are unit vectors except for the nx merged edge unknowns, whose
    columns carry a 1 in both the u1 and the u2 edge slot.  Also returns
    the reduced weight diagonal E^T W E (the merged unknowns accumulate the
    weight of both slots).  A YGrid is the one-column case (the fibers).
    """
    nx = grid.nx
    w_node = grid.node_weights().ravel()
    n = w_node.size
    full = np.arange(2 * n)
    red = np.empty(2 * n, dtype=np.int64)
    red[:n] = np.arange(n)
    # u2 block: edge row folds onto the u1 edge unknowns
    red[n : n + nx] = np.arange(nx)
    red[n + nx :] = n + np.arange(n - nx)
    E = sp.csr_matrix(
        (np.ones(2 * n), (full, red)), shape=(2 * n, 2 * n - nx)
    )
    w_red = E.T @ np.concatenate([w_node, w_node])
    return E, w_red


def conjugation_basis(layout: Grid2D | YGrid) -> sp.csr_matrix:
    """Unitary U on a layout's nx (2 ny - 1) reduced unknowns whose columns
    are fixed by the antiunitary C(u1, u2) = (conj u2, conj u1).

    Where C commutes with M (T, H, the square forms, the fibers, and H_eps
    with w11 = w22), U^H M U is real symmetric.  The nx merged edge unknowns
    are kept; each interior pair (u1 slot k, u2 slot n + k - nx) maps to
    (e1 + e2)/sqrt(2) and i (e1 - e2)/sqrt(2).
    """
    dim = layout.nx * (2 * layout.ny - 1)
    m = (dim - layout.nx) // 2
    keep, k = np.arange(dim - 2 * m), np.arange(dim - 2 * m, dim - m)
    r = np.sqrt(0.5)
    vals = [np.ones(keep.size), np.full(2 * m, r), np.full(m, 1j * r), np.full(m, -1j * r)]
    rows, cols = [keep, k, k + m, k, k + m], [keep, k, k, k + m, k + m]
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


def _real_rotation(matrix: sp.spmatrix, basis: sp.csr_matrix) -> sp.csr_matrix | None:
    """(U^H M U).real for U = basis, or None unless its imaginary part is
    exactly zero."""
    rotated = (basis.conj().T @ matrix @ basis).tocsr()
    return None if rotated.data.imag.any() else rotated.real


@dataclass(frozen=True)
class HermitianOperator:
    """Assembled sparse Hermitian matrix with its provenance.

    matrix acts on the reduced unknown vector in weighted coordinates
    z = W^(1/2) v; eigenvalues are those of the physical operator.
    sym_defect records the relative size of the discarded anti-Hermitian
    part (roundoff scale by construction).  separable is set by assembly
    for T, an H whose potential samples do not vary in y and the square
    forms, which have the form kron(P, I) + kron(Q, X) in the reduced
    layout (fiber.separable_identity reads P, Q and X off the matrix); it
    is False for everything else (box wells, H_eps, the fibers, a bare
    matrix), whose identity is not read.
    """

    matrix: sp.csr_matrix
    kind: str
    weights: np.ndarray
    sym_defect: float
    grid: Grid2D | None = None
    ygrid: YGrid | None = None
    separable: bool = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def real_form(self) -> tuple:
        """(U^H M U).real and U, U the conjugation_basis of the operator's
        layout, if exactly real, else (M, None), as for H_eps with
        w11 != w22 and for an operator with no layout (a bare matrix).
        Spectrum and inertia are those of M; eigenvectors map back as U z.
        Cached, so every solve and count on one operator shares one rotation.
        """
        layout = self.grid if self.grid is not None else self.ygrid
        if layout is None:
            return self.matrix, None
        basis = conjugation_basis(layout)
        real = _real_rotation(self.matrix, basis)
        return (self.matrix, None) if real is None else (real, basis)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...] | None:
        """Ascending index sets of the connected components of the real
        form's pattern, so R[a][:, b] == 0 exactly for any two of them
        (module docstring), or None off a 2-d grid (the fibers), counted
        whole.  Cached: the components are found once per operator.
        """
        if self.grid is None:
            return None
        # imported here, so processes that count no 2-d operator (the fiber
        # table, the exports) do not load csgraph's extension modules
        from scipy.sparse.csgraph import connected_components

        count, labels = connected_components(abs(self.real_form[0]), directed=False)
        return tuple(np.flatnonzero(labels == b) for b in range(count))

    @cached_property
    def identity(self):
        """fiber.separable_identity(self), shared by the counts and lowest_of_square."""
        from .fiber import separable_identity  # fiber imports this module

        return separable_identity(self)

    def vector_to_field(self, z: np.ndarray) -> SpinorField:
        """Undo the weighting and the edge identification (2-d layout only)."""
        if self.grid is None:
            raise ValueError("operator carries no 2-d grid layout")
        v = np.asarray(z, dtype=np.complex128) / np.sqrt(self.weights)
        n, nx = self.grid.n_nodes, self.grid.nx
        full = np.empty(2 * n, dtype=np.complex128)
        full[:n] = v[:n]
        full[n : n + nx] = v[:nx]
        full[n + nx :] = v[n:]
        return SpinorField.unflatten(self.grid, full)

    def field_to_vector(self, u: SpinorField) -> np.ndarray:
        if self.grid is None:
            raise ValueError("operator carries no 2-d grid layout")
        if u.grid != self.grid:
            raise GridMismatchError(f"grids differ: {u.grid} vs {self.grid}")
        if not u.bc_admissible():
            raise ValueError("field is not admissible: u1 != u2 on the edge")
        n = self.grid.n_nodes
        flat = u.flatten()
        v = np.concatenate([flat[:n], flat[n + self.grid.nx :]])
        return v * np.sqrt(self.weights)


def _inf_norm(m: sp.spmatrix) -> float:
    return float((abs(m) @ np.ones(m.shape[1])).max()) if m.nnz else 0.0


def _symmetrize(m: sp.spmatrix) -> tuple[sp.csr_matrix, float]:
    m = m.tocsr()
    skew = m - m.getH()
    defect = np.abs(skew.data).max() if skew.nnz else 0.0
    scale = np.abs(m.data).max() if m.nnz else 0.0
    rel = defect / scale if scale > 0 else 0.0
    if rel > SYM_DEFECT_LIMIT:
        raise AssertionError(
            f"assembled matrix is not Hermitian: relative defect {rel:.3e}"
        )
    out = ((m + m.getH()) * 0.5).tocsr()
    out.sort_indices()
    return out, rel


def _finish(matrix, kind, w_red, grid=None, ygrid=None, separable=False) -> HermitianOperator:
    sym, defect = _symmetrize(matrix)
    return HermitianOperator(sym, kind, w_red, float(defect), grid, ygrid, separable)


def _first_order_blocks(grid: Grid2D, params: Params):
    """Weighted form blocks (A11, S, A22) of the free operator."""
    D, omega = first_derivative_y(grid.ny, grid.hy)
    Om = sp.diags(omega)
    Q = Om @ D
    Wx = sp.diags(grid.weights_x())
    Kx = stiffness_x(grid.nx, grid.hx)
    W2 = sp.kron(Om, Wx, format="csr")
    A11 = -1j * sp.kron(Q, Wx, format="csr")
    S = sp.kron(Om, Wx @ Kx, format="csr") + params.delta * W2
    return A11, S, A11.conj().tocsr(), W2


def _reduce(grid, A11, A12, A21, A22):
    """Fold the weighted 2x2 block form onto the edge-identified unknowns
    and rescale symmetrically: W^(-1/2) E^T A E W^(-1/2)."""
    A = sp.bmat([[A11, A12], [A21, A22]], format="csr")
    E, w_red = edge_embedding(grid)
    Ahat = (E.T @ A @ E).tocsr()
    dinv = sp.diags(1.0 / np.sqrt(w_red))
    return dinv @ Ahat @ dinv, w_red


def assemble_T(grid: Grid2D, params: Params) -> HermitianOperator:
    """Free half-plane operator with the u1 = u2 edge condition."""
    A11, S, A22, _ = _first_order_blocks(grid, params)
    M, w_red = _reduce(grid, A11, S, S, A22)
    return _finish(M, FIRST_ORDER, w_red, grid=grid, separable=True)


def _potential_samples(grid: Grid2D, potential: PotentialSpec) -> np.ndarray:
    if isinstance(potential, NoPotential):
        return np.zeros((grid.ny, grid.nx))
    if isinstance(potential, (BoxPotential, XOnlyPotential)):
        return potential.sample_on(grid)
    raise ValueError(
        f"unsupported potential variant {type(potential).__name__} here"
    )


def assemble_H(grid: Grid2D, params: Params, potential: PotentialSpec) -> HermitianOperator:
    """Potential-coupled operator: V enters both off-diagonal blocks."""
    A11, S, A22, W2 = _first_order_blocks(grid, params)
    V = _potential_samples(grid, potential)
    SV = S + W2 @ sp.diags(V.ravel())
    M, w_red = _reduce(grid, A11, SV, SV, A22)
    return _finish(M, FIRST_ORDER, w_red, grid=grid, separable=bool(np.all(V == V[0])))


def assemble_H_eps(
    grid: Grid2D, params: Params, w: PerturbationField, eps: float
) -> HermitianOperator:
    """Operator perturbed by eps times a 2x2 multiplication field."""
    if w.grid != grid:
        raise GridMismatchError(f"grids differ: {w.grid} vs {grid}")
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    A11, S, A22, W2 = _first_order_blocks(grid, params)
    A11 = A11 + eps * (W2 @ sp.diags(w.w11.ravel()))
    A22 = A22 + eps * (W2 @ sp.diags(w.w22.ravel()))
    A12 = S + eps * (W2 @ sp.diags(w.w12.ravel()))
    A21 = S + eps * (W2 @ sp.diags(w.w21.ravel()))
    M, w_red = _reduce(grid, A11, A12, A21, A22)
    return _finish(M, FIRST_ORDER, w_red, grid=grid)


def assemble_square_form(
    grid: Grid2D, params: Params, potential: PotentialSpec | None
) -> HermitianOperator:
    """Positive form Q(u, u) = |dy u|^2 + |(-dxx + delta + V) u|^2.

    Only y-constant potentials keep the closed square structure, so box
    fields are rejected.  The y part is the cell forward-difference
    stiffness (natural on the edge, ghost-zero wall at the top); the x part
    is the exact square of the one-dimensional operator, which is what
    makes the lower bound delta^2 hold at the matrix level and not just in
    the limit.
    """
    if potential is None or isinstance(potential, NoPotential):
        vx = np.zeros(grid.nx)
    elif isinstance(potential, XOnlyPotential):
        vx = potential.sample_on(grid)[0]
    else:
        raise ValueError(
            f"square form needs a y-constant potential, got "
            f"{type(potential).__name__}"
        )
    omega = grid.weights_y()
    Df = forward_difference_y(grid.ny, grid.hy)
    Gy = (Df.T @ sp.diags(np.full(grid.ny, grid.hy)) @ Df).tocsr()
    Wx = sp.diags(grid.weights_x())
    # Sx Wx Sx as Bx^T Bx: each entry is then a sum of commuting products,
    # so the x block is symmetric bit for bit
    Bx = sp.diags(np.sqrt(grid.weights_x())) @ (
        stiffness_x(grid.nx, grid.hx) + sp.diags(params.delta + vx)
    )
    G = sp.kron(Gy, Wx, format="csr") + sp.kron(
        sp.diags(omega), (Bx.T @ Bx), format="csr"
    )
    zero = sp.csr_matrix(G.shape)
    M, w_red = _reduce(grid, G, zero, zero, G)
    return _finish(M, SQUARE_FORM, w_red, grid=grid, separable=True)


def apply(op: HermitianOperator, u: SpinorField) -> SpinorField:
    """Physical action of the operator on an admissible field."""
    z = op.field_to_vector(u)
    return op.vector_to_field(op.matrix @ z)


def export_coordinate_text(op: HermitianOperator) -> str:
    """op.matrix as Matrix Market coordinate text, written by scipy.io.mmwrite.

    The banner reads "%%MatrixMarket matrix coordinate {complex|real}
    general", the entries are 1-based (row, col, value) in CSR order, and
    every value is the shortest text that reads back to the same double,
    so equal matrices give equal bytes and scipy.io.mmread returns every
    entry bit for bit (signed zeros and stored zeros included).  Symmetry
    is general on purpose: a Hermitian file stores only one triangle and
    does not read back bit-identical.
    """
    # imported here, so processes that export nothing do not load scipy.io
    import scipy.io

    buffer = io.BytesIO()
    scipy.io.mmwrite(buffer, op.matrix, symmetry="general")
    return buffer.getvalue().decode("ascii")


def read_coordinate_text(text: str) -> sp.csr_matrix:
    """Inverse of export_coordinate_text, bit for bit: scipy.io.mmread of
    the text as a CSR matrix."""
    import scipy.io

    return scipy.io.mmread(io.StringIO(text)).tocsr()
