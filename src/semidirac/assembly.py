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

The assembled matrix is W^(-1/2) E^T A E W^(-1/2): A the (exactly
Hermitian) weighted form, E the embedding of the edge-identified unknowns
and W = E^T diag(w) E their weights, so its eigenvalues are those of the
physical finite-difference operator and eigenvectors are plain-l2
orthogonal.  E has one entry per row, so the fold (_reduce) is a
relabelling: it maps the 2n slots onto the 2n - nx unknowns, sums each
u1/u2 edge pair and scales data by W^(-1/2) on both sides.

Unknown layout after the edge identification: all u1 nodes (j outer, i
inner), then u2 nodes for j >= 1; the merged edge values live in the u1
block.  Dimension 2*nx*ny - nx: the 2 ny - 1 unknowns of the edge fold on
one column (YGrid) times nx, y outer.  So every operator is a Kronecker
sum (Lynch, Rice and Thomas, Numer. Math. 6, 185, 1964): the first-order
ones kron(M_B, I) + kron(M_J, Kx) + N over the y parts (y_parts) M_B, the
fold of the derivative blocks -+i Omega D, and M_J, that of the unit
coupling, with N the node fold of [[w11, delta + V + w12], [delta + V +
w21, w22]]; the square form kron(Y, I) + kron(I, S^T S), Y the fold of
the forward-difference y stiffness and S = Kx + diag(delta + vx).  The x
weights are uniform, so in each term the weighted form's hx cancels
against the two hx^(-1/2) of the rescaling.  The sum is exactly
Hermitian: an entry of a Kronecker product is one product of a Hermitian
y entry with a real symmetric x entry, and N couples the two components
of one node, whose weights are equal; _finish still checks it, comparing
the data of M and M^H in place (_symmetrize, sym_defect).

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
    main, upper = np.zeros(ny), np.full(ny - 1, half)
    main[0], upper[0] = -1.0 / hy, 1.0 / hy
    D = sp.diags([np.full(ny - 1, -half), main, upper], [-1, 0, 1], format="csr")
    return D, np.r_[0.5 * hy, np.full(ny - 1, hy)]


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
    red = np.concatenate([np.arange(n), np.arange(nx), np.arange(n, 2 * n - nx)])
    E = sp.csr_matrix((np.ones(2 * n), red, np.arange(2 * n + 1)), shape=(2 * n, 2 * n - nx))
    return E, E.T @ np.concatenate([w_node, w_node])


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
        return SpinorField.unflatten(self.grid, v[edge_embedding(self.grid)[0].indices])

    def field_to_vector(self, u: SpinorField) -> np.ndarray:
        if self.grid is None:
            raise ValueError("operator carries no 2-d grid layout")
        if u.grid != self.grid:
            raise GridMismatchError(f"grids differ: {u.grid} vs {self.grid}")
        if not u.bc_admissible():
            raise ValueError("field is not admissible: u1 != u2 on the edge")
        return np.concatenate([u.u1.ravel(), u.u2[1:].ravel()]) * np.sqrt(self.weights)


def _inf_norm(m: sp.spmatrix) -> float:
    return float((abs(m) @ np.ones(m.shape[1])).max()) if m.nnz else 0.0


def _symmetrize(m: sp.spmatrix) -> tuple[sp.csr_matrix, float]:
    """(m + h) / 2, h = m^H, and the relative size of m - h for a CSR m,
    refused past SYM_DEFECT_LIMIT.  Equal patterns compare data in place; at
    defect 0 m's data returns in h's exact-size arrays, as (a + a) / 2 == a
    while m stores no 0 or -0 part, which every fold and sum here drops."""
    h = m.conj().T.tocsr()
    same = np.array_equal(m.indptr, h.indptr) and np.array_equal(m.indices, h.indices)
    skew = m.data - h.data if same else (m - h).data
    defect = np.abs(skew).max() if skew.size else 0.0
    scale = np.abs(m.data).max() if m.nnz else 0.0
    rel = defect / scale if scale > 0 else 0.0
    if rel > SYM_DEFECT_LIMIT:
        raise AssertionError(f"assembled matrix is not Hermitian: relative defect {rel:.3e}")
    if same and defect == 0.0:
        h.data[:] = m.data
        return h, rel
    return ((m + h) * 0.5).sorted_indices(), rel


def _finish(matrix, kind, w_red, grid=None, ygrid=None, separable=False) -> HermitianOperator:
    sym, defect = _symmetrize(matrix)
    return HermitianOperator(sym, kind, w_red, float(defect), grid, ygrid, separable)


def y_parts(ygrid: YGrid) -> tuple[HermitianOperator, HermitianOperator]:
    """(M_B, M_J): the coupling-free y operator and the unit coupling,
    each folded onto the 2 ny - 1 edge-identified unknowns (_reduce) and
    checked by _finish.  Every first-order operator is assembled from them
    (module docstring), the fibers as M_B + c M_J."""
    dmat, omega = first_derivative_y(ygrid.ny, ygrid.hy)
    weights, zero = sp.diags(omega), sp.csr_matrix(dmat.shape)
    a11 = (-1j * (weights @ dmat)).tocsr()
    base = _reduce(ygrid, a11, zero, zero, a11.conj().tocsr())
    unit = _reduce(ygrid, zero, weights, weights, zero)
    return tuple(_finish(m, FIRST_ORDER, w_red, ygrid=ygrid) for m, w_red in (base, unit))


def _reduce(grid, A11, A12, A21, A22):
    """W^(-1/2) E^T A E W^(-1/2) of the weighted 2x2 block form A, and W,
    by relabelling through E.indices (module docstring): rows, then
    columns, so a merged corner sums as (A11 + A21) + (A12 + A22), as in
    E^T A E, and data is scaled by d[row], then d[col], d = W^(-1/2)."""
    E, w_red = edge_embedding(grid)
    slot, n, dim = E.indices, A11.shape[0], w_red.size
    parts = [(b.tocoo(), r, c) for b, r, c in ((A11, 0, 0), (A12, 0, n), (A21, n, 0), (A22, n, n))]
    m = sp.csr_matrix((np.concatenate([b.data for b, _, _ in parts]),
                       (slot[np.concatenate([r + b.row for b, r, _ in parts])],
                        np.concatenate([c + b.col for b, _, c in parts]))), shape=(dim, 2 * n))
    m = sp.csr_matrix((m.data, slot[m.indices], m.indptr), shape=(dim, dim))
    m.sum_duplicates()
    d = 1.0 / np.sqrt(w_red)
    m.data *= np.repeat(d, np.diff(m.indptr))
    m.data *= d[m.indices]
    m.data += 0.0  # a -0 part reads +0, as in a sparse product
    m.eliminate_zeros()
    return m, w_red


def _first_order(grid: Grid2D, params: Params, v, w11=0.0, w12=0.0, w21=0.0, w22=0.0,
                 separable: bool = False) -> HermitianOperator:
    """kron(M_B, I) + kron(M_J, Kx) + the node fold of the multiplication
    field [[w11, delta + v + w12], [delta + v + w21, w22]] (module docstring).
    v and the w are node samples of shape (ny, nx), or scalars."""
    m_b, m_j = y_parts(YGrid(grid.y_max, grid.ny))
    w, mass = grid.node_weights(), params.delta + v
    fields = (w11, mass + w12, mass + w21, w22)
    nodes, w_red = _reduce(grid, *(sp.diags((w * f).ravel()) for f in fields))
    m = (sp.kron(m_b.matrix, sp.identity(grid.nx), format="csr")
         + sp.kron(m_j.matrix, stiffness_x(grid.nx, grid.hx), format="csr") + nodes)
    return _finish(m, FIRST_ORDER, w_red, grid=grid, separable=separable)


def assemble_T(grid: Grid2D, params: Params) -> HermitianOperator:
    """Free half-plane operator with the u1 = u2 edge condition."""
    return _first_order(grid, params, 0.0, separable=True)


def assemble_H(grid: Grid2D, params: Params, potential: PotentialSpec) -> HermitianOperator:
    """Potential-coupled operator: V enters both off-diagonal blocks."""
    if isinstance(potential, NoPotential):
        V = np.zeros((grid.ny, grid.nx))
    elif isinstance(potential, (BoxPotential, XOnlyPotential)):
        V = potential.sample_on(grid)
    else:
        raise ValueError(f"unsupported potential variant {type(potential).__name__} here")
    return _first_order(grid, params, V, separable=bool(np.all(V == V[0])))


def assemble_H_eps(
    grid: Grid2D, params: Params, w: PerturbationField, eps: float
) -> HermitianOperator:
    """Operator perturbed by eps times a 2x2 multiplication field."""
    if w.grid != grid:
        raise GridMismatchError(f"grids differ: {w.grid} vs {grid}")
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    return _first_order(grid, params, 0.0, eps * w.w11, eps * w.w12, eps * w.w21, eps * w.w22)


def assemble_square_form(
    grid: Grid2D, params: Params, potential: PotentialSpec | None
) -> HermitianOperator:
    """Positive form Q(u, u) = |dy u|^2 + |(-dxx + delta + V) u|^2 as
    kron(Y, I) + kron(I, S^T S) (module docstring).

    Only y-constant potentials keep the closed square structure, so box
    fields are rejected.  Y folds the cell forward-difference stiffness
    (natural on the edge, ghost-zero wall at the top); the x part is the
    exact square of S = Kx + diag(delta + vx), which is what makes the
    lower bound delta^2 hold at the matrix level and not just in the limit.
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
    ygrid = YGrid(grid.y_max, grid.ny)
    df = forward_difference_y(grid.ny, grid.hy)
    gy = (df.T @ sp.diags(np.full(grid.ny, grid.hy)) @ df).tocsr()
    zero = sp.csr_matrix(gy.shape)
    y, w_y = _reduce(ygrid, gy, zero, zero, gy)
    s = stiffness_x(grid.nx, grid.hx) + sp.diags(params.delta + vx)
    # each entry of S^T S sums commuting products, so it is symmetric bit for bit
    m = (sp.kron(y, sp.identity(grid.nx), format="csr")
         + sp.kron(sp.identity(y.shape[0]), s.T @ s, format="csr"))
    return _finish(m, SQUARE_FORM, np.kron(w_y, grid.weights_x()), grid=grid, separable=True)


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
