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
dispersion stays outside the spectral gap, but localized eigenvalues inside
the gap appear in doubled copies.  Counts reported downstream are matrix
eigenvalue counts, not continuum multiplicities.
"""

from __future__ import annotations

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
    rows, cols, vals = [0, 0], [0, 1], [-1.0 / hy, 1.0 / hy]
    for j in range(1, ny):
        rows.append(j)
        cols.append(j - 1)
        vals.append(-half)
        if j + 1 < ny:
            rows.append(j)
            cols.append(j + 1)
            vals.append(half)
    D = sp.csr_matrix((vals, (rows, cols)), shape=(ny, ny))
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
    rows, cols, vals = [], [], []
    for j in range(ny):
        rows.append(j)
        cols.append(j)
        vals.append(-1.0 / hy)
        if j + 1 < ny:
            rows.append(j)
            cols.append(j + 1)
            vals.append(1.0 / hy)
    return sp.csr_matrix((vals, (rows, cols)), shape=(ny, ny))


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


def conjugation_basis(op: HermitianOperator) -> sp.csr_matrix:
    """Unitary U whose columns are fixed by the antiunitary C(u1, u2) = (conj u2, conj u1).

    Where C commutes with M (T, H, the square forms, the fibers, and H_eps
    with w11 = w22), U^H M U is real symmetric.  The nx merged edge unknowns
    are kept; each interior pair (u1 slot k, u2 slot n + k - nx) maps to
    (e1 + e2)/sqrt(2) and i (e1 - e2)/sqrt(2).  No layout: the identity.
    """
    layout = op.grid if op.grid is not None else op.ygrid
    m = 0 if layout is None else (op.dim - layout.nx) // 2
    keep, k = np.arange(op.dim - 2 * m), np.arange(op.dim - 2 * m, op.dim - m)
    r = np.sqrt(0.5)
    vals = [np.ones(keep.size), np.full(2 * m, r), np.full(m, 1j * r), np.full(m, -1j * r)]
    rows, cols = [keep, k, k + m, k, k + m], [keep, k, k, k + m, k + m]
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(op.dim, op.dim),
    )


@dataclass(frozen=True)
class HermitianOperator:
    """Assembled sparse Hermitian matrix with its provenance.

    matrix acts on the reduced unknown vector in weighted coordinates
    z = W^(1/2) v; eigenvalues are those of the physical operator.
    sym_defect records the relative size of the discarded anti-Hermitian
    part (roundoff scale by construction).
    """

    matrix: sp.csr_matrix
    kind: str
    weights: np.ndarray
    params: Params
    grid: Grid2D | None = None
    ygrid: YGrid | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def real_form(self) -> tuple:
        """(U^H M U).real and U, U = conjugation_basis(self), if exactly real,
        else (M, None), as for H_eps with w11 != w22.  Spectrum and inertia
        are those of M; eigenvectors map back as U z.  Cached, so every
        solve and count on one operator shares one rotation.
        """
        basis = conjugation_basis(self)
        rotated = (basis.conj().T @ self.matrix @ basis).tocsr()
        if not rotated.data.imag.any():
            return rotated.real, basis
        return self.matrix, None

    @property
    def sym_defect(self) -> float:
        return float(self.__dict__["_sym_defect"])

    def matvec(self, z: np.ndarray) -> np.ndarray:
        return self.matrix @ z

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


def _finish(matrix, kind, w_red, params, grid=None, ygrid=None) -> HermitianOperator:
    sym, defect = _symmetrize(matrix)
    op = HermitianOperator(sym, kind, w_red, params, grid, ygrid)
    object.__setattr__(op, "_sym_defect", defect)
    return op


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
    return _finish(M, FIRST_ORDER, w_red, params, grid=grid)


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
    return _finish(M, FIRST_ORDER, w_red, params, grid=grid)


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
    return _finish(M, FIRST_ORDER, w_red, params, grid=grid)


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
        if potential.values.shape != (grid.nx,):
            raise GridMismatchError(
                f"potential has {potential.values.shape[0]} samples, "
                f"grid has nx={grid.nx}"
            )
        vx = potential.values
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
    return _finish(M, SQUARE_FORM, w_red, params, grid=grid)


def apply(op: HermitianOperator, u: SpinorField) -> SpinorField:
    """Physical action of the operator on an admissible field."""
    z = op.field_to_vector(u)
    return op.vector_to_field(op.matrix @ z)


# entries per joined piece of the export body
_EXPORT_CHUNK = 8192


def _texts(values: np.ndarray, spec: str = "") -> np.ndarray:
    """format(v, spec) of each entry, called once per distinct bit pattern.

    Grouping by bits rather than by value keeps -0.0 apart from 0.0.
    """
    values = np.ascontiguousarray(values)
    bits, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    texts = [format(v, spec) for v in bits.view(values.dtype).tolist()]
    return np.array(texts, dtype=object)[inverse]


def export_coordinate_text(op: HermitianOperator) -> str:
    """Serialize to coordinate text: header, dims line, one entry per line.

    Entries are 0-based (row, col, re, im), emitted in CSR order so equal
    matrices serialize to equal bytes.  Values are grouped by bit pattern,
    so each distinct real part, imaginary part and index is formatted
    once (an operator holds a handful of distinct values), and the body
    is joined _EXPORT_CHUNK entries at a time.
    """
    m = op.matrix.tocoo()
    n = m.nnz
    rows, cols = _texts(m.row), _texts(m.col)
    re, im = _texts(m.data.real, ".17g"), _texts(m.data.imag, ".17g")
    parts = [f"%%MatrixMarket-compatible\n{m.shape[0]} {m.shape[1]} {n}\n"]
    for s in range(0, n, _EXPORT_CHUNK):
        sl = slice(s, s + _EXPORT_CHUNK)
        parts.append("".join(
            f"{r} {c} {a} {b}\n" for r, c, a, b in zip(
                rows[sl].tolist(), cols[sl].tolist(), re[sl].tolist(), im[sl].tolist())
        ))
    return "".join(parts)


def read_coordinate_text(text: str) -> sp.csr_matrix:
    """Inverse of export_coordinate_text (for round-trip checks), bit for
    bit: complex(re, im) keeps the sign of a zero real part."""
    lines = text.strip().split("\n")
    if not lines[0].startswith("%%MatrixMarket-compatible"):
        raise ValueError("missing coordinate-format header line")
    nr, nc, nnz = (int(t) for t in lines[1].split())
    rows, cols, vals = [], [], []
    for line in lines[2 : 2 + nnz]:
        r, c, re, im = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(complex(float(re), float(im)))
    return sp.csr_matrix((vals, (rows, cols)), shape=(nr, nc))
