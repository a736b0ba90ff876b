"""Lattice primitives: grid, spinor fields, potential variants, quadrature.

The computational domain is the truncated half-plane rectangle
``[x_min, x_max] x [0, y_max]``.  Every stored node is a degree of freedom.
Hard-wall truncation lives on the ghost ring one spacing outside the
rectangle at ``x_min - hx``, ``x_max + hx`` and ``y_max + hy``: stencils read
zeros there.  The edge ``y = 0`` is the physical boundary and is never
zero-forced; admissible two-component fields instead satisfy the matching
condition ``u1 = u2`` on that edge.

Node weights are trapezoidal in y at the physical edge (half weight at
``j = 0``) and uniform elsewhere.  Rows at the truncation walls carry full
weight because their half-cells extend to the ghost ring where the wall
actually sits; this choice is what lets the assembled operators be exactly
Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridMismatchError(ValueError):
    """Raised when two objects built over different grids are combined."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _freeze_fields(obj, names) -> None:
    """Replace each named attribute of a frozen dataclass on a grid by a
    read-only complex copy, refusing a wrong shape or a non-finite entry."""
    shape = (obj.grid.ny, obj.grid.nx)
    for name in names:
        arr = np.array(getattr(obj, name), dtype=np.complex128)
        if arr.shape != shape:
            raise GridMismatchError(f"{name} has shape {arr.shape}, grid expects {shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError(f"{name} contains non-finite values")
        object.__setattr__(obj, name, _freeze(arr))


@dataclass(frozen=True)
class Params:
    """Model parameters.

    Attributes
    ----------
    delta : float
        Spectral gap half-width, strictly positive.
    """

    delta: float

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta <= 0.0:
            raise ValueError(f"delta must be finite and > 0, got {self.delta!r}")


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid on [x_min, x_max] x [0, y_max].

    Node (i, j) sits at (x_min + i*hx, j*hy) with i the x index and j the
    y index.  Arrays over the grid are stored (ny, nx), C order, so the
    flattened per-component index is j*nx + i (rows of constant y are
    contiguous).
    """

    x_min: float
    x_max: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.y_max <= 0.0:
            raise ValueError(f"need y_max > 0, got {self.y_max}")
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid too coarse: nx={self.nx}, ny={self.ny} (need >= 4)")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.y_max / (self.ny - 1)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def reduced_dim(self) -> int:
        """Unknown count after merging the two components on y = 0."""
        return 2 * self.nx * self.ny - self.nx

    def x(self) -> np.ndarray:
        return self.x_min + self.hx * np.arange(self.nx)

    def y(self) -> np.ndarray:
        return self.hy * np.arange(self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of shape (ny, nx)."""
        return np.meshgrid(self.x(), self.y())

    def weights_x(self) -> np.ndarray:
        """Per-column quadrature weights (uniform, see module docstring)."""
        return np.full(self.nx, self.hx)

    def weights_y(self) -> np.ndarray:
        """Per-row quadrature weights, halved on the physical edge j = 0."""
        w = np.full(self.ny, self.hy)
        w[0] = 0.5 * self.hy
        return w

    def node_weights(self) -> np.ndarray:
        """(ny, nx) array of per-node quadrature weights."""
        return np.outer(self.weights_y(), self.weights_x())


def sample(grid: Grid2D, f) -> np.ndarray:
    """Evaluate a callable f(x, y) on the grid nodes.

    Tries a single broadcast call first and falls back to per-node
    evaluation for callables that do not vectorize.  Non-finite values are
    rejected.
    """
    X, Y = grid.meshgrid()
    try:
        vals = np.asarray(f(X, Y))
        if vals.shape != X.shape:
            raise ValueError
    except Exception:
        vals = np.array([[f(xv, yv) for xv in grid.x()] for yv in grid.y()])
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampled field contains non-finite values")
    return vals


@dataclass(frozen=True)
class SpinorField:
    """Two-component complex field on a Grid2D.

    The field is admissible for the half-plane operators iff the two
    components agree on the physical edge, u1[:, j=0] == u2[:, j=0]
    (stored as rows u1[0, :] and u2[0, :]).
    """

    grid: Grid2D
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        _freeze_fields(self, ("u1", "u2"))

    @classmethod
    def from_callables(cls, grid: Grid2D, f1, f2=None) -> "SpinorField":
        """Sample one callable (both components equal) or two."""
        a1 = sample(grid, f1)
        a2 = a1 if f2 is None else sample(grid, f2)
        return cls(grid, a1, a2)

    def bc_admissible(self) -> bool:
        """True iff the two components agree exactly on the y = 0 row."""
        return bool(np.array_equal(self.u1[0, :], self.u2[0, :]))

    def flatten(self) -> np.ndarray:
        """Component-major layout: all of u1 (j outer, i inner), then u2."""
        return np.concatenate([self.u1.ravel(), self.u2.ravel()])

    @classmethod
    def unflatten(cls, grid: Grid2D, vec: np.ndarray) -> "SpinorField":
        n = grid.n_nodes
        if vec.shape != (2 * n,):
            raise GridMismatchError(
                f"vector has shape {vec.shape}, grid expects ({2 * n},)"
            )
        shape = (grid.ny, grid.nx)
        return cls(grid, vec[:n].reshape(shape), vec[n:].reshape(shape))


class PotentialSpec:
    """Marker base for the potential variants accepted by the assemblers."""


@dataclass(frozen=True)
class NoPotential(PotentialSpec):
    """Free operator."""


@dataclass(frozen=True)
class BoxPotential(PotentialSpec):
    """Constant value on the axis-aligned square [a, b] x [a, b]."""

    a: float
    b: float
    value: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and np.isfinite(self.value)):
            raise ValueError("box parameters must be finite")
        if not 0.0 < self.a < self.b:
            raise ValueError(f"need 0 < a < b, got a={self.a}, b={self.b}")

    def validate_against(self, grid: Grid2D) -> None:
        if self.a < grid.x_min or self.b > grid.x_max or self.b > grid.y_max:
            raise ValueError(
                f"box [{self.a}, {self.b}]^2 does not fit inside the grid "
                f"[{grid.x_min}, {grid.x_max}] x [0, {grid.y_max}]"
            )

    def sample_on(self, grid: Grid2D) -> np.ndarray:
        self.validate_against(grid)
        X, Y = grid.meshgrid()
        inside = (X >= self.a) & (X <= self.b) & (Y >= self.a) & (Y <= self.b)
        return np.where(inside, self.value, 0.0)


@dataclass(frozen=True)
class XOnlyPotential(PotentialSpec):
    """Real potential depending on x only, given by samples on the x nodes."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if np.iscomplexobj(arr):
            raise ValueError("x-only potential must be real-valued")
        arr = np.array(arr, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"expected 1-d samples, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("potential samples contain non-finite values")
        object.__setattr__(self, "values", _freeze(arr))

    @classmethod
    def from_callable(cls, grid: Grid2D, f) -> "XOnlyPotential":
        return cls(np.asarray([f(xv) for xv in grid.x()], dtype=np.float64))

    def sample_on(self, grid: Grid2D) -> np.ndarray:
        if self.values.shape != (grid.nx,):
            raise GridMismatchError(
                f"potential has {self.values.shape[0]} samples, grid has nx={grid.nx}"
            )
        return np.broadcast_to(self.values, (grid.ny, grid.nx)).copy()


@dataclass(frozen=True)
class PerturbationField(PotentialSpec):
    """Grid-sampled 2x2 multiplication operator (w11, w12; w21, w22).

    Self-adjointness of the perturbed operator requires w11 and w22 real,
    which is enforced here, and w21 the complex conjugate of w12, which
    is how w21 is derived.
    """

    grid: Grid2D
    w11: np.ndarray
    w12: np.ndarray
    w22: np.ndarray

    def __post_init__(self):
        _freeze_fields(self, ("w11", "w12", "w22"))
        for name in ("w11", "w22"):
            if np.any(getattr(self, name).imag != 0.0):
                raise ValueError(f"{name} must be real-valued")

    @property
    def w21(self) -> np.ndarray:
        return np.conj(self.w12)

    @classmethod
    def from_callables(cls, grid: Grid2D, w11=None, w12=None, w22=None):
        """Sample entry callables; omitted entries are zero."""
        zero = np.zeros((grid.ny, grid.nx), dtype=np.complex128)
        a11 = sample(grid, w11).astype(np.complex128) if w11 else zero
        a12 = sample(grid, w12).astype(np.complex128) if w12 else zero
        a22 = sample(grid, w22).astype(np.complex128) if w22 else zero
        return cls(grid, a11, a12, a22)
