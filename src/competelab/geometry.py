"""Discrete domains: rectangular lattices with interior masks.

A domain is a set of lattice nodes strictly inside some region of the
plane, surrounded by at least one collar of non-interior nodes.  Zero
Dirichlet data is implicit: values live only on interior nodes and every
neighbor outside the interior reads as zero.  The supported shapes are
rectangles, discs, and wedges {m*|y| < x < 1} with vertex pinned on the
boundary; wedge masks are star-shaped under x -> delta*x, which is what
the scaling map below exercises.
"""

from __future__ import annotations

import numpy as np

SPACE_DIM = 2  # mask logic is 2-D; exponents like delta**(SPACE_DIM+2) keep N symbolic

_KINDS = ("rectangle", "disc", "wedge", "custom")


def _region_contains(kind: str, params: dict, x, y):
    if "scaled_by" in params:  # delta*Omega = {x : x/delta in Omega}
        x, y = x / params["scaled_by"], y / params["scaled_by"]
    if kind == "rectangle":
        w, ht = params["width"], params["height"]
        return (0 < x) & (x < w) & (0 < y) & (y < ht)
    if kind == "disc":
        r = params["radius"]
        return x * x + y * y < r * r
    if kind == "wedge":
        m = params["m"]
        return (m * np.abs(y) < x) & (x < 1.0)
    raise ValueError("custom masks carry no analytic region")


class Grid:
    """Uniform lattice: node (i, j) sits at origin + (i*h, j*h)."""

    __slots__ = ("nx", "ny", "h", "origin")

    def __init__(self, nx: int, ny: int, h: float, origin=(0.0, 0.0)):
        if h <= 0:
            raise ValueError("mesh width h must be positive")
        if nx * ny < 9:
            raise ValueError("grid must have at least 9 nodes")
        object.__setattr__(self, "nx", int(nx))
        object.__setattr__(self, "ny", int(ny))
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "origin", (float(origin[0]), float(origin[1])))

    def __setattr__(self, name, value):
        raise AttributeError("Grid is immutable")

    def node_coords(self):
        """Coordinate arrays (X, Y), each of shape (nx, ny)."""
        xs = self.origin[0] + self.h * np.arange(self.nx)
        ys = self.origin[1] + self.h * np.arange(self.ny)
        return np.meshgrid(xs, ys, indexing="ij")

    def __repr__(self):
        return f"Grid(nx={self.nx}, ny={self.ny}, h={self.h:g}, origin={self.origin})"


class DomainMask:
    """Interior node set of a discrete domain.

    ``interior`` is a boolean (nx, ny) array; the outermost ring of the
    grid is always False so that every interior node has its four lattice
    neighbors on the grid.  ``measure`` is exactly h^2 times the interior
    node count.

    Interior nodes are numbered in row-major order of the grid.  The
    energy module builds its stencil from ``neighbors`` and its box solve
    from the nodes' lattice positions ``_ii``, ``_jj``:

    - ``neighbors``: (n, 4) int array with the flat indices of the E, W,
      N, S neighbors; -1 marks a boundary (zero-valued) neighbor.
    - ``xs``, ``ys``: coordinates of the interior nodes.
    """

    def __init__(self, grid: Grid, interior: np.ndarray, kind: str = "custom",
                 params: dict | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown mask kind {kind!r}")
        interior = np.array(interior, dtype=bool, copy=True)
        if interior.shape != (grid.nx, grid.ny):
            raise ValueError("interior array shape does not match grid")
        if not interior.any():
            raise ValueError("mesh too coarse: no interior node")
        rim = (interior[0, :].any() or interior[-1, :].any()
               or interior[:, 0].any() or interior[:, -1].any())
        if rim:
            raise ValueError("interior touches the grid rim; no boundary collar left")

        self.grid = grid
        self.kind = kind
        self.params = dict(params or {})
        self.interior = interior
        self.interior.setflags(write=False)
        self.measure = grid.h ** 2 * int(interior.sum())

        index = np.full(interior.shape, -1, dtype=np.int64)
        index[interior] = np.arange(int(interior.sum()))

        ii, jj = np.nonzero(interior)
        self.xs = grid.origin[0] + grid.h * ii
        self.ys = grid.origin[1] + grid.h * jj
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)

        nbr = np.stack([index[ii + 1, jj], index[ii - 1, jj],
                        index[ii, jj + 1], index[ii, jj - 1]], axis=1)
        self.neighbors = nbr
        self.neighbors.setflags(write=False)
        self._ii, self._jj = ii, jj
        self._ops = None  # lazily filled by the energy module

    @property
    def n_interior(self) -> int:
        return self.xs.size

    @property
    def h(self) -> float:
        return self.grid.h

    def contains(self, x, y):
        """Analytic membership test of the underlying continuum region."""
        return _region_contains(self.kind, self.params, x, y)

    def __repr__(self):
        return (f"DomainMask(kind={self.kind!r}, h={self.grid.h:g}, "
                f"nodes={self.n_interior}, measure={self.measure:g})")


def _mask_from_region(grid: Grid, kind: str, params: dict) -> DomainMask:
    X, Y = grid.node_coords()
    inside = _region_contains(kind, params, X, Y)
    inside[0, :] = inside[-1, :] = False
    inside[:, 0] = inside[:, -1] = False
    return DomainMask(grid, inside, kind=kind, params=params)


def build_rectangle(width: float, height: float, h: float) -> DomainMask:
    """Open rectangle (0, width) x (0, height); nodes strictly inside."""
    if width < 2 * h or height < 2 * h:
        raise ValueError("mesh too coarse: rectangle sides must span at least 3 nodes")
    nx = int(np.ceil(width / h - 1e-12)) + 1
    ny = int(np.ceil(height / h - 1e-12)) + 1
    grid = Grid(nx, ny, h)
    return _mask_from_region(grid, "rectangle", {"width": width, "height": height})


def build_disc(radius: float, h: float) -> DomainMask:
    """Open disc of given radius centered at the origin (a grid node)."""
    if radius < 3 * h:
        raise ValueError("mesh too coarse: radius must be at least 3h")
    m = int(np.ceil(radius / h)) + 1
    n = 2 * m + 1
    grid = Grid(n, n, h, origin=(-m * h, -m * h))
    return _mask_from_region(grid, "disc", {"radius": radius})


def build_wedge(m: float, h: float) -> DomainMask:
    """Wedge {m*|y| < x < 1} with the vertex 0 on the boundary.

    The aperture parameter must satisfy m > 1 (the corner-barrier
    denominator m^2*(N-1) - 1 must stay positive).
    """
    if m <= 1:
        raise ValueError("wedge aperture must satisfy m > 1")
    if h > 1 / 20:
        raise ValueError("mesh too coarse for a wedge: need h <= 1/20")
    nx = int(round(1.0 / h)) + 3
    half = int(np.ceil(1.0 / (m * h))) + 1
    ny = 2 * half + 1
    grid = Grid(nx, ny, h, origin=(-h, -half * h))
    return _mask_from_region(grid, "wedge", {"m": m})


def scale_mask(mask: DomainMask, delta: float) -> DomainMask:
    """Node set of delta*Omega = {x : x/delta in Omega} on the same grid.

    Only masks with an analytic region and a scaling-invariant anchor
    (disc centered at 0, wedge with vertex at 0) are eligible.  For
    wedges the result is a subset of the input mask: the cone is
    invariant under shrinking toward its vertex.
    """
    if not 0 < delta < 1:
        raise ValueError("scaling ratio must lie in (0, 1)")
    if mask.kind not in ("disc", "wedge"):
        raise ValueError(f"mask kind {mask.kind!r} is not scaling-compatible")
    scaled_by = mask.params.get("scaled_by", 1.0) * delta
    return _mask_from_region(mask.grid, mask.kind,
                             {**mask.params, "scaled_by": scaled_by})
