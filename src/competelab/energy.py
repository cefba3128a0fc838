"""Discrete energies on masked grids and their exact gradients.

The Dirichlet term sums forward differences over every lattice edge with
at least one interior endpoint (boundary endpoints read zero), which
makes it exactly ``0.5 * v . (L v)`` for the five-point matrix
``L = -h^2 Laplacian``.  Potential and interaction terms use nodal
quadrature with weight h^2.  With this convention the map

    grad_i = -Lap(u_i) - lam * f_i(u_i) + kappa * dH_i(U)

is the exact derivative of the total energy up to the factor h^2: the
directional derivative along d equals h^2 * sum(grad * d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import DomainMask
from .model import Coupling, ScaledFamily, F_eval, f_eval


# The refined mask solve: relative residual of its conjugate-gradient
# iteration, the iteration cap, and the power steps of the overshoot test.
MASK_SOLVE_TOL = 0.1
MASK_SOLVE_MAXITER = 50
OVERSHOOT_ITERS = 5


class _MaskOps:
    """Per-mask stencil operator cache (built once, shared read-only)."""

    def __init__(self, mask: DomainMask):
        n = mask.n_interior
        nbr = mask.neighbors
        rows = [np.arange(n)]
        cols = [np.arange(n)]
        vals = [np.full(n, 4.0)]
        for d in range(4):
            has = nbr[:, d] >= 0
            rows.append(np.nonzero(has)[0])
            cols.append(nbr[has, d])
            vals.append(np.full(int(has.sum()), -1.0))
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        # L = -h^2 * discrete Laplacian, symmetric positive definite
        self.L = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        self._box_args = (mask._ii, mask._jj, (nbr < 0).any(axis=1))
        self._box = None

    def box_solver(self) -> "_BoxSolver":
        """The mask's box solver, built on first use and cached."""
        if self._box is None:
            self._box = _BoxSolver(self.L, *self._box_args)
        return self._box


def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix of order n: symmetric and its own inverse."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


def _rowdot(A, B):
    return np.einsum("ij,ij->i", A, B)


def _ratio(a, b):
    """a / b, reading 0 where b is 0 (rows that are already solved)."""
    return np.divide(a, b, out=np.zeros_like(a), where=b > 0)


class _BoxSolver:
    """Matrix-free ``(L_box + shift I)^-1`` restricted to the mask.

    ``L_box`` is the five-point matrix on the bounding box of the interior
    nodes, with zero Dirichlet data around the box.  The orthonormal DST-I
    matrices ``S_n[j, l] = sqrt(2/(n+1)) sin(pi j l/(n+1))`` diagonalize it,
    so a solve is ``S_x (S_x X S_y / eig) S_y`` for the box array X, with
    ``eig = 2 - 2cos(p pi/(Nx+1)) + 2 - 2cos(q pi/(Ny+1)) + shift``.  Each
    ``S_n`` is symmetric and its own inverse, and is built once per box.
    Dense products cost more arithmetic than a fast transform but no
    per-call set-up, which is what dominates on the lab's boxes (README,
    "Solver").  On a rectangle the box is the mask and the solve is exact; on
    any other mask ``P = R (L_box + shift I)^-1 R^T`` (R the restriction to
    the mask) is still symmetric positive definite.  A new shift changes
    only the divisor, so nothing is factorized or rebuilt per shift.
    """

    def __init__(self, L, ii, jj, rim):
        self.L = L
        rows, cols = ii - ii.min(), jj - jj.min()
        nx, ny = int(rows.max()) + 1, int(cols.max()) + 1
        self.flat = rows * ny + cols     # mask node -> position in the box
        self.sx, self.sy = _sine_matrix(nx), _sine_matrix(ny)
        ex = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, nx + 1) / (nx + 1))
        ey = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, ny + 1) / (ny + 1))
        self.eig = ex[:, None] + ey[None, :]
        self.exact = ii.size == nx * ny  # the mask fills its box
        self._rim = rim.astype(float)    # nodes with a non-interior neighbor
        self._overshoot = {}

    def solve(self, B: np.ndarray, shifts) -> np.ndarray:
        """Apply the shifted inverse to each row of B (shape (k, n) or (n,)).

        ``shifts`` is one shift per row, or a scalar, in the units of L.
        """
        B = np.asarray(B, dtype=float)
        rows = np.atleast_2d(B)
        box = np.zeros((rows.shape[0], self.eig.size))
        box[:, self.flat] = rows
        box = box.reshape((-1,) + self.eig.shape)
        coef = self.sx @ box @ self.sy
        coef /= self.eig + np.asarray(shifts, dtype=float).reshape(-1, 1, 1)
        out = (self.sx @ coef @ self.sy).reshape(rows.shape[0], -1)
        return out[:, self.flat].reshape(B.shape)

    def mask_solve(self, B: np.ndarray, shifts) -> np.ndarray:
        """Rows of ``(L + shift_i I)^-1 B_i`` on the mask itself.

        ``P (L + shift I)`` has spectrum in [1, mu_max], and mu_max grows
        like 1/h on curved masks, carried by modes along the boundary.
        Where mu_max <= 2 a unit step along ``P b`` contracts every mode,
        so the box solve is returned as it is (always on rectangles).
        Elsewhere those modes would grow under unit steps and stall the
        descent on fine meshes, so the box solve preconditions conjugate
        gradients on the mask, run until the residual is below
        MASK_SOLVE_TOL times |b|.
        """
        B = np.asarray(B, dtype=float)
        rows = np.atleast_2d(B)
        shifts = np.broadcast_to(np.asarray(shifts, dtype=float),
                                 (rows.shape[0],))
        Z = self.solve(rows, shifts)
        refine = [i for i, s in enumerate(shifts) if self._overshoots(s)]
        if refine:
            Z[refine] = self._pcg(rows[refine], Z[refine], shifts[refine])
        return Z.reshape(B.shape)

    def _pcg(self, B, Z, shifts):
        """Preconditioned conjugate gradients from zero; Z = P B."""
        X = np.zeros_like(B)
        R = B.copy()
        D = Z.copy()
        rz = _rowdot(R, Z)
        stop = MASK_SOLVE_TOL ** 2 * _rowdot(B, B)
        for _ in range(MASK_SOLVE_MAXITER):
            AD = (self.L @ D.T).T + shifts[:, None] * D
            alpha = _ratio(rz, _rowdot(D, AD))
            X += alpha[:, None] * D
            R -= alpha[:, None] * AD
            if np.all(_rowdot(R, R) <= stop):
                break
            Z = self.solve(R, shifts)
            rz_new = _rowdot(R, Z)
            D = Z + _ratio(rz_new, rz)[:, None] * D
            rz = rz_new
        return X

    def _overshoots(self, shift: float) -> bool:
        """Whether mu_max of ``P (L + shift I)`` exceeds 2 (cached per shift).

        A few power steps from the rim indicator, which excites the
        boundary modes; each Rayleigh quotient is a lower bound on mu_max.
        """
        if self.exact:
            return False
        shift = float(shift)
        if shift not in self._overshoot:
            v = self._rim
            for _ in range(OVERSHOOT_ITERS):
                z = self.L @ v + shift * v
                w = self.solve(z, shift)
                mu = float(z @ w) / float(v @ z)
                v = w / np.linalg.norm(w)
            self._overshoot[shift] = mu > 2.0
        return self._overshoot[shift]


def _ops(mask: DomainMask) -> _MaskOps:
    if mask._ops is None:
        mask._ops = _MaskOps(mask)
    return mask._ops


class DensityField:
    """One species density: a value per interior node of a mask."""

    __slots__ = ("mask", "values")

    def __init__(self, mask: DomainMask, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (mask.n_interior,):
            raise ValueError("value vector length does not match mask")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.mask = mask
        self.values = values

    @classmethod
    def zeros(cls, mask: DomainMask) -> "DensityField":
        return cls(mask, np.zeros(mask.n_interior))

    @classmethod
    def from_function(cls, mask: DomainMask, fn) -> "DensityField":
        return cls(mask, np.asarray(fn(mask.xs, mask.ys), dtype=float))

    def copy(self) -> "DensityField":
        return DensityField(self.mask, self.values.copy())

    def to_grid(self) -> np.ndarray:
        """Dense (nx, ny) array with zeros outside the interior."""
        out = np.zeros((self.mask.grid.nx, self.mask.grid.ny))
        out[self.mask.interior] = self.values
        return out

    def l2_mass(self) -> float:
        return float(np.sqrt(self.mask.h ** 2 * np.sum(self.values ** 2)))


class SpeciesSystem:
    """k density fields on one mask plus the model parameters."""

    __slots__ = ("mask", "fields", "fam", "coupling", "lam", "kappa")

    def __init__(self, fields, fam: ScaledFamily, coupling: Coupling | None,
                 lam: float, kappa: float = 0.0):
        fields = list(fields)
        if not fields:
            raise ValueError("need at least one field")
        mask = fields[0].mask
        if any(f.mask is not mask for f in fields):
            raise ValueError("all fields must share one mask")
        if len(fields) != fam.k:
            raise ValueError("field count must match the family's species count")
        if lam <= 0:
            raise ValueError("growth scale lam must be positive")
        if kappa < 0:
            raise ValueError("competition rate kappa must be nonnegative")
        if kappa > 0 and coupling is None and fam.k > 1:
            raise ValueError("positive kappa requires a coupling")
        self.mask = mask
        self.fields = fields
        self.fam = fam
        self.coupling = coupling
        self.lam = float(lam)
        self.kappa = float(kappa)

    @property
    def k(self) -> int:
        return self.fam.k

    def stacked(self) -> np.ndarray:
        return np.stack([f.values for f in self.fields], axis=0)

    def copy(self) -> "SpeciesSystem":
        return SpeciesSystem([f.copy() for f in self.fields], self.fam,
                             self.coupling, self.lam, self.kappa)

    def replace_values(self, stacked: np.ndarray) -> "SpeciesSystem":
        fields = [DensityField(self.mask, stacked[i]) for i in range(self.k)]
        return SpeciesSystem(fields, self.fam, self.coupling, self.lam, self.kappa)


@dataclass(frozen=True)
class EnergyReport:
    """Per-term energy breakdown; total = sum(dirichlet - potential) + kappa*interaction."""

    dirichlet: np.ndarray
    potential: np.ndarray
    interaction: float
    kappa: float
    total: float


def dirichlet_energy(field: DensityField) -> float:
    """0.5 * integral of |grad u|^2, via edge-based forward differences."""
    L = _ops(field.mask).L
    return 0.5 * float(field.values @ (L @ field.values))


def laplacian(field: DensityField) -> DensityField:
    """Five-point discrete Laplacian; exterior neighbors read zero."""
    L = _ops(field.mask).L
    h2 = field.mask.h ** 2
    return DensityField(field.mask, -(L @ field.values) / h2)


def energy_total(sys: SpeciesSystem) -> EnergyReport:
    h2 = sys.mask.h ** 2
    dir_terms = np.array([dirichlet_energy(f) for f in sys.fields])
    pot_terms = np.array([
        sys.lam * h2 * float(np.sum(F_eval(sys.fam, i + 1, f.values)))
        for i, f in enumerate(sys.fields)
    ])
    if sys.coupling is not None and sys.k > 1:
        interaction = h2 * float(np.sum(sys.coupling.H(sys.stacked())))
    else:
        interaction = 0.0
    total = float(dir_terms.sum() - pot_terms.sum() + sys.kappa * interaction)
    return EnergyReport(dirichlet=dir_terms, potential=pot_terms,
                        interaction=interaction, kappa=sys.kappa, total=total)


def energy_gradient(sys: SpeciesSystem) -> np.ndarray:
    """Stack (k, n) of nodal gradients -Lap(u_i) - lam f_i(u_i) + kappa dH_i."""
    L = _ops(sys.mask).L
    h2 = sys.mask.h ** 2
    U = sys.stacked()
    grad = np.empty_like(U)
    for i in range(sys.k):
        grad[i] = (L @ U[i]) / h2 - sys.lam * f_eval(sys.fam, i + 1, U[i])
    if sys.kappa > 0 and sys.coupling is not None and sys.k > 1:
        grad += sys.kappa * sys.coupling.dH(U)
    return grad


def single_species_energy(field: DensityField, i: int, fam: ScaledFamily,
                          lam: float) -> float:
    """J-energy of one species alone: Dirichlet minus its potential term."""
    h2 = field.mask.h ** 2
    return dirichlet_energy(field) - lam * h2 * float(
        np.sum(F_eval(fam, i, field.values)))


def _cg(matvec, b, tol=1e-10, maxiter=100000):
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    b2 = np.sqrt(rs)
    if b2 == 0:
        return x
    for _ in range(maxiter):
        Ap = matvec(p)
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * b2:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def lambda1(mask: DomainMask, tol: float = 1e-8, max_iters: int = 10000) -> float:
    """Smallest Dirichlet eigenvalue of -Laplacian on the mask.

    Inverse power iteration; each inner solve runs conjugate gradients on
    the SPD five-point matrix to relative residual 1e-10.
    """
    L = _ops(mask).L
    h2 = mask.h ** 2
    matvec = lambda v: L @ v
    n = mask.n_interior
    v = np.ones(n) / np.sqrt(n)
    lam_old = np.inf
    for it in range(max_iters):
        w = _cg(matvec, v)
        nrm = float(np.linalg.norm(w))
        v = w / nrm
        lam = float(v @ (L @ v)) / h2
        if abs(lam - lam_old) <= tol * abs(lam):
            return lam
        lam_old = lam
    raise RuntimeError(f"eigenvalue iteration did not converge in {max_iters} steps")


def rescaled_copy(field: DensityField, eps: float, k: int, x0=(0.0, 0.0),
                  target_mask: DomainMask | None = None) -> DensityField:
    """Shrunken low-amplitude copy w(x) = (eps/sqrt(k)) * u((x - x0)/eps).

    Samples u by bilinear interpolation on its grid, reading zero outside
    the source interior, so nonnegativity is preserved.  With eps = 1/p
    for integer p and x0 on the lattice, sample points hit source nodes
    exactly.
    """
    if eps <= 0:
        raise ValueError("scale eps must be positive")
    tgt = target_mask if target_mask is not None else field.mask
    xq = (tgt.xs - x0[0]) / eps
    yq = (tgt.ys - x0[1]) / eps
    vals = (eps / np.sqrt(k)) * bilinear_sample(field, xq, yq)
    return DensityField(tgt, vals)


def bilinear_sample(field: DensityField, xq, yq) -> np.ndarray:
    """Bilinear interpolation of the zero-extended field at query points."""
    g = field.mask.grid
    dense = field.to_grid()
    fx = (np.asarray(xq, dtype=float) - g.origin[0]) / g.h
    fy = (np.asarray(yq, dtype=float) - g.origin[1]) / g.h
    i0 = np.floor(fx).astype(np.int64)
    j0 = np.floor(fy).astype(np.int64)
    tx = fx - i0
    ty = fy - j0

    def cell(ii, jj):
        ok = (ii >= 0) & (ii < g.nx) & (jj >= 0) & (jj < g.ny)
        out = np.zeros(ii.shape)
        out[ok] = dense[ii[ok], jj[ok]]
        return out

    return ((1 - tx) * (1 - ty) * cell(i0, j0)
            + tx * (1 - ty) * cell(i0 + 1, j0)
            + (1 - tx) * ty * cell(i0, j0 + 1)
            + tx * ty * cell(i0 + 1, j0 + 1))


def field_to_csv(field: DensityField, path) -> None:
    """Row-major dense matrix with boundary written as zero."""
    np.savetxt(str(path), field.to_grid(), delimiter=",", fmt="%.17g")


def field_to_pgm(field: DensityField, path, cap: float | None = None) -> None:
    """8-bit grayscale portable graymap, values scaled by the species cap."""
    dense = field.to_grid()
    cap = float(cap) if cap else max(float(dense.max()), 1e-300)
    img = np.clip(np.round(255.0 * dense / cap), 0, 255).astype(np.uint8)
    with open(str(path), "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes())
