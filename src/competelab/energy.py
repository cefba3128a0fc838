"""Discrete energies on masked grids, their exact derivatives, and operators.

The Dirichlet term is ``0.5 * v . (L v)`` for the five-point matrix
``L = -h^2 Laplacian``, applied as a stencil (``_MaskOps.apply``): half
the sum of squared differences over every lattice edge with at least one
interior endpoint (boundary endpoints read zero).  Potential and
interaction terms use nodal quadrature with weight h^2.  With this
convention the map

    grad_i = -Lap(u_i) - lam * f_i(u_i) + kappa * dH_i(U)

is the exact derivative of the total energy up to the factor h^2: the
directional derivative along d equals h^2 * sum(grad * d).  In the same
units the Hessian applied to a stack V is

    L v_i / h^2 - lam * f_i'(u_i) v_i + kappa * (Hess H(U) V)_i.

Also here: the mask's box solve (the inverse that preconditions every
Newton-CG and partition step), ``lambda1`` with its own cheaper
preconditioner (the box's inverse on its low sine modes only), bilinear
rescaled copies of fields, and the CSV and PGM field dumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DomainMask
from .model import Coupling, LawStack, ScaledFamily


# Stacks of at most this many rows (one system's species) reach the
# stencil and the box solve through flat indices cached per row count;
# taller stacks, which only batches of systems make, gather along axis 1,
# so the caches stay bounded however a batch shrinks.
_INDEXED_ROWS = 4


class _MaskOps:
    """Per-mask operator cache (built once, shared read-only)."""

    def __init__(self, mask: DomainMask):
        n = mask.n_interior
        # Neighbour positions in the order L's rows sum them, W, S, N, E
        # (increasing flat index around the diagonal); a missing neighbour
        # reads the zero padding slot n.
        nbr = mask.neighbors[:, [1, 3, 2, 0]].T
        self._nbr = np.where(nbr >= 0, nbr, n)
        self._gather = {}   # row count k -> positions in a padded (k, n+1) stack
        self._box_args = (mask._ii, mask._jj)
        self._box = None
        self.distance = None   # boundary distance, filled by the solve module
        self.lambda1_run = None   # (steps, residual) of the last lambda1 call

    def apply(self, X: np.ndarray) -> np.ndarray:
        """L X for an (n,) vector, or for each row of a (..., n) stack.

        L = -h^2 * discrete Laplacian is symmetric positive definite.  Each
        row gathers its four neighbours from a zero-padded copy of X and
        sums ``0 - W - S + 4x - N - E`` in that order, the order of a sparse
        row product over L's sorted columns, so the result is the same in
        every bit as ``L @ x`` with L assembled as a sparse matrix.
        """
        n = self._nbr.shape[1]
        rows = X.reshape(-1, n)
        k = rows.shape[0]
        if k > _INDEXED_ROWS:
            idx, axis = self._nbr, 1
        else:
            idx, axis = self._gather.get(k), None
            if idx is None:
                idx = self._nbr[:, None, :] + (n + 1) * np.arange(k)[:, None]
                self._gather[k] = idx
        G = np.concatenate((rows, np.zeros((k, 1))), axis=1).take(idx, axis=axis)
        W, S, N, E = G if axis is None else G.swapaxes(0, 1)
        out = np.subtract(0.0, W)
        out -= S
        out += 4.0 * rows
        out -= N
        out -= E
        return out.reshape(X.shape)

    def box_solver(self) -> "_BoxSolver":
        """The mask's box solver, built on first use and cached."""
        if self._box is None:
            self._box = _BoxSolver(*self._box_args)
        return self._box


def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix of order n: symmetric and its own inverse."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


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
    the mask) is still symmetric positive definite, and ``P (L + shift I)``
    has spectrum in [1, mu_max].  On curved masks mu_max grows like 1/h,
    carried by modes along the boundary, so a descent preconditioned by P
    alone needs more steps as the mesh is refined there.  A new shift
    changes only the divisor, so nothing is factorized or rebuilt per shift.
    """

    def __init__(self, ii, jj):
        rows, cols = ii - ii.min(), jj - jj.min()
        nx, ny = int(rows.max()) + 1, int(cols.max()) + 1
        self.flat = rows * ny + cols     # mask node -> position in the box
        self.sx, self.sy = _sine_matrix(nx), _sine_matrix(ny)
        ex = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, nx + 1) / (nx + 1))
        ey = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, ny + 1) / (ny + 1))
        self.eig = ex[:, None] + ey[None, :]
        self._scatter = {}   # row count k -> flat positions in a (k, box) array
        self._low = None

    def solve(self, B: np.ndarray, shifts) -> np.ndarray:
        """Apply the shifted inverse to each row of B (shape (..., n)).

        ``shifts`` is one shift per row (in any shape with that many
        entries), or a scalar, in the units of L.
        """
        B = np.asarray(B, dtype=float)
        rows = B.reshape(-1, B.shape[-1])
        k = rows.shape[0]
        if k > _INDEXED_ROWS:
            box = np.zeros((k, self.eig.size))
            box[:, self.flat] = rows
            box = box.reshape((k,) + self.eig.shape)
        else:
            box = np.zeros((k,) + self.eig.shape)
            np.put(box, self._scatter_index(k), rows)
        coef = self.sx @ box @ self.sy
        coef /= self.eig + np.asarray(shifts, dtype=float).reshape(-1, 1, 1)
        out = (self.sx @ coef @ self.sy).reshape(k, -1)
        return out.take(self.flat, axis=1).reshape(B.shape)

    def _scatter_index(self, k: int) -> np.ndarray:
        """Flat positions of a (k, n) stack's entries in a (k, box) array."""
        idx = self._scatter.get(k)
        if idx is None:
            idx = (self.flat + self.eig.size * np.arange(k)[:, None]).ravel()
            self._scatter[k] = idx
        return idx

    def low_mode_inverse(self) -> "_LowModeInverse":
        """``lambda1``'s preconditioner on this box, built on first use and
        cached."""
        if self._low is None:
            self._low = _LowModeInverse(self)
        return self._low


# Sine modes kept per box axis by ``_LowModeInverse``: this fraction of the
# axis, and every mode of an axis of at most _FULL_MODES nodes.
_KEPT_FRACTION = 0.35
_FULL_MODES = 32


class _LowModeInverse:
    """``T = sigma^-1 I + S_K (Lambda_K^-1 - sigma^-1) S_K^T`` on the box,
    restricted to the mask: the box solve on the lowest ``K_x x K_y`` sine
    modes and a scaled identity on the rest.

    ``S_K`` holds the first ``K = max(ceil(_KEPT_FRACTION n), min(n,
    _FULL_MODES))`` sine vectors of each axis of n nodes (0.35 n, and all
    of an axis of at most 32 nodes) and ``Lambda_K`` their eigenvalues
    ``eig[:K_x, :K_y]``; ``sigma`` is the smallest eigenvalue left out,
    ``min(eig[K_x, 0], eig[0, K_y])``.  In the sine basis T is ``1/e`` on
    the modes kept and ``1/sigma`` on the rest, so it is symmetric positive
    definite, and restricting it to the mask keeps it so.  Where every mode
    of both axes is kept there is nothing left out, ``1/sigma`` is 0 and T
    is the box solve.  A call scatters r into the box, makes two skinny
    products each way, scales the K_x x K_y coefficients and adds r/sigma:
    at K = 0.35 n a quarter of the arithmetic of the box solve's four n^3
    products.
    """

    def __init__(self, box: _BoxSolver):
        nx, ny = box.eig.shape
        kx, ky = (max(math.ceil(_KEPT_FRACTION * n), min(n, _FULL_MODES))
                  for n in (nx, ny))
        sigma = min(box.eig[kx, 0] if kx < nx else math.inf,
                    box.eig[0, ky] if ky < ny else math.inf)
        self.inv_sigma = 1.0 / sigma
        # Each sine matrix is symmetric, so its first K rows are S_K^T.
        self.sx, self.sy = box.sx[:kx], box.sy[:ky]
        self.scale = 1.0 / box.eig[:kx, :ky] - self.inv_sigma
        self.flat, self.shape = box.flat, box.eig.shape

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """T r for an (n,) vector r on the mask."""
        box = np.zeros(self.shape)
        box.reshape(-1)[self.flat] = r
        coef = self.sx @ box @ self.sy.T
        coef *= self.scale
        out = (self.sx.T @ coef @ self.sy).ravel().take(self.flat)
        out += self.inv_sigma * r
        return out


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
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError("growth scale lam must be finite and positive, "
                             f"got {lam!r}")
        if not (math.isfinite(kappa) and kappa >= 0):
            raise ValueError("competition rate kappa must be finite and "
                             f"nonnegative, got {kappa!r}")
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

    @property
    def coupled(self) -> bool:
        """Whether the coupling enters the energy: kappa > 0, a coupling
        and at least two species."""
        return self.kappa > 0 and self.coupling is not None and self.k > 1

    def stacked(self) -> np.ndarray:
        return np.stack([f.values for f in self.fields], axis=0)

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


class Objective:
    """The total energy of a stack of systems of k densities on one mask:
    value, gradient, Hessian, Sobolev shifts and report.

    Built from the model parameters, so one objective serves every iterate
    of a solve.  Its iterates are (m, k, n) stacks, row b for system b:
    ``Objective.many(systems)`` takes the parameters from systems on one
    mask, a one-system list for one system.  Each row keeps its own lam,
    species laws and kappa and gets the values its own system's objective
    gives, bit for bit; the rows share only the numpy calls.  Species
    energies are J_i(v) = 0.5 v.(L v) - lam h^2 sum F_i(v); the total adds
    kappa h^2 sum H(U) when kappa > 0 and there are two or more species to
    couple.  The first ``n_coupled`` rows are the coupled ones and share
    one coupling, which meets them as one (k, m, n) stack.
    ``hessian(U)`` returns the Hessian of the total at U as an operator on
    stacks, with the factors that depend on U alone computed once.  L
    meets a whole stack in one call of the mask's five-point stencil
    (``_MaskOps.apply``).
    """

    def __init__(self, mask, laws, lams, coupling, kappas, n_coupled):
        self.mask, self.laws, self.coupling = mask, laws, coupling
        self.apply_L = _ops(mask).apply
        self.h2 = mask.h ** 2
        self.lams, self.kappas, self.n_coupled = lams, kappas, n_coupled
        self.lam = lams[:, None, None]
        self.lamh2 = (lams * self.h2)[:, None]
        self.kappa = kappas[:n_coupled, None, None]
        self.kh2 = kappas[:n_coupled] * self.h2

    @classmethod
    def many(cls, systems) -> "Objective":
        """The objective of a list of systems on one mask, one row each.

        The coupled systems (kappa > 0, a coupling and k > 1) must come
        first and share one coupling.  The first system's coupling is kept
        also when no row is coupled, for ``report``'s interaction."""
        mask = systems[0].mask
        if any(s.mask is not mask for s in systems):
            raise ValueError("stacked systems must share one mask")
        coupled = [s.coupled for s in systems]
        n_coupled = sum(coupled)
        coupling = systems[0].coupling
        if any(coupled[n_coupled:]) or any(
                s.coupling is not coupling for s in systems[:n_coupled]):
            raise ValueError("the coupled systems of a stack must come first "
                             "and share one coupling")
        return cls(mask, LawStack.of([s.fam for s in systems]),
                   np.array([s.lam for s in systems]), coupling,
                   np.array([s.kappa for s in systems]), n_coupled)

    def take(self, rows) -> "Objective":
        """The objective of the given rows (ascending indices) of a stack."""
        return Objective(self.mask, self.laws.take(rows), self.lams[rows],
                         self.coupling, self.kappas[rows],
                         int(np.searchsorted(rows, self.n_coupled)))

    @classmethod
    def species_of(cls, systems) -> "Objective":
        """The species of a list of systems on one mask as the rows of one
        uncoupled stack: row b k + i is species i of system b alone, a
        (1, n) stack whose energy is J_i."""
        mask = systems[0].mask
        if any(s.mask is not mask for s in systems):
            raise ValueError("stacked systems must share one mask")
        laws = LawStack.of([s.fam for s in systems])
        rows = laws.a.size
        return cls(mask, LawStack(laws.base, laws.a.reshape(rows, 1, 1),
                                  laws.c.reshape(rows, 1, 1)),
                   np.repeat([s.lam for s in systems], laws.a.shape[1]), None,
                   np.zeros(rows), 0)

    def shifts(self) -> np.ndarray:
        """Per species row, the shift s_i h^2 of the Sobolev metric
        L + s_i h^2 I, in a shape that broadcasts against the stacks.

        s_i = lam a_i c_i is the slope |f_i'(beta_i)| of species i's scaled
        law at its cap, so each species is preconditioned on its own
        density scale.
        """
        return self.lam * self.laws.a * self.laws.c * self.h2

    def _coupled(self, fn, *stacks):
        """The coupling function ``fn`` on the coupled rows of (m, k, n)
        stacks, which it meets species first, as a (k, m, n) stack."""
        return fn(*(S[:self.n_coupled].swapaxes(0, 1) for S in stacks))

    def value(self, U: np.ndarray):
        """Total energy of each row of the (m, k, n) stack U, and the
        product L @ U, which ``grad`` reuses."""
        LU = self.apply_L(U)
        # np.vecdot and the reduce over the last axis give each row the
        # bits ``v @ Lv`` and ``np.sum`` give it alone; the species are
        # summed in order, as one system's scalar sum would be.
        es = 0.5 * np.vecdot(U, LU) - self.lamh2 * np.add.reduce(
            self.laws.F(U), axis=-1)
        e = es[:, 0]
        for i in range(1, es.shape[1]):
            e = e + es[:, i]
        if self.n_coupled:
            e[:self.n_coupled] += self.kh2 * np.add.reduce(
                self._coupled(self.coupling.H, U), axis=-1)
        return e, LU

    def grad(self, U: np.ndarray, LU: np.ndarray) -> np.ndarray:
        """Stack of nodal gradients -Lap(u_i) - lam f_i(u_i) + kappa dH_i."""
        g = LU / self.h2 - self.lam * self.laws.f(U)
        if self.n_coupled:
            g[:self.n_coupled] += self.kappa * self._coupled(
                self.coupling.dH, U).swapaxes(0, 1)
        return g

    def hessian(self, U: np.ndarray):
        """The Hessian at U as a map on stacks V, in the units of ``grad``:
        V -> L v_i / h^2 - lam f_i'(u_i) v_i + kappa (Hess H(U) V)_i.

        The growth curvature lam f_i'(u_i) is evaluated here, once; each
        application costs one stencil product and, when coupled, one
        ``Coupling.d2H``.
        """
        return _Hessian(self, U, self.lam * self.laws.df(U))

    def report(self, U: np.ndarray) -> EnergyReport:
        """Per-term breakdown of the energy of one system's stack U.

        The interaction h^2 sum H(U) is reported whenever a coupling is set
        and k > 1, also at kappa = 0, where it does not enter the total.
        """
        dir_terms = 0.5 * np.vecdot(U, self.apply_L(U))
        pot_terms = self.lamh2[0] * np.add.reduce(self.laws.F(U[None])[0],
                                                  axis=-1)
        if self.coupling is not None and U.shape[0] > 1:
            interaction = self.h2 * float(np.sum(self.coupling.H(U)))
        else:
            interaction = 0.0
        kappa = float(self.kappas[0])
        total = float(dir_terms.sum() - pot_terms.sum() + kappa * interaction)
        return EnergyReport(dirichlet=dir_terms, potential=pot_terms,
                            interaction=interaction, kappa=kappa, total=total)


class _Hessian:
    """An objective's Hessian at the (m, k, n) stack U, as a map on stacks."""

    def __init__(self, obj: Objective, U: np.ndarray, curv: np.ndarray):
        self.obj, self.U, self.curv = obj, U, curv

    def __call__(self, V: np.ndarray) -> np.ndarray:
        obj = self.obj
        out = obj.apply_L(V) / obj.h2 - self.curv * V
        if obj.n_coupled:
            out[:obj.n_coupled] += obj.kappa * obj._coupled(
                obj.coupling.d2H, self.U, V).swapaxes(0, 1)
        return out

    def take(self, rows) -> "_Hessian":
        """The Hessian of the given rows (ascending indices)."""
        return _Hessian(self.obj.take(rows), self.U[rows], self.curv[rows])


def energy_total(sys: SpeciesSystem) -> EnergyReport:
    return Objective.many([sys]).report(sys.stacked())


def energy_gradient(sys: SpeciesSystem) -> np.ndarray:
    """Stack (k, n) of nodal gradients -Lap(u_i) - lam f_i(u_i) + kappa dH_i."""
    obj, U = Objective.many([sys]), sys.stacked()[None]
    return obj.grad(U, obj.apply_L(U))[0]


def single_species_energy(field: DensityField, i: int, fam: ScaledFamily,
                          lam: float) -> float:
    """J-energy of species i (1-based) alone: Dirichlet minus its potential
    term, the energy of its row of an ``Objective.species_of`` stack."""
    obj = Objective(field.mask, LawStack(fam.base, *fam._scale(i)),
                    np.array([lam], dtype=float), None, np.zeros(1), 0)
    return float(obj.value(field.values[None, None])[0][0])


def _lambda1_run(mask: DomainMask) -> tuple[int, float]:
    """Steps and final relative residual |L x - mu x| / mu of the last
    ``lambda1`` call on the mask."""
    return _ops(mask).lambda1_run


def _rayleigh(x: np.ndarray, Lx: np.ndarray):
    """Rayleigh quotient mu of x, the residual L x - mu x, and the
    residual's norm over |x|."""
    xx = float(x @ x)
    mu = float(x @ Lx) / xx
    r = Lx - mu * x
    return mu, r, math.sqrt(float(r @ r) / xx)


def lambda1(mask: DomainMask, tol: float = 1e-8, max_iters: int = 10000) -> float:
    """Smallest Dirichlet eigenvalue of -Laplacian on the mask.

    Block-size-one LOBPCG (Knyazev 2001) on the five-point matrix L,
    preconditioned by the box's low-mode inverse (``_LowModeInverse``: the
    box solve on the box's lowest sine modes, a scaled identity on the
    rest) and started from the box's first sine mode, which is the exact
    eigenvector on a rectangle, where no step is taken and the
    preconditioner is never built.  Each step takes the Rayleigh-Ritz
    minimum over span(x, w, p) from the 3x3 Gram matrices of the iterate
    x, the preconditioned residual w and the previous direction p; p is
    dropped for a step whose Gram matrix is not numerically positive
    definite.  A step makes one stencil product, L w: L x and L p are
    carried through the Ritz combination.  The iteration stops once the
    residual of the iterate scaled to unit norm satisfies
    |L x - mu x| <= sqrt(tol) * mu, tested again on a freshly computed
    L x before it returns.  By Kato-Temple the Rayleigh quotient mu then
    exceeds the eigenvalue by at most |L x - mu x|^2 / (lambda_2 - mu),
    that is by at most tol * mu / (lambda_2 / mu - 1) relative to it, and
    never lies below it beyond round-off.  The step count and that final
    relative residual are kept on the mask and read by ``_lambda1_run``.
    """
    ops = _ops(mask)
    L, box = ops.apply, ops.box_solver()
    x = np.outer(box.sx[:, 0], box.sy[:, 0]).ravel()[box.flat]
    # Rows w, x, p of the Ritz basis and their products with L.
    V, LV = np.empty((2, 3, x.size))
    V[1] = x / np.linalg.norm(x)
    LV[1] = L(V[1])
    fresh, m, T = True, 2, None   # m: rows w, x (and p) in the basis
    for steps in range(max_iters):
        mu, r, res = _rayleigh(V[1], LV[1])
        if res <= np.sqrt(tol) * mu and not fresh:
            # Stop only on a true residual: drop the carried L x.
            LV[1] = L(V[1])
            mu, r, res = _rayleigh(V[1], LV[1])
            fresh = True
        if fresh and res <= np.sqrt(tol) * mu:
            ops.lambda1_run = (steps, res / mu)
            return mu / mask.h ** 2
        if T is None:
            T = box.low_mode_inverse()
        V[0] = T(r)
        V[0] /= np.linalg.norm(V[0])
        LV[0] = L(V[0])
        # np.vecdot over broadcast rows: a third of the time of V @ V.T here.
        G = np.vecdot(V[:m, None], V[None, :m])
        try:
            C = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            m = 2
            C = np.linalg.cholesky(G[:2, :2])
        A = np.vecdot(V[:m, None], LV[None, :m])
        Ci = np.linalg.inv(C)
        _, Y = np.linalg.eigh(Ci @ (0.5 * (A + A.T)) @ Ci.T)
        c = Ci.T @ Y[:, 0]
        # The new x = c . V has unit G-norm; the new direction p is x less
        # its old-x part, scaled to unit G-norm, or dropped when it is 0.
        M = np.array([c, c])
        M[1, 1] = 0.0
        q = float(M[1] @ G[:m, :m] @ M[1])
        if q > 0:
            M[1] /= math.sqrt(q)
        rows = 2 if q > 0 else 1
        V[1:1 + rows], LV[1:1 + rows] = M[:rows] @ V[:m], M[:rows] @ LV[:m]
        m, fresh = 1 + rows, False
    raise RuntimeError(f"eigenvalue iteration did not converge in {max_iters} steps")


def rescaled_copy(field: DensityField, eps: float, k: int,
                  x0=(0.0, 0.0)) -> DensityField:
    """Shrunken low-amplitude copy w(x) = (eps/sqrt(k)) * u((x - x0)/eps).

    Samples u by bilinear interpolation on its grid, reading zero outside
    the source interior, so nonnegativity is preserved.  With eps = 1/p
    for integer p and x0 on the lattice, sample points hit source nodes
    exactly.
    """
    if eps <= 0:
        raise ValueError("scale eps must be positive")
    mask = field.mask
    xq = (mask.xs - x0[0]) / eps
    yq = (mask.ys - x0[1]) / eps
    vals = (eps / np.sqrt(k)) * bilinear_sample(field, xq, yq)
    return DensityField(mask, vals)


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


def field_to_pgm(field: DensityField, path, cap: float) -> None:
    """8-bit grayscale portable graymap, values scaled by the species cap."""
    dense = field.to_grid()
    img = np.clip(np.round(255.0 * dense / cap), 0, 255).astype(np.uint8)
    with open(str(path), "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes())
