"""Growth laws, their rescaled families, and the interspecific coupling.

The single-species law g vanishes on the negative axis, has unit right
derivative at 0, is nonnegative up to its cap beta and negative beyond,
and integrates to alpha > 0 over [0, beta].  Species i >= 2 runs the same
law compressed to the density scale eps_i/sqrt(k):

    f_i(s) = g(sqrt(k) s / eps_i) / (sqrt(k) eps_i),

so its cap is beta_i = beta eps_i / sqrt(k) and its potential integrates
to alpha/k over [0, beta_i].  The coupling H is a nonnegative C^1
penalty that vanishes whenever at most one density is nonzero; the stock
choice is the quartic H(s) = 1/2 sum_{i != j} s_i^2 s_j^2.

The stock law and the quartic carry closed-form second derivatives (g'
and the pointwise Hessian of H), which the free solver's Newton step
uses; they are required fields of ``Nonlinearity`` and ``Coupling``.
``LawStack`` evaluates the laws of every species of a stack of systems
in one call each, as the solvers' objective meets them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Nonlinearity:
    """Single-species growth law g with its structural constants.

    ``G`` is the closed-form antiderivative of g (zero at zero), from which
    every potential is evaluated, and ``dg`` is the derivative of g.
    """

    g: Callable
    beta: float
    gmax: float
    alpha: float
    G: Callable
    dg: Callable


def logistic() -> Nonlinearity:
    """The stock logistic law g(s) = s - s^2 for s > 0, zero otherwise."""
    def g(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 0, s - s * s, 0.0)

    def G(t):
        t = np.asarray(t, dtype=float)
        tp = np.maximum(t, 0.0)
        return tp * tp / 2.0 - tp ** 3 / 3.0

    def dg(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 0, 1.0 - 2.0 * s, 0.0)

    return Nonlinearity(g=g, beta=1.0, gmax=0.25, alpha=1.0 / 6.0, G=G, dg=dg)


@dataclass(frozen=True)
class ScaledFamily:
    """k species laws derived from one base law.

    Species 1 keeps the base law; species i >= 2 are compressed by
    eps[i-2].  With ``identical=True`` every species keeps the base law
    unchanged (the undifferentiated setting in which merging is always
    favorable); eps is then ignored.
    """

    base: Nonlinearity
    k: int
    eps: tuple = ()
    identical: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one species")
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        if not self.identical:
            if len(self.eps) != self.k - 1:
                raise ValueError("need one scale per species beyond the first")
            if any(not 0 < e < 1 for e in self.eps):
                raise ValueError("scales must lie in (0, 1)")

    @property
    def betas(self) -> np.ndarray:
        """Per-species caps; beta_i = beta * eps_i / sqrt(k) for i >= 2."""
        if self.identical:
            return np.full(self.k, self.base.beta)
        b = [self.base.beta]
        b += [self.base.beta * e / np.sqrt(self.k) for e in self.eps]
        return np.array(b)

    def _scale(self, i: int) -> tuple[float, float]:
        """Amplitude and argument factors (a, c) with f_i(s) = a * g(c * s)."""
        if i < 1 or i > self.k:
            raise IndexError(f"species index {i} out of range 1..{self.k}")
        if self.identical or i == 1:
            return 1.0, 1.0
        e = self.eps[i - 2]
        return 1.0 / (np.sqrt(self.k) * e), np.sqrt(self.k) / e


def scaled_family(base: Nonlinearity, k: int, eps) -> ScaledFamily:
    return ScaledFamily(base=base, k=k, eps=tuple(eps))


def identical_family(base: Nonlinearity, k: int) -> ScaledFamily:
    return ScaledFamily(base=base, k=k, identical=True)


class LawStack:
    """The growth laws of a stack of species rows that share one base law.

    ``a`` and ``c`` hold each row's factors of ``ScaledFamily._scale``,
    f(s) = a g(c s), as scalars for one species or in arrays that
    broadcast against the stacks the laws meet: shape (m, k, 1) for m
    systems of k species each.  A row's values do not depend on the rows
    beside it, and when every row runs the base law itself no factor is
    applied (a factor of 1 would multiply exactly).
    """

    def __init__(self, base: Nonlinearity, a: np.ndarray, c: np.ndarray):
        self.base, self.a, self.c = base, a, c
        self.ac, self.aoc = a * c, a / c
        # every row runs the base law itself (k = 1, or identical laws)
        self.plain = bool(np.all(a == 1.0) and np.all(c == 1.0))

    @classmethod
    def of(cls, fams) -> "LawStack":
        """The laws of a list of families, one (k, 1) block per family."""
        base, k = fams[0].base, fams[0].k
        if any(f.base != base or f.k != k for f in fams):
            raise ValueError("stacked families must share one base law and "
                             "species count")
        ac = np.array([[f._scale(i) for i in range(1, k + 1)] for f in fams])
        return cls(base, ac[:, :, :1], ac[:, :, 1:])

    def take(self, rows) -> "LawStack":
        """The laws of the given rows of the stack."""
        return LawStack(self.base, self.a[rows], self.c[rows])

    def f(self, S):
        if self.plain:
            return self.base.g(S)
        return self.a * self.base.g(self.c * S)

    def df(self, S):
        if self.plain:
            return self.base.dg(S)
        return self.ac * self.base.dg(self.c * S)

    def F(self, S):
        if self.plain:
            return self.base.G(S)
        return self.aoc * self.base.G(self.c * S)


@dataclass(frozen=True)
class Coupling:
    """Interaction penalty H and its partial derivatives.

    ``H`` maps a (k, ...) stack of densities to the pointwise penalty;
    ``dH`` returns the full stack of partials with the same shape as its
    input.  ``d2H(s, v)`` applies the pointwise Hessian of H at s to the
    stack v.
    """

    H: Callable
    dH: Callable
    d2H: Callable


def coupling_quartic(k: int) -> Coupling:
    """H(s) = 1/2 sum_{i != j} s_i^2 s_j^2 with dH_i = 2 s_i sum_{j != i} s_j^2.

    Its Hessian applied to v is 2 (sum_j s_j^2 - s_i^2) v_i
    + 4 s_i (sum_j s_j v_j - s_i v_i).
    """
    if k < 2:
        raise ValueError("coupling needs at least two species")

    def H(s):
        s = np.asarray(s, dtype=float)
        s2 = s * s
        tot = s2.sum(axis=0)
        return 0.5 * (tot * tot - (s2 * s2).sum(axis=0))

    def dH(s):
        s = np.asarray(s, dtype=float)
        s2 = s * s
        tot = s2.sum(axis=0)
        return 2.0 * s * (tot - s2)

    def d2H(s, v):
        # the docstring's form regrouped: (2 sum_j s_j^2 - 6 s_i^2) v_i
        # + 4 s_i sum_j s_j v_j, with fewer temporaries
        s = np.asarray(s, dtype=float)
        v = np.asarray(v, dtype=float)
        s2 = s * s
        out = 2.0 * s2.sum(axis=0) - 6.0 * s2
        out *= v
        out += 4.0 * s * (s * v).sum(axis=0)
        return out

    return Coupling(H=H, dH=dH, d2H=d2H)


def cutoff_phi(t):
    """C^2 ramp: 0 on (-inf, 1], 1 on [2, inf), quintic smoothstep between."""
    t = np.asarray(t, dtype=float)
    s = np.clip(t - 1.0, 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)
