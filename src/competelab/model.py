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
uses; a law or coupling built without them gets central differences of
g or dH with step ANTIDERIVATIVE_STEP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# The central-difference checks of G against g (custom_nonlinearity) and
# of dH against H (custom_coupling): sample count on (0, 2 beta] for G,
# step (relative to beta for G), and tolerance relative to max(1, max |g|)
# or max(1, max |dH|).  The step also derives g' and the Hessian of H
# when they are not given in closed form.
ANTIDERIVATIVE_SAMPLES = 64
ANTIDERIVATIVE_STEP = 1e-6
ANTIDERIVATIVE_TOL = 1e-4


@dataclass(frozen=True)
class Nonlinearity:
    """Single-species growth law g with its structural constants.

    ``G`` is the closed-form antiderivative of g (zero at zero), from which
    every potential is evaluated.  ``dg`` is the derivative of g; left out,
    it is the central difference of g with step ANTIDERIVATIVE_STEP * beta.
    """

    g: Callable
    beta: float
    gmax: float
    alpha: float
    G: Callable
    name: str = "custom"
    dg: Callable | None = None

    def __post_init__(self):
        if self.dg is None:
            object.__setattr__(self, "dg", _central_slope(
                self.g, ANTIDERIVATIVE_STEP * self.beta))


def _central_slope(g: Callable, step: float) -> Callable:
    """The central difference (g(s + step) - g(s - step)) / (2 step)."""
    def dg(s):
        s = np.asarray(s, dtype=float)
        return (np.asarray(g(s + step), dtype=float)
                - np.asarray(g(s - step), dtype=float)) / (2.0 * step)
    return dg


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

    return Nonlinearity(g=g, beta=1.0, gmax=0.25, alpha=1.0 / 6.0, G=G,
                        name="logistic", dg=dg)


def custom_nonlinearity(g: Callable, G: Callable, beta: float, gmax: float,
                        name: str = "custom") -> Nonlinearity:
    """Wrap a user-supplied law and its antiderivative, checking both.

    The checks are numerical: g must vanish on sampled non-positive
    points, satisfy |g(t)/t - 1| < 0.05 at t = 1e-6 (unit right slope) and
    be negative at sampled points beyond beta.  G must vanish at 0 and
    its central-difference slope must match g at sampled points of
    (0, 2 beta], which ties alpha = G(beta) to the integral of g over
    [0, beta]; alpha must be positive.  The law's derivative is the
    central difference of g.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    for s in (-1.0, -1e-3, 0.0):
        if abs(float(g(s))) > 0:
            raise ValueError("growth law must vanish on (-inf, 0]")
    t = 1e-6
    if abs(float(g(t)) / t - 1.0) >= 0.05:
        raise ValueError("growth law must have unit right derivative at 0")
    for s in (1.01 * beta, 1.5 * beta, 3.0 * beta):
        if float(g(s)) >= 0:
            raise ValueError("growth law must be negative beyond beta")
    if float(G(0.0)) != 0.0:
        raise ValueError("antiderivative must vanish at 0")
    s = np.linspace(0.0, 2.0 * beta, ANTIDERIVATIVE_SAMPLES + 1)[1:]
    d = ANTIDERIVATIVE_STEP * beta
    slope = (np.asarray(G(s + d), dtype=float)
             - np.asarray(G(s - d), dtype=float)) / (2.0 * d)
    gs = np.asarray(g(s), dtype=float)
    if np.any(np.abs(slope - gs)
              > ANTIDERIVATIVE_TOL * max(1.0, float(np.abs(gs).max()))):
        raise ValueError("antiderivative's slope does not match the growth law")
    alpha = float(G(beta))
    if alpha <= 0:
        raise ValueError("integral of the growth law over [0, beta] must be positive")
    return Nonlinearity(g=g, beta=float(beta), gmax=float(gmax), alpha=alpha,
                        G=G, name=name)


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


def f_eval(fam: ScaledFamily, i: int, s):
    """Growth law of species i (1-based) at density s; vectorized."""
    a, c = fam._scale(i)
    if c == 1.0:
        return fam.base.g(s)
    return a * fam.base.g(c * np.asarray(s, dtype=float))


def df_eval(fam: ScaledFamily, i: int, s):
    """Derivative f_i'(s) = a c g'(c s) of species i's law; vectorized."""
    a, c = fam._scale(i)
    if c == 1.0:
        return fam.base.dg(s)
    return a * c * fam.base.dg(c * np.asarray(s, dtype=float))


def F_eval(fam: ScaledFamily, i: int, s):
    """Potential of species i: the integral of its law from 0 to s.

    From the base law's antiderivative: F_i(s) = (a/c) G(c s), which is
    G(c s)/k beyond the first species.
    """
    a, c = fam._scale(i)
    return (a / c) * fam.base.G(c * np.asarray(s, dtype=float))


@dataclass(frozen=True)
class Coupling:
    """Interaction penalty H and its partial derivatives.

    ``H`` maps a (k, ...) stack of densities to the pointwise penalty;
    ``dH`` returns the full stack of partials with the same shape as its
    input.  ``d2H(s, v)`` applies the pointwise Hessian of H at s to the
    stack v; left out, it is the central difference of dH along v.
    """

    H: Callable
    dH: Callable
    k: int
    kind: str = "custom"
    d2H: Callable | None = None

    def __post_init__(self):
        if self.d2H is None:
            object.__setattr__(self, "d2H", _directional_slope(self.dH))


def _directional_slope(dH: Callable) -> Callable:
    """d2H(s, v) as the central difference of dH along v, with step
    ANTIDERIVATIVE_STEP relative to max |v|."""
    def d2H(s, v):
        s = np.asarray(s, dtype=float)
        v = np.asarray(v, dtype=float)
        scale = float(np.max(np.abs(v)))
        if scale == 0.0:
            return np.zeros_like(v)
        t = ANTIDERIVATIVE_STEP / scale
        return (np.asarray(dH(s + t * v), dtype=float)
                - np.asarray(dH(s - t * v), dtype=float)) / (2.0 * t)
    return d2H


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

    return Coupling(H=H, dH=dH, k=k, kind="quartic", d2H=d2H)


def custom_coupling(H: Callable, dH: Callable, k: int, rng=None,
                    samples: int = 200) -> Coupling:
    """Wrap a user coupling, spot-checking its structural assumptions.

    At sampled densities H must be nonnegative, s_i dH_i nonnegative, and
    dH must match central differences of H; H must vanish when at most
    one density is nonzero.  The Hessian is the central difference of dH.
    """
    rng = np.random.default_rng(rng)
    s = rng.uniform(0.0, 1.0, size=(k, samples))
    if np.any(np.asarray(H(s)) < -1e-12):
        raise ValueError("coupling must be nonnegative")
    if np.any(s * np.asarray(dH(s)) < -1e-12):
        raise ValueError("coupling must satisfy s_i * dH_i >= 0")
    d = ANTIDERIVATIVE_STEP
    t = s + d  # keeps every difference point nonnegative
    grad = np.asarray(dH(t), dtype=float)
    tol = ANTIDERIVATIVE_TOL * max(1.0, float(np.abs(grad).max()))
    for i in range(k):
        e = np.zeros((k, 1))
        e[i] = d
        slope = (np.asarray(H(t + e), dtype=float)
                 - np.asarray(H(t - e), dtype=float)) / (2.0 * d)
        if np.any(np.abs(slope - grad[i]) > tol):
            raise ValueError("coupling's dH does not match the slope of H")
    lone = np.zeros((k, k))
    lone[np.arange(k), np.arange(k)] = rng.uniform(0.1, 1.0, size=k)
    if np.any(np.abs(np.asarray(H(lone.T))) > 1e-12):
        raise ValueError("coupling must vanish when at most one density is nonzero")
    return Coupling(H=H, dH=dH, k=k, kind="custom")


def cutoff_phi(t):
    """C^2 ramp: 0 on (-inf, 1], 1 on [2, inf), quintic smoothstep between."""
    t = np.asarray(t, dtype=float)
    s = np.clip(t - 1.0, 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)
