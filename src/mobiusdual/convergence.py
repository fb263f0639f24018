"""Separation distance, dual absorption laws, and Monte Carlo validation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    HorizonTooLarge,
    PreconditionFailed,
    SingularFundamentalMatrix,
)

MAX_HORIZON = 10_000_000
STOP_BELOW_DEFAULT = 1e-14
SUBSET_ENUM_LIMIT = 20


@dataclass(frozen=True)
class SeparationCurve:
    """Separation distances s(nu P^n, pi) for n = 0..horizon."""

    values: np.ndarray
    horizon: int

    def __post_init__(self):
        self.values.flags.writeable = False


@dataclass(frozen=True)
class AbsorptionLaw:
    """Dual absorption-time tail P(T* > n), n = 0..horizon, and its mean."""

    tail: np.ndarray
    mean: float

    def __post_init__(self):
        self.tail.flags.writeable = False


@dataclass(frozen=True)
class EmpiricalTail:
    """Simulated absorption tail with binomial confidence bands."""

    tail: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    samples: int
    seed: int
    confidence: float

    def __post_init__(self):
        for a in (self.tail, self.lower, self.upper):
            a.flags.writeable = False


@dataclass(frozen=True)
class SstBoundReport:
    """Check of s(n) <= P(T* > n); equality flagged when it holds throughout."""

    max_violation: float
    equality: bool
    ok: bool


def separation_curve(c, law, horizon, stop_below=None):
    """Iterate nu P^n and record s(n) = max_e (1 - nu P^n(e) / pi(e)).

    ``stop_below`` truncates the curve once s(n) drops under the threshold
    (geometric decay makes longer horizons numerically meaningless).  A
    non-monotone step beyond 1e-12 slack is reported as a warning, not an
    error: starts that violate the duality preconditions may produce one.
    """
    if c.nu is None:
        raise PreconditionFailed("separation curve requires an initial law nu")
    if horizon < 0 or horizon > MAX_HORIZON:
        raise HorizonTooLarge(f"horizon must be in [0, {MAX_HORIZON}]")
    pi = law.pi
    dist = c.nu.astype(float)
    values = [float((1.0 - dist / pi).max())]
    for _ in range(horizon):
        dist = dist @ c.P
        values.append(float((1.0 - dist / pi).max()))
        if stop_below is not None and values[-1] < stop_below:
            break
    values = np.array(values)
    steps = np.diff(values)
    if steps.size and steps.max() > 1e-12:
        warnings.warn(
            f"separation curve increased by {steps.max():.3e} at step "
            f"{int(np.argmax(steps)) + 1}",
            stacklevel=2,
        )
    return SeparationCurve(values=values, horizon=len(values) - 1)


def absorption_tail(dual, horizon):
    """Tail P(T* > n) and mean absorption time from the transient block.

    Deleting the absorbing row/column leaves Q; the tail is nu*_t Q^n 1 and
    the mean solves through the fundamental matrix (I - Q)^-1.  A singular
    fundamental matrix signals a second absorbing class, i.e. an invalid
    dual.
    """
    if horizon < 0 or horizon > MAX_HORIZON:
        raise HorizonTooLarge(f"horizon must be in [0, {MAX_HORIZON}]")
    m = dual.size
    keep = [i for i in range(m) if i != dual.absorbing_index]
    q = dual.P_star[np.ix_(keep, keep)]
    v = dual.nu_star[keep].astype(float)
    tail = np.empty(horizon + 1)
    cur = v
    tail[0] = cur.sum()
    for n in range(1, horizon + 1):
        cur = cur @ q
        tail[n] = cur.sum()
    ones = np.ones(len(keep))
    try:
        expected_steps = np.linalg.solve(np.eye(len(keep)) - q, ones)
    except np.linalg.LinAlgError as exc:
        raise SingularFundamentalMatrix(
            "fundamental matrix is singular; the dual has a second absorbing class"
        ) from exc
    residual = np.abs((np.eye(len(keep)) - q) @ expected_steps - ones).max()
    if not np.isfinite(expected_steps).all() or residual > 1e-8:
        raise SingularFundamentalMatrix(
            "fundamental matrix solve lost accuracy; the dual has a second "
            "absorbing class"
        )
    mean = float(v @ expected_steps)
    return AbsorptionLaw(tail=tail, mean=mean)


def sst_bound_check(curve, absorption, tol=1e-10):
    """Assert the strong stationary bound s(n) <= P(T* > n) + tol."""
    s = curve.values
    t = absorption.tail
    if s.shape != t.shape:
        raise DimensionMismatch(
            f"curve and tail horizons differ: {s.shape} vs {t.shape}"
        )
    diff = s - t
    max_violation = float(diff.max())
    return SstBoundReport(
        max_violation=max_violation,
        equality=bool(np.abs(diff).max() <= tol),
        ok=bool(max_violation <= tol),
    )


def cube_separation_formula(alpha, beta, n, tol=1e-12):
    """Inclusion-exclusion separation value for the cube walk from all-zeros.

    sum over nonempty coordinate subsets gamma of (-1)^(|gamma|-1)
    (1 - s_gamma)^n with s_gamma the subset's total flip rate, as one dot
    product over the subset rates and signs built by doubling.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d = len(alpha)
    if len(beta) != d:
        raise DimensionMismatch("alpha and beta must have equal length")
    if d > SUBSET_ENUM_LIMIT:
        raise DimensionTooLarge(
            f"subset enumeration is exact and rejected above d={SUBSET_ENUM_LIMIT}"
        )
    rates = alpha + beta
    if rates.sum() > 1.0 + tol:
        raise PreconditionFailed(
            f"total flip rate {rates.sum()!r} exceeds 1; the closed form needs "
            "nonnegative eigenvalues"
        )
    sums, signs = _subset_rates(rates)
    return float(signs[1:] @ (1.0 - sums[1:]) ** n)


def cube_eigenvalues(alpha, beta):
    """All 2^d eigenvalues {1 - s_gamma} of the cube walk, sorted descending."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != beta.shape:
        raise DimensionMismatch("alpha and beta must have equal length")
    if len(alpha) > SUBSET_ENUM_LIMIT:
        raise DimensionTooLarge(
            f"subset enumeration is exact and rejected above d={SUBSET_ENUM_LIMIT}"
        )
    sums, _ = _subset_rates(alpha + beta)
    return np.sort(1.0 - sums)[::-1]


def _subset_rates(rates):
    """Total rate s_gamma and sign (-1)^(|gamma|-1) of every coordinate subset.

    Built by doubling: subset mask k holds coordinate i iff bit i of k is set,
    so entry 0 is the empty subset.
    """
    size = 1 << len(rates)
    sums = np.zeros(size)
    signs = np.empty(size)
    signs[0] = -1.0
    for i, r in enumerate(rates.tolist()):
        k = 1 << i
        np.add(sums[:k], r, out=sums[k:2 * k])
        np.negative(signs[:k], out=signs[k:2 * k])
    return sums, signs


def binomial_band(p, samples, confidence=0.99):
    """Two-sided binomial confidence band for a tail probability."""
    # imported here: scipy.stats would dominate the package's import time
    from scipy.stats import binom

    lo, hi = binom.interval(confidence, samples, np.clip(p, 0.0, 1.0))
    return lo / samples, hi / samples


def simulate_absorption(dual, samples, seed, horizon=None, confidence=0.99):
    """Simulate absorption times by inverse-CDF categorical sampling.

    All trajectories advance in lockstep; the generator is seeded, so output
    is bit-reproducible for a fixed (seed, samples).  Returns the empirical
    tail for n = 0..horizon (default: largest observed time) with binomial
    confidence bands around the empirical values.
    """
    if samples < 1:
        raise PreconditionFailed("samples must be >= 1")
    rng = np.random.default_rng(seed)
    cum = np.cumsum(dual.P_star, axis=1)
    start_cum = np.cumsum(dual.nu_star)
    state = np.searchsorted(start_cum, rng.random(samples), side="right")
    state = np.minimum(state, dual.size - 1)
    times = np.zeros(samples, dtype=np.int64)
    alive = state != dual.absorbing_index
    step = 0
    while alive.any():
        step += 1
        if step > MAX_HORIZON:
            raise HorizonTooLarge(
                f"simulation exceeded {MAX_HORIZON} steps before absorption"
            )
        idx = np.flatnonzero(alive)
        u = rng.random(idx.size)
        rows = cum[state[idx]]
        nxt = (u[:, None] > rows).sum(axis=1)
        nxt = np.minimum(nxt, dual.size - 1)
        state[idx] = nxt
        absorbed = nxt == dual.absorbing_index
        times[idx[absorbed]] = step
        alive[idx[absorbed]] = False
    if horizon is None:
        horizon = int(times.max())
    ns = np.arange(horizon + 1)
    empirical = (times[None, :] > ns[:, None]).mean(axis=1)
    lower, upper = binomial_band(empirical, samples, confidence)
    return EmpiricalTail(
        tail=empirical,
        lower=lower,
        upper=upper,
        samples=samples,
        seed=seed,
        confidence=confidence,
    )
