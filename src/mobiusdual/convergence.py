"""Separation distance, dual absorption laws, and Monte Carlo validation."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import IDENTITY_TOL, ROW_TOL
from .cube import check_flip_rates
from .errors import (
    DimensionMismatch,
    HorizonTooLarge,
    InputError,
    PreconditionFailed,
    SingularFundamentalMatrix,
)
from .poset import SUBSET_ENUM_LIMIT, check_cube_dim

MAX_HORIZON = 10_000_000
MAX_SAMPLES = 10_000_000
STOP_BELOW_DEFAULT = 1e-14
# Two-sided confidence of the bands around a simulated absorption tail.
SIM_CONFIDENCE = 0.99
# Entries per block of the binomial CDF sums behind ``binomial_band``.
QUANTILE_BLOCK = 2**20
# Start states per block of the rate sampler's (samples, d) draws.
RATE_BLOCK = 2**16


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
    """Simulated absorption tail with binomial confidence bands;
    ``sampler`` names how the times were drawn: "rates" or "moves"
    (``simulate_absorption``)."""

    tail: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    samples: int
    seed: int
    confidence: float
    sampler: str

    def __post_init__(self):
        for a in (self.tail, self.lower, self.upper):
            a.flags.writeable = False


@dataclass(frozen=True)
class SstBoundReport:
    """Check of s(n) <= P(T* > n); equality flagged when it holds throughout."""

    max_violation: float
    equality: bool
    ok: bool


def check_horizon(horizon):
    """Raise HorizonTooLarge unless 0 <= horizon <= MAX_HORIZON."""
    if horizon < 0 or horizon > MAX_HORIZON:
        raise HorizonTooLarge(f"horizon must be in [0, {MAX_HORIZON}]")


def check_samples(samples):
    """Raise InputError unless 1 <= samples <= MAX_SAMPLES."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise InputError(f"samples must be <= {MAX_SAMPLES}, got {samples}")


def separation_curve(c, law, horizon, stop_below=None):
    """Iterate nu P^n and record s(n) = max_e (1 - nu P^n(e) / pi(e)).

    ``stop_below`` truncates the curve once s(n) drops under the threshold
    (geometric decay makes longer horizons numerically meaningless).  A
    walk's law is stepped by its operator through two Kronecker factors
    (``Flips.row_step``), reading no dense array; every other kernel is
    stepped over its positive moves (``Chain.positive_moves``).  A
    non-monotone step beyond 1e-12 slack is reported as a warning, not an
    error: starts that violate the duality preconditions may produce one.
    """
    if c.nu is None:
        raise PreconditionFailed("separation curve requires an initial law nu")
    check_horizon(horizon)
    pi = law.pi
    if c.flips is not None:
        step = c.flips.row_step()
    else:
        step = _stepper(*c.positive_moves(), c.size)
    dist = c.nu.astype(float)
    values = [float((1.0 - dist / pi).max())]
    for _ in range(horizon):
        dist = step(dist)
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


def _moves(mat):
    """The nonzeros of ``mat`` as a row-major COO triple (rows, cols, values),
    found through the mask ``mat != 0``, faster than a float ``np.nonzero``,
    in one scan of a dual's C-ordered P*."""
    rows, cols = np.nonzero(mat != 0)
    return rows, cols, mat[rows, cols]


def _stepper(rows, cols, vals, m):
    """The map x -> x @ mat over the nonzero triple of an m-column ``mat``:
    one gather, one product and one ``np.bincount`` per step, O(nnz)."""
    return lambda x: np.bincount(cols, weights=x[rows] * vals, minlength=m)


def move_order(rows, cols):
    """"ascending" if no move rows[k] -> cols[k] goes down the enumeration
    (a down dual's), else "descending" if none goes up it (an up dual's),
    else None: the moves go both ways."""
    if (cols >= rows).all():
        return "ascending"
    if (cols <= rows).all():
        return "descending"
    return None


def absorption_tail(dual, horizon):
    """Tail P(T* > n) and mean absorption time from the transient moves.

    A dual that carries its operator (``dual.flips``) is stepped by it
    (``Flips.row_step``, ``_flip_mean``), reading no dense array; every
    other dual by the nonzeros of P* (``_move_path``).  The tail at n is
    the tail at n - 1 less the mass entering the absorbing state at step
    n, so it never rises (rows of P* sum to 1 only to rounding) and is
    exactly 1 until mass can be absorbed; it is clipped to [0, 1].
    """
    check_horizon(horizon)
    if dual.flips is not None:
        step, mean = dual.flips.row_step(), _flip_mean(dual)
    else:
        step, mean = _move_path(dual)
    a = dual.absorbing_index
    cur = dual.nu_star.astype(float)
    cur[a] = 0.0
    tail = np.empty(horizon + 1)
    tail[0] = cur.sum()
    for k in range(1, horizon + 1):
        cur = step(cur)
        tail[k] = tail[k - 1] - cur[a]
        cur[a] = 0.0
    np.clip(tail, 0.0, 1.0, out=tail)
    return AbsorptionLaw(tail=tail, mean=mean)


def _move_path(dual):
    """(step, mean) over the moves of P* out of the transient states: the
    step x -> x P*, and nu*_t x for (I - Q) x = 1, Q the moves among them,
    solved by substitution in the order the moves go, or by LU on a dense
    I - Q when they go both ways.  A zero pivot or a singular I - Q signals
    a second absorbing class, i.e. an invalid dual."""
    a = dual.absorbing_index
    rows, cols, vals = _moves(dual.P_star)
    out = rows != a
    rows, cols, vals = rows[out], cols[out], vals[out]
    step = _stepper(rows, cols, vals, dual.size)
    transient = cols != a
    rows, cols, vals = rows[transient], cols[transient], vals[transient]
    rows -= rows > a
    cols -= cols > a
    n = dual.size - 1
    order = move_order(rows, cols)
    if order is None:
        fundamental = np.eye(n)
        fundamental[rows, cols] -= vals
        try:
            expected_steps = np.linalg.solve(fundamental, np.ones(n))
        except np.linalg.LinAlgError as exc:
            raise SingularFundamentalMatrix(
                "fundamental matrix is singular; the dual has a second "
                "absorbing class"
            ) from exc
    else:
        expected_steps = _substitute(rows, cols, vals, n, order)
    q_x = np.bincount(rows, weights=vals * expected_steps[cols], minlength=n)
    _check_solve(expected_steps, expected_steps - q_x - 1.0)
    return step, float(np.delete(dual.nu_star, a).astype(float) @ expected_steps)


def _check_solve(x, residual):
    """Raise SingularFundamentalMatrix unless the solve x of (I - Q) x = 1
    is finite and its ``residual`` x - Q x - 1 is within 1e-8."""
    if not np.isfinite(x).all() or not np.abs(residual).max(initial=0.0) <= 1e-8:
        raise SingularFundamentalMatrix(
            "fundamental matrix solve lost accuracy; the dual has a second "
            "absorbing class"
        )


def _zero_pivot():
    """The error of a transient state that cannot leave: a zero pivot."""
    return SingularFundamentalMatrix(
        "fundamental matrix has a zero pivot; the dual has a second "
        "absorbing class"
    )


def _flip_mean(dual):
    """The mean of T* on a dual that carries its operator: x solves
    x = (1 + Q_off x) / pivot off the absorbing state (``Flips.off_action``).
    Every move takes one bit towards the absorbing state, so from 0 each
    sweep makes one more rank exact, and d sweeps solve it."""
    a = dual.absorbing_index
    off, pivots = dual.flips.off_action()
    transient = np.arange(pivots.size) != a
    if (pivots[transient] == 0).any():
        raise _zero_pivot()
    x = np.zeros(pivots.size)
    for _ in range(dual.flips.d):
        x = np.divide(1.0 + off(x), pivots, out=np.zeros(pivots.size), where=transient)
    residual = pivots * x - off(x) - 1.0
    residual[a] = 0.0
    _check_solve(x, residual)
    return float(dual.nu_star @ x)


def _substitute(rows, cols, vals, n, order):
    """Solve (I - Q) x = 1 over the row-major triple of a one-way Q:
    x_i = (1 + sum_j Q_ij x_j) / (1 - Q_ii), after every x_j it reads."""
    on = rows == cols
    pivots = 1.0 - np.bincount(rows[on], weights=vals[on], minlength=n)
    if (pivots == 0).any():
        raise _zero_pivot()
    rows, cols, vals = rows[~on], cols[~on], vals[~on]
    starts = np.searchsorted(rows, np.arange(n + 1))
    x = np.empty(n)
    for i in range(n - 1, -1, -1) if order == "ascending" else range(n):
        lo, hi = starts[i], starts[i + 1]
        x[i] = (1.0 + vals[lo:hi] @ x[cols[lo:hi]]) / pivots[i]
    return x


def sst_bound_check(curve, absorption):
    """Assert the strong stationary bound s(n) <= P(T* > n) + IDENTITY_TOL."""
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
        equality=bool(np.abs(diff).max() <= IDENTITY_TOL),
        ok=bool(max_violation <= IDENTITY_TOL),
    )


def cube_separation_formula(alpha, beta, n):
    """Inclusion-exclusion separation value for the cube walk from all-zeros.

    sum over nonempty coordinate subsets gamma of (-1)^(|gamma|-1)
    (1 - s_gamma)^n with s_gamma the subset's total flip rate, as one dot
    product over the subset rates and signs built by doubling.  A 1-D array
    of n gives the array of those floats, from one build of the subsets.
    The rates are refused as ``CubeWalkParams`` refuses them.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if len(beta) != len(alpha):
        raise DimensionMismatch("alpha and beta must have equal length")
    sums, signs = _subset_rates(tuple(alpha.tolist()), tuple(beta.tolist()))
    rates = alpha + beta
    if rates.sum() > 1.0 + ROW_TOL:
        raise PreconditionFailed(
            f"total flip rate {float(rates.sum())!r} exceeds 1; the closed form needs "
            "nonnegative eigenvalues"
        )
    signs, base = signs[1:], 1.0 - sums[1:]
    if np.ndim(n) == 0:
        return float(signs @ base**n)
    return np.array([signs @ base**k for k in np.asarray(n).tolist()])


def cube_eigenvalues(alpha, beta):
    """All 2^d eigenvalues {1 - s_gamma} of the cube walk, sorted descending.
    The rates are refused as ``CubeWalkParams`` refuses them."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != beta.shape:
        raise DimensionMismatch("alpha and beta must have equal length")
    sums, _ = _subset_rates(tuple(alpha.tolist()), tuple(beta.tolist()))
    return np.sort(1.0 - sums)[::-1]


@lru_cache(maxsize=1)
def _subset_rates(alpha, beta):
    """Total rate s_gamma and sign (-1)^(|gamma|-1) of every coordinate
    subset of the flip rates s_i = alpha_i + beta_i of the tuples ``alpha``
    and ``beta``, as read-only arrays.

    Built by doubling: subset mask k holds coordinate i iff bit i of k is set,
    so entry 0 is the empty subset.  Non-finite or nonpositive rates are
    refused first (``cube.check_flip_rates``), then, unless
    1 <= d <= SUBSET_ENUM_LIMIT, DimensionTooLarge is raised before the 2^d
    arrays are allocated.  The arrays of the last rates are kept, so a
    curve that asks for the closed form once per n checks and builds them
    once.
    """
    check_flip_rates((*alpha, *beta))
    check_cube_dim(len(alpha), SUBSET_ENUM_LIMIT)
    size = 1 << len(alpha)
    sums = np.zeros(size)
    signs = np.empty(size)
    signs[0] = -1.0
    for i, r in enumerate(np.add(alpha, beta).tolist()):
        k = 1 << i
        np.add(sums[:k], r, out=sums[k:2 * k])
        np.negative(signs[:k], out=signs[k:2 * k])
    sums.flags.writeable = False
    signs.flags.writeable = False
    return sums, signs


def binomial_band(p, samples, confidence=SIM_CONFIDENCE):
    """Two-sided binomial confidence band for a tail probability.

    The equal-tail interval of Binomial(samples, p), divided by ``samples``:
    each end is the smallest k in [0, samples] with CDF(k) >= q, for
    q = (1 -+ confidence)/2, the quantile rule of
    ``scipy.stats.binom.interval``.  q == 0 gives -1 and q == 1 gives
    ``samples``.
    """
    if not 0.0 <= confidence <= 1.0:
        raise ValueError("confidence must be in [0, 1]")
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    # an empirical tail repeats its values; search each distinct one once
    values, where = np.unique(p.ravel(), return_inverse=True)
    qs = ((1.0 - confidence) / 2, (1.0 + confidence) / 2)
    lo, hi = (
        k[where].reshape(p.shape) / samples
        for k in _binomial_quantiles(qs, samples, values)
    )
    return lo, hi


def _binomial_quantiles(qs, n, p):
    """For each q in ``qs``, the smallest k with Binomial(n, p) CDF(k) >= q,
    elementwise over the 1-D array p.

    The CDF is the running sum of the pmf taken relative to the mode m,
    t(m) = 1, stepped outward by the exact ratios
    t(j+1)/t(j) = (n-j)/(j+1) * p/(1-p), so a dyadic pmf sums exactly
    (Binomial(2, 1/2) reaches 1/4 and 3/4).  Each p is summed over
    m -+ h, which covers np -+ t as |m - np| <= 1, where by Bernstein's
    inequality each tail beyond np -+ t holds mass below e^-lam, under
    2^-56 of the smallest q or 1 - q searched.  The p are grouped by the
    octave of h and summed over the group's largest h, in blocks of about
    QUANTILE_BLOCK entries.
    """
    out = [np.full(p.shape, -1 if q == 0.0 else n, dtype=np.int64) for q in qs]
    searched = [(q, k) for q, k in zip(qs, out) if 0.0 < q < 1.0]
    for _, k in searched:
        k[p == 0.0] = 0
    mid = np.flatnonzero((p > 0.0) & (p < 1.0))
    if not searched or not mid.size:
        return out
    lam = 56 * math.log(2) - math.log(min(min(q, 1.0 - q) for q, _ in searched))
    var = n * p[mid] * (1.0 - p[mid])
    half = np.ceil(lam / 3 + np.sqrt(lam * lam / 9 + 2 * lam * var)) + 2
    group = np.floor(np.log2(half))
    for g in np.unique(group):
        rows = mid[group == g]
        h = int(half[group == g].max())
        block = max(1, QUANTILE_BLOCK // (2 * h + 1))
        for start in range(0, rows.size, block):
            r = rows[start:start + block]
            cdf, base = _binomial_cdf(n, p[r], h)
            for q, k in searched:
                k[r] = base + np.count_nonzero(cdf < q * cdf[-1], axis=0)
    return out


def _binomial_cdf(n, p, h):
    """(sums, m - h): the running sums of the Binomial(n, p) pmf over
    j = m - h .. m + h, one column per p in (0, 1), scaled so that the pmf
    at the mode m is 1, and the first j of each column.  Terms outside
    [0, n] are zero, so the last row is the total.
    """
    mode = np.minimum(np.floor((n + 1) * p), n)
    odds = p / (1.0 - p)
    steps = np.arange(1.0, h + 1.0)[:, None]
    t = np.empty((2 * h + 1, p.size))
    t[h] = 1.0
    # row h + s: t(j)/t(j-1) = (n+1-j)/j * odds at j = m + s
    right = t[h + 1:]
    np.subtract(n + 1 - mode, steps, out=right)
    np.maximum(right, 0.0, out=right)
    right /= mode + steps
    right *= odds
    np.multiply.accumulate(right, axis=0, out=right)
    # row h - s: t(j)/t(j+1) = (j+1)/(n-j) / odds at j = m - s
    left = t[h - 1::-1]
    np.subtract(mode + 1, steps, out=left)
    np.maximum(left, 0.0, out=left)
    left /= n - mode + steps
    left /= odds
    np.multiply.accumulate(left, axis=0, out=left)
    return np.cumsum(t, axis=0, out=t), mode - h


def _sparse_rows(P):
    """Row layout for sampling among each row's nonzeros.

    ``cum[s]`` holds the full-row cumulative sums of ``P[s]`` taken at the
    row's nonzero columns (column 0 always included, so u == 0 lands on
    state 0), padded with +inf to the widest row.  ``cols[s, k]`` is the
    column of block entry k, and ``m - 1`` from the end of the block on, so
    ``cols[s, (u > cum[s]).sum()]`` is the state that comparing u with all m
    cumulants of a nonnegative row would pick: the first column whose
    cumulant reaches u, or m - 1 if none does.
    """
    m = P.shape[0]
    full = np.cumsum(P, axis=1)
    keep = P != 0
    keep[:, 0] = True
    counts = keep.sum(axis=1)
    width = int(counts.max())
    rows, columns = np.nonzero(keep)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cum = np.full((m, width), np.inf)
    cum[rows, slot] = full[rows, columns]
    cols = np.full((m, width + 1), m - 1, dtype=np.int64)
    cols[rows, slot] = columns
    return cum, cols


def _count_below(cum, rows, u):
    """``(u[:, None] > cum[rows]).sum(axis=1)``, by binary search.

    Each block of ``cum`` is nondecreasing, so the count is the position of u
    in its block; a branchless search finds it in log2(width) gathers.
    """
    width = cum.shape[1]
    k = np.zeros(rows.size, dtype=np.int64)
    half = 1 << (width.bit_length() - 1)
    while half:
        probe = np.minimum(k + half, width)
        k = np.where(u > cum[rows, probe - 1], probe, k)
        half >>= 1
    return k


def _move_times(dual, start, rng):
    """Absorption times of the trajectories from the states ``start``,
    advanced in lockstep, each step placing one uniform draw among the
    cumulants of its row at the row's nonzero columns (``_sparse_rows``)."""
    cum, cols = _sparse_rows(dual.P_star)
    times = np.zeros(start.size, dtype=np.int64)
    idx = np.flatnonzero(start != dual.absorbing_index)
    state = start[idx]
    step = 0
    while idx.size:
        step += 1
        if step > MAX_HORIZON:
            raise HorizonTooLarge(
                f"simulation exceeded {MAX_HORIZON} steps before absorption"
            )
        u = rng.random(idx.size)
        state = cols[state, _count_below(cum, state, u)]
        live = state != dual.absorbing_index
        times[idx[~live]] = step
        idx = idx[live]
        state = state[live]
    return times


def _rate_times(dual, start, rng):
    """Absorption times from the states ``start`` of a dual that carries
    its operator, drawn from the rates s_k of the bits each start owes
    (``Flips.out_rates``) in blocks of RATE_BLOCK starts, reading no P*.

    Each step collects at most one owed bit, bit k with probability s_k,
    and a collected bit stays.  So the owed bits are collected in the order
    of a weighted random permutation, drawn by the
    exponential keys E_k / s_k (Efraimidis and Spirakis 2006), and T* is
    the sum of Geometric(S_r) waits, S_r the total rate still owed before
    the r-th collection (the coupon-collector time of Diaconis and Fill
    1990).  A wait is floor(log U / log(1 - S_r)) + 1 for U in (0, 1], so
    none is infinite; the sums are checked against MAX_HORIZON as floats,
    before the cast.
    """
    times = np.empty(start.size, dtype=np.int64)
    for lo in range(0, start.size, RATE_BLOCK):
        rate = dual.flips.out_rates(start[lo:lo + RATE_BLOCK])
        owed = rate > 0
        keys = np.divide(rng.standard_exponential(owed.shape), rate,
                         out=np.full(owed.shape, np.inf), where=owed)
        order = np.take_along_axis(rate, np.argsort(keys, axis=1), axis=1)
        left = np.cumsum(order[:, ::-1], axis=1)[:, ::-1]
        np.minimum(left, 1.0, out=left)  # sum s_k <= 1 only to rounding
        waits = np.zeros(owed.shape)
        # log(1 - S_r) is -inf where all that is owed is collected at once
        log_stay = np.log1p(-left, out=np.full(owed.shape, -np.inf), where=left < 1)
        np.divide(np.log(1.0 - rng.random(owed.shape)), log_stay,
                  out=waits, where=left > 0)
        total = (np.floor(waits) + (left > 0)).sum(axis=1)
        if total.max(initial=0.0) > MAX_HORIZON:
            raise HorizonTooLarge(
                f"simulation exceeded {MAX_HORIZON} steps before absorption"
            )
        times[lo:lo + RATE_BLOCK] = total
    return times


def simulate_absorption(dual, samples, seed, horizon=None):
    """Simulate absorption times from start states drawn from nu*.

    A dual that carries its operator (``dual.flips``, an unclamped closed
    form) is sampled from its flip rates (``_rate_times``, sampler
    "rates"), in O(samples d) and reading no P*.  Every other dual
    is stepped through P* by inverse-CDF categorical sampling
    (``_move_times``, sampler "moves").  The generator is seeded, so output
    is bit-reproducible for a fixed (seed, samples).  Returns the empirical
    tail for n = 0..horizon (default: largest observed time) with
    SIM_CONFIDENCE binomial bands around the empirical values.  The dual
    must be nonnegative, as any dual that ``build_ssd`` returns is, and
    ``samples`` at most MAX_SAMPLES, which is checked before anything is
    drawn.  Any T* beyond MAX_HORIZON raises HorizonTooLarge.
    """
    check_samples(samples)
    if horizon is not None:
        check_horizon(horizon)
    by_rates = dual.flips is not None
    if not ((by_rates or (dual.P_star >= 0).all()) and (dual.nu_star >= 0).all()):
        raise PreconditionFailed(
            "simulation needs a nonnegative dual; P* or nu* has a negative "
            "or NaN entry"
        )
    rng = np.random.default_rng(seed)
    start_cum = np.cumsum(dual.nu_star)
    start = np.searchsorted(start_cum, rng.random(samples), side="right")
    start = np.minimum(start, dual.nu_star.size - 1)
    times = (_rate_times if by_rates else _move_times)(dual, start, rng)
    if horizon is None:
        horizon = int(times.max())
    absorbed_by = np.cumsum(np.bincount(times, minlength=horizon + 1)[:horizon + 1])
    empirical = (samples - absorbed_by) / samples
    lower, upper = binomial_band(empirical, samples, SIM_CONFIDENCE)
    return EmpiricalTail(
        tail=empirical,
        lower=lower,
        upper=upper,
        samples=samples,
        seed=seed,
        confidence=SIM_CONFIDENCE,
        sampler="rates" if by_rates else "moves",
    )
