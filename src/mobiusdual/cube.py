"""Cube chain generators: nearest-neighbor walks and g+ transforms.

The nearest-neighbor walk flips coordinate i up with rate alpha_i and down
with rate beta_i; it is reversible with a product-form stationary law.  The
pairwise g+ transform moves probability mass from an incomparable pair onto
its meet and join, which increases the row law in the supermodular order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ROW_TOL, Chain, validate_chain, walk_chain, walk_kernel
from .errors import (
    DimensionMismatch,
    IncomparableRequired,
    InputError,
    InsufficientMass,
    NegativeHoldingProbability,
    NotLattice,
    NumericalFailure,
)
from .poset import cube_bits, cube_poset, meet_join


@dataclass(frozen=True)
class CubeWalkParams:
    """Flip rates of a nearest-neighbor cube walk.

    alpha[i] is the 0->1 rate of coordinate i+1, beta[i] the 1->0 rate; all
    must be strictly positive, and the walk must be able to hold: its
    smallest holding probability, 1 - sum_k max(alpha_k, beta_k) at the
    state with bit k set iff beta_k > alpha_k, is refused in O(d) below
    -ROW_TOL, with that state as witness.  ``admissible`` flags
    sum(alpha+beta) <= 1, under which the walk is Mobius monotone in both
    directions.
    """

    d: int
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        if len(self.alpha) != self.d or len(self.beta) != self.d:
            raise DimensionMismatch(
                f"alpha and beta must have length d={self.d}"
            )
        check_flip_rates((*self.alpha, *self.beta))
        stay = 1.0 - np.maximum(self.alpha, self.beta).sum()
        if stay < -ROW_TOL:
            state = tuple(int(b > a) for a, b in zip(self.alpha, self.beta))
            raise NegativeHoldingProbability(
                f"holding probability at state {state!r} is {float(stay)!r}"
            )

    @property
    def admissible(self):
        return sum(self.alpha) + sum(self.beta) <= 1.0

    @property
    def rates(self):
        return np.asarray(self.alpha, dtype=float) + np.asarray(self.beta, dtype=float)


def check_flip_rates(rates):
    """Raise InputError unless every flip rate in the tuple ``rates`` is
    finite, and NegativeHoldingProbability unless each is strictly
    positive."""
    if not all(math.isfinite(r) for r in rates):
        raise InputError(f"flip rates must be finite, got {rates!r}")
    if any(r <= 0 for r in rates):
        raise NegativeHoldingProbability(
            "flip rates must be strictly positive"
        )


@dataclass(frozen=True)
class GPlusMove:
    """One pairwise g+ move: shift ``kappa`` from {x, y} to {meet, join} in ``row``."""

    row: object
    x: object
    y: object
    kappa: float


def nearest_neighbor_walk(params, nu=None, row_tol=ROW_TOL):
    """Single-coordinate-flip walk on the d-cube, checked at ``row_tol``
    from its moves (``chain.walk_chain``); the chain carries ``params`` as
    its ``walk``.  d above DENSE_CUBE_LIMIT raises DimensionTooLarge before
    anything is allocated."""
    return walk_chain(params, cube_poset(params.d), nu=nu, row_tol=row_tol)


def owed_bits(states, d, direction):
    """(len(states), d) mask of the bits that each state of the d-cube owes
    its strong stationary dual in ``direction``: the bits not yet at their
    value in the absorbing state, unset for "down", set for "up"."""
    return ((np.asarray(states)[:, None] >> np.arange(d)) & 1) == (direction == "up")


@lru_cache(maxsize=2)
def walk_entries(params, direction):
    """(rows, cols, dual, transform): the entries of the walk's strong
    stationary dual in ``direction`` that can be nonzero,
    P*(rows, cols) = dual, and its Mobius transform in ``direction``, which
    holds ``transform`` at (cols, rows) and 0 elsewhere.

    The diagonal comes first, 1 - sum of s_k = alpha_k + beta_k over the
    flips of x in both, then each flip x -> y of a coordinate k that goes
    up in ``direction``'s order (k unset in x for "down", set for "up"),
    by x, then k: P*(x, y) = s_k, and the transform holds beta_k ("down")
    or alpha_k ("up") at (y, x).  The diagonal is that of the rates, before
    ``chain.walk_moves`` sets a stay within ROW_TOL of 0 to 0.  The arrays
    are read-only and kept for the last two (walk, direction) pairs, so the
    report and the dual of one build read one list.
    """
    free = owed_bits(np.arange(2**params.d), params.d, direction)
    x, k = np.nonzero(free)
    diag = np.arange(2**params.d)
    rest = 1.0 - (free * params.rates).sum(axis=1)
    toward = np.asarray(params.beta if direction == "down" else params.alpha)
    entries = (np.concatenate((diag, x)), np.concatenate((diag, x ^ (1 << k))),
               np.concatenate((rest, params.rates[k])),
               np.concatenate((rest, toward[k])))
    for a in entries:
        a.flags.writeable = False
    return entries


def gplus_transform(c, *moves, row_tol=ROW_TOL):
    """Apply pairwise g+ moves, in order, to one copy of the kernel.

    Each move requires x and y incomparable with an existing meet and join,
    and at least ``kappa`` mass on each of x and y in its row of the kernel
    as the earlier moves left it.  Row mass is conserved exactly.  The
    result is validated once, after the last move.
    """
    p = c.poset
    mat = c.P.copy()
    for move in moves:
        r = p.index(move.row)
        xi = p.index(move.x)
        yi = p.index(move.y)
        if move.kappa < 0:
            raise InsufficientMass(f"mass moved must be >= 0, got {move.kappa!r}")
        meet, join = meet_join(p, move.x, move.y)
        # a pair is comparable iff its meet is one of them (on a cube, read
        # from the masks)
        if meet in (move.x, move.y):
            raise IncomparableRequired(
                f"{move.x!r} and {move.y!r} are comparable; the transform needs "
                "an incomparable pair"
            )
        if meet is None or join is None:
            raise NotLattice(
                f"{move.x!r} and {move.y!r} lack a meet or join; the transform "
                "needs a lattice"
            )
        kappa = float(move.kappa)
        if kappa > min(mat[r, xi], mat[r, yi]) + 1e-15:
            raise InsufficientMass(
                f"kappa {kappa!r} exceeds available mass "
                f"min({float(mat[r, xi])!r}, {float(mat[r, yi])!r}) in row {move.row!r}"
            )
        mat[r, xi] -= kappa
        mat[r, yi] -= kappa
        mat[r, p.index(join)] += kappa
        mat[r, p.index(meet)] += kappa
    return validate_chain(mat, p, nu=c.nu, row_tol=row_tol)


def axis_moves(kappa):
    """The four symmetry-axis g+ moves of the 3-cube walk.

    Rows (0,0,0), (0,1,0), (1,0,1), (1,1,1) are fixed by the coordinate swap
    1<->3; each is transformed through the incomparable neighbour pair that
    the swap exchanges.
    """
    return (
        GPlusMove(row=(0, 0, 0), x=(1, 0, 0), y=(0, 0, 1), kappa=kappa),
        GPlusMove(row=(0, 1, 0), x=(1, 1, 0), y=(0, 1, 1), kappa=kappa),
        GPlusMove(row=(1, 0, 1), x=(1, 0, 0), y=(0, 0, 1), kappa=kappa),
        GPlusMove(row=(1, 1, 1), x=(1, 1, 0), y=(0, 1, 1), kappa=kappa),
    )


def axis_transformed_walk(params, kappa, row_tol=ROW_TOL):
    """3-cube walk with the four symmetry-axis rows g+ transformed; the
    transformed kernel is validated once, at ``row_tol``."""
    if params.d != 3:
        raise DimensionMismatch("the symmetry-axis transform is defined on the 3-cube")
    walk = Chain(poset=cube_poset(3), P=walk_kernel(params))
    return gplus_transform(walk, *axis_moves(kappa), row_tol=row_tol)


@dataclass(frozen=True)
class SupermodularWitnessReport:
    """Minimum of Ef(second law) - Ef(first law) over sampled supermodular f."""

    min_difference: float
    trials: int
    worst_function: np.ndarray | None

    def __post_init__(self):
        if self.worst_function is not None:
            self.worst_function.flags.writeable = False


def is_supermodular(f, p):
    """Exhaustive pair check of f(meet) + f(join) >= f(x) + f(y)."""
    m = p.size
    for i in range(m):
        for j in range(i + 1, m):
            meet, join = meet_join(p, p.elements[i], p.elements[j])
            if meet is None or join is None:
                raise NotLattice("supermodularity needs a lattice")
            if (
                f[p.index(meet)] + f[p.index(join)]
                < f[i] + f[j] - 1e-12 * max(1.0, np.abs(f).max())
            ):
                return False
    return True


def _random_supermodular(p, d, rng):
    """Sample one verified supermodular function on the cube.

    Base: nonneg combinations of products of per-coordinate nondecreasing
    functions (supermodular by construction) plus a modular part; optional
    noise is repaired by raising join values until the exhaustive pair check
    passes.
    """
    m = p.size
    bits = cube_bits(d)
    f = np.zeros(m)
    for _ in range(rng.integers(1, 4)):
        w = rng.uniform(0.2, 1.0)
        u0 = rng.uniform(0.0, 1.0, size=d)
        u1 = u0 + rng.uniform(0.0, 1.0, size=d)
        f += w * np.prod(np.where(bits, u1, u0), axis=1)
    mod = rng.normal(0.0, 0.5, size=d + 1)
    f += mod[0] + bits @ mod[1:]
    if rng.random() < 0.5:
        f += rng.normal(0.0, 0.05, size=m)
        for _ in range(4 * m):
            fixed = True
            for i in range(m):
                for j in range(i + 1, m):
                    # meet and join of masks i, j are i & j and i | j
                    gap = f[i] + f[j] - f[i & j] - f[i | j]
                    if gap > 0:
                        f[i | j] += gap
                        fixed = False
            if fixed:
                break
    scale = np.abs(f).max()
    if scale > 0:
        f = f / scale
    return f


def supermodular_order_witness(p1_row, p2_row, poset, trials, seed):
    """Sample verified supermodular functions and compare expectations.

    Reports the minimum of Ef(p2) - Ef(p1) over the sampled functions; a g+
    transformed row must never drop below -1e-12 times the scale.  Functions
    are normalized to unit max magnitude, and every candidate passes the
    exhaustive pair check before use.
    """
    d = poset.cube_dim
    if d is None:
        raise NotLattice(
            "supermodular sampling is implemented for cube lattices only"
        )
    p1 = np.asarray(p1_row, dtype=float)
    p2 = np.asarray(p2_row, dtype=float)
    if p1.shape != (poset.size,) or p2.shape != (poset.size,):
        raise DimensionMismatch("row laws must match the poset size")
    rng = np.random.default_rng(seed)
    worst = np.inf
    worst_f = None
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 50 * trials:
            raise NumericalFailure(
                "supermodular sampler rejected too many candidates"
            )
        f = _random_supermodular(poset, d, rng)
        if not is_supermodular(f, poset):
            continue
        done += 1
        diff = float(p2 @ f - p1 @ f)
        if diff < worst:
            worst = diff
            worst_f = f
    return SupermodularWitnessReport(
        min_difference=worst, trials=trials, worst_function=worst_f
    )
