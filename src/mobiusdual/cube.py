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

from .chain import ROW_TOL, Chain, StationaryLaw, chain_from_moves, validate_chain
from .errors import (
    DimensionMismatch,
    IncomparableRequired,
    InputError,
    InsufficientMass,
    NegativeHoldingProbability,
    NotAperiodic,
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
    def flips(self):
        """The operator of the walk's kernel, from these rates (``Flips``)."""
        return Flips(tuple(map(float, self.alpha)), tuple(map(float, self.beta)))


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


@dataclass(frozen=True)
class Flips:
    """The kernel K = I + sum_k G_k on the d-cube, G_k = [[-up_k, up_k],
    [down_k, -down_k]] acting on bit k: bit k flips up at rate up_k while
    unset and down at rate down_k while set.  A walk's operator holds its
    checked rates (alpha, beta) (``CubeWalkParams.flips``), and that of its
    strong stationary dual (s, 0) for "down" or (0, s) for "up",
    s_k = alpha_k + beta_k (``dual``).  Cached results are kept by value,
    so the operators of equal rates share one build.
    """

    up: tuple
    down: tuple

    @property
    def d(self):
        return len(self.up)

    def out_rates(self, states):
        """(len(states), d): the rate at which each of the masks ``states``
        flips bit k; on a dual, nonzero at the bits a state owes, those not
        yet at their value in the absorbing state."""
        bits = (np.asarray(states)[:, None] >> np.arange(self.d)) & 1
        return np.where(bits, self.down, self.up)

    @lru_cache(maxsize=4)
    def moves(self):
        """The (d+1) 2^d entries of K that can be nonzero, row-major, as a
        read-only triple (rows, cols, vals): per state x, its stay, 1 minus
        its out-rates, as computed (K holds it as ``held`` says), then its
        flips x -> x ^ 2^k, k = 0..d-1, at its out-rates.  A dual's rows
        are normalised by their sums in this order (``duality``)."""
        x = np.arange(2**self.d)
        out = self.out_rates(x)
        return _read_only(np.repeat(x, self.d + 1),
                          np.column_stack((x, x[:, None] ^ (1 << np.arange(self.d)))).ravel(),
                          np.column_stack((1.0 - out.sum(axis=1), out)).ravel())

    @lru_cache(maxsize=4)
    def held(self):
        """What K adds to each stay of ``moves``, read-only: minus the stay
        where it lies within ROW_TOL of 0, so that K holds it at exactly 0
        and rounding does not decide whether a state can hold; 0 elsewhere."""
        stay = self.moves()[2][::self.d + 1]
        return _read_only(np.where(np.abs(stay) <= ROW_TOL, -stay, 0.0))[0]

    def kernel_moves(self):
        """``moves`` with each stay as K holds it (``held``)."""
        rows, cols, vals = self.moves()
        vals = vals.copy()
        vals[::self.d + 1] += self.held()
        return rows, cols, vals

    def kernel(self):
        """The dense K, written from ``kernel_moves`` and not checked."""
        rows, cols, vals = self.kernel_moves()
        mat = np.zeros((2**self.d,) * 2)
        mat[rows, cols] = vals
        return mat

    def law(self):
        """A walk's law in product form, pi(x) multiplying up_k/(up_k+down_k)
        over the bits k set in x and down_k/(up_k+down_k) over the others,
        with its residual max|pi K - pi| and balance certificate taken over
        ``kernel_moves``; path "product_form".  Positive rates make K
        irreducible, and it is aperiodic iff its largest stay,
        1 - sum_k min(up_k, down_k), is positive."""
        if not 1.0 - np.minimum(self.up, self.down).sum() > ROW_TOL:
            raise NotAperiodic("chain has period 2", period=2)
        d = self.d
        up = np.asarray(self.up, dtype=float)
        down = np.asarray(self.down, dtype=float)
        rows, cols, vals = self.kernel_moves()
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            pi = np.prod(np.where(cube_bits(d), up, down) / (up + down), axis=1)
            flow = pi[rows] * vals
            residual = float(np.abs(np.bincount(cols, flow, pi.size) - pi).max())
            flips = flow.reshape(-1, d + 1)[:, 1:]
            back = flips[cols.reshape(-1, d + 1)[:, 1:], np.arange(d)]
            worst = float((np.abs(flips - back) / flips).max())
        return StationaryLaw(pi=pi, residual=residual, path="product_form",
                             balance=float("inf") if np.isnan(worst) else worst)

    def dual(self, direction):
        """The operator of a walk's strong stationary dual in ``direction``:
        bit k flips towards its absorbing value (set for "down", unset for
        "up") at rate s_k = up_k + down_k, and never back."""
        s = tuple(u + w for u, w in zip(self.up, self.down))
        zero = (0.0,) * self.d
        return Flips(s, zero) if direction == "down" else Flips(zero, s)

    @lru_cache(maxsize=2)
    def transform(self, direction):
        """A walk's Mobius transform in ``direction`` as the read-only triple
        (rows, cols, vals) of its nonzero entries, at (y, x) for the moves
        x -> y of the dual's ``moves``: the dual's stay, or the rate of K's
        flip y -> x where the dual flips (down_k for "down", up_k for
        "up")."""
        rows, cols, vals = self.dual(direction).moves()
        t = vals.reshape(-1, self.d + 1).copy()
        t[:, 1:] = np.where(t[:, 1:] > 0, np.where(cube_bits(self.d), self.up, self.down), 0.0)
        keep = t.ravel() != 0
        return _read_only(cols[keep], rows[keep], t.ravel()[keep])

    def intertwine_bound(self, direction, pi, p_star):
        """A bound B >= max|Lambda K - P* Lambda| for the dual ``p_star``
        of a walk's K in ``direction`` and the link of its law ``pi``, from
        the rates, in O(d 2^d) and with no m x m array.

        Were pi the product of its marginals (pi_k(0), pi_k(1)) and P* the
        dual's own kernel (``dual``), I + sum_k G*_k with
        G*_k = [[-s_k, s_k], [0, 0]] ("down"; [[0, 0], [s_k, -s_k]] "up"),
        the link would be the product of Lambda_k = [[1, 0],
        [pi_k(0), pi_k(1)]] ("down"; [[pi_k(0), pi_k(1)], [0, 1]] "up"),
        and Lambda K - P* Lambda the sum over k of
        Lambda_k G_k - G*_k Lambda_k tensored with the other Lambda_j,
        whose entries lie in [0, 1].  B adds up what separates the emitted
        arrays from that:

        - sum_k max|Lambda_k G_k - G*_k Lambda_k|, one 2 x 2 term per bit;
        - the deviation of ``p_star`` from the dual's ``moves``: per row,
          the larger of the sums of its positive and of its negative
          entries, which bounds the row times any column of the link, its
          entries lying in [0, 1].  It is read at the positions of the
          moves, x and its d flips x ^ 2^k, of each row x; the mass of the
          row off those positions, a positive deviation, is at most 1 minus
          the mass read there, since the emitted rows are nonnegative and
          sum to 1;
        - the largest stay that K holds at 0 (``held``), by which the
          kernel's diagonal leaves I + sum_k G_k;
        - 4 eps, with eps the largest relative deviation of pi from the
          product of its marginals, up to the scale that makes it least (the
          link does not depend on the scale of pi): each entry of the link
          then moves by a relative 2 eps at most, and so each of Lambda K
          and P* Lambda by 2 eps, rows of Lambda and P* summing to 1;
        - (d + 1) machine epsilons, the rounding of a float evaluation of
          the residual, whose terms lie in [0, 1], so that B also bounds
          what the dense residual (``duality._residuals``) would report.
        """
        d = self.d
        bits = cube_bits(d)
        one = pi @ bits
        zero = pi @ (1 - bits)
        ratio = pi / np.prod(np.where(bits, one, zero), axis=1)
        eps = (ratio.max() - ratio.min()) / (ratio.max() + ratio.min())
        alpha = np.asarray(self.up, dtype=float)
        beta = np.asarray(self.down, dtype=float)
        s = alpha + beta
        # the entries of Lambda_k G_k - G*_k Lambda_k, up to sign
        if direction == "down":
            per_bit = (s - s * zero - alpha, alpha - s * one, one * beta - zero * alpha)
        else:
            per_bit = (one * beta - zero * alpha, beta - s * zero, s - s * one - beta)
        rows, cols, want = self.dual(direction).moves()
        # flips first, stay last: the summation order that fixes the printed
        # bound to its last bit
        last = np.roll(np.arange(d + 1), -1)
        read = p_star[rows, cols].reshape(-1, d + 1)[:, last]
        dev = read - want.reshape(-1, d + 1)[:, last]
        over = np.maximum(dev, 0.0).sum(axis=1) + np.maximum(1.0 - read.sum(axis=1), 0.0)
        under = np.maximum(-dev, 0.0).sum(axis=1)
        return float(np.abs(per_bit).max(axis=0).sum() + np.maximum(over, under).max()
                     + np.abs(self.held()).max(initial=0.0) + 4.0 * eps
                     + (d + 1) * np.finfo(float).eps)

    def _split(self):
        """(R, out) of the high factor, the ceil(d/2) top bits of a mask,
        and of the low factor, the floor(d/2) others: the dense R[x, x ^ 2^k]
        = ``out_rates`` and its row sums.  On x reshaped C-ordered to
        (2^ceil(d/2), 2^floor(d/2)), K is H (x) I + I (x) L with
        H = I + R_H - diag(out_H) and L = R_L - diag(out_L)."""
        lo = self.d // 2
        factors = []
        for part in (Flips(self.up[lo:], self.down[lo:]), Flips(self.up[:lo], self.down[:lo])):
            x = np.arange(2**part.d)
            rates = part.out_rates(x)
            mat = np.zeros((x.size, x.size))
            mat[x[:, None], x[:, None] ^ (1 << np.arange(part.d))] = rates
            factors.append((mat, rates.sum(axis=1)))
        return factors

    def row_step(self):
        """The map x -> x K through the factors of ``_split``: H^T X + X L,
        two matmuls of at most 2^ceil(d/2) squared, the identity added last
        so each entry rounds the small generator terms once against x, plus
        x times ``held`` where a stay is held."""
        (r_h, out_h), (r_l, out_l) = self._split()
        high_t = r_h.T - np.diag(out_h)
        low = r_l - np.diag(out_l)
        shape = (out_h.size, out_l.size)
        fix = self.held() if self.held().any() else None

        def step(x):
            mat = x.reshape(shape)
            out = high_t @ mat
            out += mat @ low
            out += mat
            return out.ravel() if fix is None else out.ravel() + x * fix

        return step

    def off_action(self):
        """(off, pivots): x -> Q x for Q the moves of K off its diagonal,
        R_H X + X R_L^T through the factors of ``_split``, and each state's
        total rate out."""
        (r_h, out_h), (r_l, out_l) = self._split()
        r_l_t = r_l.T
        shape = (out_h.size, out_l.size)

        def off(x):
            mat = x.reshape(shape)
            out = r_h @ mat
            out += mat @ r_l_t
            return out.ravel()

        return off, np.add.outer(out_h, out_l).ravel()


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def nearest_neighbor_walk(params, nu=None, row_tol=ROW_TOL):
    """Single-coordinate-flip walk on the d-cube, checked at ``row_tol``
    from its moves (``chain.chain_from_moves`` of ``Flips.kernel_moves``);
    the chain carries the operator of its rates as ``flips``.  d above
    DENSE_CUBE_LIMIT raises DimensionTooLarge before anything is
    allocated."""
    poset, flips = cube_poset(params.d), params.flips
    return chain_from_moves(flips.kernel_moves(), poset, nu=nu, row_tol=row_tol,
                            flips=flips)


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
    walk = Chain(poset=cube_poset(3), P=params.flips.kernel())
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
