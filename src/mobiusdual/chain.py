"""Stochastic kernels over a poset and the cumulative/difference operators.

Vectors are row vectors acting on the left of matrices throughout (law times
kernel).  All tolerances can be overridden per call; defaults are the global
ROW_TOL for validation and IDENTITY_TOL for derived identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotAperiodic,
    NotIrreducible,
    NotStochastic,
    NumericalFailure,
)

ROW_TOL = 1e-12
IDENTITY_TOL = 1e-10
# States eliminated per block of the state reduction in ``stationary``.
GTH_BLOCK = 32


@dataclass(frozen=True)
class Chain:
    """Row-stochastic kernel P over a poset, with optional initial law nu.

    ``exact`` optionally carries the kernel entries as Fractions (same shape)
    when the input was given in exact rational form.
    """

    poset: object
    P: np.ndarray
    nu: np.ndarray | None = None
    exact: tuple | None = None

    def __post_init__(self):
        self.P.flags.writeable = False
        if self.nu is not None:
            self.nu.flags.writeable = False

    @property
    def size(self):
        return self.P.shape[0]

    def with_nu(self, nu, row_tol=ROW_TOL):
        return validate_chain(self.P, self.poset, nu=nu, row_tol=row_tol,
                              exact=self.exact)


@dataclass(frozen=True)
class StationaryLaw:
    """Stationary law pi with the achieved residual max|pi P - pi|."""

    pi: np.ndarray
    residual: float

    def __post_init__(self):
        self.pi.flags.writeable = False


def _check_prob_vector(v, m, what, row_tol, violations):
    if v.shape != (m,):
        raise DimensionMismatch(f"{what} must have length {m}, got {v.shape}")
    neg = np.flatnonzero(v < 0)
    for j in neg:
        violations.append((what, f"entry {int(j)} is negative ({v[j]!r})"))
    total = float(v.sum())
    if abs(total - 1.0) > row_tol:
        violations.append((what, f"sums to {total!r}, off by more than {row_tol}"))


def validate_chain(P, poset, nu=None, row_tol=ROW_TOL, exact=None):
    """Validate a kernel against its poset; collect every violation.

    Raises NotStochastic with the full violation list, or DimensionMismatch
    when shapes are wrong.
    """
    P = np.array(P, dtype=float)
    m = poset.size
    if P.shape != (m, m):
        raise DimensionMismatch(f"kernel must be {m}x{m}, got {P.shape}")
    violations = []
    neg = P < 0
    sums = P.sum(axis=1)
    off = np.abs(sums - 1.0) > row_tol
    for i in np.flatnonzero(neg.any(axis=1) | off).tolist():
        for j in np.flatnonzero(neg[i]).tolist():
            violations.append((i, f"entry ({i},{j}) is negative ({P[i, j]!r})"))
        if off[i]:
            s = float(sums[i])
            violations.append((i, f"row {i} sums to {s!r}, off by more than {row_tol}"))
    nu_arr = None
    if nu is not None:
        nu_arr = np.array(nu, dtype=float)
        _check_prob_vector(nu_arr, m, "nu", row_tol, violations)
    if violations:
        detail = "; ".join(msg for _, msg in violations)
        raise NotStochastic(f"kernel is not stochastic: {detail}", violations)
    return Chain(poset=poset, P=P, nu=nu_arr, exact=exact)


def _support_levels(adj):
    """BFS levels from state 0 over the support digraph (-1 if unreachable)."""
    m = adj.shape[0]
    level = np.full(m, -1, dtype=np.int64)
    level[0] = 0
    frontier = level == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = adj[frontier].any(axis=0) & (level < 0)
        level[frontier] = depth
    return level


def _check_ergodic(P, poset):
    adj = P > 0
    fwd = _support_levels(adj)
    if (fwd < 0).any():
        j = int(np.flatnonzero(fwd < 0)[0])
        raise NotIrreducible(
            f"state {poset.elements[j]!r} is unreachable from "
            f"{poset.elements[0]!r}",
            pair=(poset.elements[0], poset.elements[j]),
        )
    bwd = _support_levels(adj.T)
    if (bwd < 0).any():
        j = int(np.flatnonzero(bwd < 0)[0])
        raise NotIrreducible(
            f"state {poset.elements[0]!r} is unreachable from "
            f"{poset.elements[j]!r}",
            pair=(poset.elements[j], poset.elements[0]),
        )
    rows, cols = np.nonzero(adj)
    period = int(np.gcd.reduce(fwd[rows] + 1 - fwd[cols]))
    if period != 1:
        raise NotAperiodic(f"chain has period {period}", period=period)


def stationary(c, residual_tol=IDENTITY_TOL):
    """Stationary law of an ergodic chain, solved dense by state reduction.

    Irreducibility (strong connectivity of the support digraph) and
    aperiodicity (gcd of cycle lengths) are verified structurally first.
    The solve censors states from the top down and back-substitutes
    (Grassmann-Taksar-Heyman); it is subtraction-free, so every stationary
    mass carries full relative accuracy even when masses span many orders of
    magnitude.  That accuracy is what keeps the time reversal row-stochastic
    to within ROW_TOL downstream.

    The reduction is blocked and right-looking: states are censored in
    blocks of GTH_BLOCK, each step updating only the block's row and column
    panels, and the leading block receives the block's deferred rank
    updates as one matrix product.  The Schur complements are those of the
    one-state-at-a-time reduction and every update still adds nonnegative
    terms; a chain of at most GTH_BLOCK states runs exactly the unblocked
    arithmetic.
    """
    _check_ergodic(c.P, c.poset)
    m = c.size
    a = c.P.copy()
    for hi in range(m, 0, -GTH_BLOCK):
        lo = max(0, hi - GTH_BLOCK)
        for k in range(hi - 1, max(lo, 1) - 1, -1):
            s = a[k, :k].sum()
            if s <= 0:
                raise NumericalFailure(
                    f"state reduction stalled at {c.poset.elements[k]!r}"
                )
            a[:k, k] /= s
            a[lo:k, :k] += np.outer(a[lo:k, k], a[k, :k])
            if lo > 0:
                a[:lo, lo:k] += np.outer(a[:lo, k], a[k, lo:k])
        if lo > 0:
            a[:lo, :lo] += a[:lo, lo:hi] @ a[lo:hi, :lo]
    pi = np.empty(m)
    pi[0] = 1.0
    for k in range(1, m):
        pi[k] = pi[:k] @ a[:k, k]
    pi = pi / pi.sum()
    if (pi <= 0).any():
        j = int(np.argmin(pi))
        raise NumericalFailure(
            f"computed stationary mass at {c.poset.elements[j]!r} is not "
            f"positive ({pi[j]!r})"
        )
    residual = float(np.abs(pi @ c.P - pi).max())
    if residual > residual_tol:
        raise NumericalFailure(
            f"stationary residual {residual!r} exceeds {residual_tol}"
        )
    return StationaryLaw(pi=pi, residual=residual)


def reverse(c, law, row_tol=ROW_TOL):
    """Time reversal diag(pi)^-1 P^T diag(pi), revalidated as stochastic."""
    pi = law.pi
    rev = (c.P.T * pi[None, :]) / pi[:, None]
    return validate_chain(rev, c.poset, nu=c.nu, row_tol=row_tol)


def _as_row(f, m):
    f = np.asarray(f, dtype=float)
    if f.shape != (m,):
        raise DimensionMismatch(f"vector must have length {m}, got {f.shape}")
    return f


def sum_down(f, zm):
    """Down-cumulative sums F(e_i) = sum of f over {e : e <= e_i}."""
    m = zm.C.shape[0]
    return _as_row(f, m) @ zm.C


def sum_up(f, zm):
    """Up-cumulative sums over {e : e >= e_i}."""
    m = zm.C.shape[0]
    return _as_row(f, m) @ zm.C.T


def diff_down(f, zm):
    """Inverse of sum_down (Mobius inversion from below)."""
    m = zm.C.shape[0]
    return _as_row(f, m) @ zm.Cinv


def diff_up(f, zm):
    """Inverse of sum_up (Mobius inversion from above)."""
    m = zm.C.shape[0]
    return _as_row(f, m) @ zm.Cinv.T
