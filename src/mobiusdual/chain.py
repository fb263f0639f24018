"""Stochastic kernels over a poset.

Vectors are row vectors acting on the left of matrices throughout (law times
kernel).  Only the validation tolerance is set per call, as ``row_tol`` of
``validate_chain`` and ``Chain.with_nu`` (default ROW_TOL); a time reversal
is validated at ROW_TOL, and the stationary residual is checked at
IDENTITY_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
# Chains of more than this many states try detailed balance in ``stationary``
# before the state reduction.
TREE_LAW_ABOVE = 32
# Largest detailed-balance defect |pi_x P(x,y) - pi_y P(y,x)| / (pi_x P(x,y))
# over the moves of P at which a stationary law certifies P as reversible.
BALANCE_TOL = 1e-12
# Relative slack, per term summed, within which ``chain_from_moves`` sums a
# kernel row densely: twice the machine epsilon.
SUM_SLACK = 2 * np.finfo(float).eps


@dataclass(frozen=True)
class Chain:
    """Row-stochastic kernel P over a poset, with optional initial law nu.

    ``exact`` optionally carries the kernel entries as Fractions (same shape)
    when the input was given in exact rational form.  ``flips`` carries the
    operator (a ``cube.Flips``) of a nearest-neighbor cube walk, I plus the
    generators of its flips, from which its law, its Mobius reports, its
    dual and its curve are read without a dense array: only
    ``nearest_neighbor_walk`` sets it, on cube walks and on the uniformized
    chain of a single-move product-form network (see
    ``availability.node_rates``).  ``moves`` holds the positive entries of
    P as a read-only triple (rows, cols, vals), row by row in row order,
    on a chain built from its moves (``chain_from_moves``); every other
    chain finds them by a scan of P (``positive_moves``).  ``with_nu`` and
    a ``reverse`` that returns the chain itself keep both.
    """

    poset: object
    P: np.ndarray
    nu: np.ndarray | None = None
    exact: tuple | None = None
    flips: object | None = None
    moves: tuple | None = None

    def __post_init__(self):
        self.P.flags.writeable = False
        if self.nu is not None:
            self.nu.flags.writeable = False

    @property
    def size(self):
        return self.P.shape[0]

    def with_nu(self, nu, row_tol=ROW_TOL):
        """This chain started from ``nu``, which alone is checked, at
        ``row_tol``: P was validated when the chain was built."""
        return replace(self, nu=_checked([], nu, self.size, row_tol))

    def positive_moves(self):
        """(rows, cols, vals): the positive entries of P, row by row in row
        order: ``moves`` when the chain keeps them, else the nonzeros of a
        scan of P (``nonzeros``), which are its positive entries on a
        validated kernel."""
        if self.moves is not None:
            return self.moves
        return nonzeros(self.P)


def nonzeros(mat):
    """The nonzeros of ``mat`` as a row-major triple (rows, cols, vals),
    found through the mask ``mat != 0``, faster than a float
    ``np.nonzero``, in one scan whatever the memory order of ``mat``."""
    rows, cols = np.nonzero(mat != 0)
    return rows, cols, mat[rows, cols]


@dataclass(frozen=True)
class StationaryLaw:
    """Stationary law pi with the achieved residual max|pi P - pi|.

    ``balance`` is the detailed-balance certificate of pi, the largest
    |pi_x P(x,y) - pi_y P(y,x)| / (pi_x P(x,y)) over the nonzeros (x, y) of
    P: a move without its reverse scores 1, and inf means not computed (or
    pi under- or overflowed).  Within BALANCE_TOL it certifies that P is
    its own time reversal, move by move, to that relative precision.
    ``path`` names the solve that gave pi: "product_form" (a walk's),
    "detailed_balance" or "gth".
    """

    pi: np.ndarray
    residual: float
    balance: float = float("inf")
    path: str = "gth"

    def __post_init__(self):
        self.pi.flags.writeable = False


def _check_prob_vector(v, m, what, row_tol, violations):
    if v.shape != (m,):
        raise DimensionMismatch(f"{what} must have length {m}, got {v.shape}")
    for j in np.flatnonzero(~np.isfinite(v)):
        violations.append((what, f"entry {int(j)} is not finite ({float(v[j])!r})"))
    neg = np.flatnonzero(v < 0)
    for j in neg:
        violations.append((what, f"entry {int(j)} is negative ({float(v[j])!r})"))
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
    nu = _checked(_row_violations(P, np.arange(m), row_tol), nu, m, row_tol)
    return Chain(poset=poset, P=P, nu=nu, exact=exact)


def _row_violations(block, index, row_tol):
    """The violations of the kernel rows ``block``, whose row r is row
    index[r] of the kernel: per row, its non-finite entries, its negative
    entries, then its sum when off 1 by more than ``row_tol``."""
    neg = block < 0
    bad = ~np.isfinite(block)
    sums = block.sum(axis=1)
    off = np.abs(sums - 1.0) > row_tol
    violations = []
    for r in np.flatnonzero(neg.any(axis=1) | bad.any(axis=1) | off).tolist():
        i = int(index[r])
        for j in np.flatnonzero(bad[r]).tolist():
            violations.append((i, f"entry ({i},{j}) is not finite ({float(block[r, j])!r})"))
        for j in np.flatnonzero(neg[r]).tolist():
            violations.append((i, f"entry ({i},{j}) is negative ({float(block[r, j])!r})"))
        if off[r]:
            s = float(sums[r])
            violations.append((i, f"row {i} sums to {s!r}, off by more than {row_tol}"))
    return violations


def chain_from_moves(moves, poset, nu=None, row_tol=ROW_TOL, flips=None):
    """The chain on ``poset`` whose kernel holds the entries ``moves``, a
    row-major triple (rows, cols, vals) that lists each entry of a row that
    can be nonzero once, row by row in row order, started from ``nu``;
    ``flips`` is the operator of the cube walk whose ``kernel_moves`` they
    are (``nearest_neighbor_walk``), if any.

    Its dense kernel is written from the moves and checked as
    ``validate_chain`` checks a kernel, raising the same violations, but
    read at the moves: a row is summed densely only when it has a
    non-finite or negative move, or when the sum of its n moves is within
    SUM_SLACK n times itself of being off 1 by more than ``row_tol`` (any
    two orders of summing n nonnegative terms differ by less than n eps
    times their sum).  The chain keeps the positive moves (``Chain.moves``),
    whose arrays it marks read-only.
    """
    rows, cols, vals = moves
    m = poset.size
    mat = np.zeros((m, m))
    mat[rows, cols] = vals
    sums = np.bincount(rows, vals, m)
    count = np.diff(np.searchsorted(rows, np.arange(m + 1)))
    check = np.flatnonzero(np.abs(sums - 1.0) > row_tol - SUM_SLACK * count * np.abs(sums))
    bad = ~np.isfinite(vals) | (vals < 0)
    if bad.any():
        check = np.union1d(check, rows[bad])
    violations = _row_violations(mat[check], check, row_tol) if check.size else []
    nu = _checked(violations, nu, m, row_tol)
    positive = vals > 0
    if not positive.all():
        rows, cols, vals = rows[positive], cols[positive], vals[positive]
    for a in (rows, cols, vals):
        a.flags.writeable = False
    return Chain(poset=poset, P=mat, nu=nu, flips=flips, moves=(rows, cols, vals))


def _checked(violations, nu, m, row_tol):
    """``nu`` as a float array (or None), once it is checked at ``row_tol``
    as a law on m states after the kernel's ``violations``: raise
    NotStochastic listing them all, if there are any; its message names the
    initial law when every violation is of ``nu``."""
    if nu is not None:
        nu = np.array(nu, dtype=float)
        _check_prob_vector(nu, m, "nu", row_tol, violations)
    if violations:
        detail = "; ".join(msg for _, msg in violations)
        if all(what == "nu" for what, _ in violations):
            prefix = "initial law nu is not a probability vector"
        else:
            prefix = "kernel is not stochastic"
        raise NotStochastic(f"{prefix}: {detail}", violations)
    return nu


def _support_levels(src, dst, start):
    """BFS levels from the states of the mask ``start`` along the edges
    src[k] -> dst[k] of a digraph on start.size states (-1 if unreachable),
    one pass over the edges per level until no state is new or every state
    is reached."""
    level = np.where(start, 0, -1)
    frontier = start
    depth = 0
    while frontier.any() and (level < 0).any():
        depth += 1
        reached = np.zeros(start.size, dtype=bool)
        reached[dst[frontier[src]]] = True
        frontier = reached & (level < 0)
        level[frontier] = depth
    return level


def _check_ergodic(rows, cols, poset):
    """Raise unless the support digraph of the moves rows[k] -> cols[k] is
    strongly connected and aperiodic; return the BFS levels from state 0."""
    zero = np.arange(poset.size) == 0
    fwd = _support_levels(rows, cols, zero)
    if (fwd < 0).any():
        j = int(np.flatnonzero(fwd < 0)[0])
        raise NotIrreducible(
            f"state {poset.elements[j]!r} is unreachable from "
            f"{poset.elements[0]!r}",
            pair=(poset.elements[0], poset.elements[j]),
        )
    bwd = _support_levels(cols, rows, zero)
    if (bwd < 0).any():
        j = int(np.flatnonzero(bwd < 0)[0])
        raise NotIrreducible(
            f"state {poset.elements[0]!r} is unreachable from "
            f"{poset.elements[j]!r}",
            pair=(poset.elements[j], poset.elements[0]),
        )
    # a positive stay is a cycle of length 1
    period = 1 if (rows == cols).any() else int(np.gcd.reduce(fwd[rows] + 1 - fwd[cols]))
    if period != 1:
        raise NotAperiodic(f"chain has period {period}", period=period)
    return fwd


def _tree_law(P, level, rows, cols):
    """Unnormalised law by detailed balance along a BFS spanning tree, or
    None when a tree edge has no reverse move.

    Each state y past level 0 hangs from the first state x one level above
    it with P(x, y) > 0, and pi(y) / pi(x) = P(x, y) / P(y, x) with
    pi(0) = 1.  The products along the tree paths are taken by pointer
    jumping, log2(depth) passes.  P holds floats, or Fractions for an exact
    check.
    """
    m = P.shape[0]
    tree = level[rows] + 1 == level[cols]
    parent = np.full(m, m)
    np.minimum.at(parent, cols[tree], rows[tree])
    parent[0] = 0
    y, x = np.arange(1, m), parent[1:]
    back = P[y, x]
    if not back.all():
        return None
    pi = np.ones(m, dtype=P.dtype)
    pi[1:] = P[x, y] / back
    for _ in range(int(level.max()).bit_length()):
        pi = pi * pi[parent]
        parent = parent[parent]
    return pi


def _balance(P, pi, rows, cols, vals):
    """max |pi_x P(x,y) - pi_y P(y,x)| / (pi_x P(x,y)) over the nonzeros
    P(x, y) = vals at (x, y) = (rows, cols): 0 on the diagonal, 1 for a move
    without its reverse, inf where pi under- or overflowed.  Free of the
    scale of pi."""
    flow = pi[rows] * vals
    worst = float((np.abs(flow - pi[cols] * P[cols, rows]) / flow).max())
    return float("inf") if np.isnan(worst) else worst


def _gth(c):
    """Grassmann-Taksar-Heyman state reduction (see ``stationary``)."""
    m = c.size
    a = c.P.copy()
    for k in range(m - 1, 0, -1):
        s = a[k, :k].sum()
        if s <= 0:
            raise NumericalFailure(
                f"state reduction stalled at {c.poset.elements[k]!r}"
            )
        a[:k, k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.empty(m)
    pi[0] = 1.0
    for k in range(1, m):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def stationary(c):
    """Stationary law of an ergodic chain: in product form on a cube walk,
    else by detailed balance along a spanning tree when that certifies, by
    dense state reduction otherwise.

    A chain that carries ``flips`` takes its law, its ergodicity and its
    certificates from its operator (``Flips.law``, path "product_form"),
    reading no dense array.  On every other chain, irreducibility (strong
    connectivity of the support digraph) and aperiodicity (gcd of cycle
    lengths) are verified structurally first, over the positive moves of
    the kernel (``Chain.positive_moves``), which also carry the tree law
    and the certificate.

    A reversible chain's law follows from detailed balance along any
    spanning tree of its support (Kolmogorov's criterion).  For a chain of
    more than TREE_LAW_ABOVE states the BFS tree of the ergodicity check
    gives a candidate in O(nnz), accepted when its certificate
    (``StationaryLaw.balance``) is within BALANCE_TOL; availability chains
    pass it.  An accepted pi is the exact law of a reversible kernel whose
    moves are within a relative BALANCE_TOL of those of P, so by the Markov
    chain tree theorem each mass is within a relative 2 m BALANCE_TOL of
    P's own law at worst; on the kernels of walks and networks up to 4096
    states it is within 1e-14 of the product form.

    Every other chain, and every chain of at most TREE_LAW_ABOVE states, is
    solved by censoring states one at a time from the top down and
    back-substituting (Grassmann-Taksar-Heyman), in O(m^3).  The solve is
    subtraction-free, so every stationary mass carries full relative
    accuracy even when masses span many orders of magnitude; that accuracy
    is what keeps the time reversal row-stochastic to within ROW_TOL
    downstream.  The certificate is then taken on the reduced law, so a
    small reversible chain is certified too.

    Every path checks the residual max|pi P - pi| against IDENTITY_TOL.
    """
    if c.flips is not None:
        law = c.flips.law()
    else:
        pi, balance, path = _solve(c)
        law = StationaryLaw(pi=pi, residual=float(np.abs(pi @ c.P - pi).max()),
                            balance=balance, path=path)
    if (law.pi <= 0).any():
        j = int(np.argmin(law.pi))
        raise NumericalFailure(
            f"computed stationary mass at {c.poset.elements[j]!r} is not "
            f"positive ({float(law.pi[j])!r})"
        )
    if not law.residual <= IDENTITY_TOL:
        raise NumericalFailure(
            f"stationary residual {law.residual!r} exceeds {IDENTITY_TOL}"
        )
    return law


def _solve(c):
    """(pi, balance, path) of a chain without ``flips`` (see ``stationary``)."""
    rows, cols, vals = c.positive_moves()
    level = _check_ergodic(rows, cols, c.poset)
    balance = float("inf")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if c.size > TREE_LAW_ABOVE:
            pi = _tree_law(c.P, level, rows, cols)
            if pi is not None:
                balance = _balance(c.P, pi, rows, cols, vals)
        if balance <= BALANCE_TOL:
            return pi / pi.sum(), balance, "detailed_balance"
        pi = _gth(c)
        return pi, _balance(c.P, pi, rows, cols, vals), "gth"


def _exactly_balanced(c):
    """Whether the exact entries of c satisfy detailed balance exactly over
    their nonzeros, along the tree ``stationary`` uses, in Fractions."""
    exact = np.array(c.exact, dtype=object)
    rows, cols, _ = c.positive_moves()
    level = _support_levels(rows, cols, np.arange(c.size) == 0)
    if (level < 0).any():
        return False
    pi = _tree_law(exact, level, rows, cols)
    return pi is not None and bool(
        (pi[rows] * exact[rows, cols] == pi[cols] * exact[cols, rows]).all()
    )


def reverse(c, law):
    """Time reversal diag(pi)^-1 P^T diag(pi), revalidated as stochastic at
    ROW_TOL.

    A law whose certificate ``balance`` is within BALANCE_TOL makes the
    reversal P itself, move by move, to that relative precision, so the
    chain is returned: ``c`` when it carries no exact entries or they
    balance exactly (an exact rerun on the reversal then reruns on them),
    else ``c`` without them.  Computing the reversal would only add
    rounding.  Every other law gives the computed reversal, without exact
    entries.
    """
    if law.balance <= BALANCE_TOL:
        if c.exact is None or _exactly_balanced(c):
            return c
        return Chain(poset=c.poset, P=c.P, nu=c.nu)
    pi = law.pi
    rev = np.divide(c.P.T * pi[None, :], pi[:, None], order="C")
    return validate_chain(rev, c.poset, nu=c.nu)

