"""Strong stationary duals for Mobius-monotone chains.

The down-direction construction needs (i) the start/stationary ratio
g = nu/pi to be down-Mobius monotone and (ii) the time-reversed kernel to be
down-Mobius monotone; it yields an absorbing dual whose absorption time is a
strong stationary time for the original chain.  The up direction mirrors
everything through the transposed zeta matrix.  Duality is certified on every
build through the residuals ||nu - nu* Lambda|| and ||Lambda P - P* Lambda||,
the latter by a bound read off the flip rates on a cube walk's closed form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import monotonicity
from .chain import IDENTITY_TOL, reverse, walk_moves
from .cube import owed_bits, walk_entries
from .errors import (
    AbsorbingStateUnreachable,
    DimensionMismatch,
    NoUniqueExtremalState,
    NumericalFailure,
    PreconditionFailed,
)
from .poset import cube_bits

log = logging.getLogger(__name__)

CLAMP_TOL = 1e-10


@dataclass(frozen=True)
class Link:
    """Intertwining kernel tying the original chain to its dual.

    ``H`` holds the cumulative stationary masses: down-sets for direction
    "down" (last entry 1 at a maximum), up-sets for "up".
    """

    Lambda: np.ndarray
    H: np.ndarray
    direction: str

    def __post_init__(self):
        self.Lambda.flags.writeable = False
        self.H.flags.writeable = False


@dataclass(frozen=True)
class DualChain:
    """Dual kernel and initial law; ``reversed_report`` is the Mobius report
    of the time-reversed kernel in ``direction`` that decided the build, and
    ``path`` names how P* was built: "closed_form" from a walk's flip rates,
    where ``intertwine_residual`` holds a bound on the residual, or
    "transform" from the reversal's Mobius transform.  ``walk`` holds the
    reversal's flip rates (a ``CubeWalkParams``) on the closed-form path
    only; from them ``absorption_tail`` steps, and ``simulate_absorption``
    samples, an unclamped dual without reading P*."""

    nu_star: np.ndarray
    P_star: np.ndarray
    absorbing_index: int
    direction: str
    nu_residual: float = float("nan")
    intertwine_residual: float = float("nan")
    clamp_magnitude: float = 0.0
    reversed_report: monotonicity.MonotonicityReport | None = None
    path: str = "transform"
    walk: object | None = None

    def __post_init__(self):
        self.nu_star.flags.writeable = False
        self.P_star.flags.writeable = False

    @property
    def size(self):
        return self.P_star.shape[0]


@dataclass(frozen=True)
class DualityResiduals:
    nu_residual: float
    intertwine_residual: float
    row_sum_deviation: float
    min_nu_star: float
    min_P_star: float

    @property
    def ok(self):
        return (
            self.nu_residual <= IDENTITY_TOL
            and self.intertwine_residual <= IDENTITY_TOL
        )


def g_ratio(c, law):
    """Start/stationary ratio g = nu/pi (requires nu on the chain)."""
    if c.nu is None:
        raise PreconditionFailed("chain has no initial law nu")
    return c.nu / law.pi


def build_link(law, zm, direction="down"):
    """Link kernel Lambda(e_j, e_i) = 1{e_i <= e_j} pi(e_i) / H(e_j).

    For direction "up" the indicator and the cumulative masses flip to
    up-sets.  Rows are probability vectors by construction; the extremal row
    equals pi exactly.  H = pi Z and Lambda = diag(1/H) Z^T diag(pi), with
    Z^T the other direction's zeta action, so no dense matrix is read.
    """
    h = zm.zeta_right(law.pi, direction)
    other = "up" if direction == "down" else "down"
    lam = zm.zeta_left(np.diag(law.pi), other) / h[:, None]
    return Link(Lambda=lam, H=h, direction=direction)


def _unique_extremal(p, direction):
    """Index of the one state with nothing above it in the oriented order
    (maximal for down, minimal for up)."""
    above = p.zeta_left(np.ones(p.size, dtype=np.int64), direction, np.int64)
    idx = np.flatnonzero(above == 1)
    if len(idx) != 1:
        kind = "maximal" if direction == "down" else "minimal"
        labels = [p.elements[i] for i in idx]
        raise NoUniqueExtremalState(
            f"the construction requires a unique {kind} state; found {labels!r}"
        )
    return int(idx[0])


def _clamp(arr, tol):
    """Zero the float noise in (-tol, tol) of ``arr`` in place; return the
    largest |x| zeroed."""
    mask = (arr > -tol) & (arr < tol)
    magnitude = max(arr.max(initial=0.0, where=mask), -arr.min(initial=0.0, where=mask))
    arr[mask] = 0.0
    return float(magnitude)


def build_ssd(c, law, zm, direction="down", mono_tol=monotonicity.MONO_TOL):
    """Construct the strong stationary dual chain (nu*, P*).

    Decides the two Mobius-monotonicity preconditions at tolerance
    ``mono_tol`` (raising PreconditionFailed with the offending report; the
    reversed-kernel report is kept as ``reversed_report``), requires a
    unique extremal state, and certifies the duality identities
    nu = nu* Lambda and Lambda P = P* Lambda to within IDENTITY_TOL.  Entries
    of magnitude below 1e-10, of either sign, are zeroed and rows
    renormalized; the largest zeroed magnitude is logged and recorded.
    After the clamp, every state that P* reaches from supp nu* must reach
    the absorbing state, or AbsorbingStateUnreachable is raised: the clamp
    can drop a move that the absorption needs.

    When the time reversal is a cube walk (see ``reverse``), its report and
    P* are read off the flip rates (``path`` "closed_form"); the clamp and
    the row normalisation are the same, so a flip with s_k below the clamp
    is dropped on both paths, whereas the report's witness rule reads rates
    at ``mono_tol``.  There the intertwining is certified by a bound on its
    residual read off the rates (``_walk_bound``), and elsewhere by the
    residual itself; nu's residual is exact on both paths.  Otherwise
    the construction gives P* transposed, H(e_j)/H(e_i) (Cinv R C)(e_j, e_i)
    with R the time reversal: it is clamped and column-summed as it is, and
    P* is written C-ordered by the normalising division.
    """
    absorbing = _unique_extremal(zm, direction)
    g = g_ratio(c, law)
    g_report = monotonicity.function_mobius_monotone(g, zm, direction, mono_tol)
    rev = reverse(c, law)
    walk = rev.walk
    if walk is not None:
        rev_report = monotonicity.walk_report(rev, direction, mono_tol)
    else:
        core = monotonicity.mobius_transform(rev.P, zm, direction)
        rev_report = monotonicity.transform_report(rev, zm, direction, core, mono_tol)
    del rev
    for report, what in ((g_report, "nu/pi"), (rev_report, "time-reversed kernel")):
        if not report.verdict:
            raise PreconditionFailed(
                f"{what} is not {direction}-Mobius monotone "
                f"(worst {report.worst_value:.17g})",
                report=report,
            )
    h = zm.zeta_right(law.pi, direction)
    nu_star = g_report.transformed * h
    if walk is not None:
        rows, cols, p, _ = walk_entries(walk, direction)
        p = p.copy()  # the kept entries are read-only; the clamp writes
    else:
        p = (h[:, None] * core) / h[None, :]   # P* transposed
        del core  # free an m x m array before the clamp and the residuals
    m_nu = _clamp(nu_star, CLAMP_TOL)
    m_p = _clamp(p, CLAMP_TOL)
    clamp_magnitude = max(m_nu, m_p)
    if clamp_magnitude > 0:
        log.info("zeroed dual noise up to %.3e", clamp_magnitude)
    if (nu_star < 0).any() or (p < 0).any():
        worst = min(float(nu_star.min()), float(p.min()))
        raise NumericalFailure(
            f"dual has negative mass {worst!r} beyond the clamp tolerance"
        )
    nu_star = nu_star / nu_star.sum()
    if walk is not None:
        p_star = np.zeros((c.size, c.size))
        p_star[rows, cols] = p / np.bincount(rows, p, c.size)[rows]
        del rows, cols  # out of the residuals' peak
    else:
        p_star = np.divide(p.T, p.sum(axis=0)[:, None], order="C")
    del p
    if abs(p_star[absorbing, absorbing] - 1.0) > IDENTITY_TOL:
        raise NumericalFailure(
            f"extremal state is not absorbing: diagonal "
            f"{float(p_star[absorbing, absorbing])!r}"
        )
    p_star[absorbing] = 0.0
    p_star[absorbing, absorbing] = 1.0
    if walk is None:
        _check_absorbs(p_star, nu_star, absorbing, zm.elements)
        nu_res, tw_res = _residuals(c, law, zm, direction, h, nu_star, p_star)
    else:
        _check_walk_absorbs(walk, nu_star, absorbing, direction, zm.elements)
        nu_res = _nu_residual(c, law, zm, direction, h, nu_star)
        tw_res = _walk_bound(walk, law.pi, direction, p_star)
    if not (nu_res <= IDENTITY_TOL and tw_res <= IDENTITY_TOL):
        raise NumericalFailure(
            f"duality residuals exceed {IDENTITY_TOL}: nu {nu_res!r}, "
            f"intertwining {tw_res!r}"
        )
    return DualChain(
        nu_star=nu_star,
        P_star=p_star,
        absorbing_index=absorbing,
        direction=direction,
        nu_residual=nu_res,
        intertwine_residual=tw_res,
        clamp_magnitude=clamp_magnitude,
        reversed_report=rev_report,
        path="transform" if walk is None else "closed_form",
        walk=walk,
    )


def _unreachable(elements, state, absorbing, why):
    return AbsorbingStateUnreachable(
        f"the absorbing state {elements[absorbing]!r} cannot be reached from "
        f"state {elements[state]!r}, {why}; the dual has a second absorbing class",
        pair=(elements[state], elements[absorbing]),
    )


def _check_walk_absorbs(walk, nu_star, absorbing, direction, elements):
    """Raise AbsorbingStateUnreachable unless every flip that the dual of
    ``walk`` owes from supp nu* survived the clamp, in O(d) per state of
    supp nu*.

    The dual collects each bit k at rate s_k from every state that owes it
    (``cube.owed_bits``), whatever the other bits, and the clamp drops
    exactly the flips with s_k below CLAMP_TOL (the rates are positive).
    So the absorbing state is reached from every reached state iff no bit
    owed by a state of supp nu* has a dropped flip."""
    supp = np.flatnonzero(nu_star)
    lost = owed_bits(supp, walk.d, direction) & (walk.rates < CLAMP_TOL)
    if lost.any():
        i, k = np.argwhere(lost)[0]
        raise _unreachable(
            elements, supp[i], absorbing,
            f"which owes coordinate {k + 1}, whose flip rate "
            f"{float(walk.rates[k])!r} the clamp dropped",
        )


def _closure(start, src, dst):
    """The mask of states reached from the mask ``start`` along the moves
    src[i] -> dst[i], one breadth-first level per O(moves) pass."""
    reached = start.copy()
    frontier = start
    while frontier.any():
        step = np.zeros_like(reached)
        step[dst[frontier[src]]] = True
        frontier = step & ~reached
        reached |= frontier
    return reached


def _check_absorbs(p_star, nu_star, absorbing, elements):
    """Raise AbsorbingStateUnreachable unless every state that ``p_star``
    reaches from supp nu* reaches ``absorbing``: one pass forward from the
    support and one backward from the absorbing state over the moves of
    P*.  On a dual whose moves go one way this is the zero-pivot rule of
    ``convergence.absorption_tail`` restricted to the reached states."""
    rows, cols = np.nonzero(p_star)
    target = np.zeros(nu_star.size, dtype=bool)
    target[absorbing] = True
    stuck = _closure(nu_star > 0, rows, cols) & ~_closure(target, cols, rows)
    if stuck.any():
        raise _unreachable(elements, int(np.argmax(stuck)), absorbing,
                           "which P* reaches from supp nu*")


def _nu_residual(c, law, zm, direction, h, nu_star):
    """max|nu - nu* Lambda| for the link Lambda = diag(1/H) Z^T diag(pi) of
    ``build_link``, never formed: Z^T is the other direction's zeta action
    (butterflies on a cube)."""
    other = "up" if direction == "down" else "down"
    nu_lam = zm.zeta_right(nu_star / h, other) * law.pi
    return float(np.abs(c.nu - nu_lam).max())


def _residuals(c, law, zm, direction, h, nu_star, p_star):
    """max|nu - nu* Lambda| and max|Lambda P - P* Lambda| for the link of
    ``_nu_residual``, never formed: Lambda P is diag(1/H) (Z^T (diag(pi) P))
    and P* Lambda is ((P* diag(1/H)) Z^T) diag(pi).
    """
    pi = law.pi
    other = "up" if direction == "down" else "down"
    p_lam = zm.zeta_right(p_star / h, other)
    p_lam *= pi
    lam_p = zm.zeta_left(pi[:, None] * c.P, other)
    lam_p /= h[:, None]
    lam_p -= p_lam
    return (_nu_residual(c, law, zm, direction, h, nu_star),
            float(np.abs(lam_p, out=lam_p).max()))


def _walk_bound(walk, pi, direction, p_star):
    """A bound B >= max|Lambda P - P* Lambda| for the dual ``p_star`` of
    the cube walk with flip rates ``walk`` and the link of its law ``pi``,
    from the rates, in O(d 2^d) and with no m x m array.

    The walk's kernel is I + sum_k G_k, with G_k = [[-alpha_k, alpha_k],
    [beta_k, -beta_k]] acting on bit k.  Were pi the product of its
    marginals (pi_k(0), pi_k(1)) and P* = I + sum_k G*_k, with
    G*_k = [[-s_k, s_k], [0, 0]] ("down"; [[0, 0], [s_k, -s_k]] "up") and
    s_k = alpha_k + beta_k, the link would be the product of
    Lambda_k = [[1, 0], [pi_k(0), pi_k(1)]] ("down"; [[pi_k(0), pi_k(1)],
    [0, 1]] "up"), and Lambda P - P* Lambda the sum over k of
    Lambda_k G_k - G*_k Lambda_k tensored with the other Lambda_j, whose
    entries lie in [0, 1].  B adds up what separates the emitted arrays
    from that:

    - sum_k max|Lambda_k G_k - G*_k Lambda_k|, one 2 x 2 term per bit;
    - the deviation of ``p_star`` from I + sum_k G*_k: per row, the larger
      of the sums of its positive and of its negative entries, which bounds
      the row times any column of the link, its entries lying in [0, 1].
      It is read at the walk's moves, x and its d flips x ^ 2^k, of each
      row x; the mass of the row off those positions, a positive deviation,
      is at most 1 minus the mass read there, since the emitted rows are
      nonnegative and sum to 1;
    - the largest stay that ``chain.walk_moves`` set to 0, by which the
      kernel's diagonal leaves I + sum_k G_k;
    - 4 eps, with eps the largest relative deviation of pi from the
      product of its marginals, up to the scale that makes it least (the
      link does not depend on the scale of pi): each entry of the link
      then moves by a relative 2 eps at most, and so each of Lambda P and
      P* Lambda by 2 eps, rows of Lambda and P* summing to 1;
    - (d + 1) machine epsilons, the rounding of a float evaluation of the
      residual, whose terms lie in [0, 1], so that B also bounds what the
      dense residual (``_residuals``) would report.
    """
    d = walk.d
    bits = cube_bits(d)
    up = pi @ bits
    down = pi @ (1 - bits)
    ratio = pi / np.prod(np.where(bits, up, down), axis=1)
    eps = (ratio.max() - ratio.min()) / (ratio.max() + ratio.min())
    alpha = np.asarray(walk.alpha, dtype=float)
    beta = np.asarray(walk.beta, dtype=float)
    s = walk.rates
    # the entries of Lambda_k G_k - G*_k Lambda_k, up to sign
    if direction == "down":
        per_bit = (s - s * down - alpha, alpha - s * up, up * beta - down * alpha)
    else:
        per_bit = (up * beta - down * alpha, beta - s * down, s - s * up - beta)
    rows, cols, vals = walk_moves(walk)
    want = np.where(bits == (direction == "up"), s, 0.0)
    read = p_star[rows, cols].reshape(-1, d + 1)
    dev = read - np.column_stack((want, 1.0 - want.sum(axis=1)))
    over = np.maximum(dev, 0.0).sum(axis=1) + np.maximum(1.0 - read.sum(axis=1), 0.0)
    under = np.maximum(-dev, 0.0).sum(axis=1)
    moves = vals.reshape(-1, d + 1)
    zeroed = np.abs(1.0 - moves[moves[:, d] == 0, :d].sum(axis=1)).max(initial=0.0)
    return float(np.abs(per_bit).max(axis=0).sum() + np.maximum(over, under).max()
                 + zeroed + 4.0 * eps + (d + 1) * np.finfo(float).eps)


def verify_duality(link, c, dual):
    """Residual report for nu = nu* Lambda and Lambda P = P* Lambda."""
    m = c.size
    if link.Lambda.shape != (m, m) or dual.P_star.shape != (m, m):
        raise DimensionMismatch("link/dual shapes do not match the chain")
    if c.nu is not None:
        nu_res = float(np.abs(c.nu - dual.nu_star @ link.Lambda).max())
    else:
        nu_res = float("nan")
    tw = link.Lambda @ c.P - dual.P_star @ link.Lambda
    return DualityResiduals(
        nu_residual=nu_res,
        intertwine_residual=float(np.abs(tw).max()),
        row_sum_deviation=float(np.abs(dual.P_star.sum(axis=1) - 1.0).max()),
        min_nu_star=float(dual.nu_star.min()),
        min_P_star=float(dual.P_star.min()),
    )

