"""Strong stationary duals for Mobius-monotone chains.

The down-direction construction needs (i) the start/stationary ratio
g = nu/pi to be down-Mobius monotone and (ii) the time-reversed kernel to be
down-Mobius monotone; it yields an absorbing dual whose absorption time is a
strong stationary time for the original chain.  The up direction mirrors
everything through the transposed zeta matrix.  Duality is certified on every
build through the residuals ||nu - nu* Lambda|| and ||Lambda P - P* Lambda||.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import monotonicity
from .chain import IDENTITY_TOL, Chain, reverse, validate_chain
from .errors import (
    DimensionMismatch,
    NoUniqueExtremalState,
    NotTotalOrder,
    NumericalFailure,
    PreconditionFailed,
)
from .poset import is_total_order, maximal_indices, minimal_indices

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
    nu_star: np.ndarray
    P_star: np.ndarray
    absorbing_index: int
    direction: str
    nu_residual: float = float("nan")
    intertwine_residual: float = float("nan")
    clamp_magnitude: float = 0.0
    forced: bool = False

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
    equals pi exactly.
    """
    pi = law.pi
    cf = zm.C.astype(float)
    if direction == "down":
        h = pi @ cf
        lam = (cf.T * pi[None, :]) / h[:, None]
    elif direction == "up":
        h = pi @ cf.T
        lam = (cf * pi[None, :]) / h[:, None]
    else:
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    return Link(Lambda=lam, H=h, direction=direction)


def _unique_extremal(poset, direction):
    if direction == "down":
        idx = maximal_indices(poset)
        kind = "maximal"
    else:
        idx = minimal_indices(poset)
        kind = "minimal"
    if len(idx) != 1:
        labels = [poset.elements[i] for i in idx]
        raise NoUniqueExtremalState(
            f"the construction requires a unique {kind} state; found {labels!r}"
        )
    return idx[0]


def _nu_star_summation(g, h, zm, direction):
    """Entrywise summation form of the dual initial law (cross-check)."""
    m = len(g)
    cinv = zm.Cinv
    out = np.zeros(m)
    for i in range(m):
        if direction == "down":
            acc = sum(float(cinv[i, k]) * g[k] for k in range(i, m) if cinv[i, k])
        else:
            acc = sum(float(cinv[k, i]) * g[k] for k in range(0, i + 1) if cinv[k, i])
        out[i] = h[i] * acc
    return out


def _clamp(vec_or_mat, tol):
    """Zero out negative float noise in (-tol, 0); return (array, magnitude)."""
    arr = np.array(vec_or_mat, dtype=float)
    mask = (arr < 0) & (arr > -tol)
    magnitude = float(-arr[mask].min()) if mask.any() else 0.0
    arr[mask] = 0.0
    return arr, magnitude


def build_ssd(c, law, zm, direction="down", tol=IDENTITY_TOL, force=False):
    """Construct the strong stationary dual chain (nu*, P*).

    Verifies the two Mobius-monotonicity preconditions (raising
    PreconditionFailed with the offending report unless ``force``), requires a
    unique extremal state, and certifies the duality identities
    nu = nu* Lambda and Lambda P = P* Lambda to within ``tol``.  Entries in
    (-1e-10, 0) are clamped to zero and rows renormalized; the clamp
    magnitude is logged and recorded.  With ``force`` the raw, possibly
    signed, matrices are returned unclamped and unverified (marked
    ``forced=True``).
    """
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    absorbing = _unique_extremal(c.poset, direction)
    g = g_ratio(c, law)
    g_report = monotonicity.function_mobius_monotone(g, zm, direction)
    rev = reverse(c, law)
    core = monotonicity.mobius_transform(rev.P, zm, direction)
    rev_report = monotonicity.transform_report(rev, zm, direction, core)
    if not force:
        if not g_report.verdict:
            raise PreconditionFailed(
                f"nu/pi is not {direction}-Mobius monotone "
                f"(worst {g_report.worst_value!r})",
                report=g_report,
            )
        if not rev_report.verdict:
            raise PreconditionFailed(
                f"time-reversed kernel is not {direction}-Mobius monotone "
                f"(worst {rev_report.worst_value!r})",
                report=rev_report,
            )
    cf = zm.C.astype(float)
    cinvf = zm.Cinv.astype(float)
    if direction == "down":
        h = law.pi @ cf
        nu_star = (g @ cinvf.T) * h
    else:
        h = law.pi @ cf.T
        nu_star = (g @ cinvf) * h
    p_star = ((h[:, None] * core) / h[None, :]).T
    check = _nu_star_summation(g, h, zm, direction)
    if np.abs(check - nu_star).max() > 1e-12:
        raise NumericalFailure(
            "dual initial law: matrix and summation forms disagree beyond 1e-12"
        )
    if force:
        return DualChain(
            nu_star=nu_star,
            P_star=p_star,
            absorbing_index=absorbing,
            direction=direction,
            forced=True,
        )
    nu_star, m_nu = _clamp(nu_star, CLAMP_TOL)
    p_star, m_p = _clamp(p_star, CLAMP_TOL)
    clamp_magnitude = max(m_nu, m_p)
    if clamp_magnitude > 0:
        log.info("clamped dual negatives up to %.3e", clamp_magnitude)
    if (nu_star < 0).any() or (p_star < 0).any():
        worst = min(float(nu_star.min()), float(p_star.min()))
        raise NumericalFailure(
            f"dual has negative mass {worst!r} beyond the clamp tolerance"
        )
    nu_star = nu_star / nu_star.sum()
    p_star = p_star / p_star.sum(axis=1)[:, None]
    if abs(p_star[absorbing, absorbing] - 1.0) > tol:
        raise NumericalFailure(
            f"extremal state is not absorbing: diagonal "
            f"{p_star[absorbing, absorbing]!r}"
        )
    unit = np.zeros(c.size)
    unit[absorbing] = 1.0
    p_star[absorbing, :] = unit
    link = build_link(law, zm, direction)
    nu_res = float(np.abs(c.nu - nu_star @ link.Lambda).max())
    tw_res = float(np.abs(link.Lambda @ c.P - p_star @ link.Lambda).max())
    if nu_res > tol or tw_res > tol:
        raise NumericalFailure(
            f"duality residuals exceed {tol}: nu {nu_res!r}, intertwining {tw_res!r}"
        )
    return DualChain(
        nu_star=nu_star,
        P_star=p_star,
        absorbing_index=absorbing,
        direction=direction,
        nu_residual=nu_res,
        intertwine_residual=tw_res,
        clamp_magnitude=clamp_magnitude,
    )


def build_ssd_linear(c, law, direction="down", tol=IDENTITY_TOL):
    """Birth-death dual on a totally ordered space via the explicit formulas.

    down: P*(i,j) = H(j)/H(i) (Prev(j, [1..i]) - Prev(j+1, [1..i])) with
    nu*(i) = H(i)(g(i) - g(i+1)); up mirrors with tail sums.  The result is
    asserted equal (<= 1e-12) to the general construction on the same input.
    """
    from .poset import zeta_mobius

    p = c.poset
    if not is_total_order(p):
        raise NotTotalOrder("state space is not totally ordered")
    zm = zeta_mobius(p)
    general = build_ssd(c, law, zm, direction=direction, tol=tol)
    g = g_ratio(c, law)
    rev = reverse(c, law)
    m = c.size
    pi = law.pi
    if direction == "down":
        h = np.cumsum(pi)
        cdf = np.cumsum(rev.P, axis=1)      # cdf[j, i] = Prev(j, [1..i])
        shifted = np.vstack([cdf[1:, :], np.zeros(m)])
        p_star = ((cdf - shifted) * h[:, None]).T / h[:, None]
        g_next = np.append(g[1:], 0.0)
        nu_star = h * (g - g_next)
    else:
        h = np.cumsum(pi[::-1])[::-1]
        tail = np.cumsum(rev.P[:, ::-1], axis=1)[:, ::-1]   # tail[j, i] = Prev(j, [i..M])
        shifted = np.vstack([np.zeros(m), tail[:-1, :]])
        p_star = ((tail - shifted) * h[:, None]).T / h[:, None]
        g_prev = np.append(0.0, g[:-1])
        nu_star = h * (g - g_prev)
    p_star, _ = _clamp(p_star, CLAMP_TOL)
    nu_star, _ = _clamp(nu_star, CLAMP_TOL)
    if (
        np.abs(p_star - general.P_star).max() > 1e-12
        or np.abs(nu_star - general.nu_star).max() > 1e-12
    ):
        raise NumericalFailure(
            "linear-order dual disagrees with the general construction beyond 1e-12"
        )
    return DualChain(
        nu_star=nu_star,
        P_star=p_star,
        absorbing_index=general.absorbing_index,
        direction=direction,
        nu_residual=general.nu_residual,
        intertwine_residual=general.intertwine_residual,
        clamp_magnitude=general.clamp_magnitude,
    )


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


def dual_as_chain(dual, poset, row_tol=1e-12):
    """Repackage a dual as a Chain for downstream analysis and serialization."""
    return validate_chain(dual.P_star, poset, nu=dual.nu_star, row_tol=row_tol)
