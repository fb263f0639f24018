"""Strong stationary duals for Mobius-monotone chains.

The down-direction construction needs (i) the start/stationary ratio
g = nu/pi to be down-Mobius monotone and (ii) the time-reversed kernel to be
down-Mobius monotone; it yields an absorbing dual whose absorption time is a
strong stationary time for the original chain.  The up direction mirrors
everything through the transposed zeta matrix.  Duality is certified on every
build through the residuals ||nu - nu* Lambda|| and ||Lambda P - P* Lambda||,
the latter by a bound read off the flip rates on a cube walk's closed form
(``cube.Flips.intertwine_bound``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import monotonicity
from .chain import IDENTITY_TOL, _support_levels, nonzeros, reverse
from .errors import (
    AbsorbingStateUnreachable,
    DimensionMismatch,
    NoUniqueExtremalState,
    NumericalFailure,
    PreconditionFailed,
)

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
    "transform" from the reversal's Mobius transform.  ``flips`` holds the
    dual's own operator (``cube.Flips.dual``) on the closed-form path when
    no clamp touched it, else None; from it ``absorption_tail`` steps the
    dual and solves its mean over the operator's moves, and
    ``simulate_absorption`` samples it, without reading P*."""

    nu_star: np.ndarray
    P_star: np.ndarray
    absorbing_index: int
    direction: str
    nu_residual: float = float("nan")
    intertwine_residual: float = float("nan")
    clamp_magnitude: float = 0.0
    reversed_report: monotonicity.MonotonicityReport | None = None
    path: str = "transform"
    flips: object | None = None

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


def _clamp(arr, tol, top=None):
    """Zero the float noise in (-tol, top) of ``arr`` in place, ``top``
    defaulting to tol; return the largest |x| zeroed."""
    mask = (arr > -tol) & (arr < (tol if top is None else top))
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
    of magnitude below 1e-10, of either sign, are zeroed (on the closed
    form, a positive stay only within ROW_TOL of 0) and rows renormalized;
    the largest zeroed magnitude is recorded as ``clamp_magnitude``.
    After the clamp, every state that P* reaches from supp nu* must reach
    the absorbing state, or AbsorbingStateUnreachable is raised: the clamp
    can drop a move that the absorption needs.

    When the time reversal is a cube walk (see ``reverse``), the dual is
    its operator's (``_closed_form``).  Otherwise the construction gives P*
    transposed, H(e_j)/H(e_i) (Cinv R C)(e_j, e_i) with R the time
    reversal: it is clamped and column-summed as it is, and P* is written
    C-ordered by the normalising division; the intertwining is certified
    by its residual.  nu's residual is exact on both paths.
    """
    absorbing = _unique_extremal(zm, direction)
    g_report = monotonicity.function_mobius_monotone(g_ratio(c, law), zm, direction, mono_tol)
    rev = reverse(c, law)
    if rev.flips is not None:
        rev_report = monotonicity.walk_report(rev, direction, mono_tol)
        return _closed_form(c, law, zm, direction, absorbing, g_report, rev_report)
    core = monotonicity.mobius_transform(rev.P, zm, direction)
    rev_report = monotonicity.transform_report(rev, zm, direction, core, mono_tol)
    del rev
    h, nu_star = _start(zm, law, direction, g_report, rev_report)
    p = (h[:, None] * core) / h[None, :]   # P* transposed
    del core  # free an m x m array before the clamp and the residuals
    nu_star, clamp_magnitude = _clamped(nu_star, p, _clamp(p, CLAMP_TOL))
    p_star = np.divide(p.T, p.sum(axis=0)[:, None], order="C")
    del p
    _absorb(p_star, absorbing)
    _check_absorbs(p_star, nu_star, absorbing, zm.elements)
    return _certified(
        DualChain(nu_star=nu_star, P_star=p_star, absorbing_index=absorbing,
                  direction=direction, clamp_magnitude=clamp_magnitude,
                  reversed_report=rev_report),
        *_residuals(c, law, zm, direction, h, nu_star, p_star),
    )


def _closed_form(c, law, zm, direction, absorbing, g_report, rev_report):
    """``build_ssd`` on a cube walk ``c``, its own time reversal: P* is
    written from the moves of its dual's operator (``Flips.dual``), with
    the row normalisation of the transform path, and certified by
    ``Flips.intertwine_bound``; the dual keeps the operator when no clamp
    touched it.  The flips are clamped as on the transform path, but a
    stay only on its negative side: a positive stay is zeroed only as the
    dual's kernel holds it, within ROW_TOL of 0 (``Flips.held``), since a
    stay in (ROW_TOL, CLAMP_TOL) is a legitimate entry."""
    h, nu_star = _start(zm, law, direction, g_report, rev_report)
    dual = c.flips.dual(direction)
    rows, cols, raw = dual.moves()
    live = np.flatnonzero(raw)
    src, dst = rows[live], cols[live]
    p = dual.kernel_moves()[2][live]  # a copy, which the clamp writes
    flip = src != dst
    noise, stays = p[flip], p[~flip]
    zeroed = max(_clamp(noise, CLAMP_TOL), _clamp(stays, CLAMP_TOL, 0.0),
                 float(np.abs(dual.held()).max(initial=0.0)))
    p[flip], p[~flip] = noise, stays
    nu_star, clamp_magnitude = _clamped(nu_star, p, zeroed)
    p_star = np.zeros((c.size, c.size))
    p_star[src, dst] = p / np.bincount(src, p, c.size)[src]
    _absorb(p_star, absorbing)
    _check_flips_absorb(cols, raw, p_star, nu_star, absorbing, zm.elements)
    return _certified(
        DualChain(nu_star=nu_star, P_star=p_star, absorbing_index=absorbing,
                  direction=direction, clamp_magnitude=clamp_magnitude,
                  reversed_report=rev_report, path="closed_form",
                  flips=dual if clamp_magnitude == 0 else None),
        _nu_residual(c, law, zm, direction, h, nu_star),
        c.flips.intertwine_bound(direction, law.pi, p_star),
    )


def _start(zm, law, direction, g_report, rev_report):
    """(H, nu*) once both preconditions hold: raise PreconditionFailed
    with the first report whose verdict fails, nu/pi's first."""
    for report, what in ((g_report, "nu/pi"), (rev_report, "time-reversed kernel")):
        if not report.verdict:
            raise PreconditionFailed(
                f"{what} is not {direction}-Mobius monotone "
                f"(worst {report.worst_value:.17g})",
                report=report,
            )
    h = zm.zeta_right(law.pi, direction)
    return h, g_report.transformed * h


def _clamped(nu_star, p, zeroed):
    """(nu*, magnitude): zero the noise of ``nu_star`` below CLAMP_TOL in
    place, take the largest magnitude zeroed there or, ``zeroed``, among
    P*'s entries ``p``, refuse a negative mass beyond it, and normalise
    nu*."""
    clamp_magnitude = max(_clamp(nu_star, CLAMP_TOL), zeroed)
    if (nu_star < 0).any() or (p < 0).any():
        worst = min(float(nu_star.min()), float(p.min()))
        raise NumericalFailure(
            f"dual has negative mass {worst!r} beyond the clamp tolerance"
        )
    return nu_star / nu_star.sum(), clamp_magnitude


def _absorb(p_star, absorbing):
    """Make the extremal row of ``p_star`` exactly absorbing, refusing it
    when its diagonal is not 1 to within IDENTITY_TOL."""
    if abs(p_star[absorbing, absorbing] - 1.0) > IDENTITY_TOL:
        raise NumericalFailure(
            f"extremal state is not absorbing: diagonal "
            f"{float(p_star[absorbing, absorbing])!r}"
        )
    p_star[absorbing] = 0.0
    p_star[absorbing, absorbing] = 1.0


def _certified(dual, nu_res, tw_res):
    """``dual`` with its residuals, once both are within IDENTITY_TOL."""
    if not (nu_res <= IDENTITY_TOL and tw_res <= IDENTITY_TOL):
        raise NumericalFailure(
            f"duality residuals exceed {IDENTITY_TOL}: nu {nu_res!r}, "
            f"intertwining {tw_res!r}"
        )
    return replace(dual, nu_residual=nu_res, intertwine_residual=tw_res)


def _unreachable(elements, state, absorbing, why):
    return AbsorbingStateUnreachable(
        f"the absorbing state {elements[absorbing]!r} cannot be reached from "
        f"state {elements[state]!r}, {why}; the dual has a second absorbing class",
        pair=(elements[state], elements[absorbing]),
    )


def _check_flips_absorb(cols, raw, p_star, nu_star, absorbing, elements):
    """Raise AbsorbingStateUnreachable unless ``p_star`` keeps every flip
    of the dual operator's moves (``cols``, ``raw``) owed by a state of
    supp nu*, in O(d) per such state: the clamp drops bit k everywhere or
    nowhere, so the absorbing state is reached from every reached state iff
    no bit owed in supp nu* was dropped."""
    supp = np.flatnonzero(nu_star)
    owed = raw.reshape(nu_star.size, -1)[supp, 1:]
    kept = p_star[supp[:, None], cols.reshape(nu_star.size, -1)[supp, 1:]]
    lost = (owed > 0) & (kept == 0)
    if lost.any():
        i, k = np.argwhere(lost)[0]
        raise _unreachable(
            elements, supp[i], absorbing,
            f"which owes coordinate {k + 1}, whose flip rate "
            f"{float(owed[i, k])!r} the clamp dropped",
        )


def _check_absorbs(p_star, nu_star, absorbing, elements):
    """Raise AbsorbingStateUnreachable unless every state that ``p_star``
    reaches from supp nu* reaches ``absorbing``: one breadth-first walk
    (``chain._support_levels``) forward from the support and one backward
    from the absorbing state over the nonzeros of P*.  On a dual whose
    moves go one way, a state that cannot reach the absorbing state leads
    to one with no move out: the zero pivot that ``convergence._mean``
    refuses, here looked for only among the states reached from supp nu*."""
    rows, cols, _ = nonzeros(p_star)
    reached = _support_levels(rows, cols, nu_star > 0) >= 0
    target = np.arange(nu_star.size) == absorbing
    stuck = reached & (_support_levels(cols, rows, target) < 0)
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

