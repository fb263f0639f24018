"""Monotonicity notions for kernels and functions on a poset.

Each decision returns a :class:`MonotonicityReport` carrying the verdict, the
most negative value seen (or the worst LP objective), a witness locating it,
and the tolerance used.  Verdicts are one-sided sign checks: a report is true
iff ``worst_value >= -tolerance_used``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .errors import (
    DimensionMismatch,
    LPFailure,
    UpSetExplosion,
)

MONO_TOL = 1e-10
EXACT_RERUN_FACTOR = 100.0
UPSET_CAP = 2**20
LP_SIZE_CAP = 256

NOTIONS = (
    "mobius_down",
    "mobius_up",
    "weak_down",
    "weak_up",
    "strong_stochastic",
    "function_mobius_down",
    "function_mobius_up",
)


@dataclass(frozen=True)
class MonotonicityReport:
    notion: str
    verdict: bool
    worst_value: float
    witness: object
    tolerance_used: float
    transformed: np.ndarray | None = None
    exact: bool = False

    def __post_init__(self):
        if self.transformed is not None:
            self.transformed.flags.writeable = False


def _check_square(P, m):
    if P.shape != (m, m):
        raise DimensionMismatch(f"kernel must be {m}x{m}, got {P.shape}")


def mobius_transform(P, zm, direction):
    """Similarity transform whose entrywise sign decides Mobius monotonicity.

    down: Cinv P C; up: (C^T)^-1 P C^T.
    """
    m = zm.C.shape[0]
    _check_square(P, m)
    cf = zm.C.astype(float)
    cinvf = zm.Cinv.astype(float)
    if direction == "down":
        return cinvf @ P @ cf
    if direction == "up":
        return cinvf.T @ P @ cf.T
    raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")


def _exact_transform_min(c, zm, direction):
    """Exact rational recomputation of the transform's minimum entry."""
    m = zm.C.shape[0]
    C = [[int(v) for v in row] for row in zm.C]
    Ci = [[int(v) for v in row] for row in zm.Cinv]
    P = c.exact
    if direction == "up":
        C = [list(col) for col in zip(*C)]
        Ci = [list(col) for col in zip(*Ci)]
    pc = [
        [sum(P[i][k] * C[k][j] for k in range(m)) for j in range(m)]
        for i in range(m)
    ]
    worst = None
    witness = None
    for i in range(m):
        for j in range(m):
            v = sum(Ci[i][k] * pc[k][j] for k in range(m))
            if worst is None or v < worst:
                worst, witness = v, (i, j)
    return worst, witness


def transform_report(c, zm, direction, t, tol=MONO_TOL):
    """Mobius verdict of chain c from its transform t = mobius_transform(c.P, ...).

    Lets a caller that needs the transform anyway compute it once.  The
    transform is not kept on the report.
    """
    flat = int(np.argmin(t))
    i, j = divmod(flat, t.shape[1])
    worst = float(t[i, j])
    exact = False
    if c.exact is not None and abs(worst) < EXACT_RERUN_FACTOR * tol:
        worst_q, (i, j) = _exact_transform_min(c, zm, direction)
        worst = float(worst_q)
        verdict = worst_q >= 0
        exact = True
    else:
        verdict = worst >= -tol
    witness = (c.poset.elements[i], c.poset.elements[j])
    return MonotonicityReport(
        notion=f"mobius_{direction}",
        verdict=bool(verdict),
        worst_value=worst,
        witness=witness,
        tolerance_used=0.0 if exact else tol,
        exact=exact,
    )


def mobius_monotone_down(c, zm, tol=MONO_TOL):
    """Entrywise sign check of Cinv P C.

    Near-boundary verdicts (|worst| < 100 tol) are re-run in exact rational
    arithmetic when the chain carries exact entries.
    """
    return transform_report(c, zm, "down", mobius_transform(c.P, zm, "down"), tol)


def mobius_monotone_up(c, zm, tol=MONO_TOL):
    """Entrywise sign check of (C^T)^-1 P C^T."""
    return transform_report(c, zm, "up", mobius_transform(c.P, zm, "up"), tol)


def function_mobius_monotone(f, zm, direction, tol=MONO_TOL):
    """Sign check of f (C^T)^-1 (down) or f Cinv (up); keeps the transform."""
    m = zm.C.shape[0]
    f = np.asarray(f, dtype=float)
    if f.shape != (m,):
        raise DimensionMismatch(f"vector must have length {m}, got {f.shape}")
    if direction == "down":
        t = f @ zm.Cinv.T.astype(float)
    elif direction == "up":
        t = f @ zm.Cinv.astype(float)
    else:
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    j = int(np.argmin(t))
    worst = float(t[j])
    return MonotonicityReport(
        notion=f"function_mobius_{direction}",
        verdict=bool(worst >= -tol),
        worst_value=worst,
        witness=j,
        tolerance_used=tol,
        transformed=t,
    )


def enumerate_up_sets(p, cap=UPSET_CAP):
    """All up-closed subsets as sorted index tuples, deterministically.

    States are decided in decreasing enumeration order; a state may join only
    if every state strictly above it is already in, which generates each
    up-set exactly once.  Raises UpSetExplosion past ``cap``.
    """
    m = p.size
    strict = p.leq & ~np.eye(m, dtype=bool)
    above = [np.flatnonzero(strict[i, :]) for i in range(m)]
    out = []
    members = np.zeros(m, dtype=bool)

    def rec(i):
        if len(out) > cap:
            raise UpSetExplosion(f"more than {cap} up-sets")
        if i < 0:
            out.append(tuple(np.flatnonzero(members)))
            return
        rec(i - 1)
        if members[above[i]].all():
            members[i] = True
            rec(i - 1)
            members[i] = False

    rec(m - 1)
    if len(out) > cap:
        raise UpSetExplosion(f"more than {cap} up-sets")
    return out


def strong_stochastic_monotone(c, tol=MONO_TOL, cap=UPSET_CAP):
    """P(e_i, A) <= P(e_j, A) over all up-sets A and comparable pairs e_i <= e_j."""
    p = c.poset
    m = p.size
    upsets = enumerate_up_sets(p, cap=cap)
    strict = p.leq & ~np.eye(m, dtype=bool)
    pairs = np.argwhere(strict)
    if pairs.size == 0:
        # no comparable pairs: the condition is vacuous
        return MonotonicityReport(
            notion="strong_stochastic",
            verdict=True,
            worst_value=0.0,
            witness=None,
            tolerance_used=tol,
        )
    worst = np.inf
    witness = None
    exact_rows = c.exact
    for u in upsets:
        if not u or len(u) == m:
            continue
        mass = c.P[:, list(u)].sum(axis=1)
        margins = mass[pairs[:, 1]] - mass[pairs[:, 0]]
        k = int(np.argmin(margins))
        if margins[k] < worst:
            worst = float(margins[k])
            i, j = int(pairs[k, 0]), int(pairs[k, 1])
            witness = (
                p.elements[i],
                p.elements[j],
                tuple(p.elements[x] for x in u),
            )
    if witness is None:
        # chains with no comparable pairs or only trivial up-sets
        worst = 0.0
    exact = False
    verdict = worst >= -tol
    if exact_rows is not None and abs(worst) < EXACT_RERUN_FACTOR * tol and witness:
        worst_q = None
        for u in upsets:
            if not u or len(u) == m:
                continue
            cols = list(u)
            masses = [sum(row[x] for x in cols) for row in exact_rows]
            for a, b in pairs:
                mq = masses[int(b)] - masses[int(a)]
                if worst_q is None or mq < worst_q:
                    worst_q = mq
                    witness = (
                        p.elements[int(a)],
                        p.elements[int(b)],
                        tuple(p.elements[x] for x in u),
                    )
        worst = float(worst_q)
        verdict = worst_q >= 0
        exact = True
    return MonotonicityReport(
        notion="strong_stochastic",
        verdict=bool(verdict),
        worst_value=worst,
        witness=witness,
        tolerance_used=0.0 if exact else tol,
        exact=exact,
    )


def weak_monotone(c, zm, direction, tol=MONO_TOL, size_cap=LP_SIZE_CAP):
    """Cone-preservation check of the weak (cumulative-mass) orderings.

    The ordering compares laws through the point-generated up-sets (up case)
    or down-sets (down case).  For each generator, a linear program minimizes
    the image mass difference over normalized signed differences of laws:
    minimize d . (P u) subject to d C^T >= 0 (up; d C >= 0 down), d . 1 = 0,
    d in [-1, 1]^M.  The kernel weakly preserves the order iff every minimum
    is >= 0 (up to tolerance).
    """
    m = zm.C.shape[0]
    _check_square(c.P, m)
    if m > size_cap:
        raise UpSetExplosion(
            f"state count {m} exceeds the LP weak-monotonicity cap {size_cap}"
        )
    cf = zm.C.astype(float)
    if direction == "up":
        cone = cf          # (cone @ d)_k = mass of d on {e_k}^up
        images = c.P @ cf.T
    elif direction == "down":
        cone = cf.T
        images = c.P @ cf
    else:
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    a_ub = -cone
    b_ub = np.zeros(m)
    a_eq = np.ones((1, m))
    b_eq = np.zeros(1)
    worst = np.inf
    witness = None
    for k in range(m):
        res = linprog(
            images[:, k],
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(-1.0, 1.0),
            method="highs",
        )
        if res.status != 0:
            raise LPFailure(
                f"weak-{direction} LP failed for generator {k}: {res.message}"
            )
        if res.fun < worst:
            worst = float(res.fun)
            witness = c.poset.elements[k]
    return MonotonicityReport(
        notion=f"weak_{direction}",
        verdict=bool(worst >= -tol),
        worst_value=worst,
        witness=witness,
        tolerance_used=tol,
    )


def exact_fractions(rows):
    """Normalize a nested sequence into a tuple-of-tuples of Fractions."""
    return tuple(tuple(Fraction(v) for v in row) for row in rows)
