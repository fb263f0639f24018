"""Monotonicity notions for kernels and functions on a poset.

Each decision returns a :class:`MonotonicityReport` carrying the verdict, the
most negative value seen, a witness locating it, and the tolerance used.
Verdicts are one-sided sign checks: a report is true iff
``worst_value >= -tolerance_used``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, UpSetExplosion

MONO_TOL = 1e-10
EXACT_RERUN_FACTOR = 100.0
UPSET_CAP = 2**20
# Largest up-set matrix, rows times states in bytes (2^20 rows at 64 states).
UPSET_BYTES = 2**26
MARGIN_BLOCK = 2**17


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


def _report(notion, worst, witness, tol, exact=False, transformed=None):
    """Report on ``worst``: true iff worst >= -tol, where tol is 0 when exact.

    An exact ``worst`` is a Fraction, compared before it is rounded to float.
    """
    tol = 0.0 if exact else tol
    return MonotonicityReport(
        notion=notion,
        verdict=bool(worst >= -tol),
        worst_value=float(worst),
        witness=witness,
        tolerance_used=tol,
        transformed=transformed,
        exact=exact,
    )


def _rerun_exactly(c, worst, tol):
    """Whether a float verdict of chain c is near enough the boundary
    (|worst| < 100 tol) to be re-run on the chain's exact entries."""
    return c.exact is not None and abs(worst) < EXACT_RERUN_FACTOR * tol


def mobius_transform(P, zm, direction, dtype=float):
    """Similarity transform whose entrywise sign decides Mobius monotonicity.

    down: Cinv P C; up: (C^T)^-1 P C^T, applied through the zeta/Mobius
    actions (butterflies on a cube).  With ``dtype=object`` and a kernel of
    Fractions the transform is exact.
    """
    _check_square(P, zm.size)
    return zm.zeta_right(zm.mobius_left(P, direction, dtype), direction, dtype)


def _near_min(values, tol=0.0):
    """Smallest entry of a 1-D array and its index: the first argmin, or,
    when the smallest entry is zero up to ``tol``, the first index within
    ``tol`` of it.

    Entries that are zero up to float noise (the boundary of a true
    verdict) are told apart by the order of the arithmetic alone; naming
    the first of them keeps the witness where that order moves the noise.
    """
    k = int(np.argmin(values))
    worst = values[k]
    if 0 < tol and abs(worst) <= tol:
        k = int(np.argmax(values <= worst + tol))
    return worst, k


def _min_entry(t, tol=0.0):
    """Smallest entry of matrix t and its (row-major) position by
    ``_near_min``."""
    worst, k = _near_min(t.ravel(), tol)
    return worst, divmod(k, t.shape[1])


def _sparse_min_entry(rows, cols, vals, m, tol=0.0):
    """``_min_entry`` of the m x m matrix holding ``vals`` at the distinct
    positions (rows, cols) and 0 at the others, of which there is one at
    least, without forming it.

    The witness is the first row-major position at most the bound that
    ``_near_min`` compares against: among the listed values, and, when 0
    is within the bound, the first position not listed.
    """
    worst = min(float(vals.min()), 0.0)
    bound = worst + tol if 0 < tol and abs(worst) <= tol else worst
    keys = rows * m + cols
    order = np.argsort(keys)
    keys = keys[order]
    hit = np.flatnonzero(vals[order] <= bound)
    first = keys[hit[0]] if hit.size else m * m
    if bound >= 0:
        gap = np.flatnonzero(keys != np.arange(len(keys)))
        first = min(first, gap[0] if gap.size else len(keys))
    return worst, divmod(int(first), m)


def walk_report(c, direction, tol=MONO_TOL):
    """Mobius verdict of a cube walk (``c.flips`` set) from the entries of
    its transform that ``Flips.transform`` gives, with no m x m array.

    The worst value and witness follow the rule of ``transform_report``,
    so a rate at most ``tol`` counts as a zero for the witness.  A walk
    carries no exact entries, so nothing is re-run.
    """
    worst, (i, j) = _sparse_min_entry(*c.flips.transform(direction), c.size, tol)
    witness = (c.poset.elements[i], c.poset.elements[j])
    return _report(f"mobius_{direction}", worst, witness, tol)


def transform_report(c, zm, direction, t, tol=MONO_TOL):
    """Mobius verdict of chain c from its transform t = mobius_transform(c.P, ...).

    Lets a caller that needs the transform anyway compute it once.  The
    transform is not kept on the report.
    """
    worst, (i, j) = _min_entry(t, tol)
    exact = _rerun_exactly(c, worst, tol)
    if exact:
        exact_p = np.array(c.exact, dtype=object)
        worst, (i, j) = _min_entry(mobius_transform(exact_p, zm, direction, object))
    witness = (c.poset.elements[i], c.poset.elements[j])
    return _report(f"mobius_{direction}", worst, witness, tol, exact)


def _mobius_report(c, zm, direction, tol):
    """``walk_report`` on a cube walk, else the report of the transform."""
    if c.flips is not None:
        return walk_report(c, direction, tol)
    return transform_report(c, zm, direction, mobius_transform(c.P, zm, direction), tol)


def mobius_monotone_down(c, zm, tol=MONO_TOL):
    """Entrywise sign check of Cinv P C, read off the flip rates on a walk.

    Near-boundary verdicts (|worst| < 100 tol) are re-run in exact rational
    arithmetic when the chain carries exact entries.
    """
    return _mobius_report(c, zm, "down", tol)


def mobius_monotone_up(c, zm, tol=MONO_TOL):
    """Entrywise sign check of (C^T)^-1 P C^T, read off the flip rates on a
    walk."""
    return _mobius_report(c, zm, "up", tol)


def function_mobius_monotone(f, zm, direction, tol=MONO_TOL):
    """Sign check of f (C^T)^-1 (down) or f Cinv (up); keeps the transform."""
    f = np.asarray(f, dtype=float)
    if f.shape != (zm.size,):
        raise DimensionMismatch(f"vector must have length {zm.size}, got {f.shape}")
    t = zm.mobius_left(f, direction)
    worst, j = _near_min(t, tol)
    return _report(f"function_mobius_{direction}", worst, j, tol, transformed=t)


def enumerate_up_sets(p, cap=UPSET_CAP):
    """All up-closed subsets as the rows of a read-only boolean matrix, one
    column per state, deterministically.

    States are decided in decreasing enumeration order; a state may join a
    row only if every state strictly above it is already in, which generates
    each up-set exactly once.  Each row is followed by its copy with the
    state added, so the rows come in depth-first order: the empty set first,
    the full set last.  Raises UpSetExplosion before a level grows past
    ``cap`` rows or past UPSET_BYTES, one byte per state and row.
    """
    m = p.size
    limit = min(cap, UPSET_BYTES // m)
    rows = np.zeros((1, m), dtype=bool)
    for i in range(m - 1, -1, -1):
        joins = rows[:, p.strictly_above(i)].all(axis=1)
        if len(rows) + np.count_nonzero(joins) > limit:
            raise UpSetExplosion(f"more than {limit} up-sets")
        copies = np.cumsum(1 + joins)[joins] - 1
        rows = np.repeat(rows, 1 + joins, axis=0)
        rows[copies, i] = True
    rows.flags.writeable = False
    return rows


def _worst_margin(P, upsets, pairs, elements, bound=None):
    """Smallest P(e_j, A) - P(e_i, A) over the nonempty proper up-sets A
    (the rows of ``upsets`` but the first and the last) and the pairs
    (i, j), with the first witness reaching it, up-sets before pairs;
    (inf, None) when no such up-set exists.  With ``bound``, the first
    margin at most ``bound`` instead.  P holds floats, or Python ints for an
    exact rerun.  The up-sets are read in blocks of about ``MARGIN_BLOCK``
    margins.
    """
    lo, hi = pairs[:, 0], pairs[:, 1]
    proper = upsets[1:-1]
    step = max(1, MARGIN_BLOCK // len(pairs))
    worst, witness = np.inf, None
    for start in range(0, len(proper), step):
        block = proper[start:start + step]
        mass = block.astype(P.dtype) @ P.T
        margins = (mass[:, hi] - mass[:, lo]).ravel()
        if bound is None:
            k = int(np.argmin(margins))
            found = margins[k] < worst
        else:
            k = int(np.argmax(margins <= bound))
            found = margins[k] <= bound
        if found:
            worst = margins[k]
            u, q = divmod(k, len(pairs))
            i, j = pairs[q]
            witness = (elements[i], elements[j],
                       tuple(elements[x] for x in np.flatnonzero(block[u])))
            if bound is not None:
                break
    return worst, witness


def _exact_margin(exact, upsets, pairs, elements):
    """``_worst_margin`` of exact entries, run over their integer numerators
    on the least common denominator; the worst value is a Fraction."""
    den = math.lcm(*(v.denominator for row in exact for v in row))
    numerators = np.array(
        [[v.numerator * (den // v.denominator) for v in row] for row in exact],
        dtype=object,
    )
    worst, witness = _worst_margin(numerators, upsets, pairs, elements)
    return Fraction(worst, den), witness


def strong_stochastic_monotone(c, tol=MONO_TOL):
    """P(e_i, A) <= P(e_j, A) over all up-sets A and comparable pairs e_i <= e_j.

    When the float worst value is zero up to ``tol``, the witness is the
    first (up-set, pair) within ``tol`` of it, by the ``_near_min`` rule.
    """
    p = c.poset
    upsets = enumerate_up_sets(p, cap=UPSET_CAP)
    pairs = np.argwhere(p.leq & ~np.eye(p.size, dtype=bool))
    if len(pairs) == 0:
        witness = None
    else:
        worst, witness = _worst_margin(c.P, upsets, pairs, p.elements)
    if witness is None:
        # no comparable pairs or only trivial up-sets: the condition is vacuous
        return _report("strong_stochastic", 0.0, None, tol)
    exact = _rerun_exactly(c, worst, tol)
    if exact:
        worst, witness = _exact_margin(c.exact, upsets, pairs, p.elements)
    elif 0 < tol and abs(worst) <= tol:
        _, witness = _worst_margin(c.P, upsets, pairs, p.elements, worst + tol)
    return _report("strong_stochastic", worst, witness, tol, exact)


def _ray_minimum(t, a, tol=0.0):
    """Smallest value of the columns of t on the extreme rays of the cone
    {w >= 0 : a . w = 0}, with its column by ``_near_min``; (0, None) when
    the cone is {0}.

    The rays are e_x for a_x = 0 and e_x/a_x + e_y/|a_y| for a_x > 0 > a_y.
    t holds floats, or Fractions for an exact rerun.
    """
    zero, pos, neg = a == 0, a > 0, a < 0
    values = []
    if zero.any():
        values.append(t[zero].min(axis=0))
    if neg.any():
        values.append(
            (t[pos] / a[pos, None]).min(axis=0) + (t[neg] / -a[neg, None]).min(axis=0)
        )
    if not values:
        return 0.0, None
    return _near_min(np.minimum.reduce(values), tol)


def weak_monotone(c, zm, direction, tol=MONO_TOL):
    """Weak (cumulative-mass) monotonicity in ``direction``, decided on the
    Mobius transform t; on a cube walk (``c.flips`` set), on the entries of
    t that ``Flips.transform`` gives, with no m x m array.

    The weak order compares laws through the point-generated up-sets (up)
    or down-sets (down).  Write w = zeta^T d for the cumulative masses of a
    signed difference d of laws: then d . 1 = a . w with a the row sums of
    the oriented Mobius matrix, and the mass that d P puts on generator k's
    set is w . t[:, k].  The kernel preserves the order iff every generator
    is nonnegative on the cone {w >= 0 : a . w = 0}, that is on its extreme
    rays; the worst value is the smallest ray value and the witness its
    generator.  On a cube a is 1 at the extremal state (the last for down,
    the first for up) and 0 elsewhere, so the rays are the other rows of t.
    Near-boundary verdicts are re-run in exact arithmetic, as the Mobius ones.
    """
    if c.flips is not None:
        rows, cols, t = c.flips.transform(direction)
        kept = rows != (c.size - 1 if direction == "down" else 0)
        # a column listing fewer than m - 1 kept entries holds a 0
        low = np.where(np.bincount(cols[kept], minlength=c.size) < c.size - 1, 0.0, np.inf)
        np.minimum.at(low, cols[kept], t[kept])
        worst, k = _near_min(low, tol)
        return _report(f"weak_{direction}", worst, c.poset.elements[k], tol)
    a = zm.mobius_left(np.ones(zm.size, dtype=np.int64), direction, np.int64)
    worst, k = _ray_minimum(mobius_transform(c.P, zm, direction), a, tol)
    exact = _rerun_exactly(c, worst, tol)
    if exact:
        exact_p = np.array(c.exact, dtype=object)
        worst, k = _ray_minimum(mobius_transform(exact_p, zm, direction, object), a)
    witness = None if k is None else c.poset.elements[k]
    return _report(f"weak_{direction}", worst, witness, tol, exact)
