"""Finite partially ordered state spaces.

A :class:`Poset` stores its elements in a fixed order-consistent enumeration
(a linear extension), so the zeta matrix is upper unitriangular and its
inverse, the Mobius matrix, is integer valued.  Both are exact and built on
first read, as is a cube's relation; a cube's actions read none of them.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import cached_property, reduce

import numpy as np

from .errors import (
    CycleError,
    DimensionMismatch,
    DimensionTooLarge,
    DuplicateLabel,
    UnknownState,
)

DENSE_CUBE_LIMIT = 13   # dense cube kernels only up to 2^13 states
SUBSET_ENUM_LIMIT = 20  # subset enumerations of the cube walk's rates up to d=20
PANEL = 2**16           # float64 entries per cache block of the cube butterflies


class Poset:
    """Finite poset with an order-consistent enumeration and its zeta/Mobius
    pair.

    ``elements[i]`` is the i-th state e_{i+1}; ``leq[i, j]`` is True iff
    ``elements[i]`` precedes ``elements[j]``.  The enumeration is a linear
    extension: ``leq[i, j]`` implies ``i <= j``.  A cube (``cube_dim`` set)
    is given without ``leq``: its mask order is a linear extension by
    construction, and ``leq`` is built on first read.

    The zeta matrix ``C`` (C[i, j] = 1 iff e_i <= e_j) and its exact inverse
    ``Cinv`` are built on first read, and read through ``zeta``/``mobius``
    oriented by a direction: "down" is (C, Cinv) and "up" the transposed
    pair, the down pair of the reversed order, so every construction is
    written once as its down formula.  The actions ``zeta_left``/
    ``zeta_right``/``mobius_left``/``mobius_right`` apply the oriented matrix
    on either side of a vector or a matrix: a dense product in general, and
    on a cube in-place Yates butterflies, O(d 2^d) per vector, that read no
    dense matrix.  Instances are immutable.
    """

    def __init__(self, elements, leq=None, cube_dim=None):
        self.elements = tuple(elements)
        self.cube_dim = cube_dim
        self._index = {e: i for i, e in enumerate(self.elements)}
        m = len(self.elements)
        if len(self._index) != m:
            raise DuplicateLabel("duplicate state labels")
        if cube_dim is not None:
            return
        leq = np.array(leq, dtype=bool)
        if leq.shape != (m, m):
            raise DimensionMismatch(f"relation must be {m}x{m}, got {leq.shape}")
        leq.flags.writeable = False
        self.leq = leq
        lower = np.tril(leq, -1)
        if lower.any():
            i, j = np.argwhere(lower)[0]
            raise CycleError(
                f"enumeration is not a linear extension at {elements[int(i)]!r}, "
                f"{elements[int(j)]!r}"
            )

    @cached_property
    def leq(self):
        """A cube's relation, the Kronecker power of [[1,1],[0,1]]."""
        leq = reduce(np.kron, [np.array([[True, True], [False, True]])] * self.cube_dim)
        leq.flags.writeable = False
        return leq

    @cached_property
    def C(self):
        c = self.leq.astype(np.int64)
        c.flags.writeable = False
        return c

    @cached_property
    def Cinv(self):
        if self.cube_dim is None:
            inv = _mobius_matrix(self.C)
        else:
            # the Kronecker power of [[1,-1],[0,1]], as (A x B)(C x D) = AC x BD
            inv = reduce(np.kron, [np.array([[1, -1], [0, 1]], dtype=np.int64)] * self.cube_dim)
        inv.flags.writeable = False
        return inv

    @property
    def size(self):
        return len(self.elements)

    def index(self, e):
        try:
            return self._index[e]
        except KeyError:
            raise UnknownState(f"unknown state {e!r}") from None

    def __repr__(self):
        return f"Poset({self.size} states)"

    def strictly_above(self, i):
        """Boolean mask of the states strictly above state i; on a cube the
        proper supermasks of mask i, read from the masks, not from ``leq``."""
        if self.cube_dim is None:
            above = self.leq[i].copy()
        else:
            above = (np.arange(self.size) & i) == i
        above[i] = False
        return above

    def zeta(self, direction, dtype=float):
        """C ("down") or C^T ("up"), cast to ``dtype`` on each call."""
        return _oriented(self.C, direction).astype(dtype)

    def mobius(self, direction, dtype=float):
        """Cinv ("down") or Cinv^T ("up"), cast to ``dtype`` on each call."""
        return _oriented(self.Cinv, direction).astype(dtype)

    def zeta_left(self, x, direction, dtype=float):
        """zeta(direction) @ x."""
        return self._act(x, direction, dtype, left=True, sign=1)

    def zeta_right(self, x, direction, dtype=float):
        """x @ zeta(direction)."""
        return self._act(x, direction, dtype, left=False, sign=1)

    def mobius_left(self, x, direction, dtype=float):
        """mobius(direction) @ x."""
        return self._act(x, direction, dtype, left=True, sign=-1)

    def mobius_right(self, x, direction, dtype=float):
        """x @ mobius(direction)."""
        return self._act(x, direction, dtype, left=False, sign=-1)

    def _act(self, x, direction, dtype, left, sign):
        """The oriented zeta (sign 1) or Mobius (sign -1) matrix times x, on
        the left or the right, as a new array of ``dtype``.

        On a cube C[i, j] = 1 iff mask i is a submask of j, so C on the left
        gathers each mask's supersets and on the right its subsets, and the
        transpose swaps the two.  Per bit, with lo/hi the masks without/with
        it, a superset pass is x[lo] += x[hi] and a subset pass
        x[hi] += x[lo] (-= for Mobius), over the axis the matrix acts on.
        The passes run in bit order on blocks of at most ``PANEL`` entries,
        so every entry takes the same additions in the same order as one
        pass per bit over the whole array.  The result is C-ordered whatever
        the layout of x: a left action or a vector runs on row blocks
        (``_row_blocks``), a right action on transposed column panels
        (``_column_panels``).
        """
        if self.cube_dim is None:
            mat = self.zeta(direction, dtype) if sign > 0 else self.mobius(direction, dtype)
            return mat @ x if left else x @ mat
        return self._passes(np.array(x, dtype=dtype, order="C"), direction, left, sign)

    def _passes(self, out, direction, left, sign):
        """The butterflies of ``_act`` on a cube, in place on the C-ordered
        array ``out``, which is returned."""
        supersets = left == _is_down(direction)
        m = self.size
        if left or out.ndim == 1:
            _row_blocks(out.reshape(m, -1), self.cube_dim, supersets, sign)
        else:
            _column_panels(out.reshape(-1, m), self.cube_dim, supersets, sign)
        return out


def _butterflies(v, bits, supersets, sign):
    """The Yates passes of ``bits``, in order, along axis 0 of the
    C-ordered 2-D array ``v``, in place."""
    n, k = v.shape
    # numpy's ufuncs copy a strided operand through their buffer (8192
    # entries by default) when its contiguous runs, here multiples of k, are
    # shorter than the buffer; with a buffer no longer than a run they read
    # v in place
    short_runs = 16 <= k < 8192 < v.size
    with np.errstate() if short_runs else nullcontext():
        if short_runs:
            np.setbufsize(k - k % 16)
        for i in bits:
            w = v.reshape(n >> (i + 1), 2, k << i)
            lo, hi = w[:, 0], w[:, 1]
            dst, src = (lo, hi) if supersets else (hi, lo)
            if sign > 0:
                dst += src
            else:
                dst -= src


def _row_blocks(a, d, supersets, sign):
    """Passes along axis 0 of a C-ordered (2^d, k) array: the low bits on
    blocks of 2^b rows, at most ``PANEL`` entries each, then the bits from
    b on over the whole array."""
    b = min(d, max(0, (PANEL // max(a.shape[1], 1)).bit_length() - 1))
    if b == d:
        return _butterflies(a, range(d), supersets, sign)
    for r in range(0, a.shape[0], 1 << b):
        _butterflies(a[r:r + (1 << b)], range(b), supersets, sign)
    _butterflies(a, range(b, d), supersets, sign)


def _column_panels(a, d, supersets, sign):
    """Passes along axis 1 of a C-ordered (n, 2^d) array: ``PANEL // 2^d``
    rows at a time are copied, transposed, into one contiguous scratch
    panel, where all d passes run along axis 0 with inner loops over whole
    panel rows, and are written back."""
    n, m = a.shape
    w = max(1, PANEL // m)
    scratch = np.empty(m * min(w, n), dtype=a.dtype)
    for r in range(0, n, w):
        rows = a[r:r + w]
        panel = scratch[:m * rows.shape[0]].reshape(m, rows.shape[0])
        panel[...] = rows.T
        _butterflies(panel, range(d), supersets, sign)
        rows[...] = panel.T


def _is_down(direction):
    """True for direction "down", False for "up"; ValueError otherwise."""
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    return direction == "down"


def _oriented(a, direction):
    """``a`` for direction "down", its transpose for "up"."""
    return a if _is_down(direction) else a.T


def _transitive_closure(rel):
    """Reflexive-transitive closure of a boolean relation matrix."""
    m = rel.shape[0]
    closure = rel | np.eye(m, dtype=bool)
    while True:
        nxt = closure | (closure @ closure)
        if (nxt == closure).all():
            return closure
        closure = nxt


def _topological_order(rel, m):
    """Deterministic topological sort, ties broken by input position."""
    placed = np.zeros(m, dtype=bool)
    order = []
    strict = rel & ~np.eye(m, dtype=bool)
    for _ in range(m):
        for i in range(m):
            if not placed[i] and not (strict[:, i] & ~placed).any():
                order.append(i)
                placed[i] = True
                break
    return order


def build_poset(labels, relations):
    """Build a poset from labels and ordered pairs (x, y) meaning x < y.

    The stored relation is the reflexive-transitive closure of ``relations``;
    the enumeration is a deterministic topological sort with ties broken by
    input order.  Raises CycleError (with a two-cycle witness) when the
    closure violates antisymmetry, DuplicateLabel on repeated labels.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        seen = set()
        for lab in labels:
            if lab in seen:
                raise DuplicateLabel(f"duplicate label {lab!r}")
            seen.add(lab)
    m = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    rel = np.eye(m, dtype=bool)
    for x, y in relations:
        if x not in pos:
            raise UnknownState(f"relation endpoint {x!r} is not a declared label")
        if y not in pos:
            raise UnknownState(f"relation endpoint {y!r} is not a declared label")
        rel[pos[x], pos[y]] = True
    closure = _transitive_closure(rel)
    sym = closure & closure.T & ~np.eye(m, dtype=bool)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        raise CycleError(
            f"antisymmetry violated: {labels[int(i)]!r} and {labels[int(j)]!r} "
            "are mutually related",
            witness=(labels[int(i)], labels[int(j)]),
        )
    order = _topological_order(closure, m)
    elements = [labels[i] for i in order]
    leq = closure[np.ix_(order, order)]
    return Poset(elements, leq)


def _invert_unitriangular(c, dtype):
    """Row-by-row back-substitution for an upper unitriangular matrix, in
    ``dtype``: bottom-up, row i of the inverse is e_i minus c's strict row i
    times the rows of the inverse below it."""
    m = c.shape[0]
    c = c.astype(dtype)
    x = np.eye(m, dtype=dtype)
    for i in range(m - 2, -1, -1):
        row = c[i, i + 1:]
        if row.any():
            x[i, i + 1:] -= row @ x[i + 1:, i + 1:]
    return x


def zeta_mobius(p):
    """The poset itself, which carries its zeta/Mobius pair; kept as the
    traced name of that layer."""
    return p


def _mobius_matrix(c):
    """The exact int64 inverse of the zeta matrix c of a general poset:
    float64 back-substitution, certified exact by a magnitude bound below
    2**53 plus the exact product C Cinv = I, with the same back-substitution
    over arbitrary-precision integers when that fails."""
    m = c.shape[0]
    cf = c.astype(np.float64)
    x = _invert_unitriangular(c, np.float64)
    if np.abs(x).max() < 2.0**53:
        # float products are exact while every partial sum stays below 2**53;
        # bound them by max row sum of C times max column sum of |x|.  Under
        # that certificate a single exact product C x = I settles exactness
        # (a right inverse of a square matrix is the inverse).
        magnitude = float(cf.sum(axis=1).max()) * float(np.abs(x).sum(axis=0).max())
        if magnitude < 2.0**53 and not (cf @ x - np.eye(m)).any():
            return np.rint(x).astype(np.int64)
    return _invert_unitriangular(c, object).astype(np.int64)


def check_cube_dim(d, limit=DENSE_CUBE_LIMIT):
    """Raise DimensionTooLarge unless 1 <= d <= ``limit``."""
    if not 1 <= d <= limit:
        raise DimensionTooLarge(f"cube dimension must be in [1, {limit}]")


def cube_bits(d):
    """(2^d, d) 0/1 matrix: row k holds the coordinates of mask k (bit i is
    coordinate i+1)."""
    return (np.arange(2**d)[:, None] >> np.arange(d)) & 1


def cube_poset(d):
    """The cube {0,1}^d with coordinatewise order.

    State k is the d-bit tuple of mask k (bit i is coordinate i+1); this
    bitmask order is a linear extension, since A <= B implies
    mask(A) <= mask(B), and makes the relation matrix the Kronecker power of
    [[1,1],[0,1]], built only when read.  The walk and generator kernels on
    a cube are dense, so d above DENSE_CUBE_LIMIT raises DimensionTooLarge
    before anything is allocated.
    """
    check_cube_dim(d)
    return Poset([tuple(row) for row in cube_bits(d).tolist()], cube_dim=d)


def _greatest(p, mask):
    """Index of the greatest element of the masked subset, or None."""
    members = np.flatnonzero(mask)
    for k in members:
        if p.leq[mask, k].all():
            return int(k)
    return None


def _least(p, mask):
    members = np.flatnonzero(mask)
    for k in members:
        if p.leq[k, mask].all():
            return int(k)
    return None


def meet_join(p, x, y):
    """(meet, join) of x and y; each side is None when it does not exist."""
    i, j = p.index(x), p.index(y)
    if p.cube_dim is not None:
        return p.elements[i & j], p.elements[i | j]
    lower = p.leq[:, i] & p.leq[:, j]
    upper = p.leq[i, :] & p.leq[j, :]
    mi = _greatest(p, lower)
    ji = _least(p, upper)
    meet = p.elements[mi] if mi is not None else None
    join = p.elements[ji] if ji is not None else None
    return meet, join

