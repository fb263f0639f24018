"""Availability chain of an unreliable network on the powerset of nodes.

States are the subsets of nodes currently down.  Groups I of up nodes break
down with rate psi(D u I)/psi(D); groups H of down nodes return with rate
phi(D)/phi(D \\ H).  The continuous-time generator is uniformized into a
discrete-time kernel and fed to the monotonicity/duality/convergence
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import convergence, duality, monotonicity
from .chain import ROW_TOL, Chain, StationaryLaw, chain_from_moves, reverse, stationary
from .cube import CubeWalkParams, nearest_neighbor_walk
from .errors import (
    InputError,
    MissingSubsetValue,
    PreconditionFailed,
    ZeroGenerator,
)
from .poset import check_cube_dim, cube_bits, cube_poset

DEFAULT_MULTIPLIER = 1.05


@dataclass(frozen=True)
class RateFunctions:
    """Positive set functions psi (breakdown) and phi (repair) on P(J).

    Values are indexed by node bitmask (bit i = node i down); both tables
    have length 2^d and must be finite (a None reads as NaN) and strictly
    positive so every rate ratio is well defined.  Each table is kept as a
    read-only float copy.
    """

    d: int
    psi: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        m = 2**self.d
        for name in ("psi", "phi"):
            try:
                table = np.array(getattr(self, name), dtype=float)
            except (TypeError, ValueError) as exc:
                raise MissingSubsetValue(f"{name} must be a table of numbers: {exc}") from None
            if table.shape != (m,):
                raise MissingSubsetValue(
                    f"{name} must assign a value to all {m} subsets"
                )
            for bad, what in ((~np.isfinite(table), "finite"),
                              (table <= 0, "strictly positive")):
                if bad.any():
                    raise MissingSubsetValue(
                        f"{name} must be {what}; offending subset mask "
                        f"{int(np.flatnonzero(bad)[0]):#b}"
                    )
            table.flags.writeable = False
            object.__setattr__(self, name, table)


def power_family(d, c):
    """Set function D -> c^|D|."""
    return float(c) ** cube_bits(d).sum(axis=1)


def pernode_family(d, values):
    """Set function D -> product of per-node values over D."""
    values = np.asarray(values, dtype=float)
    if values.shape != (d,):
        raise MissingSubsetValue(f"need {d} per-node values, got {values.shape}")
    return np.prod(np.where(cube_bits(d), values, 1.0), axis=1)


def availability_generator(r, single_moves_only=False):
    """Breakdown/repair generator from the rate functions: the conservative
    rate matrix Q on the subset poset, with state k the node mask k, as the
    read-only row-major triple (rows, cols, vals) of its entries that can
    be nonzero (``_inclusions``).

    Q(D, D u I) = psi(D u I)/psi(D) for nonempty up groups I, Q(D, D \\ H) =
    phi(D)/phi(D \\ H) for nonempty down groups H; each diagonal entry is
    minus the sum of its row's moves.  ``single_moves_only``
    keeps only |I| = |H| = 1 transitions, the regime in which
    uniformization reproduces the nearest-neighbor walk.
    """
    d = r.d
    check_cube_dim(d)
    rows, cols, (up, down, sub, sup), diag = _inclusions(d, single_moves_only)
    vals = np.zeros(rows.size)
    vals[up] = r.psi[sup] / r.psi[sub]
    vals[down] = r.phi[sup] / r.phi[sub]
    vals[diag] = -np.bincount(rows, vals, 2**d)
    vals.flags.writeable = False
    return rows, cols, vals


@lru_cache(maxsize=2)
def _inclusions(d, single_moves_only):
    """(rows, cols, (up, down, sub, sup), diag), read-only and kept
    for the last two layouts asked for: the positions (rows, cols),
    row-major with columns ascending, of the entries of a generator on the
    d-cube that can be nonzero.  Those are, for every pair of masks
    sub < sup related by inclusion (3^d - 2^d of them), or only for those
    one node apart, a breakdown sub -> sup at index ``up`` and a repair
    sup -> sub at index ``down``, and the diagonal at ``diag``.

    The pairs are listed bit by bit, the blocks of a bit outermost in the
    order neither, sup only, both, so that for each mask the supersets it
    breaks down to and the subsets it is repaired to come in ascending
    order; listing the repairs, the diagonal, then the breakdowns, a stable
    sort by row alone lays them out.
    """
    sub = sup = np.zeros(1, dtype=np.intp)
    for k in range(d):
        bit = 1 << k
        gain = sub == sup if single_moves_only else slice(None)
        sub, sup = (np.concatenate((sub, sub[gain], sub | bit)),
                    np.concatenate((sup, sup[gain] | bit, sup | bit)))
    apart = sub != sup
    sub, sup = sub[apart], sup[apart]
    m, n = 1 << d, sub.size
    rows = np.concatenate((sup, np.arange(m), sub))
    order = np.argsort(rows.astype(np.int16), kind="stable")  # a radix sort
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    rows, cols = rows[order], np.concatenate((sub, np.arange(m), sup))[order]
    up, down, diag = at[n + m:], at[:n], at[n:n + m]
    for a in (rows, cols, up, down, sub, sup, diag):
        a.flags.writeable = False
    return rows, cols, (up, down, sub, sup), diag


def _uniformization_rate(exit_max, multiplier):
    """``multiplier`` times the largest total exit rate ``exit_max``."""
    if not 1.0 <= multiplier < np.inf:
        raise InputError(f"multiplier must be finite and >= 1, got {multiplier!r}")
    if exit_max == 0.0:
        raise ZeroGenerator("all transition rates are zero")
    return multiplier * exit_max


def uniformize(q, multiplier=DEFAULT_MULTIPLIER):
    """(chain, rate): the generator ``q`` on the 2^d subsets, a row-major
    triple (rows, cols, vals) as ``availability_generator`` gives it,
    uniformized into the kernel P = I + q/rate.

    The rate is ``multiplier`` times the largest total exit rate; multipliers
    above 1 keep every holding probability strictly positive.  Only the
    listed entries are divided, and a holding probability within ROW_TOL
    of 0 is exactly 0, as on the walk path.  The chain is built and checked
    from those moves (``chain.chain_from_moves``).  The stationary law is
    preserved: pi Q = 0 iff pi P = pi.
    """
    rows, cols, vals = q
    diag = np.flatnonzero(rows == cols)
    rate = _uniformization_rate(float(np.abs(vals[diag]).max()), multiplier)
    p = vals / rate
    stay = 1.0 + p[diag]
    stay[np.abs(stay) <= ROW_TOL] = 0.0
    p[diag] = stay
    return chain_from_moves((rows, cols, p), cube_poset(diag.size.bit_length() - 1)), rate


def node_rates(r):
    """Per-node breakdown and repair rates (psi_k, phi_k) of a product-form
    network, or None.

    The network is product form when, for every node k, the ratios
    psi(D u k)/psi(D) and phi(D u k)/phi(D) over all D without k agree with
    their value at D = {} to a relative ROW_TOL; the rates are those values
    (the per-node values of ``pernode_family``).  Read from the tables in
    O(d 2^d).
    """
    rates = []
    for table in (r.psi, r.phi):
        cube = table.reshape((2,) * r.d)       # node k is axis d - 1 - k
        per_node = np.empty(r.d)
        for k in range(r.d):
            axis = r.d - 1 - k
            ratio = np.take(cube, 1, axis) / np.take(cube, 0, axis)
            per_node[k] = first = ratio.flat[0]
            if not (np.abs(ratio - first) <= ROW_TOL * first).all():
                return None
        rates.append(per_node)
    return tuple(rates)


def uniformize_walk(d, psi, phi, multiplier=DEFAULT_MULTIPLIER):
    """(chain, rate): the uniformized chain of single moves at per-node rates
    (psi, phi), built as the nearest-neighbor walk with alpha = psi/rate and
    beta = phi/rate, which carries them as its operator, ``flips``.

    The largest total exit rate, sum_k max(psi_k, phi_k), is that of the
    state whose down nodes are those that repair faster than they break
    down, so the rate is the one ``uniformize`` reads off the generator.
    """
    rate = _uniformization_rate(float(np.maximum(psi, phi).sum()), multiplier)
    walk = CubeWalkParams(d, tuple((psi / rate).tolist()), tuple((phi / rate).tolist()))
    return nearest_neighbor_walk(walk), rate


@dataclass(frozen=True)
class AvailabilityReport:
    """Composite pipeline output; ``stopped_at`` is None on a full run."""

    rate: float
    chain: Chain
    law: StationaryLaw
    reports: tuple
    dual: object | None
    curve: object | None
    tail: object | None
    bound: object | None
    stopped_at: str | None


class _Stage:
    """Labels errors with the pipeline stage they escaped from."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, Exception):
            exc.stage = self.name
        return False


def availability_pipeline(
    r,
    multiplier=DEFAULT_MULTIPLIER,
    direction="down",
    horizon=200,
    stop_below=convergence.STOP_BELOW_DEFAULT,
    single_moves_only=False,
    mono_tol=monotonicity.MONO_TOL,
):
    """generator -> uniformize -> stationary -> monotonicity -> dual -> curves.

    The initial law is the point mass at the empty down-set (all servers up),
    which always satisfies the start condition of the down-direction dual;
    with ``direction="up"`` it is the point mass at the full set (all
    servers down).
    The requested direction's reversed-kernel verdict comes from
    ``build_ssd``; when it fails, the pipeline stops after the monotonicity
    stage and returns the verdicts.  When the law certifies detailed balance
    (every availability chain is reversible, with pi proportional to
    psi/phi), the reversal is the chain: its reports are the kernel's, and
    each direction's Mobius transform is computed once.  Every Mobius
    verdict, the dual's preconditions included, is decided at tolerance
    ``mono_tol``.
    A single-move network of product form (``node_rates``) is uniformized
    as a nearest-neighbor walk (``uniformize_walk``), with no dense
    generator: its Mobius reports and dual are read off the flip rates, and
    certified by the same stationary, balance and duality residuals.
    Errors escaping a stage carry the stage name on their ``stage``
    attribute.
    """
    with _Stage("generator"):
        check_cube_dim(r.d)
        nodes = node_rates(r) if single_moves_only else None
        if nodes is None:
            q = availability_generator(r, single_moves_only=single_moves_only)
    with _Stage("uniformize"):
        if nodes is None:
            chain, rate = uniformize(q, multiplier=multiplier)
            del q  # not read again: keep it out of every later peak
        else:
            chain, rate = uniformize_walk(r.d, *nodes, multiplier=multiplier)
    nu = np.zeros(chain.size)
    nu[0 if direction == "down" else chain.size - 1] = 1.0
    c = chain.with_nu(nu)
    with _Stage("stationary"):
        law = stationary(c)
    mobius = {
        "down": monotonicity.mobius_monotone_down,
        "up": monotonicity.mobius_monotone_up,
    }
    other = "up" if direction == "down" else "down"
    with _Stage("monotonicity"):
        rev = reverse(c, law)
        kernel = {other: mobius[other](c, c.poset, mono_tol)}
        if rev is c:
            # build_ssd's reversed report is the kernel's in ``direction``
            reversed_ = {other: kernel[other]}
        else:
            kernel[direction] = mobius[direction](c, c.poset, mono_tol)
            reversed_ = {other: mobius[other](rev, c.poset, mono_tol)}
    dual = curve = tail = bound = stopped_at = None
    with _Stage("dual"):
        try:
            dual = duality.build_ssd(
                c, law, c.poset, direction=direction, mono_tol=mono_tol
            )
            reversed_[direction] = dual.reversed_report
        except PreconditionFailed as exc:
            if exc.report.notion != f"mobius_{direction}":
                raise
            reversed_[direction] = exc.report
            stopped_at = "monotonicity"
    kernel.setdefault(direction, reversed_[direction])
    reports = (kernel["down"], kernel["up"], reversed_["down"], reversed_["up"])
    if dual is not None:
        with _Stage("convergence"):
            curve = convergence.separation_curve(
                c, law, horizon, stop_below=stop_below
            )
            tail = convergence.absorption_tail(dual, curve.horizon)
            bound = convergence.sst_bound_check(curve, tail)
    return AvailabilityReport(
        rate=rate,
        chain=c,
        law=law,
        reports=reports,
        dual=dual,
        curve=curve,
        tail=tail,
        bound=bound,
        stopped_at=stopped_at,
    )
