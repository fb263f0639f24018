"""Reference computations made apart from mobiusdual, and the checks built on them.

Nothing here imports the package under test: kernels, stationary laws, order
relations, Mobius transforms, links and closed forms are rebuilt from the
model parameters with numpy alone.  Every check returns a list of problem
strings; an empty list means the result passed.

Cube helpers work in *mask order* (state index = bitmask, bit i = coordinate
i+1); results from the program arrive in its own enumeration and are permuted
into mask order first.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TOL_ROW = 1e-12        # kernel entries, uniformization rate, dual row sums
TOL_PI_REL = 1e-9      # stationary law, componentwise relative
TOL_IDENTITY = 1e-10   # duality residuals and curve identities
TOL_MONO = 1e-10       # sign tolerance of a monotonicity verdict
TOL_VALUE = 1e-9       # worst values, relative to max(1, |value|)
TOL_PATTERN = 1e-12    # dual mass off the upward-neighbour pattern
TOL_CLI = 1e-12        # CLI tables against the library result
DKW_DELTA = 1e-9       # failure probability of the Monte Carlo band


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- cube structure (mask order) ---------------------------------------------


def popcounts(d):
    m = np.arange(2**d)
    return np.array([int(v).bit_count() for v in m])


def elements_to_masks(elements):
    """Program enumeration (bit tuples) -> bitmask of each position."""
    return np.array([sum(int(b) << i for i, b in enumerate(e)) for e in elements])


def to_mask_order(masks, vec=None, mat=None):
    """Permute a vector or matrix from program order into mask order."""
    inv = np.empty(len(masks), dtype=np.int64)
    inv[masks] = np.arange(len(masks))
    if vec is not None:
        return np.asarray(vec)[inv]
    return np.asarray(mat)[np.ix_(inv, inv)]


def _transform(a, d, axis, op):
    """Apply a subset/superset sum or difference along one axis, bit by bit.

    op: 'sub_sum' (sum over l subset of j), 'sup_sum', 'sub_diff' (Mobius
    inversion of sub_sum), 'sup_diff'.
    """
    a = np.moveaxis(np.array(a, dtype=float), axis, -1)
    lead = a.shape[:-1]
    a = a.reshape(lead + (2,) * d)
    for k in range(d):
        ax = a.ndim - 1 - k          # C order: the last axis is bit 0
        lo = [slice(None)] * a.ndim
        hi = [slice(None)] * a.ndim
        lo[ax], hi[ax] = 0, 1
        lo, hi = tuple(lo), tuple(hi)
        if op == "sub_sum":
            a[hi] += a[lo]
        elif op == "sup_sum":
            a[lo] += a[hi]
        elif op == "sub_diff":
            a[hi] -= a[lo]
        else:
            a[lo] -= a[hi]
    return np.moveaxis(a.reshape(lead + (2**d,)), -1, axis)


def cube_mobius_transform(P, d, direction):
    """Cinv P C (down) or Cinv^T P C^T (up) of a mask-order kernel."""
    if direction == "down":
        return _transform(_transform(P, d, 1, "sub_sum"), d, 0, "sup_diff")
    return _transform(_transform(P, d, 1, "sup_sum"), d, 0, "sub_diff")


def mu_entry(P, d, i, j, direction):
    """One transform entry from the Boolean lattice's mu(x,y) = (-1)^|y\\x|."""
    masks = np.arange(2**d)
    pc = popcounts(d)
    if direction == "down":
        ks = masks[(masks & i) == i]            # k >= i
        ls = masks[(masks & j) == masks]        # l <= j
        signs = (-1.0) ** pc[ks ^ i]
    else:
        ks = masks[(masks & i) == masks]        # k <= i
        ls = masks[(masks & j) == j]            # l >= j
        signs = (-1.0) ** pc[ks ^ i]
    return float(signs @ P[np.ix_(ks, ls)].sum(axis=1))


def cube_walk_kernel(alpha, beta):
    """Nearest-neighbour walk in mask order: flip i up at alpha_i, down at beta_i."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d = len(alpha)
    m = 2**d
    P = np.zeros((m, m))
    x = np.arange(m)
    for i in range(d):
        up = (x >> i) & 1 == 0
        P[x[up], x[up] | (1 << i)] = alpha[i]
        P[x[~up], x[~up] & ~(1 << i)] = beta[i]
    P[x, x] = 1.0 - P.sum(axis=1)
    return P


def cube_product_law(alpha, beta):
    """pi(x) = prod of alpha/(alpha+beta) over set bits, beta/(alpha+beta) else."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d = len(alpha)
    x = np.arange(2**d)
    pi = np.ones(2**d)
    for i in range(d):
        bit = (x >> i) & 1 == 1
        pi *= np.where(bit, alpha[i], beta[i]) / (alpha[i] + beta[i])
    return pi


def subset_rates(rates):
    """s_gamma = sum of rates over gamma, for every mask gamma."""
    rates = np.asarray(rates, dtype=float)
    d = len(rates)
    x = np.arange(2**d)
    bits = ((x[:, None] >> np.arange(d)[None, :]) & 1).astype(float)
    return bits @ rates


def cube_eigenvalues(rates):
    return np.sort(1.0 - subset_rates(rates))[::-1]


def inclusion_exclusion(rates, horizon):
    """sum over nonempty gamma of (-1)^(|gamma|-1) (1 - s_gamma)^n, n = 0..horizon."""
    d = len(rates)
    s = subset_rates(rates)[1:]
    sign = np.where(popcounts(d)[1:] % 2 == 1, 1.0, -1.0)
    n = np.arange(horizon + 1)
    return sign @ ((1.0 - s)[:, None] ** n[None, :])


def down_link(pi, d):
    """Lambda(e_j, e_i) = 1{e_i <= e_j} pi(e_i) / H(e_j), in mask order."""
    x = np.arange(2**d)
    below = (x[:, None] & x[None, :]) == x[None, :]      # below[j, i]: i <= j
    h = below.astype(float) @ pi
    return below * pi[None, :] / h[:, None]


def availability_kernel(psi, phi, single, multiplier):
    """Uniformized availability kernel for per-node rates, in mask order.

    With psi(D) = prod_{i in D} psi_i, a group I breaks down at
    psi(D u I)/psi(D) = prod_{i in I} psi_i; a group H returns at
    phi(D)/phi(D \\ H) = prod_{i in H} phi_i.  Returns (P, rate).
    """
    psi = np.asarray(psi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    d = len(psi)
    x = np.arange(2**d)
    bits = ((x[:, None] >> np.arange(d)[None, :]) & 1) == 1
    psi_prod = np.where(bits, psi[None, :], 1.0).prod(axis=1)
    phi_prod = np.where(bits, phi[None, :], 1.0).prod(axis=1)
    diff = x[:, None] ^ x[None, :]
    up = ((x[:, None] & x[None, :]) == x[:, None]) & (diff != 0)     # y > x
    down = ((x[:, None] & x[None, :]) == x[None, :]) & (diff != 0)   # y < x
    if single:
        one = popcounts(d)[diff] == 1
        up &= one
        down &= one
    Q = np.where(up, psi_prod[diff], 0.0) + np.where(down, phi_prod[diff], 0.0)
    exits = Q.sum(axis=1)
    rate = multiplier * exits.max()
    P = Q / rate
    P[x, x] = 1.0 - exits / rate
    return P, rate


def availability_law(psi, phi):
    """pi(D) proportional to psi(D)/phi(D), in mask order."""
    ratio = np.asarray(psi, dtype=float) / np.asarray(phi, dtype=float)
    d = len(ratio)
    x = np.arange(2**d)
    bits = ((x[:, None] >> np.arange(d)[None, :]) & 1) == 1
    w = np.where(bits, ratio[None, :], 1.0).prod(axis=1)
    return w / w.sum()


def reversal(P, pi):
    return (P.T * pi[None, :]) / pi[:, None]


class CubeReference:
    """Everything the checks need about one nearest-neighbour cube chain."""

    def __init__(self, P, pi, rates, horizon, rate=None):
        self.d = int(round(math.log2(len(pi))))
        self.rate = rate          # uniformization rate of an availability kernel
        self.P = P
        self.pi = pi
        self.rates = np.asarray(rates, dtype=float)
        self.admissible = float(self.rates.sum()) <= 1.0
        self.eigenvalues = cube_eigenvalues(self.rates)
        self.curve = inclusion_exclusion(self.rates, horizon)
        rev = reversal(P, pi)
        self.transform_min = {}
        for name, kernel in (("", P), ("reversed_", rev)):
            for direction in ("down", "up"):
                t = cube_mobius_transform(kernel, self.d, direction)
                self.transform_min[f"{name}mobius_{direction}"] = float(t.min())
        self.rev = rev
        self._link = None

    @property
    def link(self):
        if self._link is None:
            self._link = down_link(self.pi, self.d)
        return self._link


# --- checks on cube-shaped results -------------------------------------------


def check_kernel_and_law(ref, masks, P, pi):
    out = []
    Pm = to_mask_order(masks, mat=P)
    dev = float(np.abs(Pm - ref.P).max())
    if dev > TOL_ROW:
        out.append(f"kernel deviates from the rate construction by {dev:.3e}")
    pim = to_mask_order(masks, vec=pi)
    rel = float((np.abs(pim - ref.pi) / ref.pi).max())
    if rel > TOL_PI_REL:
        out.append(f"stationary law deviates from the product form by {rel:.3e} (relative)")
    return out


def check_mobius_report(ref, report, key):
    """Verdict and worst value against the reference transform, witness via mu."""
    notion, verdict, worst, witness = report
    direction = key.rsplit("_", 1)[1]
    own_min = ref.transform_min[key]
    out = []
    if verdict != (own_min >= -TOL_MONO):
        out.append(f"{key}: verdict {verdict} but the reference minimum is {own_min!r}")
    if abs(worst - own_min) > TOL_VALUE * max(1.0, abs(own_min)):
        out.append(f"{key}: worst value {worst!r} but the reference minimum is {own_min!r}")
    if witness is not None:
        i, j = (sum(int(b) << k for k, b in enumerate(e)) for e in witness)
        kernel = ref.rev if key.startswith("reversed_") else ref.P
        entry = mu_entry(kernel, ref.d, i, j, direction)
        if abs(entry - worst) > TOL_VALUE * max(1.0, abs(entry)):
            out.append(f"{key}: witness entry is {entry!r} from mu, reported {worst!r}")
    return out


def check_cube_dual(ref, masks, dual, curve, tail):
    """Residuals from a rebuilt link, and the shape of an admissible cube dual."""
    out = []
    nu_star = to_mask_order(masks, vec=dual["nu_star"])
    P_star = to_mask_order(masks, mat=dual["P_star"])
    lam = ref.link
    nu = np.zeros(len(ref.pi))
    nu[0] = 1.0                                      # every dual here starts at delta_min
    nu_res = float(np.abs(nu - nu_star @ lam).max())
    tw_res = float(np.abs(lam @ ref.P - P_star @ lam).max())
    if nu_res > TOL_IDENTITY or tw_res > TOL_IDENTITY:
        out.append(f"duality residuals from the rebuilt link: nu {nu_res:.3e}, intertwining {tw_res:.3e}")
    if P_star.min() < -TOL_PATTERN or abs(P_star.sum(axis=1) - 1.0).max() > TOL_ROW:
        out.append("dual kernel is not stochastic")
    x = np.arange(len(ref.pi))
    diff = x[:, None] ^ x[None, :]
    upward = (diff == 0) | (((x[:, None] & x[None, :]) == x[:, None])
                            & (popcounts(ref.d)[diff] == 1))
    off = float(np.abs(P_star[~upward]).max(initial=0.0))
    if off > TOL_PATTERN:
        out.append(f"dual moves off the upward-neighbour pattern (mass {off:.3e})")
    diag = np.sort(np.diag(P_star))[::-1]
    dev = float(np.abs(diag - ref.eigenvalues).max())
    if dev > TOL_IDENTITY:
        out.append(f"dual diagonal differs from {{1 - s_gamma}} by {dev:.3e}")
    curve = np.asarray(curve)
    n = len(curve)
    dev = float(np.abs(curve - ref.curve[:n]).max())
    if dev > TOL_IDENTITY:
        out.append(f"separation curve differs from inclusion-exclusion by {dev:.3e}")
    if tail is None or len(tail) != n or float(np.abs(np.asarray(tail) - curve).max()) > TOL_IDENTITY:
        out.append("separation curve differs from the dual absorption tail")
    return out


def check_cube_walk(ref, res):
    """One library pass of the cube_walk workload."""
    masks = elements_to_masks(res["elements"])
    out = check_kernel_and_law(ref, masks, res["P"], res["pi"])
    for report in res["reports"]:
        out += check_mobius_report(ref, report, report[0])
        if report[1] != ref.admissible:
            out.append(f"{report[0]}: verdict {report[1]} but sum(alpha+beta) <= 1 is {ref.admissible}")
    out += check_cube_dual(ref, masks, res["dual"], res["curve"], res["tail"])
    horizon = len(res["formula"])
    dev = float(np.abs(np.asarray(res["formula"]) - ref.curve[:horizon]).max())
    if dev > TOL_IDENTITY:
        out.append(f"closed-form separation differs from inclusion-exclusion by {dev:.3e}")
    dev = float(np.abs(np.asarray(res["eigenvalues"]) - ref.eigenvalues).max())
    if dev > TOL_IDENTITY:
        out.append(f"closed-form eigenvalues differ by {dev:.3e}")
    return out


def check_availability(ref, res):
    """One availability_pipeline result; ref is a CubeReference of the own kernel."""
    masks = elements_to_masks(res["elements"])
    out = check_kernel_and_law(ref, masks, res["P"], res["pi"])
    if not _close(res["rate"], ref.rate, TOL_ROW):
        out.append(f"uniformization rate {res['rate']!r}, expected {ref.rate!r}")
    keys = ("mobius_down", "mobius_up", "reversed_mobius_down", "reversed_mobius_up")
    for key, report in zip(keys, res["reports"]):
        out += check_mobius_report(ref, report, key)
    rev_ok = ref.transform_min["reversed_mobius_down"] >= -TOL_MONO
    if rev_ok:
        if res["stopped_at"] is not None:
            out.append(f"pipeline stopped at {res['stopped_at']} on a monotone reversal")
        else:
            out += check_cube_dual(ref, masks, res["dual"], res["curve"], res["tail"])
    elif res["stopped_at"] != "monotonicity" or res["dual"] is not None:
        out.append("pipeline went past a failed reversed-monotonicity stage")
    return out


# --- general finite posets ---------------------------------------------------


def parse_spec_text(text):
    """Minimal reader for [poset]+[chain] and [cube] specs (exact numbers)."""
    section = None
    out = {"covers": [], "rows": []}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
            out["kind"] = "cube" if section == "cube" else out.get("kind", "chain")
            continue
        key, rest = (s.strip() for s in line.split(":", 1))
        tokens = rest.split()
        if key == "states":
            out["states"] = tokens
        elif key == "cover":
            out["covers"].append(tuple(tokens))
        elif key == "row":
            out["rows"].append([float(Fraction(t)) for t in tokens])
        elif key == "d":
            out["d"] = int(tokens[0])
        elif key in ("alpha", "beta"):
            out[key] = [float(Fraction(t)) for t in tokens]
    return out


class PosetReference:
    """Order, transforms and up-sets of a model rebuilt from its spec."""

    def __init__(self, labels, leq, P):
        self.labels = list(labels)
        self.leq = np.asarray(leq, dtype=bool)
        self.P = np.asarray(P, dtype=float)
        n = len(self.labels)
        C = self.leq.astype(float)
        Cinv = np.rint(np.linalg.inv(C))
        self.transform_min = {
            "mobius_down": float((Cinv @ self.P @ C).min()),
            "mobius_up": float((Cinv.T @ self.P @ C.T).min()),
        }
        self.upsets = up_sets(self.leq)
        full = (1 << n) - 1
        proper = [u for u in self.upsets if 0 < u < full]
        if proper:
            ind = np.array([[(u >> k) & 1 for k in range(n)] for u in proper], dtype=float)
            mass = self.P @ ind.T
            strict = self.leq & ~np.eye(n, dtype=bool)
            xs, ys = np.nonzero(strict)
            self.strong_min = float((mass[ys] - mass[xs]).min()) if len(xs) else 0.0
        else:
            self.strong_min = 0.0

    @classmethod
    def from_spec(cls, spec):
        if spec["kind"] == "cube":
            d = spec["d"]
            labels = ["".join(str((x >> i) & 1) for i in range(d)) for x in range(2**d)]
            x = np.arange(2**d)
            leq = (x[:, None] & x[None, :]) == x[:, None]
            return cls(labels, leq, cube_walk_kernel(spec["alpha"], spec["beta"]))
        labels = spec["states"]
        pos = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        leq = np.eye(n, dtype=bool)
        for a, b in spec["covers"]:
            leq[pos[a], pos[b]] = True
        for k in range(n):                       # Warshall closure
            leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
        return cls(labels, leq, spec["rows"])


def up_sets(leq):
    """All up-closed subsets as bitmasks, grown one addable element at a time."""
    n = leq.shape[0]
    above = [sum(1 << j for j in range(n) if leq[i, j] and j != i) for i in range(n)]
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for i in range(n):
            bit = 1 << i
            if not u & bit and above[i] & u == above[i] and u | bit not in seen:
                seen.add(u | bit)
                stack.append(u | bit)
    return sorted(seen)


def check_notions(ref, reports, weak_expected):
    """Verdict table of one model: Mobius and strong from the reference, weak
    from ``weak_expected`` ({notion: verdict})."""
    out = []
    for notion, verdict, worst, _ in reports:
        if notion in ref.transform_min:
            own = ref.transform_min[notion]
        elif notion == "strong_stochastic":
            own = ref.strong_min
        else:
            if verdict != weak_expected[notion]:
                out.append(f"{notion}: verdict {verdict}, stored verdict {weak_expected[notion]}")
            continue
        if verdict != (own >= -TOL_MONO):
            out.append(f"{notion}: verdict {verdict} but the reference minimum is {own!r}")
        if abs(worst - own) > TOL_VALUE * max(1.0, abs(own)):
            out.append(f"{notion}: worst value {worst!r}, reference {own!r}")
    return out


# g+ moves of the 3-cube walk's symmetry axis, as (row, x, y) bitmasks
# (bit i = coordinate i+1): kappa moves from x and y onto x & y and x | y.
AXIS_MOVES = ((0b000, 0b001, 0b100), (0b010, 0b011, 0b110),
              (0b101, 0b001, 0b100), (0b111, 0b011, 0b110))


def axis_reversed_min(a, b, k):
    """Minimum of Cinv Prev C for the symmetric 3-cube walk with the axis moves."""
    P = cube_walk_kernel([a] * 3, [b] * 3)
    for r, x, y in AXIS_MOVES:
        P[r, [x, y]] -= k
        P[r, x & y] += k
        P[r, x | y] += k
    A = P.T - np.eye(8)
    A[-1] = 1.0
    pi = np.linalg.solve(A, np.eye(8)[-1])
    return float(cube_mobius_transform(reversal(P, pi), 3, "down").min())


def check_sweep_point(point, row):
    """Reversed down-Mobius verdict of one sweep point against its own kernel;
    at kappa = 0 it must also equal 3(alpha+beta) <= 1, worst min(0, 1 - 3(alpha+beta))."""
    a, b, k = point
    status, verdict, worst, dual_ok = row
    if status != "ok":
        return [f"sweep point {point}: status {status}"]
    own = axis_reversed_min(a, b, k)
    expected = own >= -TOL_MONO
    out = []
    if k == 0.0:
        expected = 3 * (a + b) <= 1.0
        own_closed = min(0.0, 1.0 - 3 * (a + b))
        if abs(own - own_closed) > TOL_VALUE:
            out.append(f"sweep point {point}: reference {own!r}, closed form {own_closed!r}")
    if verdict != expected or dual_ok != expected:
        out.append(f"sweep point {point}: verdict {verdict}, dual {dual_ok}, expected {expected}")
    if abs(worst - own) > TOL_VALUE:
        out.append(f"sweep point {point}: worst value {worst!r}, expected {own!r}")
    return out


def dkw_epsilon(samples, delta=DKW_DELTA):
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


def check_simulation(res, rates):
    """Simulated tail within the DKW band of the analytic tail, which must be
    the inclusion-exclusion curve of the walk."""
    out = []
    tail = np.asarray(res["tail"])
    own = inclusion_exclusion(rates, len(tail) - 1)
    dev = float(np.abs(tail - own).max())
    if dev > TOL_IDENTITY:
        out.append(f"analytic tail differs from inclusion-exclusion by {dev:.3e}")
    gap = float(np.abs(np.asarray(res["empirical"]) - tail).max())
    eps = dkw_epsilon(res["samples"])
    if gap > eps:
        out.append(f"simulated tail is {gap:.4f} from the analytic tail, beyond the DKW bound {eps:.4f}")
    return out


# --- CLI tables --------------------------------------------------------------


def parse_tables(text):
    """{first column name: [rows]} for every tab-separated table in a CLI output."""
    tables = {}
    current = None
    for line in text.splitlines():
        if "\t" not in line or line.startswith("#"):
            current = None
            continue
        fields = line.split("\t")
        if current is None:
            current = tables.setdefault(fields[0], [])
            continue
        current.append(fields)
    return tables


def header_value(text, key):
    prefix = f"# {key}:"
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()
    return None


def compare_values(what, cli_values, lib_values, tol=TOL_CLI):
    a = np.array([float(v) for v in cli_values])
    b = np.asarray(lib_values, dtype=float)
    if a.shape != b.shape:
        return [f"{what}: CLI has {a.shape[0]} values, library {b.shape[0]}"]
    dev = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    if not (dev <= tol).all():
        return [f"{what}: CLI differs from the library by {float(np.nanmax(dev)):.3e}"]
    return []


def compare_verdicts(rows, reports, prefix=""):
    out = []
    table = {row[0]: row for row in rows}
    for notion, verdict, worst, _ in reports:
        row = table.get(prefix + notion)
        if row is None:
            out.append(f"CLI table lacks {prefix + notion}")
            continue
        if row[1] != ("true" if verdict else "false"):
            out.append(f"{prefix + notion}: CLI verdict {row[1]}, library {verdict}")
        out += compare_values(prefix + notion, [row[2]], [worst])
    return out


def check_sep_output(text, lib):
    rows = parse_tables(text).get("n", [])
    cols = list(zip(*rows)) if rows else [(), (), (), ()]
    out = compare_values("sep s", cols[1], lib["curve"])
    out += compare_values("sep tail", cols[2], lib["tail"])
    out += compare_values("sep formula", cols[3], lib["formula"])
    return out


def check_dual_output(text, lib):
    rows = [np.array(ln.split()[1:], dtype=float) for ln in text.splitlines() if ln.startswith("row:")]
    nu = next((ln.split()[1:] for ln in text.splitlines() if ln.startswith("nu:")), [])
    out = []
    if len(rows) != lib["dual"]["P_star"].shape[0]:
        return [f"dual output has {len(rows)} rows"]
    dev = float(np.abs(np.array(rows) - lib["dual"]["P_star"]).max())
    if dev > TOL_CLI:
        out.append(f"dual output P* differs from the library by {dev:.3e}")
    out += compare_values("dual nu*", nu, lib["dual"]["nu_star"])
    return out


def check_avail_output(text, lib):
    out = compare_values("avail stationary", header_value(text, "stationary") or [], lib["pi"])
    tables = parse_tables(text)
    rows = tables.get("notion", [])
    reports = lib["reports"]
    out += compare_verdicts(rows[:2], reports[:2])
    out += compare_verdicts(rows[2:], reports[2:], prefix="reversed_")
    stopped = header_value(text, "pipeline stopped at")
    if (stopped[0] if stopped else None) != lib["stopped_at"]:
        out.append(f"avail stopped at {stopped}, library at {lib['stopped_at']}")
    if lib["stopped_at"] is None:
        cols = list(zip(*tables.get("n", []))) or [(), (), ()]
        out += compare_values("avail s", cols[1], lib["curve"])
        out += compare_values("avail tail", cols[2], lib["tail"])
    return out


def check_check_output(text, lib):
    return compare_verdicts(parse_tables(text).get("notion", []), lib["reports"])


def check_sweep_output(text, lib):
    rows = parse_tables(text).get("alpha", [])
    if len(rows) != len(lib["rows"]):
        return [f"sweep table has {len(rows)} rows, library {len(lib['rows'])}"]
    out = []
    for row, (point, (status, verdict, worst, dual_ok)) in zip(rows, lib["rows"]):
        got = [float(v) for v in row[:3]]
        expected = (status, "true" if verdict else "false", "true" if dual_ok else "false")
        if got != list(point) or (row[3], row[4], row[6]) != expected:
            out.append(f"sweep row {row} differs from the library {point} {expected}")
        elif not _close(float(row[5]), worst, TOL_CLI):
            out.append(f"sweep row {row}: worst value differs from {worst!r}")
    return out


def check_simulate_output(text, lib):
    cols = list(zip(*parse_tables(text).get("n", []))) or [()] * 7
    out = compare_values("simulate tail", cols[2], lib["tail"])
    out += compare_values("simulate empirical", cols[4], lib["empirical"])
    return out
