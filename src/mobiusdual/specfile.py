"""Model spec files: one structured-text format for every input kind.

Grammar: ``[section]`` headers, ``key: value ...`` lines, ``#`` comments.
Numbers are decimals or exact rationals ``p/q``.  A file holds exactly one
model: ``[poset]`` alone, ``[poset]`` (or ``poset_file:``) plus ``[chain]``,
``[cube]``, or ``[rates]``.  Unknown sections are rejected.  Each key
appears at most once per section, except ``cover`` and ``row``, which
repeat, and ``psi[mask]``/``phi[mask]``, once per mask; an unknown key, a
subscript on any other key or a second line of a key is rejected at its
line.

Example chain spec::

    [poset]
    states: a b c d
    cover: a b
    cover: a c
    cover: b d
    cover: c d

    [chain]
    row: 0.6 0.2 0.2 0
    row: 0.2 0.6 0 0.2
    row: 1/5 0 3/5 1/5
    row: 0 0.2 0.2 0.6
    nu: delta_min

Cube walks use a generator stanza instead of a dense matrix::

    [cube]
    d: 2
    alpha: 0.2 0.2
    beta: 1/5 1/5
    nu: delta_min

Cube and availability states are in bitmask order: entry k of an explicit
``[cube]`` ``nu:`` vector, ``psi[k]``/``phi[k]`` and row k of a serialized
dual all belong to the state with mask k (bit i is coordinate i+1, or node
i down).

Availability rate functions (``table`` entries keyed by node bitmask, or the
families ``power c`` for c^|D| and ``pernode v1 .. vd``; explicit table
entries override family values)::

    [rates]
    d: 2
    psi: pernode 0.05 0.05
    phi: power 2
    phi[3]: 5
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .availability import RateFunctions, pernode_family, power_family
from .chain import ROW_TOL, Chain, validate_chain
from .cube import CubeWalkParams
from .errors import DimensionTooLarge, SchemaError
from .poset import DENSE_CUBE_LIMIT, Poset, build_poset

NU_TOKENS = ("delta_min", "delta_max", "uniform", "stationary")
# Most points a [sweep] grid may hold, over all its alpha, beta and kappa
# values.
MAX_SWEEP_POINTS = 1_000_000


@dataclass
class LoadedModel:
    kind: str                      # poset | chain | cube | rates
    poset: Poset | None = None
    chain: Chain | None = None
    cube: CubeWalkParams | None = None
    rates: RateFunctions | None = None
    nu_token: str | None = None
    exact_nu: tuple | None = None
    states_order: tuple | None = None   # labels in file order
    rates_single_moves: bool = False


def _number(token, line):
    """``token`` as an exact Fraction whose float is finite, or a
    SchemaError at ``line``."""
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        try:
            value = Fraction(float(token))
        except (ValueError, OverflowError):
            raise SchemaError(
                f"line {line}: expected a number, got {token!r}", line=line
            ) from None
    try:
        float(value)
    except OverflowError:
        raise SchemaError(
            f"line {line}: {token!r} is beyond the float range", line=line
        ) from None
    return value


def _numbers(tokens, line):
    return [_number(t, line) for t in tokens]


def _first(tokens, line, what):
    """The first value token of a line, or a SchemaError when it has none."""
    if not tokens:
        raise SchemaError(f"line {line}: {what} needs a value", line=line)
    return tokens[0]


def _positive_int(token, line, what):
    """``token`` as an integer of at least 1, or a SchemaError at ``line``."""
    if not (token.isdecimal() and int(token) >= 1):
        raise SchemaError(
            f"line {line}: {what} must be a positive integer, got {token!r}",
            line=line,
        )
    return int(token)


def _lines(text):
    """The lines of ``text``, which end at LF, CRLF and CR only: a form feed
    or U+2028 in a comment is part of its line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read(path):
    """The text of the spec file at ``path``; a byte that is not UTF-8 is a
    SchemaError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode
        line = len(_lines(data[:exc.start].decode("utf-8")))
        raise SchemaError(
            f"line {line}: byte {data[exc.start]:#04x} is not UTF-8", line=line
        ) from None


def _sections(text):
    """Split into {section: [(line_no, key, tokens), ...]}, preserving order."""
    out = {}
    current = None
    for n, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in out:
                raise SchemaError(f"line {n}: duplicate section [{current}]", line=n)
            out[current] = []
            continue
        if current is None:
            raise SchemaError(
                f"line {n}: content before any [section] header", line=n
            )
        if ":" not in line:
            raise SchemaError(f"line {n}: expected 'key: value'", line=n)
        key, rest = line.split(":", 1)
        out[current].append((n, key.strip(), rest.split()))
    return out


def _keys(entries, section, single, repeated=()):
    """A section's lines by key: the one ``(line, tokens)`` of each key in
    ``single`` that is present, and the file-ordered list of lines of each
    key in ``repeated``.  A repeated ``name[]`` takes the subscripted keys
    ``name[mask]``, one line per mask, as {mask: (line, tokens)}.  An
    unknown key, or a second line of a single key or of one mask, is a
    SchemaError at its line with ``field`` set to the key."""
    table = {key: {} if key.endswith("[]") else [] for key in repeated}
    for n, key, tokens in entries:
        base, bracket, sub = key.partition("[")
        name = base + "[]" if sub.endswith("]") else key
        if name not in single and name not in repeated:
            raise SchemaError(
                f"line {n}: unknown key {key!r} in [{section}]",
                line=n,
                field=key,
            )
        if name in repeated and not bracket:
            table[key].append((n, tokens))
            continue
        slot, at = table, key
        if bracket:
            try:
                slot, at = table[name], int(sub[:-1], 0)
            except ValueError:
                raise SchemaError(
                    f"line {n}: bad subset mask {sub[:-1]!r}", line=n, field=key
                ) from None
        if at in slot:
            raise SchemaError(
                f"line {n}: repeated key {key!r} in [{section}]", line=n, field=key
            )
        slot[at] = (n, tokens)
    return table


def _dimension(keys):
    """The ``d`` of a section's key table, and its line."""
    n, tokens = keys["d"]
    return _positive_int(" ".join(tokens), n, "d"), n


def _parse_poset(entries):
    keys = _keys(entries, "poset", ("states",), ("cover",))
    if "states" not in keys:
        raise SchemaError("[poset] needs a states line")
    for n, tokens in keys["cover"]:
        if len(tokens) != 2:
            raise SchemaError(
                f"line {n}: cover needs exactly two labels", line=n
            )
    states = keys["states"][1]
    return build_poset(states, [tuple(t) for _, t in keys["cover"]]), tuple(states)


def _resolve_nu(keys, m):
    """A key table's nu line as (token, None) or (None, numbers); (None,
    None) when it has none."""
    if "nu" not in keys:
        return None, None
    line, tokens = keys["nu"]
    if len(tokens) == 1 and tokens[0] in NU_TOKENS:
        return tokens[0], None
    if len(tokens) != m:
        raise SchemaError(
            f"line {line}: nu needs {m} numbers or one of {NU_TOKENS}",
            line=line,
        )
    return None, _numbers(tokens, line)


def nu_vector(token, poset):
    """Resolve a nu token to a vector (``stationary`` is resolved by callers)."""
    m = poset.size
    if token == "delta_min":
        out = np.zeros(m)
        out[0] = 1.0
        return out
    if token == "delta_max":
        out = np.zeros(m)
        out[m - 1] = 1.0
        return out
    if token == "uniform":
        return np.full(m, 1.0 / m)
    raise SchemaError(f"nu token {token!r} must be resolved by the caller")


def _parse_chain(keys, poset, states_order, row_tol):
    m = poset.size
    rows = keys["row"]
    if len(rows) != m:
        raise SchemaError(f"[chain] needs exactly {m} row lines, got {len(rows)}")
    values = []
    for n, tokens in rows:
        values.append(_numbers(tokens, n))
        if len(tokens) != m:
            raise SchemaError(f"line {n}: row needs {m} entries", line=n)
    nu_token, nu_exact = _resolve_nu(keys, m)
    # rows/columns follow the states line; permute into enumeration order
    order = np.argsort([poset.index(lab) for lab in states_order])
    exact = np.array(values, dtype=object)[np.ix_(order, order)]
    mat = exact.astype(float)
    exact = tuple(map(tuple, exact.tolist()))
    nu = None
    if nu_exact is not None:
        nu_exact = tuple(np.array(nu_exact, dtype=object)[order])
        nu = np.array(nu_exact, dtype=float)
    elif nu_token in ("delta_min", "delta_max", "uniform"):
        nu = nu_vector(nu_token, poset)
    chain = validate_chain(mat, poset, nu=nu, row_tol=row_tol, exact=exact)
    return chain, nu_token, nu_exact


def _parse_cube(entries):
    keys = _keys(entries, "cube", ("d", "alpha", "beta", "nu"))
    if not {"d", "alpha", "beta"} <= keys.keys():
        raise SchemaError("[cube] needs d, alpha and beta")
    d, _ = _dimension(keys)
    alpha, beta = (_numbers(keys[k][1], keys[k][0]) for k in ("alpha", "beta"))
    for key, values in (("alpha", alpha), ("beta", beta)):
        if len(values) != d:
            n = keys[key][0]
            raise SchemaError(
                f"line {n}: {key} needs exactly d={d} entries", line=n, field=key
            )
    nu = _resolve_nu(keys, 2**d)
    params = CubeWalkParams(
        d=d,
        alpha=tuple(float(v) for v in alpha),
        beta=tuple(float(v) for v in beta),
    )
    return params, *nu


def _parse_rates(entries):
    keys = _keys(
        entries, "rates", ("d", "moves", "psi", "phi"), ("psi[]", "phi[]")
    )
    if "d" not in keys:
        raise SchemaError("[rates] needs d")
    d, n = _dimension(keys)
    if d > DENSE_CUBE_LIMIT:
        # every [rates] path builds a dense kernel
        raise DimensionTooLarge(
            f"line {n}: [rates] d must be in [1, {DENSE_CUBE_LIMIT}], got {d}",
            line=n,
        )
    single_moves = False
    if "moves" in keys:
        n, tokens = keys["moves"]
        moves = _first(tokens, n, "moves")
        if moves not in ("single", "all"):
            raise SchemaError(
                f"line {n}: moves must be 'single' or 'all'", line=n
            )
        single_moves = moves == "single"

    def build(name):
        values = np.full(2**d, np.nan)
        if name in keys:
            n, tokens = keys[name]
            family = _first(tokens, n, name)
            if family == "power":
                base = _first(tokens[1:], n, "power")
                values = power_family(d, float(_number(base, n)))
            elif family == "pernode":
                per_node = _numbers(tokens[1:], n)
                if len(per_node) != d:
                    raise SchemaError(
                        f"line {n}: pernode needs {d} values, got {len(per_node)}",
                        line=n,
                        field=name,
                    )
                values = pernode_family(d, [float(v) for v in per_node])
            elif family != "table":
                raise SchemaError(
                    f"line {n}: unknown family {family!r} "
                    "(expected table, power or pernode)",
                    line=n,
                )
        for mask, (n, tokens) in keys[name + "[]"].items():
            if not 0 <= mask < 2**d:
                raise SchemaError(
                    f"line {n}: mask {mask} outside the {d}-node powerset", line=n
                )
            # explicit table entries win
            values[mask] = float(_number(_first(tokens, n, f"{name}[{mask}]"), n))
        if np.isnan(values).any():
            missing = int(np.flatnonzero(np.isnan(values))[0])
            raise SchemaError(
                f"{name} is undefined on subset mask {missing:#b}"
            )
        return values

    rates = RateFunctions(d=d, psi=build("psi"), phi=build("phi"))
    return rates, single_moves


def load_model(path, row_tol=ROW_TOL):
    """Parse a spec file into a LoadedModel (strict schema)."""
    return load_model_text(
        _read(path), base_dir=os.path.dirname(path), row_tol=row_tol
    )


def load_model_text(text, base_dir="", row_tol=ROW_TOL):
    sections = _sections(text)
    known = {"poset", "chain", "cube", "rates"}
    unknown = set(sections) - known
    if unknown:
        raise SchemaError(f"unknown section [{sorted(unknown)[0]}]")
    model_sections = [s for s in ("chain", "cube", "rates") if s in sections]
    if len(model_sections) > 1:
        raise SchemaError(
            f"ambiguous spec: both [{model_sections[0]}] and "
            f"[{model_sections[1]}] present"
        )
    if "cube" in sections:
        if "poset" in sections:
            raise SchemaError("ambiguous spec: [cube] with an explicit [poset]")
        params, nu_token, nu_exact = _parse_cube(sections["cube"])
        return LoadedModel(
            kind="cube", cube=params, nu_token=nu_token, exact_nu=nu_exact
        )
    if "rates" in sections:
        if "poset" in sections:
            raise SchemaError("ambiguous spec: [rates] with an explicit [poset]")
        rates, single_moves = _parse_rates(sections["rates"])
        return LoadedModel(
            kind="rates", rates=rates, rates_single_moves=single_moves
        )
    if "chain" in sections:
        keys = _keys(sections["chain"], "chain", ("nu", "poset_file"), ("row",))
        if "poset_file" in keys and "poset" in sections:
            raise SchemaError("ambiguous spec: inline [poset] and poset_file")
        if "poset_file" in keys:
            n, tokens = keys["poset_file"]
            ref = os.path.join(base_dir, " ".join(tokens))
            ref_sections = _sections(_read(ref))
            if set(ref_sections) != {"poset"}:
                raise SchemaError(
                    f"line {n}: poset_file {ref!r} does not hold a poset", line=n
                )
            poset, states_order = _parse_poset(ref_sections["poset"])
        elif "poset" in sections:
            poset, states_order = _parse_poset(sections["poset"])
        else:
            raise SchemaError("[chain] needs an inline [poset] or poset_file")
        chain, nu_token, nu_exact = _parse_chain(
            keys, poset, states_order, row_tol
        )
        return LoadedModel(
            kind="chain",
            poset=poset,
            chain=chain,
            nu_token=nu_token,
            exact_nu=nu_exact,
            states_order=states_order,
        )
    if "poset" in sections:
        poset, states_order = _parse_poset(sections["poset"])
        return LoadedModel(kind="poset", poset=poset, states_order=states_order)
    raise SchemaError("spec holds no model section")


def parse_sweep(path):
    """Parse a ``[sweep]`` file into (d, alphas, betas, kappas).

    Keys: ``d``, and ``alpha``/``beta``/``kappa`` as ``start stop count``
    linspace grids; kappa defaults to the single value 0.  A count that
    takes the grid past MAX_SWEEP_POINTS points raises DimensionTooLarge at
    its line, before its axis is built.
    """
    sections = _sections(_read(path))
    if set(sections) != {"sweep"}:
        raise SchemaError("sweep input must hold exactly a [sweep] section")
    keys = _keys(sections["sweep"], "sweep", ("d", "alpha", "beta", "kappa"))
    if not {"d", "alpha", "beta"} <= keys.keys():
        raise SchemaError("[sweep] needs d, alpha and beta grids")
    d, _ = _dimension(keys)
    grids, counts = {}, {}
    # in file order, so the refusal names the line that crosses the bound
    for key in sorted(keys.keys() - {"d"}, key=lambda k: keys[k][0]):
        n, tokens = keys[key]
        if len(tokens) != 3:
            raise SchemaError(
                f"line {n}: {key} needs 'start stop count'", line=n
            )
        start, stop = float(_number(tokens[0], n)), float(_number(tokens[1], n))
        counts[key] = _positive_int(tokens[2], n, f"the {key} count")
        if math.prod(counts.values()) > MAX_SWEEP_POINTS:
            raise DimensionTooLarge(
                f"line {n}: the sweep grid would hold more than "
                f"{MAX_SWEEP_POINTS} points",
                line=n,
            )
        grids[key] = np.linspace(start, stop, counts[key])
    kappas = grids.get("kappa", np.array([0.0]))
    return d, grids["alpha"], grids["beta"], kappas


# --- serialization ------------------------------------------------------------


def fmt(x):
    """Bit-faithful decimal form: 17 significant digits."""
    if isinstance(x, Fraction):
        return str(x)
    return format(float(x), ".17g")


def label_str(e):
    if isinstance(e, tuple):
        return "".join(str(int(b)) for b in e)
    return str(e)


def cover_pairs(p):
    """Transitive reduction of the strict order (the cover relation), in
    row-major order; on a cube, the single-bit flips."""
    if p.cube_dim is not None:
        return [
            (p.elements[i], p.elements[i | 1 << b])
            for i in range(p.size)
            for b in range(p.cube_dim)
            if not i >> b & 1
        ]
    strict = p.leq & ~np.eye(p.size, dtype=bool)
    # path counts through one intermediate state; exact in floating point
    strict_f = strict.astype(float)
    redundant = (strict_f @ strict_f) > 0
    cover = strict & ~redundant
    return [
        (p.elements[i], p.elements[j])
        for i, j in np.argwhere(cover)
    ]


def serialize_poset(p, header=()):
    labels = [label_str(e) for e in p.elements]
    lines = [f"# {h}" for h in header]
    lines.append("[poset]")
    lines.append("states: " + " ".join(labels))
    covers = sorted((p.index(x), p.index(y)) for x, y in cover_pairs(p))
    lines.extend(f"cover: {labels[i]} {labels[j]}" for i, j in covers)
    return "\n".join(lines) + "\n"


def serialize_chain(c, header=()):
    """Chain spec text (inline poset + dense rows + optional nu)."""
    text = serialize_poset(c.poset, header=header)
    lines = ["", "[chain]"]
    # the same text as fmt on each float entry: every +0.0 is "0", and only
    # the other entries (-0.0 included) are formatted
    for row in c.P:
        tokens = ["0"] * row.size
        for j in np.flatnonzero((row != 0) | np.signbit(row)).tolist():
            tokens[j] = "{:.17g}".format(float(row[j]))
        lines.append("row: " + " ".join(tokens))
    if c.nu is not None:
        lines.append("nu: " + " ".join(map("{:.17g}".format, c.nu.tolist())))
    return text + "\n".join(lines) + "\n"


def dual_header(dual, poset):
    """A dual's construction facts as ``key: value`` header lines: the one
    form every command prints them in."""
    return (
        f"direction: {dual.direction}",
        f"dual_path: {dual.path}",
        f"absorbing_index: {dual.absorbing_index}",
        f"absorbing_state: {label_str(poset.elements[dual.absorbing_index])}",
        f"nu_residual: {fmt(dual.nu_residual)}",
        f"intertwine_residual: {fmt(dual.intertwine_residual)}",
        f"clamp_magnitude: {fmt(dual.clamp_magnitude)}",
    )


def serialize_dual(dual, poset):
    """Dual chain in chain-spec format with construction metadata up front."""
    chain = Chain(poset=poset, P=dual.P_star, nu=dual.nu_star)
    return serialize_chain(chain, header=("dual chain", *dual_header(dual, poset)))
