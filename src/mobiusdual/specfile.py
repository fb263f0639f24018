"""Model spec files: one structured-text format for every input kind.

Grammar: ``[section]`` headers, ``key: value ...`` lines, ``#`` comments.
Numbers are decimals or exact rationals ``p/q``.  A file holds exactly one
model: ``[poset]`` alone, ``[poset]`` (or ``poset_file:``) plus ``[chain]``,
``[cube]``, or ``[rates]``.  Unknown sections or keys are rejected with the
offending line.

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

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .availability import RateFunctions, pernode_family, power_family
from .chain import Chain, validate_chain
from .cube import CubeWalkParams
from .errors import SchemaError
from .poset import Poset, build_poset

NU_TOKENS = ("delta_min", "delta_max", "uniform", "stationary")


@dataclass
class LoadedModel:
    kind: str                      # poset | chain | cube | rates
    poset: Poset | None = None
    chain: Chain | None = None
    cube: CubeWalkParams | None = None
    rates: RateFunctions | None = None
    nu_token: str | None = None
    exact_rows: tuple | None = None
    exact_nu: tuple | None = None
    states_order: tuple | None = None   # labels in file order
    rates_single_moves: bool = False

    @property
    def primary(self):
        return {
            "poset": self.poset,
            "chain": self.chain,
            "cube": self.cube,
            "rates": self.rates,
        }[self.kind]


def _number(token, line):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        try:
            return Fraction(float(token))
        except (ValueError, OverflowError):
            raise SchemaError(
                f"line {line}: expected a number, got {token!r}", line=line
            ) from None


def _numbers(tokens, line):
    return [_number(t, line) for t in tokens]


def _sections(text):
    """Split into {section: [(line_no, key, tokens), ...]}, preserving order."""
    out = {}
    current = None
    for n, raw in enumerate(text.splitlines(), start=1):
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


def _only_keys(entries, allowed, section):
    for n, key, _ in entries:
        base = key.split("[", 1)[0]
        if base not in allowed:
            raise SchemaError(
                f"line {n}: unknown key {key!r} in [{section}]",
                line=n,
                field=key,
            )


def _parse_poset(entries):
    states = None
    covers = []
    _only_keys(entries, {"states", "cover"}, "poset")
    for n, key, tokens in entries:
        if key == "states":
            if states is not None:
                raise SchemaError(f"line {n}: repeated states line", line=n)
            states = tokens
        elif key == "cover":
            if len(tokens) != 2:
                raise SchemaError(
                    f"line {n}: cover needs exactly two labels", line=n
                )
            covers.append((tokens[0], tokens[1]))
    if states is None:
        raise SchemaError("[poset] needs a states line")
    return build_poset(states, covers), tuple(states)


def _resolve_nu(tokens, m, line):
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


def _parse_chain(entries, poset, states_order, row_tol):
    _only_keys(entries, {"row", "nu", "poset_file"}, "chain")
    rows = []
    nu_token = None
    nu_exact = None
    for n, key, tokens in entries:
        if key == "row":
            rows.append((n, _numbers(tokens, n)))
        elif key == "nu":
            nu_token, nu_exact = _resolve_nu(tokens, poset.size, n)
    m = poset.size
    if len(rows) != m:
        raise SchemaError(f"[chain] needs exactly {m} row lines, got {len(rows)}")
    for n, row in rows:
        if len(row) != m:
            raise SchemaError(f"line {n}: row needs {m} entries", line=n)
    # rows/columns follow the states line; permute into enumeration order
    perm = [poset.index(lab) for lab in states_order]
    exact = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            exact[perm[i]][perm[j]] = rows[i][1][j]
    exact = tuple(tuple(row) for row in exact)
    mat = np.array([[float(v) for v in row] for row in exact])
    nu = None
    if nu_exact is not None:
        permuted = [None] * m
        for i in range(m):
            permuted[perm[i]] = nu_exact[i]
        nu_exact = tuple(permuted)
        nu = np.array([float(v) for v in nu_exact])
    elif nu_token in ("delta_min", "delta_max", "uniform"):
        nu = nu_vector(nu_token, poset)
    chain = validate_chain(mat, poset, nu=nu, row_tol=row_tol, exact=exact)
    return chain, nu_token, exact, nu_exact


def _parse_cube(entries):
    _only_keys(entries, {"d", "alpha", "beta", "nu"}, "cube")
    d = alpha = beta = None
    nu_token = None
    nu_exact = None
    nu_line = None
    for n, key, tokens in entries:
        if key == "d":
            d = int(tokens[0])
        elif key == "alpha":
            alpha = _numbers(tokens, n)
        elif key == "beta":
            beta = _numbers(tokens, n)
        elif key == "nu":
            nu_line = (n, tokens)
    if d is None or alpha is None or beta is None:
        raise SchemaError("[cube] needs d, alpha and beta")
    if len(alpha) != d or len(beta) != d:
        raise SchemaError(f"[cube] alpha and beta need exactly d={d} entries")
    params = CubeWalkParams(
        d=d,
        alpha=tuple(float(v) for v in alpha),
        beta=tuple(float(v) for v in beta),
    )
    if nu_line is not None:
        nu_token, nu_exact = _resolve_nu(nu_line[1], 2**d, nu_line[0])
    return params, nu_token, nu_exact


def _parse_rates(entries):
    _only_keys(entries, {"d", "psi", "phi", "moves"}, "rates")
    d = None
    single_moves = False
    for n, key, tokens in entries:
        if key == "d":
            d = int(tokens[0])
        elif key == "moves":
            if tokens[0] not in ("single", "all"):
                raise SchemaError(
                    f"line {n}: moves must be 'single' or 'all'", line=n
                )
            single_moves = tokens[0] == "single"
    if d is None:
        raise SchemaError("[rates] needs d")
    families = {}
    tables = {"psi": {}, "phi": {}}
    for n, key, tokens in entries:
        if key in ("d", "moves"):
            continue
        if "[" in key:
            base, idx = key[:-1].split("[", 1)
            if base not in tables:
                raise SchemaError(
                    f"line {n}: only psi/phi take subset masks, got {key!r}",
                    line=n,
                )
            try:
                mask = int(idx, 0)
            except ValueError:
                raise SchemaError(
                    f"line {n}: bad subset mask {idx!r}", line=n
                ) from None
            if not 0 <= mask < 2**d:
                raise SchemaError(
                    f"line {n}: mask {mask} outside the {d}-node powerset", line=n
                )
            tables[base][mask] = float(_number(tokens[0], n))
        else:
            families[key] = (n, tokens)

    def build(name):
        fam = families.get(name)
        table = tables[name]
        values = None
        if fam is not None:
            n, tokens = fam
            if tokens[0] == "table":
                values = None
            elif tokens[0] == "power":
                values = power_family(d, float(_number(tokens[1], n)))
            elif tokens[0] == "pernode":
                values = pernode_family(
                    d, [float(v) for v in _numbers(tokens[1:], n)]
                )
            else:
                raise SchemaError(
                    f"line {n}: unknown family {tokens[0]!r} "
                    "(expected table, power or pernode)",
                    line=n,
                )
        if values is None:
            values = np.full(2**d, np.nan)
        for mask, v in table.items():
            values[mask] = v      # explicit table entries win
        if np.isnan(values).any():
            missing = int(np.flatnonzero(np.isnan(values))[0])
            raise SchemaError(
                f"{name} is undefined on subset mask {missing:#b}"
            )
        return values

    rates = RateFunctions(d=d, psi=build("psi"), phi=build("phi"))
    return rates, single_moves


def load_model(path, row_tol=1e-12):
    """Parse a spec file into a LoadedModel (strict schema)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return load_model_text(text, base_dir=os.path.dirname(path), row_tol=row_tol)


def load_model_text(text, base_dir="", row_tol=1e-12):
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
        poset_file = [
            (n, tokens)
            for n, key, tokens in sections["chain"]
            if key == "poset_file"
        ]
        if poset_file and "poset" in sections:
            raise SchemaError("ambiguous spec: inline [poset] and poset_file")
        if poset_file:
            n, tokens = poset_file[0]
            ref = os.path.join(base_dir, " ".join(tokens))
            loaded = load_model(ref, row_tol=row_tol)
            if loaded.kind != "poset":
                raise SchemaError(
                    f"line {n}: poset_file {ref!r} does not hold a poset", line=n
                )
            poset, states_order = loaded.poset, loaded.states_order
        elif "poset" in sections:
            poset, states_order = _parse_poset(sections["poset"])
        else:
            raise SchemaError("[chain] needs an inline [poset] or poset_file")
        chain, nu_token, exact, nu_exact = _parse_chain(
            sections["chain"], poset, states_order, row_tol
        )
        return LoadedModel(
            kind="chain",
            poset=poset,
            chain=chain,
            nu_token=nu_token,
            exact_rows=exact,
            exact_nu=nu_exact,
            states_order=states_order,
        )
    if "poset" in sections:
        poset, states_order = _parse_poset(sections["poset"])
        return LoadedModel(kind="poset", poset=poset, states_order=states_order)
    raise SchemaError("spec holds no model section")


def parse_spec(path):
    """Parse a spec file into its domain object (Poset, Chain, CubeWalkParams
    or RateFunctions)."""
    return load_model(path).primary


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
    """Transitive reduction of the strict order (the cover relation)."""
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
    lines = [f"# {h}" for h in header]
    lines.append("[poset]")
    lines.append("states: " + " ".join(label_str(e) for e in p.elements))
    for x, y in sorted(
        cover_pairs(p), key=lambda xy: (p.index(xy[0]), p.index(xy[1]))
    ):
        lines.append(f"cover: {label_str(x)} {label_str(y)}")
    return "\n".join(lines) + "\n"


def serialize_chain(c, header=()):
    """Chain spec text (inline poset + dense rows + optional nu)."""
    text = serialize_poset(c.poset, header=header)
    lines = ["", "[chain]"]
    # the same text as fmt on each float entry
    for row in c.P:
        lines.append("row: " + " ".join(map("{:.17g}".format, row.tolist())))
    if c.nu is not None:
        lines.append("nu: " + " ".join(map("{:.17g}".format, c.nu.tolist())))
    return text + "\n".join(lines) + "\n"


def serialize_dual(dual, poset):
    """Dual chain in chain-spec format with construction metadata up front."""
    header = [
        "dual chain",
        f"direction: {dual.direction}",
        f"absorbing_index: {dual.absorbing_index}",
        f"absorbing_state: {label_str(poset.elements[dual.absorbing_index])}",
        f"nu_residual: {fmt(dual.nu_residual)}",
        f"intertwine_residual: {fmt(dual.intertwine_residual)}",
        f"clamp_magnitude: {fmt(dual.clamp_magnitude)}",
    ]
    if dual.forced:
        header.append("forced: raw unverified matrices (research inspection)")
    chain = Chain(poset=poset, P=dual.P_star.copy(), nu=dual.nu_star.copy())
    return serialize_chain(chain, header=header)
