import os
from fractions import Fraction

import numpy as np
import pytest

import mobiusdual as md
from mobiusdual import load_model, serialize_chain, serialize_poset, specfile
from mobiusdual.chain import Chain
from mobiusdual.cube import CubeWalkParams
from mobiusdual.errors import DimensionTooLarge, MobiusDualError, NotStochastic, SchemaError
from mobiusdual.poset import Poset
from mobiusdual.availability import RateFunctions
from mobiusdual.duality import DualChain
from mobiusdual.specfile import (
    cover_pairs,
    fmt,
    label_str,
    load_model_text,
    serialize_dual,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


DIAMOND_CHAIN = """
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
"""


class TestParsing:
    def test_poset_only(self, tmp_path):
        path = write(tmp_path, "p.spec", "[poset]\nstates: x y\ncover: x y\n")
        p = load_model(path).poset
        assert isinstance(p, Poset)
        assert p.elements == ("x", "y")

    def test_chain_spec(self, tmp_path):
        path = write(tmp_path, "c.spec", DIAMOND_CHAIN)
        c = load_model(path).chain
        assert isinstance(c, Chain)
        assert c.nu is not None and c.nu[0] == 1.0
        assert c.P[2, 2] == pytest.approx(0.6)

    def test_rational_tokens_parsed_exactly(self, tmp_path):
        path = write(tmp_path, "c.spec", DIAMOND_CHAIN)
        loaded = load_model(path)
        assert loaded.chain.exact[2][0] == Fraction(1, 5)
        assert loaded.chain.P[2, 0] == pytest.approx(0.2)

    def test_rows_follow_states_line_order(self, tmp_path):
        # list states against the topological order; the parser must permute
        text = """
[poset]
states: top bottom
cover: bottom top

[chain]
row: 0.9 0.1
row: 0.4 0.6
"""
        path = write(tmp_path, "c.spec", text)
        c = load_model(path).chain
        assert c.poset.elements == ("bottom", "top")
        # row for 'bottom' is the second file row, diagonal first
        assert c.P[0, 0] == pytest.approx(0.6)
        assert c.P[1, 1] == pytest.approx(0.9)

    def test_cube_spec(self):
        params = load_model(os.path.join(DATA, "two_cube.spec")).cube
        assert isinstance(params, CubeWalkParams)
        assert params.alpha == (0.2, 0.2)
        assert params.beta == (0.2, 0.2)

    def test_rates_spec(self):
        rates = load_model(os.path.join(DATA, "rates.spec")).rates
        assert isinstance(rates, RateFunctions)
        assert rates.psi[3] == pytest.approx(0.03 * 0.05)

    def test_rates_table_overrides_family(self, tmp_path):
        text = "[rates]\nd: 1\npsi: power 0.5\npsi[1]: 0.25\nphi: power 2\n"
        path = write(tmp_path, "r.spec", text)
        rates = load_model(path).rates
        assert rates.psi[1] == pytest.approx(0.25)

    def test_poset_file_reference(self, tmp_path):
        write(tmp_path, "p.spec", "[poset]\nstates: x y\ncover: x y\n")
        path = write(
            tmp_path,
            "c.spec",
            "[chain]\nposet_file: p.spec\nrow: 0.7 0.3\nrow: 0.4 0.6\n",
        )
        c = load_model(path).chain
        assert c.poset.elements == ("x", "y")
        assert c.P[0, 1] == pytest.approx(0.3)


class TestSchemaErrors:
    def test_unknown_section(self, tmp_path):
        path = write(tmp_path, "s.spec", "[nonsense]\nd: 2\n")
        with pytest.raises(SchemaError):
            load_model(path)

    def test_unknown_key_carries_line(self, tmp_path):
        path = write(tmp_path, "s.spec", "[poset]\nstates: a\nwhat: 3\n")
        with pytest.raises(SchemaError) as exc:
            load_model(path)
        assert exc.value.line == 3

    def test_dense_matrix_and_generator_are_ambiguous(self, tmp_path):
        text = DIAMOND_CHAIN + "\n[cube]\nd: 2\nalpha: 0.1 0.1\nbeta: 0.1 0.1\n"
        path = write(tmp_path, "s.spec", text)
        with pytest.raises(SchemaError) as exc:
            load_model(path)
        assert "ambiguous" in str(exc.value)

    def test_wrong_row_count(self, tmp_path):
        path = write(
            tmp_path, "s.spec",
            "[poset]\nstates: x y\ncover: x y\n\n[chain]\nrow: 1 0\n",
        )
        with pytest.raises(SchemaError):
            load_model(path)

    def test_bad_number(self, tmp_path):
        path = write(
            tmp_path, "s.spec",
            "[poset]\nstates: x y\n\n[chain]\nrow: one 0\nrow: 0 1\n",
        )
        with pytest.raises(SchemaError) as exc:
            load_model(path)
        assert exc.value.line == 5

    @pytest.mark.parametrize("section, rest", [
        ("cube", "alpha: 0.1\nbeta: 0.1\n"),
        ("rates", "psi: power 0.5\nphi: power 2\n"),
    ])
    @pytest.mark.parametrize("d", ["x", "2.5", "0", "-1", ""])
    def test_dimension_must_be_a_positive_integer(self, tmp_path, section, rest, d):
        path = write(tmp_path, "s.spec", f"[{section}]\nd: {d}\n{rest}")
        with pytest.raises(SchemaError, match="d must be a positive integer") as exc:
            load_model(path)
        assert exc.value.line == 2

    def test_malformed_nu_is_refused_before_the_rates(self, tmp_path):
        # a walk that cannot hold, with a nu line of the wrong length: the
        # line is refused first, at its line
        path = write(tmp_path, "s.spec",
                     "[cube]\nd: 2\nalpha: 0.6 0.6\nbeta: 0.1 0.1\nnu: 1 0\n")
        with pytest.raises(SchemaError, match="nu needs 4 numbers") as exc:
            load_model(path)
        assert exc.value.line == 5

    def test_bad_row_sum_is_not_schema_error(self):
        with pytest.raises(NotStochastic) as exc:
            load_model(os.path.join(DATA, "bad_row.spec"))
        assert any(row == 0 for row, _ in exc.value.violations)

    def test_content_before_section(self, tmp_path):
        path = write(tmp_path, "s.spec", "states: a\n")
        with pytest.raises(SchemaError):
            load_model(path)


class TestRoundTrip:
    def test_poset_round_trip(self, tmp_path):
        path = write(tmp_path, "p.spec", "[poset]\nstates: a b c d\ncover: a b\ncover: a c\ncover: b d\ncover: c d\n")
        p = load_model(path).poset
        text = serialize_poset(p)
        p2 = load_model_text(text).poset
        assert p2.elements == p.elements
        assert (p2.leq == p.leq).all()

    def test_chain_round_trip(self, tmp_path):
        path = write(tmp_path, "c.spec", DIAMOND_CHAIN)
        c = load_model(path).chain
        text = serialize_chain(c)
        c2 = load_model_text(text).chain
        assert c2.poset.elements == c.poset.elements
        assert np.array_equal(c2.P, c.P)
        assert np.array_equal(c2.nu, c.nu)

    def test_seventeen_digit_round_trip(self):
        values = [1 / 3, 0.1 + 0.2, 1e-17, 123456.789012345678]
        for v in values:
            assert float(fmt(v)) == v

    def test_cover_pairs_are_transitive_reduction(self, tmp_path):
        path = write(
            tmp_path, "p.spec",
            "[poset]\nstates: x y z\ncover: x y\ncover: y z\ncover: x z\n",
        )
        p = load_model(path).poset
        pairs = set(cover_pairs(p))
        assert pairs == {("x", "y"), ("y", "z")}

    def test_dual_serialization_reparses_as_chain(self):
        import mobiusdual as md

        params = md.CubeWalkParams(d=2, alpha=(0.1, 0.1), beta=(0.1, 0.1))
        nu = np.zeros(4)
        nu[0] = 1.0
        c = md.nearest_neighbor_walk(params, nu=nu)
        law = md.stationary(c)
        zm = md.zeta_mobius(c.poset)
        dual = md.build_ssd(c, law, zm, "down")
        text = serialize_dual(dual, c.poset)
        loaded = load_model_text(text)
        assert loaded.kind == "chain"
        assert np.abs(loaded.chain.P - dual.P_star).max() < 1e-16
        assert "absorbing_state: 11" in text
        assert "direction: down" in text


def dense_cover_pairs(p):
    """Oracle: the cover relation as the strict order minus its square."""
    strict = p.leq & ~np.eye(p.size, dtype=bool)
    strict_f = strict.astype(float)
    cover = strict & ~((strict_f @ strict_f) > 0)
    return [(p.elements[i], p.elements[j]) for i, j in np.argwhere(cover)]


def serialize_dual_every_entry(dual, poset):
    """Oracle: ``serialize_dual`` formatting every entry of the dense dual
    and taking the covers from the dense order."""
    header = [
        "dual chain",
        f"direction: {dual.direction}",
        f"dual_path: {dual.path}",
        f"absorbing_index: {dual.absorbing_index}",
        f"absorbing_state: {label_str(poset.elements[dual.absorbing_index])}",
        f"nu_residual: {fmt(dual.nu_residual)}",
        f"intertwine_{'bound' if dual.path == 'closed_form' else 'residual'}: "
        f"{fmt(dual.intertwine_residual)}",
        f"clamp_magnitude: {fmt(dual.clamp_magnitude)}",
    ]
    lines = [f"# {h}" for h in header] + ["[poset]"]
    lines.append("states: " + " ".join(label_str(e) for e in poset.elements))
    for x, y in sorted(dense_cover_pairs(poset),
                       key=lambda xy: (poset.index(xy[0]), poset.index(xy[1]))):
        lines.append(f"cover: {label_str(x)} {label_str(y)}")
    lines += ["", "[chain]"]
    for row in dual.P_star:
        lines.append("row: " + " ".join(fmt(v) for v in row))
    lines.append("nu: " + " ".join(fmt(v) for v in dual.nu_star))
    return "\n".join(lines) + "\n"


class TestSerializeNonzeros:
    """``serialize_dual`` formats only the nonzeros and reads a cube's covers
    as its single-bit flips; the text is the one every entry gives."""

    @pytest.mark.parametrize("d", range(1, 6))
    def test_cube_covers_are_single_bit_flips(self, d):
        p = md.cube_poset(d)
        assert cover_pairs(p) == dense_cover_pairs(p)

    @pytest.mark.parametrize("d", range(2, 11))
    @pytest.mark.parametrize("raw", [False, True])
    def test_walk_duals_match_every_entry_text(self, raw_dual, d, raw):
        rng = np.random.default_rng([d, 5])
        alpha, beta = 0.25 / d * rng.uniform(0.7, 1.3, (2, d))
        nu = np.zeros(2**d)
        nu[0] = 1.0
        c = md.nearest_neighbor_walk(
            md.CubeWalkParams(d=d, alpha=tuple(alpha), beta=tuple(beta)), nu=nu
        )
        build = raw_dual if raw else md.build_ssd
        dual = build(c, md.stationary(c), md.zeta_mobius(c.poset))
        assert serialize_dual(dual, c.poset) == serialize_dual_every_entry(dual, c.poset)

    @pytest.mark.parametrize("name", ["two_cube", "four_cube", "three_cube"])
    def test_fixture_duals_match_every_entry_text(self, raw_dual, name):
        loaded = load_model(os.path.join(DATA, f"{name}.spec"))
        c = md.nearest_neighbor_walk(loaded.cube).with_nu(
            np.eye(2**loaded.cube.d)[0])
        dual = raw_dual(c, md.stationary(c), md.zeta_mobius(c.poset))
        assert serialize_dual(dual, c.poset) == serialize_dual_every_entry(dual, c.poset)

    @pytest.mark.parametrize("make", [
        lambda: md.cube_poset(6),
        lambda: md.build_poset(["a", "b", "c", "d"],
                               [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    ], ids=["cube", "diamond"])
    def test_poset_text_formats_each_label_once(self, monkeypatch, make):
        p = make()
        lines = ["# h", "[poset]", "states: " + " ".join(label_str(e) for e in p.elements)]
        for x, y in sorted(dense_cover_pairs(p), key=lambda xy: (p.index(xy[0]), p.index(xy[1]))):
            lines.append(f"cover: {label_str(x)} {label_str(y)}")
        calls = []
        monkeypatch.setattr(specfile, "label_str", lambda e: calls.append(e) or label_str(e))
        assert serialize_poset(p, header=["h"]) == "\n".join(lines) + "\n"
        assert calls == list(p.elements)

    @pytest.mark.parametrize("rows", [
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.5], [0.25, 0.0, 0.75], [0.0, 0.0, 0.0]],
        [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.125, 0.0]],
        [[0.5, 0.25, 0.25], [1e-300, 1.0, 3.0], [0.0, 0.0, 1.0]],
        [[-0.0, 0.0, -0.0], [0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]],
    ], ids=["all_zero", "ends_in_nonzero", "ends_in_zeros", "dense", "signed_zeros"])
    def test_zero_runs_give_the_every_entry_text(self, rows):
        p = md.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        dual = DualChain(nu_star=np.array([0.25, 0.75, 0.0]), P_star=np.array(rows),
                         absorbing_index=2, direction="down")
        assert serialize_dual(dual, p) == serialize_dual_every_entry(dual, p)

    @pytest.mark.parametrize("name", ["two_cube", "four_cube"])
    def test_golden_dual_rows_are_written_back_byte_for_byte(self, name):
        path = os.path.join(DATA, "golden", f"{name}.dual.spec")
        text = open(path, encoding="utf-8").read()
        rows = [line for line in text.splitlines() if line.startswith("row: ")]
        again = serialize_chain(load_model(path).chain).splitlines()
        assert [line for line in again if line.startswith("row: ")] == rows

    def test_signed_zeros_keep_their_sign(self):
        p = md.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        P = np.array([[0.5, -0.0, 0.5], [0.0, 1.0, -0.0], [1e-300, 0.25, 0.75]])
        dual = DualChain(nu_star=np.array([-0.0, 1.0, 0.0]), P_star=P,
                         absorbing_index=1, direction="down")
        text = serialize_dual(dual, p)
        assert text == serialize_dual_every_entry(dual, p)
        assert "row: 0.5 -0 0.5\n" in text and "nu: -0 1 0\n" in text


def loaded_facts(path):
    """What ``load_model`` makes of ``path``, in comparable form: the
    model's text and exact entries, or the error it raises."""
    try:
        loaded = load_model(path)
    except SchemaError as exc:
        return type(exc), str(exc), exc.line
    except MobiusDualError as exc:
        return type(exc), str(exc)
    model = getattr(loaded, loaded.kind)
    if loaded.kind == "chain":
        model = (serialize_chain(model), model.exact, loaded.states_order)
    elif loaded.kind == "rates":
        model = (model.d, model.psi.tolist(), model.phi.tolist(),
                 loaded.rates_single_moves)
    return loaded.kind, model, loaded.nu_token, loaded.exact_nu


class TestLineBreaks:
    """A spec line ends at \\n, \\r\\n or \\r, and nowhere else."""

    @pytest.mark.parametrize("mark", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028",
                                      "\u2029"])
    def test_other_breaks_stay_inside_a_comment(self, tmp_path, mark):
        text = open(os.path.join(DATA, "strong_not_mobius.spec"),
                    encoding="utf-8").read()
        path = write(tmp_path, "m.spec", f"# one{mark}two\n" + text)
        assert loaded_facts(path) == loaded_facts(
            os.path.join(DATA, "strong_not_mobius.spec"))
        loaded = load_model_text(f"# one{mark}two\n" + text)
        assert loaded.kind == "chain"

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n", b"\n"])
    def test_bad_byte_line_counts_every_newline(self, tmp_path, newline):
        path = tmp_path / "bad.spec"
        path.write_bytes(newline.join([b"[poset]", b"states: a b", b"\xe9", b""]))
        with pytest.raises(SchemaError) as exc:
            load_model(str(path))
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: byte 0xe9 is not UTF-8"

    @pytest.mark.parametrize("name", sorted(
        n for n in os.listdir(DATA) if n.endswith(".spec")))
    def test_crlf_copy_loads_as_the_original(self, tmp_path, name):
        original = os.path.join(DATA, name)
        with open(original, "rb") as fh:
            data = fh.read()
        assert b"\r" not in data
        copy = tmp_path / name
        copy.write_bytes(data.replace(b"\n", b"\r\n"))
        assert loaded_facts(str(copy)) == loaded_facts(original)


# One spec per section that loads, each line a key that the section takes.
SECTIONS = {
    "poset": "[poset]\nstates: a b\ncover: a b\n",
    "chain": "[chain]\nposet_file: p.spec\nrow: 0.7 0.3\nrow: 0.4 0.6\n"
             "nu: delta_min\n",
    "cube": "[cube]\nd: 2\nalpha: 0.1 0.1\nbeta: 0.1 0.1\nnu: delta_min\n",
    "rates": "[rates]\nd: 2\nmoves: single\npsi: power 0.5\nphi: power 2\n",
    "sweep": "[sweep]\nd: 3\nalpha: 0.04 0.05 2\nbeta: 0.04 0.05 2\n"
             "kappa: 0 0.02 2\n",
}
SINGLE_KEYS = {
    "poset": ("states",),
    "chain": ("nu", "poset_file"),
    "cube": ("d", "alpha", "beta", "nu"),
    "rates": ("d", "moves", "psi", "phi"),
    "sweep": ("d", "alpha", "beta", "kappa"),
}


def load_section(tmp_path, section, text):
    """Load ``text`` as the spec of ``section``; a chain's poset_file is
    ``p.spec`` beside it."""
    write(tmp_path, "p.spec", SECTIONS["poset"])
    path = write(tmp_path, "s.spec", text)
    if section == "sweep":
        return specfile.parse_sweep(path)
    return load_model(path)


class TestKeyRule:
    """Each key at most once per section, except cover, row and one
    psi[mask]/phi[mask] per mask; anything else is refused at its line."""

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_every_section_spec_loads(self, tmp_path, section):
        load_section(tmp_path, section, SECTIONS[section])

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in SINGLE_KEYS.items() for key in keys
    ])
    def test_second_line_of_a_single_key(self, tmp_path, section, key):
        lines = SECTIONS[section].splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(f"{key}:"))
        lines.insert(at + 1, lines[at])
        with pytest.raises(SchemaError) as exc:
            load_section(tmp_path, section, "\n".join(lines) + "\n")
        assert exc.value.line == at + 2 and exc.value.field == key
        assert str(exc.value) == f"line {at + 2}: repeated key {key!r} in [{section}]"

    @pytest.mark.parametrize("section, line", [
        ("cube", "alpha[0]: 0.5"),
        ("cube", "nu[1]: 3"),
        ("chain", "row[7]: 1 0"),
        ("poset", "states[2]: c"),
        ("rates", "d[1]: 2"),
        ("rates", "psi[1: 2"),
        ("sweep", "d[1]: 2"),
    ])
    def test_subscript_outside_psi_phi_is_unknown(self, tmp_path, section, line):
        text = SECTIONS[section] + line + "\n"
        key = line.split(":")[0]
        with pytest.raises(SchemaError) as exc:
            load_section(tmp_path, section, text)
        assert exc.value.line == text.count("\n") and exc.value.field == key
        assert f"unknown key {key!r} in [{section}]" in str(exc.value)

    @pytest.mark.parametrize("first, second", [
        ("psi[3]", "psi[0b11]"), ("phi[1]", "phi[1]"), ("psi[0x2]", "psi[2]"),
    ])
    def test_one_line_per_mask(self, tmp_path, first, second):
        text = SECTIONS["rates"] + f"{first}: 1\n{second}: 7\n"
        with pytest.raises(SchemaError) as exc:
            load_section(tmp_path, "rates", text)
        assert exc.value.line == 7 and exc.value.field == second
        assert "repeated key" in str(exc.value)

    def test_bad_mask_is_refused_at_its_line(self, tmp_path):
        text = SECTIONS["rates"] + "psi[x]: 1\n"
        with pytest.raises(SchemaError, match="bad subset mask 'x'") as exc:
            load_section(tmp_path, "rates", text)
        assert exc.value.line == 6 and exc.value.field == "psi[x]"

    def test_distinct_masks_load(self, tmp_path):
        text = SECTIONS["rates"] + "psi[1]: 0.25\npsi[0b10]: 0.125\nphi[1]: 3\n"
        rates = load_section(tmp_path, "rates", text).rates
        assert rates.psi.tolist() == [1.0, 0.25, 0.125, 0.25]
        assert rates.phi.tolist() == [1.0, 3.0, 2.0, 4.0]

    def test_pernode_count_is_refused_at_its_line(self, tmp_path):
        text = "[rates]\nd: 2\npsi: pernode 0.1\nphi: power 2\n"
        with pytest.raises(SchemaError) as exc:
            load_section(tmp_path, "rates", text)
        assert exc.value.line == 3 and exc.value.field == "psi"
        assert str(exc.value) == "line 3: pernode needs 2 values, got 1"


class TestChainOrder:
    def test_rows_and_nu_are_permuted_by_label(self):
        # states listed against the enumeration order; every entry must land
        # at the positions of its labels
        states = ["d", "b", "a", "c"]
        rows = [[Fraction(10 * i + j + 1, 1000) for j in range(4)] for i in range(4)]
        rows = [row[:-1] + [1 - sum(row[:-1])] for row in rows]
        nu = [Fraction(k + 1, 10) for k in range(4)]
        text = ("[poset]\nstates: " + " ".join(states) + "\ncover: a b\n"
                "cover: a c\ncover: b d\ncover: c d\n\n[chain]\n"
                + "".join("row: " + " ".join(map(str, row)) + "\n" for row in rows)
                + "nu: " + " ".join(map(str, nu)) + "\n")
        loaded = load_model_text(text)
        c, index = loaded.chain, loaded.poset.index
        for i, x in enumerate(states):
            assert loaded.exact_nu[index(x)] == nu[i]
            assert c.nu[index(x)] == float(nu[i])
            for j, y in enumerate(states):
                assert c.exact[index(x)][index(y)] == rows[i][j]
                assert c.P[index(x), index(y)] == float(rows[i][j])
        assert all(type(row) is tuple for row in c.exact)
        assert type(loaded.exact_nu) is tuple


def test_sweep_refusal_names_the_crossing_line_in_file_order(tmp_path):
    # alphabetically, alpha x beta stays small and kappa (line 2) crosses;
    # in file order kappa x beta crosses at the beta line
    path = write(tmp_path, "s.sweep", "[sweep]\nkappa: 0 0.02 1001\n"
                 "beta: 0.04 0.05 1000\nalpha: 0.04 0.05 2\nd: 3\n")
    with pytest.raises(DimensionTooLarge) as exc:
        specfile.parse_sweep(path)
    assert exc.value.line == 3


def test_dual_header_names_the_closed_form_certificate_a_bound():
    c = md.nearest_neighbor_walk(CubeWalkParams(d=2, alpha=(0.1, 0.2), beta=(0.15, 0.05)),
                                 nu=np.eye(4)[0])
    closed = md.build_ssd(c, md.stationary(c), c.poset)
    dense = Chain(poset=c.poset, P=c.P, nu=c.nu)   # the kernel without its rates
    transform = md.build_ssd(dense, md.stationary(dense), c.poset)
    assert (closed.path, transform.path) == ("closed_form", "transform")
    assert specfile.dual_header(closed, c.poset)[5] == (
        f"intertwine_bound: {specfile.fmt(closed.intertwine_residual)}")
    assert specfile.dual_header(transform, c.poset)[5] == (
        f"intertwine_residual: {specfile.fmt(transform.intertwine_residual)}")
