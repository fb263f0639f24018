import ast
import glob
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mobiusdual import build_poset, cube_poset, meet_join, zeta_mobius
from mobiusdual.errors import (
    CycleError,
    DimensionTooLarge,
    DuplicateLabel,
    UnknownState,
)
from mobiusdual import poset as poset_module
from mobiusdual.poset import Poset, cube_bits

def leq_labels(p, x, y):
    return bool(p.leq[p.index(x), p.index(y)])


def is_total_order(p):
    return bool((p.leq | p.leq.T).all())


DIAMOND_RELATIONS = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]


def diamond():
    return build_poset(["a", "b", "c", "d"], DIAMOND_RELATIONS)


def random_poset(m, rng, density=0.3):
    labels = [f"s{i}" for i in range(m)]
    rels = [
        (labels[i], labels[j])
        for i in range(m)
        for j in range(i + 1, m)
        if rng.random() < density
    ]
    return build_poset(labels, rels)


def topological_order_loop(rel, m):
    """Reference: the sort as one scan per placement, each state's strict
    predecessors read afresh from the relation."""
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


class TestBuildPoset:
    def test_singleton(self):
        p = build_poset(["a"], [])
        zm = zeta_mobius(p)
        assert p.elements == ("a",)
        assert zm.C.tolist() == [[1]]
        assert zm.Cinv.tolist() == [[1]]

    def test_diamond_enumeration(self):
        p = diamond()
        assert p.elements == ("a", "b", "c", "d")
        assert leq_labels(p, "a", "d")
        assert not leq_labels(p, "b", "c")

    def test_cycle_is_rejected_with_witness(self):
        with pytest.raises(CycleError) as exc:
            build_poset(["a", "b"], [("a", "b"), ("b", "a")])
        assert set(exc.value.witness) == {"a", "b"}

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            build_poset(["a", "a"], [])

    def test_unknown_relation_endpoint(self):
        with pytest.raises(UnknownState):
            build_poset(["a"], [("a", "z")])

    def test_transitive_closure_is_taken(self):
        p = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
        assert leq_labels(p, "x", "z")

    def test_ties_broken_by_input_order(self):
        p = build_poset(["q", "m", "z"], [])
        assert p.elements == ("q", "m", "z")

    @pytest.mark.parametrize("density", [0.01, 0.05, 0.3])
    @pytest.mark.parametrize("m", [18, 32, 100, 300])
    def test_topological_order_matches_the_loop(self, m, density):
        # a random order on the labels, not their input order, so that the
        # sort moves states and breaks ties among the incomparable ones
        rng = np.random.default_rng([m, int(100 * density)])
        rank = rng.permutation(m)
        rel = (rank[:, None] < rank[None, :]) & (rng.random((m, m)) < density)
        closure = poset_module._transitive_closure(rel)
        order = poset_module._topological_order(closure, m)
        assert order == topological_order_loop(closure, m)
        assert sorted(order) == list(range(m))


class TestZetaMobius:
    def test_two_cube_matrices(self):
        # hand-checked 4x4 zeta and Mobius matrices of the 2-cube
        zm = zeta_mobius(cube_poset(2))
        assert zm.C.tolist() == [
            [1, 1, 1, 1],
            [0, 1, 0, 1],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
        ]
        assert zm.Cinv.tolist() == [
            [1, -1, -1, 1],
            [0, 1, 0, -1],
            [0, 0, 1, -1],
            [0, 0, 0, 1],
        ]

    def test_linear_order_mobius_is_banded(self):
        m = 7
        p = build_poset(list(range(m)), [(i, i + 1) for i in range(m - 1)])
        zm = zeta_mobius(p)
        expected = np.eye(m, dtype=np.int64)
        for k in range(m - 1):
            expected[k, k + 1] = -1
        assert (zm.Cinv == expected).all()

    @pytest.mark.parametrize("d", range(1, 7))
    def test_cube_mobius_closed_form(self, d):
        p = cube_poset(d)
        zm = zeta_mobius(p)
        m = p.size
        closed = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            for j in range(m):
                if p.leq[i, j]:
                    closed[i, j] = (-1) ** (
                        sum(p.elements[j]) - sum(p.elements[i])
                    )
        assert (zm.Cinv == closed).all()

    @pytest.mark.parametrize("d", range(1, 9))
    def test_cube_kronecker_matches_general_inversion(self, d):
        # the same relation without cube_dim takes the back-substitution path
        p = cube_poset(d)
        general = zeta_mobius(Poset(p.elements, p.leq))
        zm = zeta_mobius(p)
        assert zm.Cinv.dtype == general.Cinv.dtype
        assert (zm.C == general.C).all()
        assert (zm.Cinv == general.Cinv).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_inverse_on_random_posets(self, seed):
        rng = np.random.default_rng(seed)
        p = random_poset(int(rng.integers(2, 13)), rng)
        zm = zeta_mobius(p)
        m = p.size
        eye = np.eye(m, dtype=np.int64)
        assert (zm.C @ zm.Cinv == eye).all()
        assert (zm.Cinv @ zm.C == eye).all()
        # zeta structure under the stored enumeration
        assert set(np.unique(zm.C)) <= {0, 1}
        assert (np.diag(zm.C) == 1).all()
        assert (np.tril(zm.C, -1) == 0).all()
        # mu vanishes off the order relation
        assert (zm.Cinv[~p.leq] == 0).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_enumeration_is_linear_extension(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = random_poset(10, rng)
        i, j = np.nonzero(p.leq)
        assert (i <= j).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_float_and_exact_inversions_agree(self, seed):
        from mobiusdual.poset import _invert_unitriangular

        rng = np.random.default_rng(700 + seed)
        p = random_poset(12, rng, density=0.4)
        c = p.leq.astype(np.int64)
        fast = np.rint(_invert_unitriangular(c, np.float64)).astype(np.int64)
        assert (fast == _invert_unitriangular(c, object).astype(np.int64)).all()

    @pytest.mark.parametrize("m", [40, 260])
    def test_float_loop_equals_integer_loop(self, m):
        # m = 260 is past one 256-row block of the former blocked inversion;
        # the inverse's entries stay below 2**33, so the float loop is exact
        from mobiusdual.poset import _invert_unitriangular

        rng = np.random.default_rng(13 + m)
        mat = np.triu((rng.random((m, m)) < 0.3).astype(np.int64), 1)
        mat += np.eye(m, dtype=np.int64)
        exact = _invert_unitriangular(mat, object)
        inv = _invert_unitriangular(mat, np.float64)
        assert (inv == exact.astype(np.float64)).all()
        assert not (mat.astype(object) @ exact - np.eye(m, dtype=np.int64)).any()


class TestOrientedPair:
    def test_down_is_the_pair_and_up_its_transpose(self):
        zm = zeta_mobius(diamond())
        assert zm.size == 4
        assert np.array_equal(zm.zeta("down"), zm.C)
        assert np.array_equal(zm.mobius("down"), zm.Cinv)
        assert np.array_equal(zm.zeta("up"), zm.C.T)
        assert np.array_equal(zm.mobius("up"), zm.Cinv.T)
        for direction in ("down", "up"):
            assert np.array_equal(zm.zeta(direction) @ zm.mobius(direction), np.eye(4))

    def test_cast_on_each_call(self):
        zm = zeta_mobius(cube_poset(2))
        assert zm.zeta("down").dtype == np.float64
        assert zm.C.dtype == np.int64
        assert zm.zeta("down") is not zm.zeta("down")
        exact = zm.mobius("up", object)
        assert exact.dtype == object and type(exact[0, 0]) is int
        zm.zeta("down")[0, 0] = 7.0          # a copy, not the stored pair
        assert zm.C[0, 0] == 1

    def test_unknown_direction(self):
        zm = zeta_mobius(diamond())
        for accessor in (zm.zeta, zm.mobius):
            with pytest.raises(ValueError, match="direction must be"):
                accessor("sideways")

    def test_only_poset_reads_the_dense_pair(self):
        # every other module reads the pair through zeta()/mobius(), so a
        # structured transform can replace the dense matrices in one place
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mobiusdual")
        readers = []
        for path in sorted(glob.glob(os.path.join(src, "*.py"))):
            if os.path.basename(path) == "poset.py":
                continue
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            readers += [
                f"{os.path.basename(path)}:{node.lineno} .{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("C", "Cinv")
            ]
        assert len(glob.glob(os.path.join(src, "*.py"))) > 1
        assert readers == []

    def test_no_module_branches_on_memory_order(self):
        # the library builds its arrays row-major, so no kernel reads a
        # layout flag or makes a Fortran-ordered copy: the layout is decided
        # where an array is built
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mobiusdual")
        paths = sorted(glob.glob(os.path.join(src, "*.py")))
        readers = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            readers += [
                f"{os.path.basename(path)}:{node.lineno} .{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in ("c_contiguous", "f_contiguous", "asfortranarray",
                                  "isfortran")
            ]
        assert len(paths) > 1
        assert readers == []


class TestLazyPair:
    """The poset carries its pair: zeta_mobius returns it, and C and Cinv
    are built on first read, as is a cube's relation."""

    @pytest.mark.parametrize("make", [diamond, lambda: cube_poset(3)])
    def test_zeta_mobius_is_the_poset(self, make):
        p = make()
        assert zeta_mobius(p) is p

    def test_cube_pair_builds_nothing(self):
        p = cube_poset(12)
        zm = zeta_mobius(p)
        assert zm.size == 4096
        ones = np.ones(zm.size)
        assert zm.mobius_left(zm.zeta_left(ones, "down"), "down").tolist() == ones.tolist()
        assert {"leq", "C", "Cinv"}.isdisjoint(vars(zm))

    @pytest.mark.parametrize("make", [diamond, lambda: cube_poset(3)])
    def test_read_once_and_kept_read_only(self, make):
        zm = zeta_mobius(make())
        stored = {"elements", "_index", "cube_dim"}
        assert vars(zm).keys() == (stored if zm.cube_dim else stored | {"leq"})
        c, cinv = zm.C, zm.Cinv
        assert {"C", "Cinv"} <= vars(zm).keys()
        assert zm.C is c and zm.Cinv is cinv
        assert c.dtype == cinv.dtype == np.int64
        assert not c.flags.writeable and not cinv.flags.writeable
        assert (c @ cinv == np.eye(zm.size, dtype=np.int64)).all()

    def test_general_actions_read_the_pair(self):
        zm = zeta_mobius(diamond())
        zm.zeta_right(np.ones(4), "up")
        assert "C" in vars(zm) and "Cinv" not in vars(zm)
        zm.mobius_left(np.ones(4), "down")
        assert "Cinv" in vars(zm)


class TestLazyCubeRelation:
    """A cube stores its labels, index and dimension; its relation is the
    Kronecker power of [[1,1],[0,1]], built on first read."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_relation_is_the_kronecker_power_and_a_linear_extension(self, d):
        p = cube_poset(d)
        assert "leq" not in vars(p)
        leq = p.leq
        assert p.leq is leq and not leq.flags.writeable
        one = np.array([[True, True], [False, True]])
        kron = one
        for _ in range(d - 1):
            kron = np.kron(kron, one)
        assert leq.dtype == bool and np.array_equal(leq, kron)
        masks = np.arange(2**d)
        assert np.array_equal(leq, (masks[:, None] & masks[None, :]) == masks[:, None])
        assert not np.tril(leq, -1).any()

    def test_twelve_cube_allocates_no_relation(self):
        tracemalloc.start()
        try:
            cube_poset(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20       # the relation alone is 16 MiB

ACTIONS = ("zeta_left", "zeta_right", "mobius_left", "mobius_right")


def dense_action(zm, name, x, direction, dtype=float):
    """The action ``name`` as a product with the dense oriented matrix."""
    kind, side = name.split("_")
    mat = getattr(zm, kind)(direction, dtype)
    return mat @ x if side == "left" else x @ mat


def per_bit_oracle(zm, name, x, direction, dtype=float):
    """The action ``name`` on a cube as one Yates pass per bit over the
    whole array, bit 0 first: the arithmetic that the blocked passes must
    reproduce bit for bit."""
    kind, side = name.split("_")
    supersets = (side == "left") == (direction == "down")
    out = np.array(x, dtype=dtype)
    axis = 0 if side == "left" else out.ndim - 1
    head, tail = out.shape[:axis], out.shape[axis + 1:]
    at = (slice(None),) * (axis + 1)
    for i in range(zm.cube_dim):
        v = out.reshape(head + (zm.size >> (i + 1), 2, 1 << i) + tail)
        lo, hi = v[at + (0,)], v[at + (1,)]
        dst, src = (lo, hi) if supersets else (hi, lo)
        if kind == "zeta":
            dst += src
        else:
            dst -= src
    return out


def acted_inputs(m, name, rng, dtype=float):
    """1-D, (m, k) or (k, m) blocks in C and Fortran order, with k past one
    panel width and not a multiple of it."""
    k = 3 * max(1, poset_module.PANEL // m) // 2 + 3
    block = rng.standard_normal((m, k) if name.endswith("left") else (k, m))
    if dtype is not float:
        block = np.rint(8 * block).astype(dtype)
    return block[:, 0] if name.endswith("left") else block[0], block, np.asfortranarray(block)


def assert_same_action(got, want):
    """The oracle's values, bit for bit, in a C-ordered array whatever the
    input's layout."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


class TestBlockedButterflies:
    """The cube actions run their passes on cache-sized blocks; every entry
    is the per-bit oracle's, bit for bit."""

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", ACTIONS)
    @pytest.mark.parametrize("d", range(1, 12))
    def test_blocks_and_vectors_match_the_oracle(self, d, name, direction):
        zm = cube_poset(d)
        rng = np.random.default_rng([d, 7])
        for x in acted_inputs(zm.size, name, rng):
            before = x.copy()
            got = getattr(zm, name)(x, direction)
            assert_same_action(got, per_bit_oracle(zm, name, x, direction))
            assert np.array_equal(x, before)

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", ACTIONS)
    @pytest.mark.parametrize("d", [1, 4, 7, 10])
    def test_square_kernels_in_both_orders(self, d, name, direction):
        zm = cube_poset(d)
        x = np.random.default_rng(d).random((zm.size, zm.size))
        for arg in (x, np.asfortranarray(x)):
            got = getattr(zm, name)(arg, direction)
            assert_same_action(got, per_bit_oracle(zm, name, arg, direction))

    @pytest.mark.parametrize("panel", [16, 48, 2**10])
    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", ACTIONS)
    def test_many_partial_panels(self, monkeypatch, panel, name, direction):
        # small panels split a 6-cube's kernel into many blocks, the last
        # of them partial, and leave bits for the whole-array passes
        monkeypatch.setattr(poset_module, "PANEL", panel)
        zm = cube_poset(6)
        rng = np.random.default_rng(panel)
        for x in (*acted_inputs(zm.size, name, rng), rng.random((64, 64))):
            for arg in (x, np.asfortranarray(x)):
                got = getattr(zm, name)(arg, direction)
                assert_same_action(got, per_bit_oracle(zm, name, arg, direction))

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", ACTIONS)
    @pytest.mark.parametrize("d", [1, 5, 9])
    def test_int64_inputs(self, d, name, direction):
        zm = cube_poset(d)
        rng = np.random.default_rng([d, 64])
        for x in acted_inputs(zm.size, name, rng, np.int64):
            got = getattr(zm, name)(x, direction, np.int64)
            assert_same_action(got, per_bit_oracle(zm, name, x, direction, np.int64))

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", ACTIONS)
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_fraction_inputs(self, monkeypatch, d, name, direction):
        monkeypatch.setattr(poset_module, "PANEL", 64)
        zm = cube_poset(d)
        rng = np.random.default_rng([d, 3])
        num, den = rng.integers(-9, 10, (zm.size, 5)), rng.integers(1, 7, (zm.size, 5))
        x = np.array([[Fraction(int(a), int(b)) for a, b in zip(*rows)]
                      for rows in zip(num, den)], dtype=object)
        if name.endswith("right"):
            x = x.T.copy()
        for arg in (x, np.asfortranarray(x)):
            before = arg.copy()
            got = getattr(zm, name)(arg, direction, object)
            assert_same_action(got, per_bit_oracle(zm, name, arg, direction, object))
            assert all(type(v) is Fraction for v in got.ravel())
            assert np.array_equal(arg, before)

    @pytest.mark.parametrize("name", ACTIONS)
    def test_three_axes_in_any_memory_order(self, name):
        zm = cube_poset(5)
        rng = np.random.default_rng(3)
        if name.endswith("left"):
            x = rng.random((32, 2, 3))
            mixed = rng.random((2, 32, 3)).transpose(1, 0, 2)
        else:
            x = rng.random((2, 3, 32))
            mixed = rng.random((3, 2, 32)).transpose(1, 0, 2)
        copied = np.array(mixed)
        assert not (copied.flags.c_contiguous or copied.flags.f_contiguous)
        for arg in (x, np.asfortranarray(x), mixed):
            got = getattr(zm, name)(arg, "down")
            assert np.array_equal(got, per_bit_oracle(zm, name, arg, "down"))


class TestActions:
    """zeta/Mobius actions: butterflies on cubes, dense products elsewhere."""

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", ACTIONS)
    @pytest.mark.parametrize("d", [1, 2, 3, 6, 10])
    def test_cube_butterflies_match_dense_matrices(self, d, name, direction):
        zm = zeta_mobius(cube_poset(d))
        assert zm.cube_dim == d
        m = zm.size
        rng = np.random.default_rng(d)
        block = rng.standard_normal((m, 3) if name.endswith("left") else (3, m))
        for x in (rng.standard_normal(m), block):
            got = getattr(zm, name)(x, direction)
            want = dense_action(zm, name, x, direction)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", ACTIONS)
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cube_butterflies_are_exact_over_fractions(self, d, name, direction):
        zm = zeta_mobius(cube_poset(d))
        m = zm.size
        rng = np.random.default_rng(100 + d)
        num, den = rng.integers(-9, 10, (m, m)), rng.integers(1, 7, (m, m))
        x = np.array(
            [[Fraction(int(a), int(b)) for a, b in zip(*rows)] for rows in zip(num, den)],
            dtype=object,
        )
        got = getattr(zm, name)(x, direction, object)
        assert got.dtype == object
        assert (got == dense_action(zm, name, x, direction, object)).all()
        assert all(type(v) is Fraction for v in got.ravel())

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", ACTIONS)
    def test_integer_actions_stay_integer(self, name, direction):
        zm = zeta_mobius(cube_poset(5))
        ones = np.ones(zm.size, dtype=np.int64)
        got = getattr(zm, name)(ones, direction, np.int64)
        assert got.dtype == np.int64
        assert (got == dense_action(zm, name, ones, direction, np.int64)).all()

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", ACTIONS)
    def test_general_posets_keep_the_dense_products(self, name, direction):
        rng = np.random.default_rng(8)
        for p in (diamond(), random_poset(12, rng)):
            zm = zeta_mobius(p)
            assert zm.cube_dim is None
            x = rng.random((p.size, p.size))
            for arg in (x, x[0]):
                got = getattr(zm, name)(arg, direction)
                assert np.array_equal(got, dense_action(zm, name, arg, direction))

    def test_input_is_not_modified(self):
        zm = zeta_mobius(cube_poset(4))
        x = np.random.default_rng(1).random((16, 16))
        before = x.copy()
        for name in ACTIONS:
            getattr(zm, name)(x, "down")
        assert np.array_equal(x, before)

    def test_unknown_direction_on_a_cube(self):
        zm = zeta_mobius(cube_poset(2))
        for name in ACTIONS:
            with pytest.raises(ValueError, match="direction must be"):
                getattr(zm, name)(np.ones(4), "sideways")


class TestCubePoset:
    def test_d1_is_a_chain(self):
        p = cube_poset(1)
        assert p.elements == ((0,), (1,))
        assert is_total_order(p)

    def test_d2_enumeration_weight_then_value(self):
        assert cube_poset(2).elements == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_d3_enumeration_by_bitmask(self):
        assert cube_poset(3).elements == (
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
            (1, 1, 1),
        )

    @pytest.mark.parametrize("d", range(1, 9))
    def test_state_index_is_the_bitmask(self, d):
        p = cube_poset(d)
        k = np.arange(2**d)
        assert (p.leq == ((k[:, None] & k[None, :]) == k[:, None])).all()
        bits = cube_bits(d)
        assert bits.shape == (2**d, d)
        assert [tuple(row) for row in bits.tolist()] == list(p.elements)
        assert (bits @ (1 << np.arange(d)) == k).all()

    @pytest.mark.parametrize("d", [1, 4, 13])
    def test_built_once_per_dimension(self, d):
        p = cube_poset(d)
        assert cube_poset(d) is p
        assert cube_poset(d % 13 + 1) is not p

    def test_a_refused_dimension_raises_on_every_call(self):
        for d in (0, 14, 0, 14):
            with pytest.raises(DimensionTooLarge):
                cube_poset(d)

    def test_dimension_guards(self):
        with pytest.raises(DimensionTooLarge):
            cube_poset(0)
        with pytest.raises(DimensionTooLarge):
            cube_poset(14)
        with pytest.raises(DimensionTooLarge):
            cube_poset(21)


class TestUpDownSets:
    """Up sets as ``strictly_above`` reads them: the masks on a cube, the
    relation elsewhere."""

    def test_diamond_up_sets(self):
        p = diamond()

        def above(e):
            return {p.elements[j] for j in np.flatnonzero(p.strictly_above(p.index(e)))}

        assert above("a") == {"b", "c", "d"}
        assert above("b") == {"d"}
        assert above("d") == set()

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            diamond().index("zz")

    @pytest.mark.parametrize("seed", range(3))
    def test_monotone_nesting(self, seed):
        rng = np.random.default_rng(200 + seed)
        cube = cube_poset(4)
        for p in (random_poset(9, rng), cube, Poset(cube.elements, cube.leq)):
            for i in range(p.size):
                up = p.strictly_above(i)
                assert np.array_equal(up, p.leq[i] & (np.arange(p.size) != i))
                for j in np.flatnonzero(up):
                    assert not (p.strictly_above(j) & ~up).any()


class TestLattice:
    def test_two_cube_meet_join(self):
        p = cube_poset(2)
        meet, join = meet_join(p, (1, 0), (0, 1))
        assert meet == (0, 0)
        assert join == (1, 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cube_is_lattice(self, d):
        # the mask path agrees with the general one, which finds both sides
        p = cube_poset(d)
        general = Poset(p.elements, p.leq)
        for x in p.elements:
            for y in p.elements:
                meet, join = meet_join(p, x, y)
                assert None not in (meet, join)
                assert (meet, join) == meet_join(general, x, y)

    def test_cube_meet_join_agrees_with_bitwise(self):
        p = cube_poset(3)
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = tuple(rng.integers(0, 2, size=3).tolist())
            y = tuple(rng.integers(0, 2, size=3).tolist())
            meet, join = meet_join(p, x, y)
            assert meet == tuple(a & b for a, b in zip(x, y))
            assert join == tuple(a | b for a, b in zip(x, y))

    def test_fence_is_not_a_lattice(self):
        p = build_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])
        # independent exhaustive-bound oracle: b and d share no upper bound
        uppers_b = {e for e in p.elements if leq_labels(p, "b", e)}
        uppers_d = {e for e in p.elements if leq_labels(p, "d", e)}
        assert not (uppers_b & uppers_d)
        assert meet_join(p, "b", "d")[1] is None

    def test_missing_meet_encoded_as_none(self):
        p = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
        meet, join = meet_join(p, "a", "b")
        assert meet is None
        assert join == "c"
