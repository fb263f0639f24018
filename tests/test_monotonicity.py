import functools
import json
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from mobiusdual import (
    Chain,
    CubeWalkParams,
    build_link,
    build_poset,
    build_ssd,
    cube_poset,
    function_mobius_monotone,
    mobius_monotone_down,
    mobius_monotone_up,
    nearest_neighbor_walk,
    reverse,
    stationary,
    strong_stochastic_monotone,
    validate_chain,
    weak_monotone,
    zeta_mobius,
)
from mobiusdual import monotonicity
from mobiusdual.chain import BALANCE_TOL
from mobiusdual.errors import UpSetExplosion
from mobiusdual.monotonicity import (
    MONO_TOL,
    UPSET_BYTES,
    _exact_margin,
    _ray_minimum,
    _report,
    _rerun_exactly,
    enumerate_up_sets,
    mobius_transform,
    transform_report,
)
from mobiusdual.poset import Poset
from mobiusdual.specfile import load_model, load_model_text

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")


def exact_fractions(rows):
    """Normalize a nested sequence into a tuple-of-tuples of Fractions."""
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


# strongly stochastically monotone on the 2-cube yet Mobius monotone in
# neither direction (seeded randomized search, frozen)
STRONG_NOT_MOBIUS_WEIGHTS = np.array([
    [7, 3, 6, 4],
    [3, 3, 3, 3],
    [5, 4, 6, 6],
    [4, 1, 5, 8],
], dtype=float)

# weak-up monotone but not Mobius-up monotone; lives on the V poset (two
# minimal elements) where the notions genuinely differ
V_WEAK_NOT_MOBIUS_WEIGHTS = np.array([
    [4, 6, 1],
    [5, 5, 2],
    [2, 1, 6],
], dtype=float)


def two_cube_chain(a1, a2, b1, b2, exact=None):
    mat = np.array([
        [1 - a1 - a2, a1, a2, 0],
        [b1, 1 - b1 - a2, 0, a2],
        [b2, 0, 1 - a1 - b2, a1],
        [0, b2, b1, 1 - b1 - b2],
    ])
    return validate_chain(mat, cube_poset(2), exact=exact)


def expected_down_transform(a1, a2, b1, b2):
    # hand-derived Cinv P C of the 2-cube walk (lower triangular)
    return np.array([
        [1 - a1 - a2 - b1 - b2, 0, 0, 0],
        [b1, 1 - a2 - b2, 0, 0],
        [b2, 0, 1 - a1 - b1, 0],
        [0, b2, b1, 1],
    ])


def expected_up_transform(a1, a2, b1, b2):
    # hand-derived (C^T)^-1 P C^T of the 2-cube walk (upper triangular)
    return np.array([
        [1, a1, a2, 0],
        [0, 1 - a1 - b1, 0, a2],
        [0, 0, 1 - a2 - b2, a1],
        [0, 0, 0, 1 - a1 - a2 - b1 - b2],
    ])


class TestMobiusKernels:
    def test_two_cube_transforms_match_hand_derivation(self):
        a1, a2, b1, b2 = 0.12, 0.2, 0.07, 0.17
        c = two_cube_chain(a1, a2, b1, b2)
        zm = zeta_mobius(c.poset)
        assert np.abs(
            mobius_transform(c.P, zm, "down") - expected_down_transform(a1, a2, b1, b2)
        ).max() < 1e-14
        assert np.abs(
            mobius_transform(c.P, zm, "up") - expected_up_transform(a1, a2, b1, b2)
        ).max() < 1e-14

    def test_admissible_walk_is_monotone_both_ways(self):
        c = two_cube_chain(0.2, 0.2, 0.2, 0.2)
        zm = zeta_mobius(c.poset)
        assert mobius_monotone_down(c, zm).verdict
        assert mobius_monotone_up(c, zm).verdict

    def test_rate_sum_above_one_fails(self):
        c = two_cube_chain(0.3, 0.3, 0.3, 0.3)
        zm = zeta_mobius(c.poset)
        rep = mobius_monotone_down(c, zm)
        assert not rep.verdict
        assert rep.worst_value == pytest.approx(1 - 1.2, abs=1e-12)
        assert not mobius_monotone_up(c, zm).verdict

    def test_identity_kernel_monotone(self):
        p = cube_poset(2)
        c = validate_chain(np.eye(4), p)
        zm = zeta_mobius(p)
        assert mobius_monotone_down(c, zm).verdict
        assert mobius_monotone_up(c, zm).verdict

    def test_witness_locates_most_negative_entry(self):
        c = two_cube_chain(0.3, 0.3, 0.3, 0.3)
        zm = zeta_mobius(c.poset)
        rep = mobius_monotone_down(c, zm)
        # worst diagonal entry of the down transform sits at the bottom state
        assert rep.witness == ((0, 0), (0, 0))

    def test_exact_rerun_at_boundary(self):
        from fractions import Fraction

        a1 = b1 = Fraction(1, 6)
        a2 = b2 = Fraction(1, 3)
        exact = exact_fractions([
            [1 - a1 - a2, a1, a2, 0],
            [b1, 1 - b1 - a2, 0, a2],
            [b2, 0, 1 - a1 - b2, a1],
            [0, b2, b1, 1 - b1 - b2],
        ])
        c = two_cube_chain(1 / 6, 1 / 3, 1 / 6, 1 / 3, exact=exact)
        zm = zeta_mobius(c.poset)
        rep = mobius_monotone_down(c, zm)
        assert rep.exact
        assert rep.verdict
        assert rep.worst_value == 0.0
        assert rep.tolerance_used == 0.0
        # a report from a given transform keeps the exact rerun
        t = mobius_transform(c.P, zm, "down")
        assert transform_report(c, zm, "down", t) == rep


def random_cube_chain(d, seed):
    rng = np.random.default_rng(seed)
    weights = rng.random((2**d, 2**d)) * (rng.random((2**d, 2**d)) < 0.3)
    weights[np.arange(2**d), np.arange(2**d)] += 1.0
    return validate_chain(weights / weights.sum(axis=1)[:, None], cube_poset(d))


class TestCubeTransforms:
    """Butterfly transforms on cubes against the dense similarity products."""

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [1, 3, 6, 10])
    def test_match_the_dense_product(self, d, direction):
        c = random_cube_chain(d, d)
        zm = zeta_mobius(c.poset)
        dense = zm.mobius(direction) @ c.P @ zm.zeta(direction)
        t = mobius_transform(c.P, zm, direction)
        assert np.abs(t - dense).max() <= 1e-13 * max(1.0, np.abs(dense).max())

    @pytest.mark.parametrize("d", [4, 8])
    def test_noise_ties_name_the_same_witness_either_way(self, d):
        # an admissible walk: a true verdict whose worst value is float noise
        c = nearest_neighbor_walk(
            CubeWalkParams(d=d, alpha=(0.3 / d,) * d, beta=(0.2 / d,) * d)
        )
        zm = zeta_mobius(c.poset)
        f = np.random.default_rng(d).random(c.size)
        for direction in ("down", "up"):
            t = mobius_transform(c.P, zm, direction)
            dense = zm.mobius(direction) @ c.P @ zm.zeta(direction)
            rep = transform_report(c, zm, direction, t)
            assert rep.verdict and abs(rep.worst_value) <= MONO_TOL
            assert rep.witness == transform_report(c, zm, direction, dense).witness
            i, j = (c.poset.index(e) for e in rep.witness)
            assert t[i, j] <= rep.worst_value + MONO_TOL
            assert (t.ravel()[: i * c.size + j] > rep.worst_value + MONO_TOL).all()
            # the weak witness is the same off the butterflies, the dense
            # product and the walk's flip rates
            weak = weak_monotone(Chain(poset=c.poset, P=c.P), zm, direction)
            a = zm.mobius_left(np.ones(c.size, dtype=np.int64), direction, np.int64)
            assert weak.witness == c.poset.elements[_ray_minimum(dense, a, MONO_TOL)[1]]
            assert weak_monotone(c, zm, direction).witness == weak.witness
            # the Mobius transform of 1 is the point mass at the extremal
            # state (the last for down, the first for up): the first zero
            flat = function_mobius_monotone(np.ones(c.size), zm, direction)
            assert flat.verdict and flat.witness == (0 if direction == "down" else 1)
            g = function_mobius_monotone(f, zm, direction)
            assert g.witness == int(np.argmin(zm.mobius(direction) @ f))


class TestFunctionMonotone:
    def test_constant_function_up_monotone(self):
        zm = zeta_mobius(cube_poset(2))
        rep = function_mobius_monotone(np.ones(4), zm, "up")
        assert rep.verdict
        # transform is the indicator of the minimal state
        assert np.allclose(rep.transformed, [1, 0, 0, 0])

    def test_counterexample_function_not_up_monotone(self):
        # f((0,1)) = f((1,0)) = f((0,0)) = -1, f((1,1)) = 0
        zm = zeta_mobius(cube_poset(2))
        f = np.array([-1.0, -1.0, -1.0, 0.0])
        rep = function_mobius_monotone(f, zm, "up")
        assert not rep.verdict
        assert rep.worst_value == pytest.approx(-1.0)

    def test_rows_of_zeta_are_up_monotone(self):
        p = cube_poset(2)
        zm = zeta_mobius(p)
        for k in range(4):
            rep = function_mobius_monotone(zm.C[k].astype(float), zm, "up")
            assert rep.verdict
            assert np.allclose(rep.transformed, np.eye(4)[k])

    def test_down_direction_uses_transposed_inverse(self):
        zm = zeta_mobius(cube_poset(2))
        g = np.array([4.0, 1.0, 1.0, 1.0])  # decreasing from the bottom
        assert function_mobius_monotone(g, zm, "down").verdict


class TestStrongStochastic:
    def test_up_set_enumeration_on_diamond(self):
        p = cube_poset(2)
        ups = enumerate_up_sets(p)
        assert ups.shape == (6, 4) and ups.dtype == bool
        assert not ups.flags.writeable
        assert [tuple(np.flatnonzero(row)) for row in ups] == [
            (), (3,), (1, 3), (2, 3), (1, 2, 3), (0, 1, 2, 3)
        ]

    def test_cap_raises(self):
        p = build_poset(list(range(9)), [])   # antichain: 2^9 up-sets
        with pytest.raises(UpSetExplosion):
            enumerate_up_sets(p, cap=100)

    def test_byte_cap_refuses_a_13_cube_within_two_levels(self):
        # 2^26 bytes hold 8192 rows of 8192 states; the row cap alone let a
        # level grow to gigabytes before it refused
        p = cube_poset(13)
        tracemalloc.start()
        try:
            with pytest.raises(UpSetExplosion, match="more than 8192 up-sets"):
                enumerate_up_sets(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * UPSET_BYTES
        assert "leq" not in vars(p)

    def test_row_cap_still_bounds_small_posets(self):
        # at m <= 64 the 2^20-row cap is the tighter one, as before
        p = build_poset(list(range(21)), [])   # antichain: 2^21 up-sets
        with pytest.raises(UpSetExplosion, match="more than 1048576 up-sets"):
            enumerate_up_sets(p)

    def test_identity_strongly_monotone(self):
        p = cube_poset(2)
        c = validate_chain(np.eye(4), p)
        assert strong_stochastic_monotone(c).verdict

    def test_antichain_is_vacuously_monotone(self):
        p = build_poset(["a", "b", "c"], [])
        rng = np.random.default_rng(0)
        c = validate_chain(rng.dirichlet(np.ones(3), size=3), p)
        rep = strong_stochastic_monotone(c)
        assert rep.verdict
        assert rep.witness is None

    def test_two_state_definition(self):
        p = build_poset([0, 1], [(0, 1)])
        c = validate_chain(np.array([[0.7, 0.3], [0.2, 0.8]]), p)
        assert strong_stochastic_monotone(c).verdict
        c2 = validate_chain(np.array([[0.2, 0.8], [0.7, 0.3]]), p)
        rep = strong_stochastic_monotone(c2)
        assert not rep.verdict
        assert rep.worst_value == pytest.approx(0.3 - 0.8)

    def test_frozen_fixture_strong_but_not_mobius(self):
        raw = STRONG_NOT_MOBIUS_WEIGHTS
        c = validate_chain(raw / raw.sum(axis=1, keepdims=True), cube_poset(2))
        zm = zeta_mobius(c.poset)
        assert strong_stochastic_monotone(c).verdict
        assert not mobius_monotone_down(c, zm).verdict
        assert not mobius_monotone_up(c, zm).verdict

    def test_randomized_search_reproduces_separation(self):
        # strong monotonicity without Mobius monotonicity appears within a
        # bounded seeded search on the 2-cube
        p = cube_poset(2)
        zm = zeta_mobius(p)
        rng = np.random.default_rng(20260808)
        for _ in range(2000):
            c = validate_chain(rng.dirichlet(np.full(4, 0.8), size=4), p)
            if not strong_stochastic_monotone(c).verdict:
                continue
            if (
                not mobius_monotone_down(c, zm).verdict
                and not mobius_monotone_up(c, zm).verdict
            ):
                return
        pytest.fail("no strongly-monotone non-Mobius kernel found in search budget")


FIXTURES = ("two_cube", "three_cube", "four_cube", "strong_not_mobius")


def load_pool():
    """The benchmark's random posets and stored weak verdicts."""
    with open(os.path.join(HERE, os.pardir, "perfbench", "pool.json")) as fh:
        return json.load(fh)


def lp_weak_monotone(c, zm, direction, tol=MONO_TOL):
    """Oracle: the weak verdict by one HiGHS linear program per generator.

    For each generator, minimize the image mass difference over normalized
    signed differences of laws: minimize d . (P u) subject to d C^T >= 0
    (up; d C >= 0 down), d . 1 = 0, d in [-1, 1]^M.  The kernel weakly
    preserves the order iff every minimum is >= 0 (up to tolerance).
    """
    m = zm.size
    cz = zm.zeta(direction)
    # (cz.T @ d)_k = mass of d on {e_k}'s down-set ({e_k}^up for up)
    images = c.P @ cz
    a_ub = -cz.T
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
        assert res.status == 0, res.message
        if res.fun < worst:
            worst = float(res.fun)
            witness = c.poset.elements[k]
    return _report(f"weak_{direction}", worst, witness, tol)


def multi_minimum_chains(count, seed):
    """Seeded kernels on random posets with two or three minimal elements:
    independent rows, a shared row (weakly monotone), or a shared row
    perturbed towards the boundary."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, 8))
        minima = int(rng.integers(2, 4))
        covers = []
        for i in range(minima, n):
            below = rng.choice(i, size=min(i, int(rng.integers(1, 4))), replace=False)
            covers += [(int(j), i) for j in below]
        kind = int(rng.integers(3))
        if kind == 0:
            moves = rng.dirichlet(np.ones(n), size=n)
        else:
            moves = np.tile(rng.dirichlet(np.ones(n)), (n, 1))
            if kind == 2:
                moves += rng.uniform(0, 0.02, size=(n, n))
        hold = rng.choice([0.0, 0.5, 0.9])
        rows = hold * np.eye(n) + (1 - hold) * moves / moves.sum(axis=1, keepdims=True)
        yield validate_chain(rows, build_poset(list(range(n)), covers))


class TestWeakMonotone:
    def test_identity_weakly_monotone(self):
        p = cube_poset(2)
        c = validate_chain(np.eye(4), p)
        zm = zeta_mobius(p)
        assert weak_monotone(c, zm, "down").verdict
        assert weak_monotone(c, zm, "up").verdict

    @pytest.mark.parametrize("seed", range(4))
    def test_mobius_implies_weak(self, seed):
        rng = np.random.default_rng(600 + seed)
        d = 2
        total = rng.uniform(0.4, 0.99)
        parts = rng.dirichlet(np.ones(2 * d)) * total
        params = CubeWalkParams(
            d=d, alpha=tuple(parts[:d]), beta=tuple(parts[d:])
        )
        c = nearest_neighbor_walk(params)
        zm = zeta_mobius(c.poset)
        assert mobius_monotone_up(c, zm).verdict
        assert weak_monotone(c, zm, "up").verdict
        assert mobius_monotone_down(c, zm).verdict
        assert weak_monotone(c, zm, "down").verdict

    def test_weak_equals_mobius_on_unique_extremum_posets(self):
        # with a unique minimum every Mobius-up test vector lies in the weak
        # difference cone, so the two verdicts must coincide on the 2-cube
        p = cube_poset(2)
        zm = zeta_mobius(p)
        rng = np.random.default_rng(9)
        for _ in range(40):
            c = validate_chain(rng.dirichlet(np.full(4, 0.7), size=4), p)
            up = mobius_monotone_up(c, zm)
            wk = weak_monotone(c, zm, "up")
            assert up.verdict == wk.verdict

    def test_v_poset_weak_without_mobius(self):
        # two minimal elements break the equivalence: frozen counterexample
        p = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
        raw = V_WEAK_NOT_MOBIUS_WEIGHTS
        c = validate_chain(raw / raw.sum(axis=1, keepdims=True), p)
        zm = zeta_mobius(p)
        mob = mobius_monotone_up(c, zm)
        wk = weak_monotone(c, zm, "up")
        assert not mob.verdict
        assert wk.verdict
        assert wk.worst_value >= -1e-10

    def test_extreme_ray_oracle_on_two_cube(self):
        # independent decision procedure: the up-weak difference cone of the
        # diamond is generated by three rays; compare against the LP verdict
        p = cube_poset(2)
        zm = zeta_mobius(p)
        rays = np.array(
            [[-1, 1, 0, 0], [-1, 0, 1, 0], [1, -1, -1, 1]], dtype=float
        )
        rng = np.random.default_rng(77)
        cf = zm.C.astype(float)
        for _ in range(25):
            c = validate_chain(rng.dirichlet(np.full(4, 0.6), size=4), p)
            ray_ok = (rays @ c.P @ cf.T).min() >= -1e-10
            assert weak_monotone(c, zm, "up").verdict == ray_ok

    def test_extreme_ray_oracle_down_direction(self):
        # mirror cone for the down-weak order (down-set masses nondecreasing)
        p = cube_poset(2)
        zm = zeta_mobius(p)
        rays = np.array(
            [[0, 0, 1, -1], [0, 1, 0, -1], [1, -1, -1, 1]], dtype=float
        )
        rng = np.random.default_rng(78)
        cf = zm.C.astype(float)
        for _ in range(25):
            c = validate_chain(rng.dirichlet(np.full(4, 0.6), size=4), p)
            ray_ok = (rays @ c.P @ cf).min() >= -1e-10
            assert weak_monotone(c, zm, "down").verdict == ray_ok

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_lp_oracle(self, name, direction):
        loaded = load_model(os.path.join(DATA, f"{name}.spec"))
        if loaded.kind == "cube":
            c = nearest_neighbor_walk(loaded.cube)
        else:
            c = loaded.chain
        zm = zeta_mobius(c.poset)
        verdict = weak_monotone(c, zm, direction).verdict
        assert verdict == lp_weak_monotone(c, zm, direction).verdict
        stored = load_pool()["fixtures"].get(name)
        if stored is not None:
            assert verdict == stored[f"weak_{direction}"]

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_pool_posets_match_lp_oracle_and_stored_verdicts(self, direction):
        for entry in load_pool()["posets"]:
            # the stored verdicts are float verdicts: drop the exact entries
            loaded = load_model_text(entry["spec"]).chain
            c = validate_chain(loaded.P, loaded.poset)
            zm = zeta_mobius(c.poset)
            verdict = weak_monotone(c, zm, direction).verdict
            assert verdict == lp_weak_monotone(c, zm, direction).verdict
            assert verdict == entry[f"weak_{direction}"]

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_random_multi_minimum_posets_match_lp_oracle(self, direction):
        verdicts = []
        for c in multi_minimum_chains(200, seed=1987):
            zm = zeta_mobius(c.poset)
            rep = weak_monotone(c, zm, direction)
            assert rep.verdict == lp_weak_monotone(c, zm, direction).verdict
            verdicts.append(rep.verdict)
        # both verdicts occur often, so the comparison is not vacuous
        assert 40 <= sum(verdicts) <= 160

    def test_d10_walk_equals_mobius(self):
        rng = np.random.default_rng(10)
        for total in (0.6, 1.3):
            parts = rng.dirichlet(np.ones(20)) * total
            params = CubeWalkParams(
                d=10, alpha=tuple(parts[:10]), beta=tuple(parts[10:])
            )
            c = nearest_neighbor_walk(params)
            zm = zeta_mobius(c.poset)
            for direction in ("down", "up"):
                t = mobius_transform(c.P, zm, direction)
                dense = transform_report(c, zm, direction, t)
                mob = (mobius_monotone_down if direction == "down"
                       else mobius_monotone_up)(c, zm)
                wk = weak_monotone(c, zm, direction)
                assert wk.verdict == mob.verdict == dense.verdict == (total <= 1)
                if not wk.verdict:
                    # both walk reports read the flip rates; the transform
                    # agrees to rounding
                    assert wk.worst_value == mob.worst_value
                    assert abs(wk.worst_value - dense.worst_value) <= 1e-14

    def test_no_rays_means_vacuous(self):
        # an antichain: w = d >= 0 with d . 1 = 0 leaves only d = 0
        p = build_poset(["a", "b", "c"], [])
        c = validate_chain(np.full((3, 3), 1 / 3), p)
        for direction in ("down", "up"):
            rep = weak_monotone(c, zeta_mobius(p), direction)
            assert rep.verdict and rep.worst_value == 0.0 and rep.witness is None


def seeded_walk(d, total, seed):
    """A walk whose flip rates, drawn with ``seed``, sum to ``total``."""
    w = np.random.default_rng(seed).uniform(0.5, 1.5, 2 * d)
    w *= total / w.sum()
    return nearest_neighbor_walk(CubeWalkParams(d=d, alpha=tuple(w[:d]), beta=tuple(w[d:])))


class TestWeakWalk:
    """The weak reports of a walk, read off its flip rates, against the
    transform path of a ``Chain(poset, P)`` copy."""

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_rates_match_the_transform(self, monkeypatch, d, direction):
        for total in (0.4, 0.8, 1.0, 1.1, 1.3):
            for seed in range(3):
                c = seeded_walk(d, total, 100 * d + seed)
                copy = Chain(poset=c.poset, P=c.P)
                zm = zeta_mobius(c.poset)
                dense = weak_monotone(copy, zm, direction)
                with monkeypatch.context() as patch:
                    patch.setattr(monotonicity, "mobius_transform", None)
                    walk = weak_monotone(c, zm, direction)
                assert walk.verdict == dense.verdict == (total <= 1), (total, seed)
                assert walk.witness == dense.witness
                assert abs(walk.worst_value - dense.worst_value) <= 1e-14
                if walk.verdict:
                    assert walk.worst_value == 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_implicit_zeros_on_small_cubes(self, d):
        # the column of the state opposite the extremal one lists all m - 1
        # kept entries, all positive on a true verdict, so it holds no 0:
        # down names the next column; up names column 0, whose only entry
        # sits in the extremal row
        c = seeded_walk(d, 0.6, d)
        zm = zeta_mobius(c.poset)
        m = c.size
        for direction, extremal, far in (("down", m - 1, 0), ("up", 0, m - 1)):
            t = mobius_transform(c.P, zm, direction)
            assert (np.delete(t[:, far], extremal) > 0).all()
            rep = weak_monotone(c, zm, direction)
            assert rep.verdict and rep.worst_value == 0.0
            assert rep.witness == c.poset.elements[1 if direction == "down" else 0]


class TestClosureAndEquivalences:
    @pytest.mark.parametrize("seed", range(3))
    def test_closure_under_product_power_mixture(self, seed):
        rng = np.random.default_rng(700 + seed)
        d = 3
        chains = []
        p = cube_poset(d)
        zm = zeta_mobius(p)
        for _ in range(2):
            total = rng.uniform(0.3, 0.95)
            parts = rng.dirichlet(np.ones(2 * d)) * total
            params = CubeWalkParams(d=d, alpha=tuple(parts[:d]), beta=tuple(parts[d:]))
            chains.append(nearest_neighbor_walk(params))
        c1, c2 = chains
        prod = validate_chain(c1.P @ c2.P, p, row_tol=1e-10)
        assert mobius_monotone_down(prod, zm).verdict
        assert mobius_monotone_up(prod, zm).verdict
        for k in (2, 3, 4):
            assert mobius_monotone_down(
                validate_chain(np.linalg.matrix_power(c1.P, k), p, row_tol=1e-10), zm
            ).verdict
        for t in (0.25, 0.5, 0.75):
            mix = validate_chain(t * c1.P + (1 - t) * c2.P, p, row_tol=1e-10)
            assert mobius_monotone_down(mix, zm).verdict

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_order_equivalences(self, seed):
        # birth-death kernels: down-Mobius, up-Mobius and strong stochastic
        # monotonicity all agree on totally ordered spaces
        rng = np.random.default_rng(800 + seed)
        m = int(rng.integers(3, 13))
        p = build_poset(list(range(m)), [(i, i + 1) for i in range(m - 1)])
        zm = zeta_mobius(p)
        mat = np.zeros((m, m))
        for i in range(m):
            up = rng.uniform(0.05, 0.45) if i + 1 < m else 0.0
            dn = rng.uniform(0.05, 0.45) if i > 0 else 0.0
            if i + 1 < m:
                mat[i, i + 1] = up
            if i > 0:
                mat[i, i - 1] = dn
            mat[i, i] = 1.0 - up - dn
        c = validate_chain(mat, p)
        verdicts = {
            mobius_monotone_down(c, zm).verdict,
            mobius_monotone_up(c, zm).verdict,
            strong_stochastic_monotone(c).verdict,
        }
        assert len(verdicts) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_transform_preserves_spectrum(self, seed):
        rng = np.random.default_rng(900 + seed)
        p = cube_poset(3)
        zm = zeta_mobius(p)
        c = validate_chain(rng.dirichlet(np.full(8, 0.8), size=8), p)
        for direction in ("down", "up"):
            t = mobius_transform(c.P, zm, direction)
            ev_t = np.sort_complex(np.linalg.eigvals(t))
            ev_p = np.sort_complex(np.linalg.eigvals(c.P))
            assert np.abs(ev_t - ev_p).max() < 1e-8


def exact_transform_min(c, zm, direction):
    """Oracle: minimum entry of the exact Mobius transform and its first
    position in row-major order, by plain Fraction loops."""
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


def exact_strong_min(c):
    """Oracle: smallest exact margin P(e_j, A) - P(e_i, A) over nonempty
    proper up-sets A and comparable pairs e_i < e_j, with its first witness."""
    p = c.poset
    m = p.size
    pairs = np.argwhere(p.leq & ~np.eye(m, dtype=bool))
    worst_q = None
    witness = None
    for row in enumerate_up_sets(p)[1:-1]:
        cols = np.flatnonzero(row)
        masses = [sum(row[x] for x in cols) for row in c.exact]
        for a, b in pairs:
            mq = masses[int(b)] - masses[int(a)]
            if worst_q is None or mq < worst_q:
                worst_q = mq
                witness = (
                    p.elements[int(a)],
                    p.elements[int(b)],
                    tuple(p.elements[x] for x in cols),
                )
    return worst_q, witness


def exact_weak_min(c, zm, direction):
    """Oracle: smallest exact objective d . P u_k of the weak LP over the
    extreme rays d of its cone and the generators k, with the first k
    reaching it, by plain Fraction loops; (0, None) when the cone is {0}.

    With w = zeta^T d the cone is {w >= 0 : a . w = 0}, a the row sums of the
    oriented Mobius matrix M, and d = M^T w.
    """
    m = zm.size
    Z = [[int(v) for v in row] for row in zm.zeta(direction, int)]
    M = [[int(v) for v in row] for row in zm.mobius(direction, int)]
    a = [sum(row) for row in M]
    rays = [{x: Fraction(1)} for x in range(m) if a[x] == 0]
    rays += [
        {x: Fraction(1, a[x]), y: Fraction(1, -a[y])}
        for x in range(m) if a[x] > 0
        for y in range(m) if a[y] < 0
    ]
    P = c.exact
    pz = [
        [sum(P[i][j] * Z[j][k] for j in range(m)) for k in range(m)] for i in range(m)
    ]
    worst, witness = Fraction(0), None
    for k in range(m):
        for w in rays:
            d = [sum(M[x][i] * wx for x, wx in w.items()) for i in range(m)]
            assert sum(d) == 0
            v = sum(d[i] * pz[i][k] for i in range(m))
            if witness is None or v < worst:
                worst, witness = v, k
    return worst, witness


def exact_walk(d, rates):
    """A cube walk with equal up and down rates, carrying its Fraction
    entries; it is admissible, so its Mobius and strong worst values are
    exactly zero."""
    params = CubeWalkParams(d=d, alpha=tuple(map(float, rates)),
                            beta=tuple(map(float, rates)))
    walk = nearest_neighbor_walk(params)
    m = walk.size
    q = [[Fraction(0)] * m for _ in range(m)]
    for x in range(m):
        for k in range(d):
            q[x][x ^ (1 << k)] = rates[k]
        q[x][x] = 1 - sum(q[x])
    return validate_chain(walk.P, walk.poset, exact=exact_fractions(q))


def rational_chains():
    """Random rational kernels on the tests/data posets and on every fourth
    perfbench pool poset, plus two exact admissible cube walks."""
    posets = []
    for name in ("strong_not_mobius", "two_cube", "three_cube", "four_cube"):
        loaded = load_model(os.path.join(DATA, f"{name}.spec"))
        posets.append(
            cube_poset(loaded.cube.d) if loaded.kind == "cube" else loaded.chain.poset
        )
    pool = load_pool()["posets"]
    posets += [load_model_text(e["spec"]).chain.poset for e in pool[::4]]
    rng = np.random.default_rng(20261018)
    for k, p in enumerate(posets):
        m = p.size
        weights = rng.integers(0, 4, size=(m, m)) * (rng.random((m, m)) < 0.5)
        weights[np.arange(m), np.arange(m)] += 1
        q = exact_fractions(
            [[Fraction(int(w), int(row.sum())) for w in row] for row in weights]
        )
        P = np.array([[float(v) for v in row] for row in q])
        yield f"random{k}", validate_chain(P, p, exact=q)
    yield "walk2", exact_walk(2, [Fraction(1, 6), Fraction(1, 3)])
    yield "walk3", exact_walk(3, [Fraction(1, 8), Fraction(1, 12), Fraction(1, 4)])


RATIONAL_CHAINS = dict(rational_chains())


class TestExactReruns:
    """The exact reruns against the plain Fraction loops they replaced.

    A tolerance of 1 puts every worst value here inside the rerun window
    (|worst| < 100 tol), so each report below is an exact rerun.
    """

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", sorted(RATIONAL_CHAINS))
    def test_mobius_rerun_matches_fraction_loops(self, name, direction):
        c = RATIONAL_CHAINS[name]
        zm = zeta_mobius(c.poset)
        worst_q, (i, j) = exact_transform_min(c, zm, direction)
        t = mobius_transform(np.array(c.exact, dtype=object), zm, direction, object)
        assert isinstance(t.min(), Fraction)
        assert t.min() == worst_q
        float_t = mobius_transform(c.P, zm, direction)
        rep = transform_report(c, zm, direction, float_t, tol=1.0)
        assert rep.exact and rep.tolerance_used == 0.0
        assert rep.worst_value == float(worst_q)
        assert rep.verdict == (worst_q >= 0)
        assert rep.witness == (c.poset.elements[i], c.poset.elements[j])

    @pytest.mark.parametrize("name", sorted(RATIONAL_CHAINS))
    def test_strong_rerun_matches_fraction_loop(self, name):
        c = RATIONAL_CHAINS[name]
        p = c.poset
        worst_q, witness = exact_strong_min(c)
        pairs = np.argwhere(p.leq & ~np.eye(p.size, dtype=bool))
        got = _exact_margin(c.exact, enumerate_up_sets(p), pairs, p.elements)
        assert isinstance(got[0], Fraction)
        assert got == (worst_q, witness)
        rep = strong_stochastic_monotone(c, tol=1.0)
        assert rep.exact and rep.tolerance_used == 0.0
        assert rep.worst_value == float(worst_q)
        assert rep.verdict == (worst_q >= 0)
        assert rep.witness == witness

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", sorted(RATIONAL_CHAINS))
    def test_weak_rerun_matches_fraction_rays(self, name, direction):
        c = RATIONAL_CHAINS[name]
        zm = zeta_mobius(c.poset)
        worst_q, k = exact_weak_min(c, zm, direction)
        rep = weak_monotone(c, zm, direction, tol=1.0)
        assert rep.exact and rep.tolerance_used == 0.0
        assert rep.worst_value == float(worst_q)
        assert rep.verdict == (worst_q >= 0)
        assert rep.witness == (None if k is None else c.poset.elements[k])

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_cube_reruns_run_as_butterflies(self, direction, monkeypatch):
        cubes = {n: c for n, c in RATIONAL_CHAINS.items() if c.poset.cube_dim}
        assert {"walk2", "walk3"} < set(cubes) and len(cubes) >= 5
        expected = {}
        for name, c in cubes.items():
            zm = zeta_mobius(c.poset)
            worst_q, (i, j) = exact_transform_min(c, zm, direction)
            expected[name] = (zm, worst_q, (c.poset.elements[i], c.poset.elements[j]))

        def refuse(self, direction, dtype=float):
            raise AssertionError("dense zeta/Mobius matrix read on a cube")

        monkeypatch.setattr(Poset, "zeta", refuse)
        monkeypatch.setattr(Poset, "mobius", refuse)
        for name, c in cubes.items():
            zm, worst_q, witness = expected[name]
            rep = transform_report(c, zm, direction, mobius_transform(c.P, zm, direction), 1.0)
            assert rep.exact and rep.worst_value == float(worst_q)
            assert rep.verdict == (worst_q >= 0) and rep.witness == witness
            assert weak_monotone(c, zm, direction, tol=1.0).exact

    def test_admissible_walks_rerun_to_exact_zero(self):
        for name in ("walk2", "walk3"):
            c = RATIONAL_CHAINS[name]
            zm = zeta_mobius(c.poset)
            for rep in (
                mobius_monotone_down(c, zm),
                mobius_monotone_up(c, zm),
                weak_monotone(c, zm, "down"),
                weak_monotone(c, zm, "up"),
                strong_stochastic_monotone(c, tol=1.0),
            ):
                assert rep.exact and rep.verdict and rep.worst_value == 0.0


def recursive_up_sets(p):
    """Oracle: the up-sets as sorted index tuples by the depth-first
    recursion the boolean matrix replaced, in its order (kept per relation,
    which the walks of one dimension share)."""
    return _recursion(p.size, p.leq.tobytes())


@functools.lru_cache(maxsize=None)
def _recursion(m, leq_bytes):
    leq = np.frombuffer(leq_bytes, dtype=bool).reshape(m, m)
    strict = leq & ~np.eye(m, dtype=bool)
    above = [np.flatnonzero(strict[i, :]) for i in range(m)]
    out = []
    members = np.zeros(m, dtype=bool)

    def rec(i):
        if i < 0:
            out.append(tuple(np.flatnonzero(members)))
            return
        rec(i - 1)
        if members[above[i]].all():
            members[i] = True
            rec(i - 1)
            members[i] = False

    rec(m - 1)
    return out


def loop_worst_margin(P, upsets, pairs, elements, bound=None):
    """Oracle: ``_worst_margin`` by one column sum per up-set tuple, over
    floats or Fractions."""
    worst, witness = np.inf, None
    for u in upsets:
        if not u or len(u) == len(elements):
            continue
        mass = P[:, list(u)].sum(axis=1)
        margins = mass[pairs[:, 1]] - mass[pairs[:, 0]]
        if bound is None:
            k = int(np.argmin(margins))
        else:
            k = int(np.argmax(margins <= bound))
            if margins[k] > bound:
                continue
        if margins[k] < worst:
            worst = margins[k]
            i, j = pairs[k]
            witness = (elements[i], elements[j], tuple(elements[x] for x in u))
            if bound is not None:
                break
    return worst, witness


def loop_strong(c, tol=MONO_TOL):
    """Oracle: the strong report from the recursive up-sets and the
    per-up-set loop, the exact rerun over Fraction entries."""
    p = c.poset
    upsets = recursive_up_sets(p)
    pairs = np.argwhere(p.leq & ~np.eye(p.size, dtype=bool))
    worst, witness = np.inf, None
    if len(pairs):
        worst, witness = loop_worst_margin(c.P, upsets, pairs, p.elements)
    if witness is None:
        return _report("strong_stochastic", 0.0, None, tol)
    exact = _rerun_exactly(c, worst, tol)
    if exact:
        exact_p = np.array(c.exact, dtype=object)
        worst, witness = loop_worst_margin(exact_p, upsets, pairs, p.elements)
    elif 0 < tol and abs(worst) <= tol:
        _, witness = loop_worst_margin(c.P, upsets, pairs, p.elements, worst + tol)
    return _report("strong_stochastic", worst, witness, tol, exact)


def random_poset(rng):
    """A poset of 1 to 12 shuffled labels under random relations x < y."""
    m = int(rng.integers(1, 13))
    labels = [f"v{k}" for k in rng.permutation(m)]
    density = rng.uniform(0.05, 0.5)
    relations = [
        (labels[i], labels[j])
        for i in range(m) for j in range(i + 1, m) if rng.random() < density
    ]
    return build_poset(labels, relations)


def random_kernel(p, rng):
    """Independent rows, one shared row (margins exactly zero) or a shared
    row perturbed towards the boundary, with a random holding share."""
    m = p.size
    kind = int(rng.integers(3))
    if kind == 0:
        moves = rng.dirichlet(np.ones(m), size=m)
    else:
        moves = np.tile(rng.dirichlet(np.ones(m)), (m, 1))
        if kind == 2:
            moves += rng.uniform(0, 1e-3, size=(m, m))
    hold = rng.choice([0.0, 0.5, 0.9])
    rows = hold * np.eye(m) + (1 - hold) * moves / moves.sum(axis=1, keepdims=True)
    return validate_chain(rows, p)


def strong_corpus():
    """Named chains: the diamond, the tests/data fixtures, the pool posets'
    own chains, cubes d = 1..5 and 50 random posets under random kernels,
    and 20 seeded walks for each of d = 3, 4, 5."""
    rng = np.random.default_rng(20261019)
    yield "diamond", random_kernel(cube_poset(2), rng)
    for name in FIXTURES:
        loaded = load_model(os.path.join(DATA, f"{name}.spec"))
        cube = loaded.kind == "cube"
        yield name, nearest_neighbor_walk(loaded.cube) if cube else loaded.chain
    for k, entry in enumerate(load_pool()["posets"]):
        yield f"pool{k}", load_model_text(entry["spec"]).chain
    for d in range(1, 6):
        yield f"cube{d}", random_kernel(cube_poset(d), rng)
    for k in range(50):
        yield f"poset{k}", random_kernel(random_poset(rng), rng)
    for d in (3, 4, 5):
        for k in range(20):
            rates = rng.uniform(0.01, 0.9 / (2 * d), size=2 * d)
            params = CubeWalkParams(d=d, alpha=tuple(rates[:d]), beta=tuple(rates[d:]))
            yield f"walk{d}_{k}", nearest_neighbor_walk(params)


STRONG_CORPUS = dict(strong_corpus())
ENUMERATION_CORPUS = sorted(n for n in STRONG_CORPUS if not n.startswith("walk"))


class TestStrongArrayPasses:
    """The up-set matrix and the blocked margins against the recursion and
    the per-up-set loop they replaced."""

    @pytest.mark.parametrize("name", ENUMERATION_CORPUS)
    def test_rows_follow_the_recursion(self, name):
        p = STRONG_CORPUS[name].poset
        ups = enumerate_up_sets(p)
        expected = recursive_up_sets(p)
        assert ups.shape == (len(expected), p.size) and ups.dtype == bool
        assert not ups.flags.writeable
        assert [tuple(np.flatnonzero(row)) for row in ups] == expected

    @pytest.mark.parametrize("name", ENUMERATION_CORPUS)
    def test_cap_raises_past_the_count(self, name):
        p = STRONG_CORPUS[name].poset
        n = len(enumerate_up_sets(p))
        assert len(enumerate_up_sets(p, cap=n)) == n
        with pytest.raises(UpSetExplosion, match=f"more than {n - 1} up-sets"):
            enumerate_up_sets(p, cap=n - 1)

    @pytest.mark.parametrize("name", sorted(STRONG_CORPUS))
    def test_report_matches_the_loop(self, name):
        c = STRONG_CORPUS[name]
        rep = strong_stochastic_monotone(c)
        expected = loop_strong(c)
        assert (rep.verdict, rep.witness, rep.exact, rep.tolerance_used) == (
            expected.verdict, expected.witness, expected.exact, expected.tolerance_used
        )
        if rep.exact:
            assert rep.worst_value == expected.worst_value
        else:
            assert abs(rep.worst_value - expected.worst_value) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize(
        "name", sorted(n for n, c in STRONG_CORPUS.items() if c.exact is not None)
    )
    def test_exact_margin_matches_the_fraction_loop(self, name):
        c = STRONG_CORPUS[name]
        p = c.poset
        pairs = np.argwhere(p.leq & ~np.eye(p.size, dtype=bool))
        if len(pairs) == 0:
            return
        worst, witness = _exact_margin(c.exact, enumerate_up_sets(p), pairs, p.elements)
        expected = loop_worst_margin(
            np.array(c.exact, dtype=object), recursive_up_sets(p), pairs, p.elements
        )
        assert isinstance(worst, Fraction)
        assert (worst, witness) == expected

    def test_corpus_reaches_every_branch(self):
        reports = [strong_stochastic_monotone(c) for c in STRONG_CORPUS.values()]
        assert any(r.exact for r in reports)
        assert any(r.verdict and not r.exact and r.witness is not None for r in reports)
        assert any(not r.verdict for r in reports)
        assert any(r.witness is None for r in reports)

    @pytest.mark.parametrize("name, tol", [("walk4_0", MONO_TOL), ("pool17", 1.0)])
    def test_blocks_split_the_up_sets(self, monkeypatch, name, tol):
        # one up-set per block gives the report of a few large blocks, for
        # the noise witness of a walk and for an exact rerun alike
        c = STRONG_CORPUS[name]
        whole = strong_stochastic_monotone(c, tol=tol)
        monkeypatch.setattr(monotonicity, "MARGIN_BLOCK", 1)
        assert strong_stochastic_monotone(c, tol=tol) == whole


class TestExactReversal:
    """An exact chain whose entries satisfy detailed balance exactly is its
    own reversal, exact entries included, so the dual's reversed verdict
    reruns exactly; any other exact chain loses them, as before."""

    @pytest.mark.parametrize("name", ["walk2", "walk3"])
    def test_exact_walk_is_its_own_reversal(self, name):
        c = RATIONAL_CHAINS[name]
        law = stationary(c)
        assert law.balance <= BALANCE_TOL
        assert reverse(c, law) is c

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("name", ["walk2", "walk3"])
    def test_reversed_verdict_reruns_exactly(self, name, direction):
        c = RATIONAL_CHAINS[name]
        c = c.with_nu(np.eye(c.size)[0 if direction == "down" else -1])
        dual = build_ssd(c, stationary(c), zeta_mobius(c.poset), direction,
                         mono_tol=1.0)
        rep = dual.reversed_report
        assert rep.exact and rep.tolerance_used == 0.0 and rep.worst_value == 0.0

    @pytest.mark.parametrize("name", ["random2", "random3", "random5"])
    def test_irreversible_exact_kernel_loses_exact(self, name):
        c = RATIONAL_CHAINS[name]
        law = stationary(c)
        assert law.balance > BALANCE_TOL
        rev = reverse(c, law)
        assert rev.exact is None
        assert np.array_equal(rev.P, (c.P.T * law.pi[None, :]) / law.pi[:, None])

    def test_balance_only_in_floats_drops_exact(self):
        # 1e-18 moved from a holding entry to a move keeps the exact rows
        # stochastic and the float kernel unchanged, but breaks the exact
        # balance
        c = RATIONAL_CHAINS["walk3"]
        q = [list(row) for row in c.exact]
        q[0][0] -= Fraction(1, 10**18)
        q[0][1] += Fraction(1, 10**18)
        c = validate_chain(c.P, c.poset, exact=exact_fractions(q))
        law = stationary(c)
        assert law.balance <= BALANCE_TOL
        rev = reverse(c, law)
        assert rev is not c and rev.exact is None and rev.P is c.P


def _sideways_call(name):
    c = two_cube_chain(0.12, 0.2, 0.07, 0.17).with_nu(np.full(4, 0.25))
    zm = zeta_mobius(c.poset)
    law = stationary(c)
    calls = {
        "mobius_transform": lambda: mobius_transform(c.P, zm, "sideways"),
        "function_mobius_monotone": lambda: function_mobius_monotone(
            np.ones(4), zm, "sideways"
        ),
        "weak_monotone": lambda: weak_monotone(c, zm, "sideways"),
        "build_link": lambda: build_link(law, zm, "sideways"),
        "build_ssd": lambda: build_ssd(c, law, zm, direction="sideways"),
    }
    return calls[name]


@pytest.mark.parametrize(
    "name",
    ["mobius_transform", "function_mobius_monotone", "weak_monotone",
     "build_link", "build_ssd"],
)
def test_unknown_direction_raises(name):
    call = _sideways_call(name)
    with pytest.raises(ValueError, match="direction must be 'down' or 'up'"):
        call()
