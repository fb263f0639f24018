import numpy as np
import pytest

from mobiusdual import (
    CubeWalkParams,
    build_poset,
    cube_poset,
    function_mobius_monotone,
    mobius_monotone_down,
    mobius_monotone_up,
    nearest_neighbor_walk,
    power_chain,
    strong_stochastic_monotone,
    validate_chain,
    weak_monotone,
    zeta_mobius,
)
from mobiusdual.errors import UpSetExplosion
from mobiusdual.monotonicity import (
    enumerate_up_sets,
    exact_fractions,
    mobius_transform,
    transform_report,
)

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
        assert len(ups) == 6
        assert () in ups and (0, 1, 2, 3) in ups
        assert (1, 3) in ups and (2, 3) in ups and (3,) in ups and (1, 2, 3) in ups

    def test_cap_raises(self):
        p = build_poset(list(range(9)), [])   # antichain: 2^9 up-sets
        with pytest.raises(UpSetExplosion):
            enumerate_up_sets(p, cap=100)

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

    def test_size_cap(self):
        p = build_poset(list(range(5)), [(i, i + 1) for i in range(4)])
        c = validate_chain(np.eye(5), p)
        with pytest.raises(UpSetExplosion):
            weak_monotone(c, zeta_mobius(p), "up", size_cap=4)


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
            assert mobius_monotone_down(power_chain(c1, k), zm).verdict
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
