import numpy as np
import pytest

from mobiusdual import (
    CubeWalkParams,
    build_poset,
    cube_poset,
    cube_stationary_product,
    diff_down,
    diff_up,
    nearest_neighbor_walk,
    reverse,
    stationary,
    sum_down,
    sum_up,
    validate_chain,
    zeta_mobius,
)
from mobiusdual.chain import GTH_BLOCK, StationaryLaw, _support_levels
from mobiusdual.errors import (
    DimensionMismatch,
    NotAperiodic,
    NotIrreducible,
    NotStochastic,
    NumericalFailure,
)


def diamond():
    return build_poset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def two_cube_matrix(a1, a2, b1, b2):
    # single-flip walk on the 2-cube, enumeration (00, 10, 01, 11)
    return np.array([
        [1 - a1 - a2, a1, a2, 0],
        [b1, 1 - b1 - a2, 0, a2],
        [b2, 0, 1 - a1 - b2, a1],
        [0, b2, b1, 1 - b1 - b2],
    ])


def random_ergodic(m, rng):
    mat = rng.dirichlet(np.full(m, 0.9), size=m)
    return 0.5 * np.eye(m) + 0.5 * mat


def random_positive(m, rng):
    mat = rng.uniform(0.01, 1.0, size=(m, m))
    return mat / mat.sum(axis=1)[:, None]


def gth_unblocked(P):
    """Reference: the one-state-at-a-time state reduction."""
    a = np.array(P, dtype=float)
    m = a.shape[0]
    for k in range(m - 1, 0, -1):
        s = a[k, :k].sum()
        a[:k, k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.empty(m)
    pi[0] = 1.0
    for k in range(1, m):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def bfs_levels_loop(adj):
    """Reference: breadth-first levels from state 0, one vertex at a time."""
    level = np.full(adj.shape[0], -1, dtype=np.int64)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(adj[u]):
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    return level


def validate_rows_loop(P, row_tol=1e-12):
    """Reference: the per-row violation scan of validate_chain."""
    violations = []
    for i in range(P.shape[0]):
        row = P[i]
        for j in np.flatnonzero(row < 0):
            violations.append((i, f"entry ({i},{int(j)}) is negative ({row[j]!r})"))
        s = float(row.sum())
        if abs(s - 1.0) > row_tol:
            violations.append((i, f"row {i} sums to {s!r}, off by more than {row_tol}"))
    return violations


class TestValidateChain:
    def test_identity_is_valid(self):
        c = validate_chain(np.eye(4), diamond())
        assert c.size == 4

    def test_bad_row_sum_reports_row_index(self):
        mat = np.eye(4)
        mat[2, 2] = 0.9
        with pytest.raises(NotStochastic) as exc:
            validate_chain(mat, diamond())
        assert any(row == 2 for row, _ in exc.value.violations)

    def test_negative_entry_reported(self):
        mat = np.eye(4)
        mat[1, 0] = -0.1
        mat[1, 1] = 1.1
        with pytest.raises(NotStochastic) as exc:
            validate_chain(mat, diamond())
        assert any("(1,0)" in msg for _, msg in exc.value.violations)

    def test_all_violations_collected(self):
        mat = np.zeros((4, 4))
        with pytest.raises(NotStochastic) as exc:
            validate_chain(mat, diamond())
        assert len(exc.value.violations) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_chain(np.eye(3), diamond())

    def test_two_cube_walk_is_valid(self):
        mat = two_cube_matrix(0.2, 0.2, 0.2, 0.2)
        c = validate_chain(mat, cube_poset(2))
        assert np.allclose(c.P.sum(axis=1), 1.0)

    def test_bad_nu_rejected(self):
        with pytest.raises(NotStochastic):
            validate_chain(np.eye(4), diamond(), nu=np.array([0.5, 0, 0, 0]))

    def test_violations_in_several_rows_keep_loop_order(self):
        m = 12
        mat = random_positive(m, np.random.default_rng(7))
        mat[2, [0, 5, 9]] = [-0.1, -0.2, -0.05]      # negatives and a bad sum
        mat[5, 3] -= 1e-3                            # bad sum only
        mat[8, 1], mat[8, 4] = -mat[8, 4], mat[8, 1] + 2 * mat[8, 4]  # negative only
        mat[11] *= 1.5
        p = build_poset(list(range(m)), [])
        with pytest.raises(NotStochastic) as exc:
            validate_chain(mat, p, nu=np.full(m, 0.5))
        expected = validate_rows_loop(mat)
        assert [row for row, _ in expected] == [2, 2, 2, 2, 5, 8, 11]
        assert exc.value.violations[:-1] == expected
        assert exc.value.violations[-1][0] == "nu"


class TestStationary:
    def test_symmetric_two_cube_is_uniform(self):
        params = CubeWalkParams(d=2, alpha=(0.2, 0.3), beta=(0.2, 0.3))
        law = stationary(nearest_neighbor_walk(params))
        assert np.abs(law.pi - 0.25).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_cube_walk_matches_product_form(self, seed):
        rng = np.random.default_rng(seed)
        d = 3
        params = CubeWalkParams(
            d=d,
            alpha=tuple(rng.uniform(0.02, 0.12, size=d)),
            beta=tuple(rng.uniform(0.02, 0.12, size=d)),
        )
        c = nearest_neighbor_walk(params)
        law = stationary(c)
        assert np.abs(law.pi - cube_stationary_product(params)).max() < 1e-12

    def test_identity_not_irreducible(self):
        c = validate_chain(np.eye(4), diamond())
        with pytest.raises(NotIrreducible) as exc:
            stationary(c)
        assert exc.value.pair is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_support_levels_match_vertex_bfs(self, seed):
        rng = np.random.default_rng(700 + seed)
        adj = rng.random((60, 60)) < 0.04
        for graph in (adj, adj.T):
            assert np.array_equal(_support_levels(graph), bfs_levels_loop(graph))

    def test_two_cycle_not_aperiodic(self):
        p = build_poset(["x", "y"], [("x", "y")])
        c = validate_chain(np.array([[0.0, 1.0], [1.0, 0.0]]), p)
        with pytest.raises(NotAperiodic) as exc:
            stationary(c)
        assert exc.value.period == 2

    def test_three_cyclic_classes_give_period_three(self):
        # classes {0,3} -> {1,4} -> {2,5} -> {0,3}, each row split evenly
        m = 6
        mat = np.zeros((m, m))
        for i in range(m):
            nxt = (i + 1) % 3
            mat[i, [nxt, nxt + 3]] = 0.5
        c = validate_chain(mat, build_poset(list(range(m)), []))
        with pytest.raises(NotAperiodic) as exc:
            stationary(c)
        assert exc.value.period == 3

    @pytest.mark.parametrize("m", [5, 16, 64])
    def test_matches_power_iteration_oracle(self, m):
        rng = np.random.default_rng(m)
        labels = [f"s{i}" for i in range(m)]
        p = build_poset(labels, [])
        c = validate_chain(random_ergodic(m, rng), p)
        law = stationary(c)
        power = np.full(m, 1.0 / m) @ np.linalg.matrix_power(c.P, 4096)
        assert np.abs(law.pi - power).max() < 1e-8

    @pytest.mark.parametrize("m", [2, 31, 32, 33, 64, 65, 200])
    def test_blocked_matches_unblocked_reduction(self, m):
        rng = np.random.default_rng(1000 + m)
        c = validate_chain(random_positive(m, rng), build_poset(list(range(m)), []))
        pi = stationary(c).pi
        ref = gth_unblocked(c.P)
        if m <= GTH_BLOCK:
            assert np.array_equal(pi, ref)
        assert np.abs(pi / ref - 1.0).max() < 1e-13

    def test_tiny_masses_keep_relative_accuracy(self):
        # the top state's mass is (alpha/(alpha+beta))^8, about 2.6e-46
        params = CubeWalkParams(d=8, alpha=(1e-7,) * 8, beta=(0.05,) * 8)
        law = stationary(nearest_neighbor_walk(params))
        ref = cube_stationary_product(params)
        assert ref.min() < 1e-45
        assert np.abs(law.pi / ref - 1.0).max() < 1e-12

    def test_stall_inside_a_block_raises(self):
        # state 20 leaves only to 39 with the smallest subnormal mass, and
        # 39 splits it between 37 and 38: both products underflow to zero
        m = 40
        mat = random_positive(m, np.random.default_rng(3))
        mat[20] = 0.0
        mat[20, 20], mat[20, 39] = 1.0, 5e-324
        mat[39] = 0.0
        mat[39, 37] = mat[39, 38] = 0.5
        c = validate_chain(mat, build_poset([f"s{i}" for i in range(m)], []))
        with pytest.raises(NumericalFailure, match="stalled at 's20'"):
            stationary(c)

    def test_residual_recorded(self):
        c = validate_chain(random_ergodic(6, np.random.default_rng(1)),
                           build_poset(list(range(6)), []))
        law = stationary(c)
        assert law.residual <= 1e-10


class TestReverse:
    def test_reversible_cube_walk_fixed(self):
        params = CubeWalkParams(d=3, alpha=(0.05, 0.1, 0.07), beta=(0.08, 0.06, 0.1))
        c = nearest_neighbor_walk(params)
        law = stationary(c)
        rev = reverse(c, law)
        assert np.abs(rev.P - c.P).max() < 1e-12

    def test_cyclic_permutation_reverses_to_transpose(self):
        # 3-state cyclic shift with uniform stationary law (evaluated directly;
        # the chain is periodic so the law is supplied, not solved)
        p = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
        mat = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        c = validate_chain(mat, p)
        law = StationaryLaw(pi=np.full(3, 1 / 3), residual=0.0)
        rev = reverse(c, law)
        assert np.abs(rev.P - mat.T).max() < 1e-15

    @pytest.mark.parametrize("seed", range(3))
    def test_involution(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = 8
        p = build_poset(list(range(m)), [])
        c = validate_chain(random_ergodic(m, rng), p)
        law = stationary(c)
        back = reverse(reverse(c, law), law)
        assert np.abs(back.P - c.P).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_preserves_stationary_law(self, seed):
        rng = np.random.default_rng(400 + seed)
        m = 7
        p = build_poset(list(range(m)), [])
        c = validate_chain(random_ergodic(m, rng), p)
        law = stationary(c)
        rev = reverse(c, law)
        assert np.abs(law.pi @ rev.P - law.pi).max() < 1e-10


class TestSumDiffOperators:
    def test_total_mass_at_top(self):
        p = cube_poset(2)
        zm = zeta_mobius(p)
        params = CubeWalkParams(d=2, alpha=(0.1, 0.2), beta=(0.15, 0.05))
        pi = stationary(nearest_neighbor_walk(params)).pi
        f = sum_down(pi, zm)
        assert abs(f[-1] - 1.0) < 1e-12

    def test_indicator_of_maximum(self):
        p = cube_poset(2)
        zm = zeta_mobius(p)
        top = np.zeros(4)
        top[3] = 1.0
        assert np.array_equal(sum_down(top, zm), top)
        assert np.array_equal(sum_up(top, zm), np.ones(4))

    def test_diamond_definition(self):
        p = diamond()
        zm = zeta_mobius(p)
        rng = np.random.default_rng(2)
        f = rng.normal(size=4)
        assert abs(sum_down(f, zm)[p.index("d")] - f.sum()) < 1e-12

    def test_all_ones_on_three_chain(self):
        p = build_poset([0, 1, 2], [(0, 1), (1, 2)])
        zm = zeta_mobius(p)
        assert np.allclose(diff_down(np.ones(3), zm), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_inversion_round_trips(self, seed):
        rng = np.random.default_rng(500 + seed)
        p = cube_poset(3) if seed % 2 else diamond()
        zm = zeta_mobius(p)
        f = rng.normal(size=p.size)
        assert np.abs(diff_down(sum_down(f, zm), zm) - f).max() < 1e-10
        assert np.abs(diff_up(sum_up(f, zm), zm) - f).max() < 1e-10
        assert np.abs(sum_down(diff_down(f, zm), zm) - f).max() < 1e-10
        assert np.abs(sum_up(diff_up(f, zm), zm) - f).max() < 1e-10

    def test_integer_exactness(self):
        p = diamond()
        zm = zeta_mobius(p)
        f = np.array([3.0, -2.0, 5.0, 7.0])
        assert np.array_equal(diff_down(sum_down(f, zm), zm), f)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sum_down(np.ones(3), zeta_mobius(diamond()))
