import json
import os

import numpy as np
import pytest

from mobiusdual import (
    CubeWalkParams,
    build_poset,
    cube_poset,
    nearest_neighbor_walk,
    reverse,
    stationary,
    validate_chain,
    zeta_mobius,
)
from mobiusdual.availability import (
    RateFunctions,
    availability_generator,
    uniformize,
)
from mobiusdual.chain import (
    BALANCE_TOL,
    Chain,
    TREE_LAW_ABOVE,
    StationaryLaw,
    _balance,
    _support_levels,
    _tree_law,
)
from mobiusdual import chain as chain_module
from mobiusdual.cube import axis_transformed_walk
from mobiusdual.poset import cube_bits
from mobiusdual.specfile import load_model, load_model_text
from mobiusdual.errors import (
    DimensionMismatch,
    NotAperiodic,
    NotIrreducible,
    NotStochastic,
    NumericalFailure,
)


def product_form(params):
    """The product-form law of the cube walk with rates ``params``: pi(x)
    multiplies alpha_k/(alpha_k+beta_k) over the bits k set in x and
    beta_k/(alpha_k+beta_k) over the others."""
    alpha = np.asarray(params.alpha, dtype=float)
    beta = np.asarray(params.beta, dtype=float)
    return np.prod(np.where(cube_bits(params.d), alpha, beta) / (alpha + beta), axis=1)


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
            violations.append((i, f"entry ({i},{int(j)}) is negative ({float(row[j])!r})"))
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

    @pytest.mark.parametrize("kernel, nu, message", [
        ([[np.nan, 1.0], [0.5, 0.5]], None, "entry (0,0) is not finite (nan)"),
        ([[1.1, -0.1], [0.5, 0.5]], None, "entry (0,1) is negative (-0.1)"),
        ([[0.5, 0.5], [0.5, 0.5]], [np.nan, 1.0], "entry 0 is not finite (nan)"),
        ([[0.5, 0.5], [0.5, 0.5]], [1.1, -0.1], "entry 1 is negative (-0.1)"),
    ])
    def test_messages_show_plain_floats(self, kernel, nu, message):
        with pytest.raises(NotStochastic) as exc:
            validate_chain(kernel, cube_poset(1), nu=nu)
        assert message in str(exc.value) and "np." not in str(exc.value)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_reported(self, value):
        # a NaN fails neither the sign test nor the row-sum test
        mat = two_cube_matrix(0.2, 0.2, 0.2, 0.2)
        mat[1, 2] = value
        with pytest.raises(NotStochastic) as exc:
            validate_chain(mat, cube_poset(2))
        assert any("(1,2) is not finite" in msg for _, msg in exc.value.violations)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_nu_rejected(self, value):
        nu = np.array([1.0, 0.0, 0.0, value])
        with pytest.raises(NotStochastic) as exc:
            validate_chain(np.eye(4), diamond(), nu=nu)
        assert any(what == "nu" and msg.startswith("entry 3 is not finite")
                   for what, msg in exc.value.violations)

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

    def test_message_names_the_initial_law_when_only_nu_is_wrong(self):
        nu = np.array([0.5, 0.0, 0.0, 0.0])
        with pytest.raises(NotStochastic) as exc:
            validate_chain(np.eye(4), diamond(), nu=nu)
        assert str(exc.value) == ("initial law nu is not a probability vector: "
                                  "sums to 0.5, off by more than 1e-12")
        mat = np.eye(4)
        mat[2, 2] = 0.9
        with pytest.raises(NotStochastic) as exc:
            validate_chain(mat, diamond(), nu=nu)
        assert str(exc.value).startswith("kernel is not stochastic: row 2 sums")
        assert [what for what, _ in exc.value.violations] == [2, "nu"]


class TestWithNu:
    def test_checks_nu_alone_and_shares_the_kernel(self):
        c = validate_chain(np.eye(4), diamond())
        started = c.with_nu([0.25] * 4)
        assert started.P is c.P and started.poset is c.poset
        assert started.nu.tolist() == [0.25] * 4 and not started.nu.flags.writeable
        with pytest.raises(NotStochastic) as exc:
            c.with_nu(np.array([0.5, 0.0, 0.0, 0.0]))
        assert [what for what, _ in exc.value.violations] == ["nu"]
        assert "sums to 0.5" in str(exc.value)

    def test_row_tolerance_applies_to_nu(self):
        c = validate_chain(np.eye(4), diamond())
        nu = np.array([0.25, 0.25, 0.25, 0.25 + 1e-9])
        with pytest.raises(NotStochastic):
            c.with_nu(nu)
        assert c.with_nu(nu, row_tol=1e-8).nu[3] == nu[3]


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
        assert np.abs(law.pi - product_form(params)).max() < 1e-12

    def test_nan_residual_is_refused(self):
        # the NaN sits on the diagonal, which the ergodicity check and GTH
        # never read; only the residual sees it
        mat = np.array([[np.nan, 0.5], [0.5, 0.5]])
        c = Chain(poset=build_poset(["x", "y"], [("x", "y")]), P=mat)
        with pytest.raises(NumericalFailure, match="residual nan"):
            stationary(c)

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
            levels = _support_levels(*np.nonzero(graph), graph.shape[0])
            assert np.array_equal(levels, bfs_levels_loop(graph))

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
        assert np.array_equal(stationary(c).pi, gth_unblocked(c.P))

    def test_tiny_masses_keep_relative_accuracy(self):
        # the top state's mass is (alpha/(alpha+beta))^8, about 2.6e-46
        params = CubeWalkParams(d=8, alpha=(1e-7,) * 8, beta=(0.05,) * 8)
        law = stationary(nearest_neighbor_walk(params))
        ref = product_form(params)
        assert ref.min() < 1e-45
        assert np.abs(law.pi / ref - 1.0).max() < 1e-12

    def test_stall_after_underflow_raises(self):
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

    def test_nonpositive_mass_shows_a_plain_float(self, monkeypatch):
        monkeypatch.setattr(chain_module, "_gth", lambda c: np.array([1.0, 0.0]))
        c = validate_chain([[0.5, 0.5], [0.5, 0.5]], cube_poset(1))
        with pytest.raises(NumericalFailure) as exc:
            stationary(c)
        assert str(exc.value).endswith("is not positive (0.0)")
        assert "np." not in str(exc.value)

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

    def test_computed_reversal_is_row_major(self):
        # the g+ walk of unequal rates is not reversible, so its reversal
        # is computed from the transpose of P
        params = CubeWalkParams(d=3, alpha=(0.05,) * 3, beta=(0.1,) * 3)
        c = axis_transformed_walk(params, 0.01)
        rev = reverse(c, stationary(c))
        assert rev is not c and rev.P.flags.c_contiguous



def pool_chains():
    """The chains of the benchmark's pool of random posets."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "pool.json")
    with open(path, encoding="utf-8") as fh:
        pool = json.load(fh)["posets"]
    return [load_model_text(e["spec"]).chain for e in pool]


def shared_row(P):
    """Whether P = h I + (1 - h) 1 q: each column is constant off the
    diagonal."""
    off = np.where(np.eye(P.shape[0], dtype=bool), np.nan, P)
    return bool((np.nanmax(off, axis=0) - np.nanmin(off, axis=0) < 1e-12).all())


def solved_path(c):
    """The path ``stationary`` takes on a reversible chain: the spanning tree
    above TREE_LAW_ABOVE states, the state reduction at or below it."""
    return "detailed_balance" if c.size > TREE_LAW_ABOVE else "gth"


def with_one_way_move(c, x, y, p):
    """c with probability p moved from the hold at x to a move x -> y."""
    P = c.P.copy()
    P[x, y] += p
    P[x, x] -= p
    return validate_chain(P, c.poset)


class TestDetailedBalance:
    """Chains above TREE_LAW_ABOVE states take their law from detailed balance
    along a BFS tree when it certifies; every other chain falls back to the
    state reduction.  A law that certifies detailed balance, by either path,
    makes the chain its own reversal."""

    @pytest.mark.parametrize("d", [1, 2, 5, 8, 10, 12])
    def test_walk_law_is_the_product_form(self, d):
        # a walk's law is its product form, read off the rates; the same
        # kernel without its rates is solved by the tree or the reduction
        rng = np.random.default_rng([d, 11])
        alpha, beta = 0.5 / d * rng.uniform(0.2, 1.0, (2, d))
        params = CubeWalkParams(d=d, alpha=tuple(alpha), beta=tuple(beta))
        c = nearest_neighbor_walk(params)
        law = stationary(c)
        assert law.path == "product_form" and law.balance <= BALANCE_TOL
        assert law.residual <= 1e-15
        assert np.array_equal(law.pi, product_form(params))
        dense = Chain(poset=c.poset, P=c.P)
        solved = stationary(dense)
        assert solved.path == solved_path(dense) and solved.balance <= BALANCE_TOL
        assert np.abs(law.pi / solved.pi - 1.0).max() <= 1e-14
        assert reverse(c, law) is c

    @pytest.mark.parametrize("single", [True, False])
    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_network_law_is_psi_over_phi(self, d, single):
        # any positive psi and phi, product form or not, give a reversible
        # chain with pi proportional to psi/phi
        rng = np.random.default_rng([d, int(single), 12])
        psi, phi = rng.uniform(0.5, 2.0, (2, 2**d))
        q = availability_generator(RateFunctions(d=d, psi=psi, phi=phi), single)
        c, _ = uniformize(q, multiplier=2.0)
        law = stationary(c)
        assert law.path == solved_path(c) and law.balance <= BALANCE_TOL
        target = psi / phi / (psi / phi).sum()
        assert np.abs(law.pi / target - 1.0).max() <= 1e-14
        assert reverse(c, law) is c

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_small_chains_keep_the_state_reduction(self, d):
        params = CubeWalkParams(d=d, alpha=(0.05,) * d, beta=(0.07,) * d)
        walk = nearest_neighbor_walk(params)
        c = Chain(poset=walk.poset, P=walk.P)   # the kernel without its rates
        law = stationary(c)
        assert np.array_equal(law.pi, gth_unblocked(c.P))

    def test_irreversible_chains_fall_back_to_gth(self):
        params = CubeWalkParams(d=3, alpha=(0.1,) * 3, beta=(0.15,) * 3)
        strong = load_model(os.path.join(os.path.dirname(__file__), "data",
                                         "strong_not_mobius.spec")).chain
        chains = [axis_transformed_walk(params, 0.02), strong]
        chains += [c for c in pool_chains() if not shared_row(c.P)]
        assert len(chains) > 5
        for c in chains:
            law = stationary(c)
            assert law.path == "gth" and law.balance > BALANCE_TOL
            assert np.abs(law.pi - gth_unblocked(c.P)).max() < 1e-15
            rev = reverse(c, law)
            assert rev is not c
            assert np.array_equal(rev.P, (c.P.T * law.pi[None, :]) / law.pi[:, None])

    def test_shared_row_pool_chains_are_reversible(self):
        # h I + (1 - h) 1 q balances with pi = q
        chains = [c for c in pool_chains() if shared_row(c.P)]
        assert len(chains) > 5
        for c in chains:
            law = stationary(c)
            assert law.balance <= BALANCE_TOL
            q = c.P[1, 0], *c.P[0, 1:]
            assert np.abs(law.pi / (q / np.sum(q)) - 1.0).max() < 1e-14
            # the chain itself, without its decimal entries where those
            # balance only up to rounding
            rev = reverse(c, law)
            assert rev.P is c.P and (rev is c or rev.exact is None)
            assert reverse(rev, law) is rev

    def test_tree_edge_without_reverse_move(self):
        p = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
        mat = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        rows, cols = np.nonzero(mat)
        assert _tree_law(mat, _support_levels(rows, cols, 3), rows, cols) is None
        law = stationary(validate_chain(mat, p))
        assert law.path == "gth" and law.balance == 1.0
        assert np.abs(law.pi - 1 / 3).max() < 1e-15

    def test_certificate_is_relative_to_each_move(self):
        # moves of order 1e-13 out of balance: max |pi_x P(x,y) - pi_y P(y,x)|
        # / pi_x is about 1e-13, yet the tree law is a third off at state 2
        # and the reversal moves 2 -> 0 with 1/6, not 1/4
        p = build_poset(["a", "b", "c"], [])
        mat = np.array([[0.5 - 1e-13, 0.5, 1e-13],
                        [0.5, 0.5 - 2e-13, 2e-13],
                        [0.25, 0.25, 0.5]])
        c = validate_chain(mat, p)
        rows, cols = np.nonzero(mat)
        tree = _tree_law(mat, _support_levels(rows, cols, 3), rows, cols)
        assert _balance(mat, tree, rows, cols, mat[rows, cols]) > 0.3
        law = stationary(c)
        assert law.path == "gth" and law.balance > 0.3
        assert np.array_equal(law.pi, gth_unblocked(mat))
        rev = reverse(c, law)
        assert rev is not c and abs(rev.P[2, 0] - 1 / 6) < 1e-12

    @pytest.mark.parametrize("p", [1e-13, 1e-300])
    def test_one_way_move_falls_back_to_gth(self, p):
        # a walk above TREE_LAW_ABOVE states with one faint move that has no
        # reverse: its tree law balances every tree edge, but not that move
        params = CubeWalkParams(d=6, alpha=(0.05,) * 6, beta=(0.07,) * 6)
        c = with_one_way_move(nearest_neighbor_walk(params), 0, 63, p)
        law = stationary(c)
        assert law.path == "gth" and law.balance == 1.0
        assert np.abs(law.pi - gth_unblocked(c.P)).max() < 1e-15
        assert reverse(c, law) is not c

    def test_hand_built_law_is_not_certified(self):
        law = StationaryLaw(pi=np.full(3, 1 / 3), residual=0.0)
        assert law.path == "gth" and law.balance == np.inf


class TestSumDiffOperators:
    """Down/up cumulative sums f @ zeta and their Mobius inversion."""

    def test_total_mass_at_top(self):
        p = cube_poset(2)
        zm = zeta_mobius(p)
        params = CubeWalkParams(d=2, alpha=(0.1, 0.2), beta=(0.15, 0.05))
        pi = stationary(nearest_neighbor_walk(params)).pi
        f = zm.zeta_right(pi, "down")
        assert abs(f[-1] - 1.0) < 1e-12

    def test_indicator_of_maximum(self):
        p = cube_poset(2)
        zm = zeta_mobius(p)
        top = np.zeros(4)
        top[3] = 1.0
        assert np.array_equal(zm.zeta_right(top, "down"), top)
        assert np.array_equal(zm.zeta_right(top, "up"), np.ones(4))

    def test_diamond_definition(self):
        p = diamond()
        zm = zeta_mobius(p)
        rng = np.random.default_rng(2)
        f = rng.normal(size=4)
        assert abs(zm.zeta_right(f, "down")[p.index("d")] - f.sum()) < 1e-12

    def test_all_ones_on_three_chain(self):
        p = build_poset([0, 1, 2], [(0, 1), (1, 2)])
        zm = zeta_mobius(p)
        assert np.allclose(zm.mobius_right(np.ones(3), "down"), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_inversion_round_trips(self, seed):
        rng = np.random.default_rng(500 + seed)
        p = cube_poset(3) if seed % 2 else diamond()
        zm = zeta_mobius(p)
        f = rng.normal(size=p.size)
        assert np.abs(zm.mobius_right(zm.zeta_right(f, "down"), "down") - f).max() < 1e-10
        assert np.abs(zm.mobius_right(zm.zeta_right(f, "up"), "up") - f).max() < 1e-10
        assert np.abs(zm.zeta_right(zm.mobius_right(f, "down"), "down") - f).max() < 1e-10
        assert np.abs(zm.zeta_right(zm.mobius_right(f, "up"), "up") - f).max() < 1e-10

    def test_integer_exactness(self):
        p = diamond()
        zm = zeta_mobius(p)
        f = np.array([3.0, -2.0, 5.0, 7.0])
        assert np.array_equal(zm.mobius_right(zm.zeta_right(f, "down"), "down"), f)


def raised(f, *args, **kwargs):
    """(type, message, attributes) of what f raises, or None."""
    try:
        f(*args, **kwargs)
    except Exception as exc:   # compared, not handled
        return type(exc), str(exc), vars(exc)
    return None


class TestWalkFromRates:
    """A walk's kernel is checked, and its law solved and certified, from its
    flip rates, with the outcome of the dense path on the same kernel."""

    @pytest.mark.parametrize("params", [
        CubeWalkParams(d=1, alpha=(1.0,), beta=(1.0,)),
        CubeWalkParams(d=2, alpha=(0.5, 0.5), beta=(0.5, 0.5)),
        CubeWalkParams(d=2, alpha=(0.5, 0.5), beta=(0.5, 0.5 - 1e-13)),
    ], ids=["d1", "d2", "d2_stay_within_row_tol"])
    def test_walks_that_cannot_stay_have_period_two(self, params):
        c = nearest_neighbor_walk(params)
        with pytest.raises(NotAperiodic) as exc:
            stationary(c)
        assert exc.value.period == 2
        assert raised(stationary, Chain(poset=c.poset, P=c.P)) == raised(stationary, c)

    def test_a_stay_just_past_row_tol_is_aperiodic(self):
        params = CubeWalkParams(d=2, alpha=(0.5, 0.5), beta=(0.5, 0.5 - 2e-12))
        law = stationary(nearest_neighbor_walk(params))
        assert law.path == "product_form"

    @pytest.mark.parametrize("d", range(1, 11))
    def test_product_form_is_the_solved_law(self, d):
        rng = np.random.default_rng([d, 29])
        w = rng.dirichlet(np.ones(2 * d))
        for alpha, beta in ((0.6 * w[:d], 0.6 * w[d:]), (w[:d], w[d:])):
            c = nearest_neighbor_walk(CubeWalkParams(d=d, alpha=tuple(alpha), beta=tuple(beta)))
            law = stationary(c)
            solved = stationary(Chain(poset=c.poset, P=c.P))
            assert law.path == "product_form" and solved.path != "product_form"
            assert np.abs(law.pi / solved.pi - 1.0).max() <= 1e-14
            assert law.residual <= 1e-15 and law.balance <= 1e-14

    @pytest.mark.parametrize("row_tol", [0.0, 1e-17, 1e-16, 2.3e-16, 5e-16, 1e-15])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_tight_row_tol_raises_what_the_dense_check_raises(self, d, row_tol):
        rng = np.random.default_rng([d, 31])
        for total in (0.3, 1.0, 1.0 + 5e-13):
            w = total * rng.dirichlet(np.ones(2 * d))
            params = CubeWalkParams(d=d, alpha=tuple(w[:d]), beta=tuple(w[d:]))
            for nu in (None, np.full(2**d, 1.0 / 2**d), np.eye(2**d)[-1] * 1.5):
                walk = raised(nearest_neighbor_walk, params, nu=nu, row_tol=row_tol)
                c = nearest_neighbor_walk(params)
                dense = raised(validate_chain, c.P, c.poset, nu=nu, row_tol=row_tol)
                assert walk == dense
