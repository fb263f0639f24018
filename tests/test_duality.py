import numpy as np
import pytest

from mobiusdual import (
    CubeWalkParams,
    build_link,
    build_poset,
    build_ssd,
    build_ssd_linear,
    cube_poset,
    g_ratio,
    mobius_monotone_down,
    mobius_monotone_up,
    nearest_neighbor_walk,
    reverse,
    stationary,
    validate_chain,
    verify_duality,
    zeta_mobius,
)
from mobiusdual.duality import DualChain
from mobiusdual.errors import (
    NotTotalOrder,
    NoUniqueExtremalState,
    PreconditionFailed,
)


def delta(m, k):
    out = np.zeros(m)
    out[k] = 1.0
    return out


def cube_setup(d, alpha, beta, nu=None):
    params = CubeWalkParams(d=d, alpha=alpha, beta=beta)
    c = nearest_neighbor_walk(params, nu=nu)
    law = stationary(c)
    zm = zeta_mobius(c.poset)
    return params, c, law, zm


def closed_form_cube_dual(p, alpha, beta):
    """Expected dual of the nearest-neighbor walk: upward unit jumps only."""
    m = p.size
    out = np.zeros((m, m))
    d = len(alpha)
    for i, e in enumerate(p.elements):
        zero = [k for k in range(d) if e[k] == 0]
        out[i, i] = 1.0 - sum(alpha[k] + beta[k] for k in zero)
        for k in zero:
            up = list(e)
            up[k] = 1
            out[i, p.index(tuple(up))] = alpha[k] + beta[k]
    return out


def random_admissible(d, rng, total=None):
    total = rng.uniform(0.3, 0.98) if total is None else total
    parts = rng.dirichlet(np.ones(2 * d)) * total
    return tuple(parts[:d]), tuple(parts[d:])


class TestLink:
    def test_symmetric_two_cube_masses(self):
        _, c, law, zm = cube_setup(2, (0.2, 0.2), (0.2, 0.2))
        link = build_link(law, zm, "down")
        assert np.allclose(link.H, [0.25, 0.5, 0.5, 1.0])

    def test_top_row_equals_stationary_law(self):
        _, c, law, zm = cube_setup(2, (0.1, 0.2), (0.15, 0.12))
        link = build_link(law, zm, "down")
        assert np.abs(link.Lambda[-1] - law.pi).max() < 1e-14

    def test_bottom_row_is_point_mass(self):
        _, c, law, zm = cube_setup(2, (0.1, 0.2), (0.15, 0.12))
        link = build_link(law, zm, "down")
        assert np.allclose(link.Lambda[0], delta(4, 0))

    def test_rows_are_stochastic_and_supported_on_down_sets(self):
        _, c, law, zm = cube_setup(3, (0.05,) * 3, (0.07,) * 3)
        link = build_link(law, zm, "down")
        assert np.abs(link.Lambda.sum(axis=1) - 1.0).max() < 1e-12
        assert (link.Lambda[~c.poset.leq.T] == 0).all()

    def test_up_direction_mirrors(self):
        _, c, law, zm = cube_setup(2, (0.1, 0.2), (0.15, 0.12))
        link = build_link(law, zm, "up")
        assert np.abs(link.Lambda[0] - law.pi).max() < 1e-14
        assert np.allclose(link.Lambda[-1], delta(4, 3))


class TestBuildSsdDown:
    @pytest.mark.parametrize("d", [2, 3])
    def test_cube_closed_forms(self, d):
        rng = np.random.default_rng(d)
        alpha, beta = random_admissible(d, rng)
        _, c, law, zm = cube_setup(d, alpha, beta, nu=delta(2**d, 0))
        dual = build_ssd(c, law, zm, "down")
        expected = closed_form_cube_dual(c.poset, alpha, beta)
        assert np.abs(dual.P_star - expected).max() < 1e-12
        assert dual.absorbing_index == 2**d - 1
        assert dual.nu_residual <= 1e-10
        assert dual.intertwine_residual <= 1e-10

    def test_delta_min_start_gives_delta_min_dual_start(self):
        _, c, law, zm = cube_setup(3, (0.05,) * 3, (0.06,) * 3, nu=delta(8, 0))
        dual = build_ssd(c, law, zm, "down")
        assert np.allclose(dual.nu_star, delta(8, 0))

    def test_stationary_start_absorbs_immediately(self):
        _, c, law, zm = cube_setup(2, (0.1, 0.1), (0.2, 0.2))
        c = c.with_nu(law.pi)
        dual = build_ssd(c, law, zm, "down")
        assert np.allclose(dual.nu_star, delta(4, 3), atol=1e-12)

    def test_matrix_forms_agree(self):
        # the construction admits two equivalent matrix forms; check both
        rng = np.random.default_rng(5)
        alpha, beta = random_admissible(3, rng)
        _, c, law, zm = cube_setup(3, alpha, beta, nu=delta(8, 0))
        dual = build_ssd(c, law, zm, "down")
        pi = law.pi
        cf = zm.C.astype(float)
        h = pi @ cf
        left = np.diag(1.0 / h) @ (cf.T * pi[None, :])
        alt = (
            np.diag(1.0 / h)
            @ cf.T
            @ np.diag(pi)
            @ c.P
            @ np.linalg.inv(cf.T @ np.diag(pi))
            @ np.diag(h)
        )
        assert np.abs(alt - dual.P_star).max() < 1e-10

    def test_entrywise_summation_oracle(self):
        # P*(e_i, e_j) = H(j)/H(i) sum_{e >= e_j} mu(e_j, e) Prev(e, down(e_i))
        rng = np.random.default_rng(8)
        alpha, beta = random_admissible(2, rng)
        _, c, law, zm = cube_setup(2, alpha, beta, nu=delta(4, 0))
        dual = build_ssd(c, law, zm, "down")
        rev = reverse(c, law)
        p = c.poset
        h = law.pi @ zm.C.astype(float)
        m = p.size
        expected = np.zeros((m, m))
        for i in range(m):
            down_i = np.flatnonzero(p.leq[:, i])
            for j in range(m):
                acc = 0.0
                for e in range(m):
                    if p.leq[j, e] and zm.Cinv[j, e]:
                        acc += zm.Cinv[j, e] * rev.P[e, down_i].sum()
                expected[i, j] = h[j] / h[i] * acc
        assert np.abs(expected - dual.P_star).max() < 1e-12

    def test_precondition_failure_attaches_report(self):
        _, c, law, zm = cube_setup(2, (0.3, 0.3), (0.3, 0.3), nu=delta(4, 0))
        with pytest.raises(PreconditionFailed) as exc:
            build_ssd(c, law, zm, "down")
        assert exc.value.report is not None
        assert exc.value.report.notion == "mobius_down"
        assert exc.value.report.worst_value < 0
        assert exc.value.report == mobius_monotone_down(reverse(c, law), zm)

    def test_up_precondition_report_equals_reversed_kernel_report(self):
        _, c, law, zm = cube_setup(2, (0.3, 0.3), (0.3, 0.3), nu=delta(4, 3))
        with pytest.raises(PreconditionFailed) as exc:
            build_ssd(c, law, zm, "up")
        assert exc.value.report == mobius_monotone_up(reverse(c, law), zm)

    def test_force_returns_raw_signed_matrices(self):
        _, c, law, zm = cube_setup(2, (0.3, 0.3), (0.3, 0.3), nu=delta(4, 0))
        dual = build_ssd(c, law, zm, "down", force=True)
        assert dual.forced
        assert dual.P_star.min() < -1e-3

    def test_bad_start_law_rejected(self):
        # nu concentrated at the top makes g = nu/pi increase upward
        _, c, law, zm = cube_setup(2, (0.1, 0.1), (0.1, 0.1), nu=delta(4, 3))
        with pytest.raises(PreconditionFailed) as exc:
            build_ssd(c, law, zm, "down")
        assert exc.value.report.notion == "function_mobius_down"

    def test_multiple_maxima_rejected(self):
        p = build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
        mat = np.array([
            [0.6, 0.2, 0.2],
            [0.3, 0.6, 0.1],
            [0.3, 0.1, 0.6],
        ])
        c = validate_chain(mat, p, nu=np.array([1.0, 0.0, 0.0]))
        law = stationary(c)
        zm = zeta_mobius(p)
        with pytest.raises(NoUniqueExtremalState):
            build_ssd(c, law, zm, "down")


class TestBuildSsdUp:
    def test_cube_up_dual_absorbs_at_minimum(self):
        rng = np.random.default_rng(13)
        alpha, beta = random_admissible(3, rng)
        _, c, law, zm = cube_setup(3, alpha, beta, nu=delta(8, 7))
        dual = build_ssd(c, law, zm, "up")
        assert dual.absorbing_index == 0
        assert dual.P_star[0, 0] == 1.0
        assert np.allclose(dual.nu_star, delta(8, 7))
        link = build_link(law, zm, "up")
        res = verify_duality(link, c, dual)
        assert res.nu_residual <= 1e-10
        assert res.intertwine_residual <= 1e-10

    def test_up_dual_never_moves_upward_on_cubes(self):
        rng = np.random.default_rng(14)
        alpha, beta = random_admissible(2, rng)
        _, c, law, zm = cube_setup(2, alpha, beta, nu=delta(4, 3))
        dual = build_ssd(c, law, zm, "up")
        strict_up = c.poset.leq & ~np.eye(4, dtype=bool)
        assert np.abs(dual.P_star[strict_up]).max() < 1e-12

    def test_up_entrywise_summation_oracle(self):
        # mirror of the down form: the (e_i, e_j) entry is
        # Hbar(j)/Hbar(i) * sum over e <= e_j of mu(e, e_j) Prev(e, up(e_i))
        rng = np.random.default_rng(15)
        alpha, beta = random_admissible(3, rng)
        _, c, law, zm = cube_setup(3, alpha, beta, nu=delta(8, 7))
        dual = build_ssd(c, law, zm, "up")
        rev = reverse(c, law)
        p = c.poset
        m = p.size
        hbar = law.pi @ zm.C.T.astype(float)
        expected = np.zeros((m, m))
        for i in range(m):
            up_i = np.flatnonzero(p.leq[i, :])
            for j in range(m):
                acc = 0.0
                for e in range(m):
                    if p.leq[e, j] and zm.Cinv[e, j]:
                        acc += zm.Cinv[e, j] * rev.P[e, up_i].sum()
                expected[i, j] = hbar[j] / hbar[i] * acc
        assert np.abs(expected - dual.P_star).max() < 1e-12

    def test_up_dual_nu_summation_oracle(self):
        # nu_dual(e_i) = Hbar(e_i) * sum over e <= e_i of g(e) mu(e, e_i)
        rng = np.random.default_rng(16)
        alpha, beta = random_admissible(2, rng)
        params, c, law, zm = cube_setup(2, alpha, beta)
        nu = law.pi.copy()          # g constant: admissible in both directions
        c = c.with_nu(nu)
        dual = build_ssd(c, law, zm, "up")
        g = nu / law.pi
        hbar = law.pi @ zm.C.T.astype(float)
        p = c.poset
        expected = np.zeros(4)
        for i in range(4):
            acc = sum(
                g[e] * zm.Cinv[e, i]
                for e in range(4)
                if p.leq[e, i] and zm.Cinv[e, i]
            )
            expected[i] = hbar[i] * acc
        assert np.abs(expected - dual.nu_star).max() < 1e-12
        # with g constant the dual starts absorbed at the minimum
        assert np.allclose(dual.nu_star, delta(4, 0), atol=1e-12)


class TestLinearOrderDual:
    def test_two_state_hand_computation(self):
        a, b = 0.3, 0.1
        p = build_poset([0, 1], [(0, 1)])
        mat = np.array([[1 - a, a], [b, 1 - b]])
        c = validate_chain(mat, p, nu=np.array([1.0, 0.0]))
        law = stationary(c)
        dual = build_ssd_linear(c, law, "down")
        assert dual.P_star[0, 1] == pytest.approx(a + b, abs=1e-12)
        assert dual.P_star[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert dual.P_star[0, 0] == pytest.approx(1 - a - b, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_general_construction(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(3, 11))
        p = build_poset(list(range(m)), [(i, i + 1) for i in range(m - 1)])
        mat = np.zeros((m, m))
        for i in range(m):
            up = rng.uniform(0.05, 0.3) if i + 1 < m else 0.0
            dn = rng.uniform(0.05, min(0.3, 0.05 + 0.8 * up)) if i > 0 else 0.0
            if i + 1 < m:
                mat[i, i + 1] = up
            if i > 0:
                mat[i, i - 1] = dn
            mat[i, i] = 1 - up - dn
        c = validate_chain(mat, p, nu=delta(m, 0))
        law = stationary(c)
        zm = zeta_mobius(p)
        rev = reverse(c, law)
        if not mobius_monotone_down(rev, zm).verdict:
            pytest.skip("sampled birth-death kernel is not monotone")
        dual = build_ssd_linear(c, law, "down")
        general = build_ssd(c, law, zm, "down")
        assert np.abs(dual.P_star - general.P_star).max() < 1e-12
        assert np.abs(dual.nu_star - general.nu_star).max() < 1e-12

    def test_up_linear_formulas_with_increasing_ratio(self):
        a, b = 0.25, 0.15
        p = build_poset([0, 1], [(0, 1)])
        mat = np.array([[1 - a, a], [b, 1 - b]])
        c = validate_chain(mat, p, nu=np.array([0.0, 1.0]))
        law = stationary(c)
        dual = build_ssd_linear(c, law, "up")
        assert dual.absorbing_index == 0
        # tail cumulative masses: Hbar = (1, pi_2)
        assert dual.nu_star[1] == pytest.approx(1.0, abs=1e-12)
        assert dual.P_star[1, 0] == pytest.approx(a + b, abs=1e-12)

    def test_not_total_order(self):
        p = cube_poset(2)
        c = validate_chain(np.eye(4), p, nu=delta(4, 0))
        law_pi = np.full(4, 0.25)
        from mobiusdual.chain import StationaryLaw

        with pytest.raises(NotTotalOrder):
            build_ssd_linear(c, StationaryLaw(pi=law_pi, residual=0.0), "down")


class TestVerifyDuality:
    def test_constructed_dual_passes(self):
        rng = np.random.default_rng(3)
        alpha, beta = random_admissible(3, rng)
        _, c, law, zm = cube_setup(3, alpha, beta, nu=delta(8, 0))
        dual = build_ssd(c, law, zm, "down")
        link = build_link(law, zm, "down")
        res = verify_duality(link, c, dual)
        assert res.ok
        assert res.row_sum_deviation < 1e-12
        assert res.min_nu_star >= 0.0
        assert res.min_P_star >= 0.0

    def test_corrupted_dual_detected(self):
        rng = np.random.default_rng(4)
        alpha, beta = random_admissible(2, rng)
        _, c, law, zm = cube_setup(2, alpha, beta, nu=delta(4, 0))
        dual = build_ssd(c, law, zm, "down")
        link = build_link(law, zm, "down")
        bad = dual.P_star.copy()
        bad[0, 1] += 1e-3
        bad_dual = DualChain(
            nu_star=dual.nu_star.copy(),
            P_star=bad,
            absorbing_index=dual.absorbing_index,
            direction=dual.direction,
        )
        res = verify_duality(link, c, bad_dual)
        assert res.intertwine_residual >= 1e-4


class TestSpectralStructure:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_dual_preserves_spectrum(self, d):
        rng = np.random.default_rng(40 + d)
        alpha, beta = random_admissible(d, rng)
        _, c, law, zm = cube_setup(d, alpha, beta, nu=delta(2**d, 0))
        dual = build_ssd(c, law, zm, "down")
        ev_p = np.sort(np.linalg.eigvals(c.P).real)
        ev_d = np.sort(np.linalg.eigvals(dual.P_star).real)
        assert np.abs(ev_p - ev_d).max() < 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_diagonal_reads_subset_rates(self, d):
        rng = np.random.default_rng(60 + d)
        alpha, beta = random_admissible(d, rng)
        _, c, law, zm = cube_setup(d, alpha, beta, nu=delta(2**d, 0))
        dual = build_ssd(c, law, zm, "down")
        rates = np.asarray(alpha) + np.asarray(beta)
        sums = np.zeros(1)
        for r in rates:
            sums = np.concatenate([sums, sums + r])
        assert np.abs(
            np.sort(np.diag(dual.P_star)) - np.sort(1.0 - sums)
        ).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dual_is_upper_triangular(self, d):
        rng = np.random.default_rng(80 + d)
        alpha, beta = random_admissible(d, rng)
        _, c, law, zm = cube_setup(d, alpha, beta, nu=delta(2**d, 0))
        dual = build_ssd(c, law, zm, "down")
        assert np.abs(np.tril(dual.P_star, -1)).max() < 1e-12
        # no strictly-downward mass in the order sense either
        strict_down = c.poset.leq.T & ~np.eye(2**d, dtype=bool)
        assert np.abs(dual.P_star[strict_down]).max() < 1e-12
