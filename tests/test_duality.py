import glob
import json
import os
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mobiusdual import (
    CubeWalkParams,
    axis_transformed_walk,
    build_link,
    build_poset,
    build_ssd,
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
from mobiusdual import cube as cube_module
from mobiusdual import duality, monotonicity
from mobiusdual.duality import DualChain, _residuals
from mobiusdual.monotonicity import mobius_transform
from mobiusdual.errors import (
    AbsorbingStateUnreachable,
    NoUniqueExtremalState,
    NumericalFailure,
    PreconditionFailed,
)
from mobiusdual.chain import ROW_TOL
from mobiusdual.poset import Poset
from mobiusdual.specfile import load_model, load_model_text

HERE = os.path.dirname(__file__)


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


def nu_star_summation(g, h, zm, direction):
    """Entrywise summation form of the dual initial law (oracle):
    nu*(e_i) = H(e_i) sum over e >= e_i (down; e <= e_i up) of mu g(e)."""
    m = len(g)
    cinv = zm.Cinv
    out = np.zeros(m)
    for i in range(m):
        if direction == "down":
            acc = sum(float(cinv[i, k]) * g[k] for k in range(i, m) if cinv[i, k])
        else:
            acc = sum(float(cinv[k, i]) * g[k] for k in range(0, i + 1) if cinv[k, i])
        out[i] = h[i] * acc
    return out


def is_total_order(p):
    return bool((p.leq | p.leq.T).all())


def birth_death_dual(c, law, direction):
    """(nu*, P*) on a totally ordered space from the explicit formulas (oracle).

    down: P*(i,j) = H(j)/H(i) (Prev(j, [1..i]) - Prev(j+1, [1..i])) with
    nu*(i) = H(i)(g(i) - g(i+1)); up mirrors with tail sums.
    """
    assert is_total_order(c.poset)
    g = g_ratio(c, law)
    rev = reverse(c, law)
    m = c.size
    pi = law.pi
    if direction == "down":
        h = np.cumsum(pi)
        cdf = np.cumsum(rev.P, axis=1)      # cdf[j, i] = Prev(j, [1..i])
        shifted = np.vstack([cdf[1:, :], np.zeros(m)])
        p_star = ((cdf - shifted) * h[:, None]).T / h[:, None]
        nu_star = h * (g - np.append(g[1:], 0.0))
    else:
        h = np.cumsum(pi[::-1])[::-1]
        tail = np.cumsum(rev.P[:, ::-1], axis=1)[:, ::-1]   # tail[j, i] = Prev(j, [i..M])
        shifted = np.vstack([np.zeros(m), tail[:-1, :]])
        p_star = ((tail - shifted) * h[:, None]).T / h[:, None]
        nu_star = h * (g - np.append(0.0, g[:-1]))
    return nu_star, p_star


def assert_matches_birth_death(c, law, direction):
    """Run the general construction, check it against the explicit formulas."""
    dual = build_ssd(c, law, zeta_mobius(c.poset), direction)
    nu_star, p_star = birth_death_dual(c, law, direction)
    assert np.abs(p_star - dual.P_star).max() < 1e-12
    assert np.abs(nu_star - dual.nu_star).max() < 1e-12
    return dual


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

    def test_nan_residual_is_refused(self, monkeypatch):
        _, c, law, zm = cube_setup(2, (0.1, 0.1), (0.2, 0.2), nu=delta(4, 0))
        monkeypatch.setattr(duality, "_nu_residual", lambda *a: np.nan)
        with pytest.raises(NumericalFailure, match="nu nan"):
            build_ssd(c, law, zm, "down")

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


class TestDualNoise:
    def test_diagonal_message_shows_a_plain_float(self, monkeypatch):
        # a negative tolerance fails every diagonal, here the exact 1.0
        _, c, law, zm = cube_setup(2, (0.1, 0.1), (0.1, 0.1), nu=delta(4, 0))
        monkeypatch.setattr(duality, "IDENTITY_TOL", -1.0)
        with pytest.raises(NumericalFailure) as exc:
            build_ssd(c, law, zm, "down")
        assert str(exc.value).endswith("diagonal 1.0")

    @pytest.mark.parametrize("generic", [False, True])
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_dual_is_row_major(self, direction, generic):
        # on both paths: a walk's closed form, and the transform of a copy
        # without its rates
        start = 0 if direction == "down" else 7
        _, c, law, zm = cube_setup(3, (0.05,) * 3, (0.07,) * 3, nu=delta(8, start))
        dual = build_ssd(generic_copy(c) if generic else c, law, zm, direction)
        assert dual.P_star.flags.c_contiguous
        assert dual.path == ("transform" if generic else "closed_form")

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", range(3, 9))
    def test_walk_dual_keeps_only_its_moves(self, d, direction):
        # P*(x, x + k) = s_k plus the diagonal: d 2^(d-1) + 2^d nonzeros, so
        # every float-noise entry of either sign is zeroed
        rng = np.random.default_rng(40 + d)
        alpha, beta = random_admissible(d, rng)
        start = 0 if direction == "down" else 2**d - 1
        _, c, law, zm = cube_setup(d, alpha, beta, nu=delta(2**d, start))
        dual = build_ssd(c, law, zm, direction)
        assert (dual.P_star != 0).sum() == d * 2 ** (d - 1) + 2**d
        assert (dual.nu_star != 0).sum() == 1
        assert dual.clamp_magnitude < 1e-14

    def test_forced_build_stays_raw(self, raw_dual):
        # a g+ walk is not reversible, so its dual is built from the computed
        # reversal and carries float noise
        params = CubeWalkParams(d=3, alpha=(0.05,) * 3, beta=(0.07,) * 3)
        c = axis_transformed_walk(params, 0.01).with_nu(delta(8, 0))
        law = stationary(c)
        raw = raw_dual(c, law, zeta_mobius(c.poset), "down")
        assert ((raw.P_star != 0) & (np.abs(raw.P_star) < 1e-14)).any()

    def test_reversible_walk_dual_has_no_noise(self, raw_dual):
        # the reversal of a detailed-balance law is the kernel itself, so the
        # raw dual of a walk is its move pattern exactly
        _, c, law, zm = cube_setup(4, (0.05,) * 4, (0.07,) * 4, nu=delta(16, 0))
        raw = raw_dual(c, law, zm, "down")
        assert (raw.P_star != 0).sum() == 4 * 2**3 + 2**4


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


class TestDualInitialLaw:
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_summation_oracle_with_nonconstant_ratio(self, direction):
        # g = C w (down) or C^T w (up) with w > 0 is Mobius monotone and
        # not constant
        rng = np.random.default_rng(17)
        alpha, beta = random_admissible(3, rng)
        _, c, law, zm = cube_setup(3, alpha, beta)
        cf = zm.C.astype(float)
        w = rng.uniform(0.1, 1.0, size=8)
        g = cf @ w if direction == "down" else cf.T @ w
        g = g / (law.pi @ g)
        c = c.with_nu(law.pi * g)
        dual = build_ssd(c, law, zm, direction)
        h = build_link(law, zm, direction).H
        expected = nu_star_summation(g_ratio(c, law), h, zm, direction)
        assert np.ptp(g) > 0.1
        assert np.abs(expected - dual.nu_star).max() < 1e-12


class TestReversedReport:
    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("generic", [False, True])
    def test_dual_carries_reversed_kernel_report(self, direction, generic):
        # a walk's report is read off its rates, a copy's off the transform
        start = 0 if direction == "down" else 7
        _, c, law, zm = cube_setup(3, (0.05,) * 3, (0.07,) * 3, nu=delta(8, start))
        if generic:
            c = generic_copy(c)
        dual = build_ssd(c, law, zm, direction)
        check = mobius_monotone_down if direction == "down" else mobius_monotone_up
        assert dual.reversed_report == check(reverse(c, law), zm)
        assert dual.reversed_report.verdict

    def test_preconditions_use_the_given_tolerance(self, raw_dual):
        # transformed walk whose reversal has a transform entry near -0.063
        params = CubeWalkParams(d=3, alpha=(0.02,) * 3, beta=(0.08,) * 3)
        c = axis_transformed_walk(params, 0.01).with_nu(delta(8, 0))
        law = stationary(c)
        zm = zeta_mobius(c.poset)
        with pytest.raises(PreconditionFailed) as exc:
            build_ssd(c, law, zm)
        assert exc.value.report.tolerance_used == 1e-10
        assert -0.07 < exc.value.report.worst_value < -0.06
        # at 0.2 both preconditions pass and the dual itself carries the
        # negative mass: the formula's most negative entry
        raw = raw_dual(c, law, zm)
        worst = float(min(raw.nu_star.min(), raw.P_star.min()))
        assert -0.07 < worst < -0.06
        with pytest.raises(NumericalFailure, match=re.escape(f"mass {worst!r} ")):
            build_ssd(c, law, zm, mono_tol=0.2)


def generic_copy(c):
    """The walk's kernel and start as a plain ``Chain``, without its rates."""
    return replace(c, flips=None)


class TestClosedFormPath:
    """A walk's Mobius reports and dual are read off its flip rates; a copy
    of the same kernel without them takes the transform."""

    @staticmethod
    def _no_transform(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mobius_transform called")

        monkeypatch.setattr(monotonicity, "mobius_transform", refuse)

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_walk_never_transforms(self, monkeypatch, direction):
        start = 0 if direction == "down" else 7
        _, c, law, zm = cube_setup(3, (0.05,) * 3, (0.07,) * 3, nu=delta(8, start))
        self._no_transform(monkeypatch)
        assert mobius_monotone_down(c, zm).verdict
        assert mobius_monotone_up(c, zm).verdict
        dual = build_ssd(c, law, zm, direction)
        assert dual.path == "closed_form"
        assert dual.reversed_report.verdict

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_copy_without_rates_transforms(self, monkeypatch, direction):
        start = 0 if direction == "down" else 7
        _, c, law, zm = cube_setup(3, (0.05,) * 3, (0.07,) * 3, nu=delta(8, start))
        g = generic_copy(c)
        assert reverse(g, law) is g and g.flips is None
        calls = []
        transform = monotonicity.mobius_transform
        monkeypatch.setattr(monotonicity, "mobius_transform",
                            lambda *a, **k: calls.append(a[2]) or transform(*a, **k))
        mobius_monotone_down(g, zm)
        mobius_monotone_up(g, zm)
        dual = build_ssd(g, law, zm, direction)
        assert calls == ["down", "up", direction]
        assert dual.path == "transform"

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("alpha, beta", [
        ((0.05, 0.1, 0.15), (0.04, 0.03, 0.02)),
        ((1e-12, 0.2, 0.15), (1e-12, 0.1, 0.2)),  # s_0 below the clamp
    ], ids=["admissible", "clamped"])
    def test_entries_are_built_once_per_walk_and_direction(self, direction, alpha, beta):
        # from pi, nu* is the absorbing point mass, which owes no bit, so
        # the clamped dual is built as well.  The second build is of a new
        # walk with equal rates, as each pass of a network run makes one:
        # the operators' caches are keyed by value, so it builds nothing
        cached = (cube_module.Flips.moves, cube_module.Flips.held,
                  cube_module.Flips.transform)
        for f in cached:
            f.cache_clear()
        params, c, law, zm = cube_setup(3, alpha, beta)
        first = build_ssd(c.with_nu(law.pi), law, zm, direction)
        misses = [f.cache_info().misses for f in cached]
        # the walk's and the dual's moves and stays (P* holds the dual's
        # stays as its kernel does), one transform
        assert misses == [2, 2, 1]
        _, c, law, zm = cube_setup(3, tuple(alpha), tuple(beta))
        second = build_ssd(c.with_nu(law.pi), law, zm, direction)
        assert [f.cache_info().misses for f in cached] == misses
        assert (first.clamp_magnitude > 0) == (alpha[0] < 1e-10)
        assert (first.flips is None) == (alpha[0] < 1e-10)
        for a, b in ((first.P_star, second.P_star), (first.nu_star, second.nu_star)):
            assert a.tobytes() == b.tobytes()
        assert first.intertwine_residual == second.intertwine_residual
        for entries in (*params.flips.dual(direction).moves(),
                        *params.flips.transform(direction), params.flips.held()):
            assert not entries.flags.writeable

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_a_stay_below_the_clamp_is_kept(self, direction):
        # the flips are far above CLAMP_TOL, but the state owing every bit
        # stays with 1 - sum s_k, about 9e-11: a legitimate entry, which
        # only the ROW_TOL rule of a kernel's stays would hold at 0
        fast = (0.3720930231851163, 0.32558139528697677, 0.302325581337907)
        slow = (2e-11, 2e-11, 5e-11)
        alpha, beta = (fast, slow) if direction == "down" else (slow, fast)
        owing = 0 if direction == "down" else 7
        start = np.zeros(8)
        start[owing] = 1.0
        _, c, law, zm = cube_setup(3, alpha, beta, nu=start)
        dual = build_ssd(c, law, zm, direction)
        stay = dual.P_star[owing, owing]
        assert 0 < stay < duality.CLAMP_TOL and stay > ROW_TOL
        assert dual.clamp_magnitude == 0 and dual.flips is not None
        assert dual.intertwine_residual <= 1e-10
        assert abs(stay - (1.0 - sum(np.add(alpha, beta)))) <= 1e-15

    @pytest.mark.parametrize("generic", [False, True])
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_a_negative_stay_above_the_clamp_is_zeroed(self, direction, generic):
        # sum(alpha + beta) = 1 + 5e-11: Mobius monotone at MONO_TOL, and
        # the state owing every bit stays with about -5e-11, which both
        # paths zero and record as the clamp
        alpha, beta = (0.2, 0.15, 0.15 + 5e-11), (0.2, 0.15, 0.15)
        owing = 0 if direction == "down" else 7
        _, c, law, zm = cube_setup(3, alpha, beta, nu=delta(8, owing))
        if generic:
            c = generic_copy(c)
        dual = build_ssd(c, law, zm, direction)
        assert dual.path == ("transform" if generic else "closed_form")
        assert dual.P_star[owing, owing] == 0.0 and dual.flips is None
        assert dual.clamp_magnitude == -(1.0 - sum(np.add(alpha, beta)))
        assert 0 < dual.clamp_magnitude < duality.CLAMP_TOL

    def test_constructors_carry_rates_only_from_the_walk(self):
        params, c, law, _ = cube_setup(3, (0.05,) * 3, (0.07,) * 3)
        assert c.flips == params.flips
        assert (c.flips.up, c.flips.down) == (params.alpha, params.beta)
        assert c.with_nu(delta(8, 0)).flips is c.flips
        assert reverse(c, law) is c
        assert axis_transformed_walk(params, 0.01).flips is None
        assert validate_chain(c.P, c.poset).flips is None


class TestAbsorbingStateReachable:
    """After the clamp, ``build_ssd`` refuses a dual in which a state
    reached from supp nu* cannot reach the absorbing state, on both paths."""

    CLAMPED = ((1e-12, 0.1, 0.1), (1e-12, 0.1, 0.1))  # s_1 = 2e-12 is dropped

    @pytest.mark.parametrize("path", ["closed_form", "transform"])
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_a_dropped_flip_owed_from_the_start_is_refused(self, direction, path):
        start, absorbing = (0, 7) if direction == "down" else (7, 0)
        _, c, law, zm = cube_setup(3, *self.CLAMPED, nu=delta(8, start))
        if path == "transform":
            c = generic_copy(c)
        with pytest.raises(AbsorbingStateUnreachable, match="second absorbing") as exc:
            build_ssd(c, law, zm, direction)
        stuck, target = exc.value.pair
        assert target == zm.elements[absorbing]
        # the stuck state still owes coordinate 1
        assert stuck[0] == zm.elements[start][0]
        if path == "closed_form":
            assert stuck == zm.elements[start]
            assert "coordinate 1" in str(exc.value)

    def test_only_states_reached_from_the_start_are_checked(self):
        # 1 <-> 2 is a closed class without a zero pivot; from 0 it is
        # reached through 1, and from 3 not at all
        p_star = np.array([
            [0.5, 0.25, 0.0, 0.25],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        labels = ["a", "b", "c", "d"]
        with pytest.raises(AbsorbingStateUnreachable) as exc:
            duality._check_absorbs(p_star, delta(4, 0), 3, labels)
        assert exc.value.pair == ("b", "d")
        p_star[0] = [0.5, 0.0, 0.0, 0.5]
        duality._check_absorbs(p_star, delta(4, 0), 3, labels)


def oracle_walks():
    """Walks with d = 1..8, two with sum(s) below 1 and one above it per d;
    rates within 30 % of each other keep every stay positive."""
    rng = np.random.default_rng(19)
    for d in range(1, 9):
        for total in (0.4, 0.97, 1.2):
            parts = rng.uniform(0.7, 1.3, 2 * d)
            parts *= total / parts.sum()
            yield d, tuple(parts[:d]), tuple(parts[d:])


def start_law(token, c, law):
    m = c.size
    return {"delta_min": delta(m, 0), "delta_max": delta(m, m - 1),
            "uniform": np.full(m, 1.0 / m), "stationary": law.pi}[token]


class TestClosedFormOracle:
    """The closed forms against the transform path on a plain copy of the
    same kernel: equal verdicts and witnesses, worst values within 1e-14,
    P* and nu* within 1e-15."""

    @pytest.mark.parametrize("d,alpha,beta", list(oracle_walks()))
    def test_reports_match_the_transform(self, d, alpha, beta):
        _, c, _, zm = cube_setup(d, alpha, beta)
        g = generic_copy(c)
        for check in (mobius_monotone_down, mobius_monotone_up):
            got, want = check(c, zm), check(g, zm)
            assert got.verdict == want.verdict
            assert got.witness == want.witness
            assert abs(got.worst_value - want.worst_value) <= 1e-14
        assert mobius_monotone_down(c, zm).verdict == (sum(alpha) + sum(beta) <= 1)

    @pytest.mark.parametrize("d,alpha,beta", list(oracle_walks()))
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_duals_match_the_transform(self, d, alpha, beta, direction):
        _, c, law, zm = cube_setup(d, alpha, beta)
        built = 0
        for token in ("delta_min", "uniform", "delta_max", "stationary"):
            cw = c.with_nu(start_law(token, c, law))
            cg = generic_copy(cw)
            try:
                want = build_ssd(cg, law, zm, direction)
            except PreconditionFailed as exc:
                with pytest.raises(PreconditionFailed) as got:
                    build_ssd(cw, law, zm, direction)
                assert got.value.report.notion == exc.report.notion
                assert got.value.report.witness == exc.report.witness
                continue
            got = build_ssd(cw, law, zm, direction)
            assert (got.path, want.path) == ("closed_form", "transform")
            assert got.reversed_report.witness == want.reversed_report.witness
            assert np.abs(got.P_star - want.P_star).max() <= 1e-15
            assert np.abs(got.nu_star - want.nu_star).max() <= 1e-15
            assert got.nu_residual <= 1e-10 and got.intertwine_residual <= 1e-10
            built += 1
        # the start at the dual's own bottom state always passes
        assert built >= (sum(alpha) + sum(beta) <= 1)

    def test_rate_below_the_mobius_tolerance(self):
        # alpha_1 and beta_1 (s_1 = 2e-11) are below both MONO_TOL and
        # CLAMP_TOL.  The witness rule reads alpha_1 as a zero, so the up
        # witness moves from (000, 110) to (000, 100); the clamp drops the
        # flip of coordinate 1 from P*, on both paths.  From 000 that flip
        # is owed, so both paths refuse; from pi, whose nu* is the
        # absorbing point mass, both build.
        alpha, beta = (1e-11, 0.1, 0.12), (1e-11, 0.08, 0.05)
        _, c, law, zm = cube_setup(3, alpha, beta, nu=delta(8, 0))
        g = generic_copy(c)
        for check in (mobius_monotone_down, mobius_monotone_up):
            got, want = check(c, zm), check(g, zm)
            assert (got.verdict, got.witness) == (want.verdict, want.witness)
            assert abs(got.worst_value - want.worst_value) <= 1e-14
        assert mobius_monotone_up(c, zm).witness == ((0, 0, 0), (1, 0, 0))
        for chain in (c, g):
            with pytest.raises(AbsorbingStateUnreachable):
                build_ssd(chain, law, zm)
        got, want = build_ssd(c.with_nu(law.pi), law, zm), build_ssd(g.with_nu(law.pi), law, zm)
        assert got.P_star[0, 1] == want.P_star[0, 1] == 0.0
        assert got.clamp_magnitude > 0 and want.clamp_magnitude > 0
        assert np.abs(got.P_star - want.P_star).max() <= 1e-15

    def test_stay_clamped_to_zero(self):
        # stay(000) = 1 - sum(alpha) is about -3e-13 in the rates and 0 in
        # the kernel, and the dual's diagonal 1 - sum(s) at 000 is about
        # -5e-13, below the clamp: the closed form reads the rates, the
        # transform the clamped kernel, so the worst values differ by about
        # the clamped stay, and P* agrees after the clamp.
        alpha, beta = (0.5, 0.3, 0.2 + 3e-13), (1e-13, 5e-14, 5e-14)
        _, c, law, zm = cube_setup(3, alpha, beta, nu=delta(8, 0))
        assert c.P[0, 0] == 0.0
        g = generic_copy(c)
        for check in (mobius_monotone_down, mobius_monotone_up):
            got, want = check(c, zm), check(g, zm)
            assert (got.verdict, got.witness) == (want.verdict, want.witness)
            assert abs(got.worst_value - want.worst_value) <= 1e-12
        got, want = build_ssd(c, law, zm), build_ssd(g, law, zm)
        assert got.P_star[0, 0] == want.P_star[0, 0] == 0.0
        assert np.abs(got.P_star - want.P_star).max() <= 1e-15


class TestLinearOrderDual:
    def test_two_state_hand_computation(self):
        a, b = 0.3, 0.1
        p = build_poset([0, 1], [(0, 1)])
        mat = np.array([[1 - a, a], [b, 1 - b]])
        c = validate_chain(mat, p, nu=np.array([1.0, 0.0]))
        law = stationary(c)
        dual = assert_matches_birth_death(c, law, "down")
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
        assert_matches_birth_death(c, law, "down")

    def test_up_linear_formulas_with_increasing_ratio(self):
        a, b = 0.25, 0.15
        p = build_poset([0, 1], [(0, 1)])
        mat = np.array([[1 - a, a], [b, 1 - b]])
        c = validate_chain(mat, p, nu=np.array([0.0, 1.0]))
        law = stationary(c)
        dual = assert_matches_birth_death(c, law, "up")
        assert dual.absorbing_index == 0
        # tail cumulative masses: Hbar = (1, pi_2)
        assert dual.nu_star[1] == pytest.approx(1.0, abs=1e-12)
        assert dual.P_star[1, 0] == pytest.approx(a + b, abs=1e-12)


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


def dense_twin(c):
    """The chain on the same order without ``cube_dim``: the dense path."""
    p = c.poset
    return validate_chain(c.P, Poset(p.elements, p.leq), nu=c.nu)


class TestButterflyPath:
    """A cube dual (butterflies) against the same chain on the dense path."""

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [3, 6, 10])
    def test_matches_the_dense_path(self, d, direction):
        rng = np.random.default_rng(d)
        alpha, beta = random_admissible(d, rng, total=0.6)
        m = 2**d
        start = delta(m, 0 if direction == "down" else m - 1)
        _, c, law, zm = cube_setup(d, alpha, beta)
        c = c.with_nu(0.5 * start + 0.5 * law.pi)
        twin = dense_twin(c)
        twin_zm = zeta_mobius(twin.poset)
        assert zm.cube_dim == d and twin_zm.cube_dim is None
        dual = build_ssd(c, law, zm, direction)
        dense = build_ssd(twin, law, twin_zm, direction)
        assert dual.absorbing_index == dense.absorbing_index
        assert np.abs(dual.nu_star - dense.nu_star).max() <= 1e-13
        assert np.abs(dual.P_star - dense.P_star).max() <= 1e-13
        assert abs(dual.nu_residual - dense.nu_residual) <= 1e-13
        assert abs(dual.intertwine_residual - dense.intertwine_residual) <= 1e-13
        rep, dense_rep = dual.reversed_report, dense.reversed_report
        assert rep.verdict == dense_rep.verdict
        assert abs(rep.worst_value - dense_rep.worst_value) <= 1e-13

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_ten_cube_peak_stays_at_four_kernels(self, direction):
        # the residuals hold P*, one finished product, one scaled input and
        # the action's output at once: four 8 MiB kernels.  The traced peak
        # is 53 KiB above them.  Before the passes were blocked it was 237
        # KiB above them (32.24 MiB), almost all of it numpy's ufunc
        # buffers at their default size.
        rng = np.random.default_rng(10)
        alpha, beta = random_admissible(10, rng, total=0.6)
        m = 2**10
        start = delta(m, 0 if direction == "down" else m - 1)
        _, c, law, zm = cube_setup(10, alpha, beta, nu=start)
        build_ssd(c, law, zm, direction)
        tracemalloc.start()
        try:
            build_ssd(c, law, zm, direction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * m * m + 2**17

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_residuals_match_the_dense_link(self, d, direction):
        # perturb the dual so the residuals measure something beyond noise
        rng = np.random.default_rng(40 + d)
        alpha, beta = random_admissible(d, rng)
        m = 2**d
        _, c, law, zm = cube_setup(d, alpha, beta, nu=rng.dirichlet(np.ones(m)))
        link = build_link(law, zm, direction)
        nu_star = rng.random(m)
        p_star = rng.random((m, m))
        got = _residuals(c, law, zm, direction, link.H, nu_star, p_star)
        want = (
            np.abs(c.nu - nu_star @ link.Lambda).max(),
            np.abs(link.Lambda @ c.P - p_star @ link.Lambda).max(),
        )
        assert got == pytest.approx(want, rel=1e-13)


def dense_link(law, zm, direction):
    """(Lambda, H) by the dense formula Lambda = (Z^T * pi) / H (oracle)."""
    cz = zm.zeta(direction)
    h = law.pi @ cz
    return (cz.T * law.pi[None, :]) / h[:, None], h


def general_chains():
    """The chain fixtures, the cube fixtures on their dense twin posets and
    the perfbench pool posets, each with a start law."""
    chains = []
    for path in sorted(glob.glob(os.path.join(HERE, "data", "*.spec"))):
        if os.path.basename(path) == "bad_row.spec":
            continue
        loaded = load_model(path)
        if loaded.kind == "chain":
            chains.append(loaded.chain)
        elif loaded.kind == "cube":
            chains.append(dense_twin(nearest_neighbor_walk(loaded.cube)))
    with open(os.path.join(HERE, os.pardir, "perfbench", "pool.json")) as fh:
        chains += [load_model_text(e["spec"]).chain for e in json.load(fh)["posets"]]
    rng = np.random.default_rng(5)
    return [c.with_nu(rng.dirichlet(np.ones(c.size))) for c in chains]


class TestLinkActions:
    """build_link through the zeta actions against the dense formula."""

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_general_posets_are_byte_identical(self, direction):
        chains = general_chains()
        assert len(chains) == 28
        for c in chains:
            law = stationary(c)
            zm = zeta_mobius(c.poset)
            assert zm.cube_dim is None
            link = build_link(law, zm, direction)
            lam, h = dense_link(law, zm, direction)
            assert link.Lambda.tobytes() == lam.tobytes()
            assert link.H.tobytes() == h.tobytes()

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [1, 2, 5, 8, 10])
    def test_cubes_match_within_1e13(self, d, direction):
        alpha, beta = random_admissible(d, np.random.default_rng(60 + d))
        _, _, law, zm = cube_setup(d, alpha, beta)
        link = build_link(law, zm, direction)
        lam, h = dense_link(law, zm, direction)
        assert np.abs(link.H - h).max() <= 1e-13
        assert np.abs(link.Lambda - lam).max() <= 1e-13
        assert (link.Lambda == 0).tolist() == (lam == 0).tolist()

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_general_residuals_match_the_dense_link(self, direction):
        # perturbed duals, so the residuals measure something beyond noise
        rng = np.random.default_rng(9)
        for c in general_chains():
            law = stationary(c)
            zm = zeta_mobius(c.poset)
            lam, h = dense_link(law, zm, direction)
            nu_star, p_star = rng.random(c.size), rng.random((c.size, c.size))
            got = _residuals(c, law, zm, direction, h, nu_star, p_star)
            want = (
                np.abs(c.nu - nu_star @ lam).max(),
                np.abs(lam @ c.P - p_star @ lam).max(),
            )
            assert got == pytest.approx(want, rel=1e-13)


def walk_cases(d, seed):
    """(alpha, beta) of walks on the d-cube: random admissible rates, rates
    on the admissible boundary sum(alpha + beta) = 1, and one bit whose
    s_k lies below the clamp, which the dual drops."""
    rng = np.random.default_rng([d, seed])
    w = rng.dirichlet(np.ones(2 * d))
    tiny = w.copy()
    tiny[[0, d]] = 10.0 ** rng.uniform(-16, -10.5, 2)
    return [random_admissible(d, rng), (w[:d], w[d:]), (tiny[:d], tiny[d:])]


def dense_intertwining(c, law, dual):
    """max|Lambda P - P* Lambda| of a built dual, through ``_residuals``."""
    h = c.poset.zeta_right(law.pi, dual.direction)
    return _residuals(c, law, c.poset, dual.direction, h, dual.nu_star, dual.P_star)[1]


def walk_dual(c, direction):
    """The dual from the extremal point mass of ``direction``, which owes
    every bit, or, when the clamp drops a flip, from pi, which owes none."""
    law = stationary(c)
    if (np.add(c.flips.up, c.flips.down) < duality.CLAMP_TOL).any():
        c = c.with_nu(law.pi)
    else:
        c = c.with_nu(delta(c.size, 0 if direction == "down" else c.size - 1))
    return c, law, build_ssd(c, law, c.poset, direction)


class TestWalkBound:
    """On the closed-form path the intertwining is certified by a bound read
    off the flip rates, which dominates the dense residual and catches a
    wrong closed form."""

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_bound_dominates_the_dense_residual(self, d, direction):
        for seed in range(3):
            for alpha, beta in walk_cases(d, seed):
                walk = CubeWalkParams(d=d, alpha=tuple(alpha), beta=tuple(beta))
                c, law, dual = walk_dual(nearest_neighbor_walk(walk), direction)
                assert dual.path == "closed_form"
                dense = dense_intertwining(c, law, dual)
                assert dense <= dual.intertwine_residual <= 1e-10

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [1, 4, 10])
    def test_bound_dominates_on_walk_shaped_networks(self, d, direction):
        from mobiusdual.availability import uniformize_walk

        rng = np.random.default_rng([d, 7])
        psi, phi = rng.uniform(0.02, 0.08, (2, d))
        # from multiplier 2 on, a single-move network is Mobius monotone
        for multiplier in (2.0, 3.0):
            chain, _ = uniformize_walk(d, psi, phi, multiplier)
            c, law, dual = walk_dual(chain, direction)
            assert dual.path == "closed_form"
            assert dense_intertwining(c, law, dual) <= dual.intertwine_residual <= 1e-10

    @pytest.mark.parametrize("corrupt", ["swapped", "off_pattern"])
    def test_wrong_closed_form_is_refused(self, monkeypatch, corrupt):
        # P* is corrupted after it is written from the dual operator's
        # moves and checked for absorption, so only the certificate stands
        # between it and the caller; test_availability's
        # test_wrong_closed_form_fails_the_residuals scales the flips instead
        check = duality._check_flips_absorb

        def wrong(cols, raw, p_star, *args):
            check(cols, raw, p_star, *args)
            flips = np.flatnonzero(p_star[0])[1:]   # the flips out of state 0
            if corrupt == "swapped":
                # the two flips out of state 0 trade columns
                p_star[0, flips[:2]] = p_star[0, flips[1::-1]]
            else:
                # one flip out of state 0 lands two bits away
                p_star[0, flips[0] ^ 0b10] = p_star[0, flips[0]]
                p_star[0, flips[0]] = 0.0

        monkeypatch.setattr(duality, "_check_flips_absorb", wrong)
        _, c, law, zm = cube_setup(3, (0.05, 0.1, 0.15), (0.04, 0.03, 0.02), nu=delta(8, 0))
        with pytest.raises(NumericalFailure, match="residuals"):
            build_ssd(c, law, zm, "down")

    def test_no_dense_residual_and_no_square_array(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense residual computed")

        monkeypatch.setattr(duality, "_residuals", refuse)
        d = 10
        alpha, beta = random_admissible(d, np.random.default_rng(3))
        c, law, dual = walk_dual(nearest_neighbor_walk(
            CubeWalkParams(d=d, alpha=tuple(alpha), beta=tuple(beta))), "down")
        tracemalloc.start()
        try:
            bound = c.flips.intertwine_bound("down", law.pi, dual.P_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound == dual.intertwine_residual
        assert peak < c.size**2   # an eighth of one m x m float array


def rational_walks(seed, count=10):
    """``count`` walks with rational rates k/D, d cycling over 1..6 with
    the middle sizes twice as often, each admissible: sum(alpha + beta) is
    at most 1, and exactly 1 for a quarter of them.  Every fourth walk sits
    within 1e-9 of the holding boundary instead: one rate of each bit is
    below 1e-10, and its largest stay 1 - sum_k max(alpha_k, beta_k) is at
    most 1e-9.  Its dual then stays at the extremal state with probability
    0 or 2..4e-10, clear of the clamp, which would refuse the dual."""
    rng = np.random.default_rng([seed, 29])
    for i in range(count):
        d = (1, 2, 3, 4, 5, 6, 2, 3, 4, 5)[i % 10]
        if i % 4 == 3:
            tiny = [Fraction(int(k), 10**11) for k in rng.integers(1, 10, d)]
            weights = [int(w) for w in rng.integers(1, 20, d)]
            room = 1 - sum(tiny) - Fraction(int(rng.choice([0, 2, 3, 4])), 10**10)
            big = [room * w / sum(weights) for w in weights]
            up = rng.random(d) < 0.5
            rates = [b if u else t for b, t, u in zip(big, tiny, up)]
            rates += [t if u else b for b, t, u in zip(big, tiny, up)]
        else:
            nums = [int(k) for k in rng.integers(1, 50, 2 * d)]
            den = sum(nums) + (0 if i % 4 == 1 else int(rng.integers(1, 40)))
            rates = [Fraction(k, den) for k in nums]
        yield CubeWalkParams(d=d, alpha=tuple(map(float, rates[:d])),
                             beta=tuple(map(float, rates[d:])))


def exact_intertwining(c, law, dual):
    """max|Lambda P - P* Lambda| in Fractions from the emitted float P,
    P* and pi, each read exactly, through the poset's zeta actions on
    object arrays (the link as ``build_link`` forms it); zeros stay the
    int 0, which is faster to add."""
    exact = np.vectorize(lambda x: Fraction(x) if x else 0, otypes=[object])
    pi, kernel, p_star = exact(law.pi), exact(c.P), exact(dual.P_star)
    other = "up" if dual.direction == "down" else "down"
    h = c.poset.zeta_right(pi, dual.direction, object)
    lam_p = c.poset.zeta_left(pi[:, None] * kernel, other, object) / h[:, None]
    p_lam = c.poset.zeta_right(p_star / h, other, object) * pi
    return max(abs(v) for v in (lam_p - p_lam).ravel())


class TestExactIntertwining:
    """The closed form's printed bound against the exact residual of the
    arrays it certifies, on 200 walks with rational rates, half of them
    in each direction."""

    @pytest.mark.parametrize("seed", range(20))
    def test_bound_dominates_the_exact_residual(self, seed):
        for i, params in enumerate(rational_walks(seed)):
            direction = ("down", "up")[(seed + i) % 2]
            m = 2**params.d
            c = nearest_neighbor_walk(params, nu=delta(m, 0 if direction == "down" else m - 1))
            law = stationary(c)
            dual = build_ssd(c, law, c.poset, direction)
            assert dual.path == "closed_form"
            assert exact_intertwining(c, law, dual) <= Fraction(dual.intertwine_residual)
