import dataclasses
import os
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import binom

from mobiusdual import (
    CubeWalkParams,
    absorption_tail,
    build_poset,
    build_ssd,
    cube_eigenvalues,
    cube_poset,
    cube_separation_formula,
    nearest_neighbor_walk,
    separation_curve,
    simulate_absorption,
    sst_bound_check,
    stationary,
    validate_chain,
    zeta_mobius,
)
from mobiusdual import convergence
from mobiusdual.availability import uniformize_walk
from mobiusdual.chain import nonzeros
from mobiusdual.convergence import (
    MAX_HORIZON,
    _count_below,
    _sparse_rows,
    binomial_band,
    move_order,
)
from mobiusdual.cube import Flips
from mobiusdual.duality import DualChain
from mobiusdual.errors import (
    DimensionMismatch,
    HorizonTooLarge,
    MobiusDualError,
    PreconditionFailed,
    SingularFundamentalMatrix,
)
from mobiusdual.specfile import load_model, load_model_text


DATA = os.path.join(os.path.dirname(__file__), "data")
# birth-death chain on the total order a < b < c; its down dual (Diaconis
# and Fill 1990) moves both up and down the order
BIRTH_DEATH = (
    "[poset]\nstates: a b c\ncover: a b\ncover: b c\n\n"
    "[chain]\nrow: 0.6 0.4 0\nrow: 0.3 0.4 0.3\nrow: 0 0.4 0.6\n"
    "nu: delta_min\n"
)


def delta(m, k):
    out = np.zeros(m)
    out[k] = 1.0
    return out


def cube_chain(d, alpha, beta, start=0):
    params = CubeWalkParams(d=d, alpha=alpha, beta=beta)
    c = nearest_neighbor_walk(params, nu=delta(2**d, start))
    return c, stationary(c)


def separation_gray_loop(alpha, beta, n):
    """Reference: the inclusion-exclusion sum visited in Gray-code order."""
    rates = np.asarray(alpha, dtype=float) + np.asarray(beta, dtype=float)
    total = 0.0
    s = 0.0
    bits = 0
    gray_prev = 0
    for k in range(1, 2 ** len(rates)):
        gray = k ^ (k >> 1)
        flip = (gray ^ gray_prev).bit_length() - 1
        if gray & (1 << flip):
            s += rates[flip]
            bits += 1
        else:
            s -= rates[flip]
            bits -= 1
        gray_prev = gray
        sign = 1.0 if bits % 2 == 1 else -1.0
        total += sign * (1.0 - s) ** n
    return total


def extreme_walk_dual(d, direction, mixed=False, seed=0):
    """Dual of a random admissible d-cube walk started from the extremal
    state of ``direction`` (all-zeros down, all-ones up), or from the
    half-half mixture of that point mass and pi."""
    rng = np.random.default_rng([d, seed])
    a = rng.uniform(0.5, 1.5, d)
    b = rng.uniform(0.5, 1.5, d)
    scale = 0.8 / (a.sum() + b.sum())
    params = CubeWalkParams(d=d, alpha=tuple(a * scale), beta=tuple(b * scale))
    m = 2**d
    nu = delta(m, 0 if direction == "down" else m - 1)
    c = nearest_neighbor_walk(params, nu=nu)
    law = stationary(c)
    if mixed:
        c = c.with_nu(0.5 * nu + 0.5 * law.pi)
    return params, build_ssd(c, law, zeta_mobius(c.poset), direction)


def inclusion_exclusion_mean(params):
    """E T* = sum over nonempty coordinate subsets of (-1)^(|g|-1) / s_g,
    the sum over n of the cube walk's closed-form separation."""
    rates = np.add(params.alpha, params.beta)
    total = 0.0
    for k in range(1, params.d + 1):
        for gamma in combinations(range(params.d), k):
            total += (-1) ** (k - 1) / rates[list(gamma)].sum()
    return total


def dense_simulate(dual, samples, seed, horizon=None, confidence=0.99):
    """Reference: every draw compared with all m cumulants of its row, the
    tail as the mean of a (horizon+1) x samples indicator matrix and the
    band from scipy.stats."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(dual.P_star, axis=1)
    start_cum = np.cumsum(dual.nu_star)
    state = np.searchsorted(start_cum, rng.random(samples), side="right")
    state = np.minimum(state, dual.size - 1)
    times = np.zeros(samples, dtype=np.int64)
    alive = state != dual.absorbing_index
    step = 0
    while alive.any():
        step += 1
        idx = np.flatnonzero(alive)
        u = rng.random(idx.size)
        nxt = (u[:, None] > cum[state[idx]]).sum(axis=1)
        nxt = np.minimum(nxt, dual.size - 1)
        state[idx] = nxt
        absorbed = nxt == dual.absorbing_index
        times[idx[absorbed]] = step
        alive[idx[absorbed]] = False
    if horizon is None:
        horizon = int(times.max())
    ns = np.arange(horizon + 1)
    empirical = (times[None, :] > ns[:, None]).mean(axis=1)
    lo, hi = binom.interval(confidence, samples, np.clip(empirical, 0.0, 1.0))
    return empirical, lo / samples, hi / samples


def assert_same_simulation(dual, samples, seed, horizon=None):
    result = simulate_absorption(dual, samples, seed, horizon=horizon)
    tail, lower, upper = dense_simulate(dual, samples, seed, horizon=horizon)
    assert result.sampler == "moves"
    assert result.tail.tobytes() == tail.tobytes()
    assert result.lower.tobytes() == lower.tobytes()
    assert result.upper.tobytes() == upper.tobytes()


def two_state_dual(a, b):
    mat = np.array([[1 - a - b, a + b], [0.0, 1.0]])
    return DualChain(
        nu_star=np.array([1.0, 0.0]),
        P_star=mat,
        absorbing_index=1,
        direction="down",
    )


def dense_curve_loop(c, law, horizon):
    """Oracle: s(n) with nu P^n stepped by dense products."""
    dist = c.nu.astype(float)
    values = [float((1.0 - dist / law.pi).max())]
    for _ in range(horizon):
        dist = dist @ c.P
        values.append(float((1.0 - dist / law.pi).max()))
    return np.array(values)


def dense_tail_loop(dual, horizon):
    """Oracle: nu*_t Q^n 1 with the transient block Q stepped densely."""
    keep = [i for i in range(dual.size) if i != dual.absorbing_index]
    q = dual.P_star[np.ix_(keep, keep)]
    cur = dual.nu_star[keep]
    tail = [cur.sum()]
    for _ in range(horizon):
        cur = cur @ q
        tail.append(cur.sum())
    return np.array(tail)


class TestNonzeroSteps:
    """Curves and tails step over the kernel's nonzeros, or a walk's through
    its Kronecker factors; the dense loops they replaced are the oracles."""

    # Both summation orders lose a few ulps of mass: over 120 seeded 3-cube
    # walks (this generator, seeds 0-59, both starts) with the state
    # reduction law and the spanning-tree law, the curves differ by at most
    # 7 eps and the tails by at most 1.5 eps.
    NOISE = 16 * np.finfo(float).eps
    # A walk's factors sum in another order again: its curves and tails
    # differ from the dense loops by up to about 27 eps here, and each
    # path is as far from a long-double loop on the same kernel.
    KRON_NOISE = 1e-13

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [3, 6, 10])
    def test_walk_curve_and_tail_match_dense_loops(self, d, direction):
        params, dual = extreme_walk_dual(d, direction, mixed=d == 6)
        c = nearest_neighbor_walk(params)
        m = c.size
        c = c.with_nu(delta(m, 0 if direction == "down" else m - 1))
        law = stationary(c)
        curve = separation_curve(c, law, 200, stop_below=None)
        assert np.abs(curve.values - dense_curve_loop(c, law, 200)).max() <= self.KRON_NOISE
        tail = absorption_tail(dual, 200)
        assert np.abs(tail.tail - dense_tail_loop(dual, 200)).max() <= self.KRON_NOISE

    def test_dense_general_kernel(self, raw_dual):
        c = load_model(os.path.join(DATA, "strong_not_mobius.spec")).chain
        law = stationary(c)
        curve = separation_curve(c, law, 50, stop_below=None)
        assert np.abs(curve.values - dense_curve_loop(c, law, 50)).max() <= 1e-15
        dual = raw_dual(c, law, zeta_mobius(c.poset), "down")
        tail = absorption_tail(dual, 50)
        assert np.abs(tail.tail - dense_tail_loop(dual, 50)).max() <= 1e-15


class TestSeparationCurve:
    def test_stationary_start_is_flat_zero(self):
        c, law = cube_chain(2, (0.1, 0.15), (0.12, 0.2))
        c = c.with_nu(law.pi)
        curve = separation_curve(c, law, 20)
        assert np.abs(curve.values).max() < 1e-12

    def test_two_state_geometric_decay(self):
        a, b = 0.2, 0.15
        c, law = cube_chain(1, (a,), (b,))
        curve = separation_curve(c, law, 40)
        n = np.arange(41)
        assert np.abs(curve.values - (1 - a - b) ** n).max() < 1e-12

    def test_symmetric_two_cube_closed_form(self):
        # s(n) = 2 (0.6)^n - (0.2)^n for alpha = beta = 0.2
        c, law = cube_chain(2, (0.2, 0.2), (0.2, 0.2))
        curve = separation_curve(c, law, 50)
        n = np.arange(51)
        expected = 2 * 0.6**n - 0.2**n
        assert np.abs(curve.values - expected).max() < 1e-10

    def test_values_lie_in_unit_interval_and_decrease(self):
        c, law = cube_chain(3, (0.05,) * 3, (0.08,) * 3)
        curve = separation_curve(c, law, 100)
        assert (curve.values >= -1e-15).all()
        assert (curve.values <= 1.0 + 1e-15).all()
        assert (np.diff(curve.values) <= 1e-12).all()

    def test_early_stop(self):
        c, law = cube_chain(2, (0.2, 0.2), (0.2, 0.2))
        curve = separation_curve(c, law, 500, stop_below=1e-14)
        assert curve.horizon < 100
        assert curve.values[-1] < 1e-14

    def test_horizon_guard(self):
        c, law = cube_chain(1, (0.2,), (0.2,))
        with pytest.raises(HorizonTooLarge):
            separation_curve(c, law, 10**8)

    def test_needs_initial_law(self):
        params = CubeWalkParams(d=1, alpha=(0.2,), beta=(0.2,))
        c = nearest_neighbor_walk(params)
        law = stationary(c)
        with pytest.raises(PreconditionFailed):
            separation_curve(c, law, 5)


class TestTailNeverRises:
    """Both paths subtract each step's absorbed mass from the last tail
    value, so no tail rises, even at its last bit, and a tail is exactly 1
    until mass can reach the absorbing state."""

    HORIZON = 300

    @pytest.mark.parametrize("d", range(1, 11))
    def test_walk_duals_on_both_paths(self, d):
        # ten walks per d, from the extremal point mass of each direction
        for seed in range(10):
            direction = ("down", "up")[seed % 2]
            _, dual = extreme_walk_dual(d, direction, seed=seed)
            assert dual.flips is not None
            tails = [absorption_tail(x, self.HORIZON).tail
                     for x in (dual, dataclasses.replace(dual, flips=None))]
            for tail in tails:
                assert (np.diff(tail) <= 0).all()
                assert (tail[:d] == 1.0).all()
            assert np.abs(tails[0] - tails[1]).max() <= 1e-13

    def test_three_cube_holds_one_until_three_steps(self):
        c = load_model(os.path.join(DATA, "three_cube.spec")).cube
        c = nearest_neighbor_walk(c, nu=delta(8, 0))
        dual = build_ssd(c, stationary(c), c.poset, "down")
        for x in (dual, dataclasses.replace(dual, flips=None)):
            tail = absorption_tail(x, 5).tail
            assert tail[1] == tail[2] == 1.0 and tail[3] < 1.0


class TestAbsorptionTail:
    def test_immediate_absorption(self):
        dual = DualChain(
            nu_star=np.array([0.0, 1.0]),
            P_star=np.array([[0.5, 0.5], [0.0, 1.0]]),
            absorbing_index=1,
            direction="down",
        )
        law = absorption_tail(dual, 10)
        assert np.abs(law.tail).max() == 0.0
        assert law.mean == 0.0

    def test_single_state_dual_is_absorbed_at_once(self):
        dual = DualChain(nu_star=np.array([1.0]), P_star=np.array([[1.0]]),
                         absorbing_index=0, direction="down")
        law = absorption_tail(dual, 3)
        assert law.tail.tolist() == [0.0] * 4
        assert law.mean == 0.0

    def test_two_state_geometric_law(self):
        a, b = 0.25, 0.15
        law = absorption_tail(two_state_dual(a, b), 30)
        n = np.arange(31)
        assert np.abs(law.tail - (1 - a - b) ** n).max() < 1e-12
        assert law.mean == pytest.approx(1.0 / (a + b), abs=1e-12)

    def test_tail_zero_element_is_escape_mass(self):
        c, law = cube_chain(3, (0.04,) * 3, (0.05,) * 3)
        zm = zeta_mobius(c.poset)
        dual = build_ssd(c, stationary(c), zm, "down")
        tail = absorption_tail(dual, 5)
        assert tail.tail[0] == pytest.approx(1 - dual.nu_star[-1], abs=1e-14)

    def test_cube_tail_equals_separation(self):
        c, law = cube_chain(3, (0.05, 0.04, 0.06), (0.07, 0.05, 0.03))
        zm = zeta_mobius(c.poset)
        dual = build_ssd(c, law, zm, "down")
        curve = separation_curve(c, law, 60)
        tail = absorption_tail(dual, 60)
        assert np.abs(curve.values - tail.tail).max() < 1e-10

    def test_mean_equals_tail_sum(self):
        c, law = cube_chain(2, (0.1, 0.12), (0.09, 0.11))
        zm = zeta_mobius(c.poset)
        dual = build_ssd(c, law, zm, "down")
        tail = absorption_tail(dual, 2000)
        assert tail.tail[-1] < 1e-14
        assert tail.mean == pytest.approx(tail.tail.sum(), abs=1e-8)

    @pytest.mark.parametrize("name", ["two_cube", "three_cube", "four_cube"])
    def test_fixture_tails_are_probabilities(self, name):
        # the normalised rows of P* sum to 1 only to rounding: unclipped,
        # the three_cube tail read 1 + 2^-52 at n = 1, 2
        params = load_model(os.path.join(DATA, f"{name}.spec")).cube
        m = 2**params.d
        for direction, start in (("down", 0), ("up", m - 1)):
            c = nearest_neighbor_walk(params, nu=delta(m, start))
            dual = build_ssd(c, stationary(c), zeta_mobius(c.poset), direction)
            tail = absorption_tail(dual, 200).tail
            assert tail.max() <= 1.0 and tail.min() >= 0.0
            assert tail[0] == 1.0

    def test_second_absorbing_class_detected(self):
        bad = DualChain(
            nu_star=np.array([0.5, 0.25, 0.25]),
            P_star=np.array([
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]),
            absorbing_index=2,
            direction="down",
        )
        with pytest.raises(SingularFundamentalMatrix):
            absorption_tail(bad, 5)


class TestAbsorptionMean:
    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [3, 6, 9])
    def test_matches_lu_and_inclusion_exclusion(self, d, direction):
        params, dual = extreme_walk_dual(d, direction)
        keep = [i for i in range(dual.size) if i != dual.absorbing_index]
        q = dual.P_star[np.ix_(keep, keep)]
        lu = dual.nu_star[keep] @ np.linalg.solve(np.eye(len(keep)) - q,
                                                  np.ones(len(keep)))
        mean = absorption_tail(dual, 0).mean
        assert mean == pytest.approx(lu, rel=1e-10)
        assert mean == pytest.approx(inclusion_exclusion_mean(params), rel=1e-10)

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [3, 8])
    def test_moves_are_row_major_in_either_memory_order(self, d, direction):
        _, dual = extreme_walk_dual(d, direction, mixed=True)
        assert dual.P_star.flags.c_contiguous
        rows, cols = np.nonzero(dual.P_star != 0)
        for mat in (dual.P_star, np.asfortranarray(dual.P_star)):
            got = nonzeros(mat)
            want = (rows, cols, mat[rows, cols])
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_walk_duals_take_the_triangular_path(self):
        # a down dual moves up the mask enumeration, an up dual down it
        for direction, order in (("down", "ascending"), ("up", "descending")):
            _, dual = extreme_walk_dual(5, direction)
            rows, cols, _ = nonzeros(dual.P_star)
            assert move_order(rows, cols) == order

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_walk_duals_never_call_lu(self, monkeypatch, direction):
        params, dual = extreme_walk_dual(6, direction)

        def refuse(*args, **kwargs):
            raise AssertionError("LU solve on a one-way dual")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        mean = absorption_tail(dual, 10).mean
        assert mean == pytest.approx(inclusion_exclusion_mean(params), rel=1e-12)

    def test_walk_dual_never_forms_the_dense_block(self):
        # the dense I - Q and its copies peaked at 25 MiB here
        _, dual = extreme_walk_dual(10, "down")
        tracemalloc.start()
        try:
            absorption_tail(dual, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_dense_transient_block_falls_back_to_lu(self, monkeypatch):
        p_star = np.array([
            [0.5, 0.2, 0.3],
            [0.4, 0.4, 0.2],
            [0.0, 0.0, 1.0],
        ])
        dual = DualChain(nu_star=np.array([0.6, 0.4, 0.0]), P_star=p_star,
                         absorbing_index=2, direction="down")
        rows, cols, _ = nonzeros(p_star)
        assert move_order(rows, cols) is None
        q = p_star[:2, :2]
        expected = np.array([0.6, 0.4]) @ np.linalg.solve(np.eye(2) - q, np.ones(2))
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda *a: solves.append(a) or solve(*a)
        )
        assert absorption_tail(dual, 3).mean == pytest.approx(expected, rel=1e-14)
        assert len(solves) == 1

    def test_birth_death_dual_moves_both_ways(self):
        # Diaconis-Fill dual of a birth-death chain on a total order: its
        # moves go both ways, so the mean takes the LU path
        c = load_model_text(BIRTH_DEATH).chain
        dual = build_ssd(c, stationary(c), zeta_mobius(c.poset), "down")
        rows, cols, _ = nonzeros(dual.P_star)
        assert move_order(rows, cols) is None
        law = absorption_tail(dual, 40)
        assert np.abs(law.tail - dense_tail_loop(dual, 40)).max() <= 1e-15
        keep = [i for i in range(dual.size) if i != dual.absorbing_index]
        q = dual.P_star[np.ix_(keep, keep)]
        expected = dual.nu_star[keep] @ np.linalg.solve(
            np.eye(len(keep)) - q, np.ones(len(keep))
        )
        assert law.mean == pytest.approx(expected, rel=1e-14)

    def test_one_way_moves_off_the_enumeration_are_substituted(self, monkeypatch):
        # the transient moves go 2 -> 0 -> 1, against the enumeration at
        # 2 -> 0 and along it at 0 -> 1; state 3 absorbs
        p_star = np.array([
            [0.5, 0.3, 0.0, 0.2],
            [0.0, 0.6, 0.0, 0.4],
            [0.25, 0.0, 0.7, 0.05],
            [0.0, 0.0, 0.0, 1.0],
        ])
        dual = DualChain(nu_star=np.array([0.2, 0.3, 0.5, 0.0]), P_star=p_star,
                         absorbing_index=3, direction="down")
        rows, cols, _ = nonzeros(p_star)
        assert move_order(rows, cols) is None
        q = p_star[:3, :3]
        expected = dual.nu_star[:3] @ np.linalg.solve(np.eye(3) - q, np.ones(3))

        def refuse(*args, **kwargs):
            raise AssertionError("LU solve on a one-way dual")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        assert absorption_tail(dual, 3).mean == pytest.approx(expected, rel=1e-14)

    def test_triangular_second_absorbing_state_is_a_zero_pivot(self):
        # state 1 absorbs as well as state 2
        bad = DualChain(
            nu_star=np.array([0.5, 0.5, 0.0]),
            P_star=np.array([
                [0.5, 0.25, 0.25],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]),
            absorbing_index=2,
            direction="down",
        )
        with pytest.raises(SingularFundamentalMatrix, match="zero pivot"):
            absorption_tail(bad, 5)


class TestRowFormMean:
    """A dual that carries its operator takes its mean from the row step
    that steps its tail: y (I - Q) = nu*_T layer by layer, against the
    dense (I - Q) x = 1 on the transient block of the emitted P*."""

    # walks as (total flip rate, rate of bit 0): inside the admissible
    # region; within 1e-9 of its boundary sum(alpha + beta) = 1, where the
    # start's stay is 1e-9 or 2e-12, above the ROW_TOL at which it would be
    # held at 0; and with a slow bit 0, s_0 = 1e-9 or 1e-4, whose wait of
    # about 1/s_0 steps dominates the mean
    WALKS = ((0.5, None), (1.0 - 1e-9, None), (1.0 - 2e-12, None), (0.5, 1e-9), (0.5, 1e-4))

    @staticmethod
    def walk_duals(d, direction, total, slow):
        """The duals of a d-cube walk from each start that admits one;
        bit 0 flips at rate ``slow`` unless it is None."""
        rng = np.random.default_rng([d, 34])
        parts = rng.uniform(0.5, 1.5, 2 * d)
        parts *= total / parts.sum()
        if slow is not None:
            parts[[0, d]] = slow / 2
        params = CubeWalkParams(d=d, alpha=tuple(parts[:d]), beta=tuple(parts[d:]))
        c = nearest_neighbor_walk(params)
        law = stationary(c)
        m = c.size
        for nu in (delta(m, 0), delta(m, m - 1), np.full(m, 1.0 / m), law.pi):
            try:
                yield build_ssd(c.with_nu(nu), law, zeta_mobius(c.poset), direction)
            except PreconditionFailed:
                continue

    @pytest.mark.parametrize("total, slow", WALKS)
    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_the_dense_solve(self, d, direction, total, slow):
        duals = list(self.walk_duals(d, direction, total, slow))
        # the extremal start of the direction and pi always qualify
        assert len(duals) >= 2
        # P* does not depend on the start, so one solve serves every start.
        # P* holds a slow flip's stay as 1 - s_0 rounded, off by up to
        # eps/s_0 relative, so the diagonal of I - Q is taken as each row's
        # moves out, which is 1 - stay on a stochastic row
        p_star = duals[0].P_star
        keep = np.arange(p_star.shape[0]) != duals[0].absorbing_index
        off = p_star - np.diag(np.diag(p_star))
        fundamental = (np.diag(off.sum(axis=1)) - off)[np.ix_(keep, keep)]
        steps = np.linalg.solve(fundamental, np.ones(keep.sum()))
        for dual in duals:
            assert dual.flips is not None
            assert np.array_equal(dual.P_star, p_star)
            want = dual.nu_star[keep] @ steps
            for solved in (dual, dataclasses.replace(dual, flips=None)):
                got = absorption_tail(solved, 0).mean
                assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_the_factors_are_built_once(self, monkeypatch, direction):
        params, dual = extreme_walk_dual(6, direction)
        calls = []
        row_step = Flips.row_step
        monkeypatch.setattr(Flips, "row_step", lambda self: calls.append(self) or row_step(self))
        law = absorption_tail(dual, 50)
        assert calls == [dual.flips]
        assert law.mean == pytest.approx(inclusion_exclusion_mean(params), rel=1e-12)


def nonzero_curve(c, law, horizon):
    """Oracle: s(n) with nu P^n stepped over the nonzeros of the emitted P."""
    rows, cols = np.nonzero(c.P)
    vals = c.P[rows, cols]
    dist = c.nu.astype(float)
    values = [(1.0 - dist / law.pi).max()]
    for _ in range(horizon):
        dist = np.bincount(cols, dist[rows] * vals, c.size)
        values.append((1.0 - dist / law.pi).max())
    return np.array(values)


def nonzero_tail(dual, horizon):
    """Oracle: (tail, mean) of the emitted P*, its tail stepped over the
    nonzeros with the absorbing mass zeroed after each step, its mean by LU
    on the dense I - Q."""
    a = dual.absorbing_index
    rows, cols = np.nonzero(dual.P_star)
    vals = dual.P_star[rows, cols]
    cur = dual.nu_star.astype(float)
    cur[a] = 0.0
    tail = [cur.sum()]
    for _ in range(horizon):
        cur = np.bincount(cols, cur[rows] * vals, dual.size)
        cur[a] = 0.0
        tail.append(cur.sum())
    keep = np.arange(dual.size) != a
    q = dual.P_star[np.ix_(keep, keep)]
    mean = dual.nu_star[keep] @ np.linalg.solve(np.eye(q.shape[0]) - q, np.ones(q.shape[0]))
    return np.clip(tail, 0.0, 1.0), mean


def start_laws(m, seed):
    """delta_min, delta_max, the uniform law and a random law on m states."""
    rng = np.random.default_rng([m, seed])
    random = rng.uniform(size=m)
    return delta(m, 0), delta(m, m - 1), np.full(m, 1.0 / m), random / random.sum()


class TestKroneckerSteps:
    """A walk's curve and an unclamped closed-form dual's tail and mean step
    through two Kronecker factors of the rates; the emitted dense P and P*,
    stepped over their nonzeros, are the oracles."""

    HORIZON = 200

    def assert_curves(self, c, law, seed=0):
        for nu in start_laws(c.size, seed):
            started = c.with_nu(nu)
            got = separation_curve(started, law, self.HORIZON).values
            want = nonzero_curve(started, law, self.HORIZON)
            assert np.abs(got - want).max() <= 1e-13

    def assert_tails(self, dual, seed=0):
        assert dual.flips is not None and dual.clamp_magnitude == 0
        for nu in start_laws(dual.size, seed):
            restarted = dataclasses.replace(dual, nu_star=nu)
            got = absorption_tail(restarted, self.HORIZON)
            tail, mean = nonzero_tail(restarted, self.HORIZON)
            assert np.abs(got.tail - tail).max() <= 1e-13
            assert got.mean == pytest.approx(mean, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_walks_match_the_emitted_kernels(self, d, direction):
        params, dual = extreme_walk_dual(d, direction)
        c = nearest_neighbor_walk(params)
        self.assert_curves(c, stationary(c), d)
        self.assert_tails(dual, d)

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [1, 4, 7, 10])
    def test_walk_shaped_networks_match_the_emitted_kernels(self, d, direction):
        rng = np.random.default_rng(d)
        psi, phi = rng.uniform(0.001, 0.004, d), rng.uniform(0.05, 0.1, d)
        c, _ = uniformize_walk(d, psi, phi, multiplier=2.0)
        m = c.size
        c = c.with_nu(delta(m, 0 if direction == "down" else m - 1))
        law = stationary(c)
        self.assert_curves(c, law, d)
        self.assert_tails(build_ssd(c, law, zeta_mobius(c.poset), direction), d)

    def test_a_zeroed_stay_is_stepped_as_emitted(self):
        # stay(000) = 1 - 3 (1/3 + 1e-13) is about -3e-13 in the rates and
        # exactly 0 in the kernel; the step adds the difference back
        params = CubeWalkParams(d=3, alpha=(1 / 3 + 1e-13,) * 3, beta=(0.1,) * 3)
        c = nearest_neighbor_walk(params)
        assert c.P[0, 0] == 0.0
        assert 1.0 - sum(params.alpha) != 0.0
        self.assert_curves(c, stationary(c))

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [3, 10])
    def test_the_dense_arrays_are_not_read(self, d, direction):
        params, dual = extreme_walk_dual(d, direction)
        m = 2**d
        c = nearest_neighbor_walk(params, nu=delta(m, 0 if direction == "down" else m - 1))
        law = stationary(c)
        blind = dataclasses.replace(c, P=np.full((m, m), np.nan))
        assert (separation_curve(blind, law, 100).values.tobytes()
                == separation_curve(c, law, 100).values.tobytes())
        blind = dataclasses.replace(dual, P_star=np.full((m, m), np.nan))
        got, want = absorption_tail(blind, 100), absorption_tail(dual, 100)
        assert got.tail.tobytes() == want.tail.tobytes() and got.mean == want.mean

    def test_a_clamped_dual_keeps_the_move_path(self, monkeypatch):
        # s_0 lies below the clamp, so the dual drops bit 0: the states
        # without it whose other bits are all set absorb as well.  From 000,
        # which owes bit 0, build_ssd refuses the dual; from pi, whose nu*
        # is the absorbing point mass, it builds the same P*
        alpha, beta = (1e-12, 0.2, 0.15), (1e-12, 0.1, 0.2)
        params = CubeWalkParams(d=3, alpha=alpha, beta=beta)
        c = nearest_neighbor_walk(params, nu=delta(8, 0))
        law = stationary(c)
        dual = build_ssd(c.with_nu(law.pi), law, zeta_mobius(c.poset), "down")
        assert dual.path == "closed_form" and dual.clamp_magnitude > 0
        assert dual.flips is None   # the clamp left P* that is not the operator's

        def refuse(*args):
            raise AssertionError("a clamped dual read the walk's rates")

        monkeypatch.setattr(Flips, "row_step", refuse)
        monkeypatch.setattr(Flips, "moves", refuse)
        monkeypatch.setattr(convergence, "_rate_times", refuse)
        assert simulate_absorption(dual, 100, seed=1).sampler == "moves"
        with pytest.raises(SingularFundamentalMatrix, match="zero pivot"):
            absorption_tail(dataclasses.replace(dual, nu_star=delta(8, 0)), 5)

    def test_transform_duals_carry_no_walk(self):
        c = load_model_text(BIRTH_DEATH).chain
        dual = build_ssd(c, stationary(c), zeta_mobius(c.poset), "down")
        assert (dual.path, dual.flips) == ("transform", None)


class TestSstBound:
    def test_equality_on_cube_models(self):
        c, law = cube_chain(2, (0.08, 0.1), (0.07, 0.06))
        zm = zeta_mobius(c.poset)
        dual = build_ssd(c, law, zm, "down")
        curve = separation_curve(c, law, 50)
        tail = absorption_tail(dual, 50)
        report = sst_bound_check(curve, tail)
        assert report.ok
        assert report.equality

    def test_corrupted_tail_reports_violation(self):
        c, law = cube_chain(2, (0.08, 0.1), (0.07, 0.06))
        zm = zeta_mobius(c.poset)
        dual = build_ssd(c, law, zm, "down")
        curve = separation_curve(c, law, 20)
        tail = absorption_tail(dual, 20)

        class Halved:
            pass

        halved = Halved()
        halved.tail = tail.tail * 0.5
        report = sst_bound_check(curve, halved)
        assert not report.ok
        assert report.max_violation > 0.1

    def test_horizon_mismatch(self):
        c, law = cube_chain(1, (0.2,), (0.2,))
        curve = separation_curve(c, law, 10)
        tail = absorption_tail(two_state_dual(0.2, 0.2), 5)
        with pytest.raises(DimensionMismatch):
            sst_bound_check(curve, tail)


def subset_sums(rates):
    """(s_gamma, (-1)^(|gamma|-1)) over the subsets gamma of the rates,
    subset mask k holding rate i iff bit i of k is set, built afresh by
    doubling (oracle)."""
    sums, signs = np.zeros(1), -np.ones(1)
    for r in np.asarray(rates, dtype=float).tolist():
        sums, signs = np.concatenate((sums, sums + r)), np.concatenate((signs, -signs))
    return sums, signs


class TestCubeClosedForms:
    def test_time_zero_is_one(self):
        assert cube_separation_formula((0.1, 0.2), (0.05, 0.1), 0) == pytest.approx(1.0)

    def test_two_cube_first_step(self):
        assert cube_separation_formula((0.2, 0.2), (0.2, 0.2), 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_exact_curve(self, d):
        rng = np.random.default_rng(d)
        total = rng.uniform(0.4, 0.95)
        parts = rng.dirichlet(np.ones(2 * d)) * total
        alpha, beta = tuple(parts[:d]), tuple(parts[d:])
        c, law = cube_chain(d, alpha, beta)
        curve = separation_curve(c, law, 100)
        formula = np.array(
            [cube_separation_formula(alpha, beta, n) for n in range(101)]
        )
        assert np.abs(curve.values - formula).max() < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 5, 8, 10])
    def test_matches_gray_code_loop(self, d):
        rng = np.random.default_rng(50 + d)
        parts = rng.dirichlet(np.ones(2 * d)) * rng.uniform(0.4, 1.0)
        alpha, beta = parts[:d], parts[d:]
        for n in (0, 1, 2, 7, 50, 200):
            value = cube_separation_formula(alpha, beta, n)
            assert isinstance(value, float)
            assert abs(value - separation_gray_loop(alpha, beta, n)) < 1e-12

    @pytest.mark.parametrize("d", range(1, 14))
    def test_array_of_n_is_the_per_n_floats(self, d):
        rng = np.random.default_rng(d)
        alpha, beta = (0.125 / d) * (0.5 + rng.uniform(size=(2, d)))
        values = cube_separation_formula(alpha, beta, np.arange(201))
        assert values.dtype == np.float64 and values.shape == (201,)
        assert np.array_equal(
            values, [cube_separation_formula(alpha, beta, n) for n in range(201)]
        )

    @pytest.mark.parametrize("d", [1, 2, 5, 10, 13])
    def test_per_n_values_are_the_uncached_sums(self, d):
        rng = np.random.default_rng([d, 29])
        alpha, beta = (0.125 / d) * (0.5 + rng.uniform(size=(2, d)))
        for n in range(201):
            sums, signs = subset_sums(alpha + beta)
            want = float(signs[1:] @ (1.0 - sums[1:]) ** n)
            assert cube_separation_formula(alpha, beta, n) == want

    def test_a_new_rate_vector_never_reads_a_stale_table(self):
        rng = np.random.default_rng(29)
        walks = [(0.1 / 6) * (0.5 + rng.uniform(size=(2, 6))) for _ in range(3)]
        walks.append((walks[0][0][::-1], walks[0][1][::-1]))  # same d, permuted
        walks.append((walks[0][0][:4], walks[0][1][:4]))      # fewer bits
        for alpha, beta in walks + walks[::-1]:
            sums, signs = subset_sums(alpha + beta)
            for n in (0, 1, 7, 200):
                want = float(signs[1:] @ (1.0 - sums[1:]) ** n)
                assert cube_separation_formula(alpha, beta, n) == want
            assert np.array_equal(cube_eigenvalues(alpha, beta), np.sort(1.0 - sums)[::-1])

    def test_kept_tables_are_read_only(self):
        cube_separation_formula((0.1, 0.2), (0.05, 0.1), 3)
        sums, signs = convergence._subset_rates((0.1, 0.2), (0.05, 0.1))
        for table in (sums, signs):
            with pytest.raises(ValueError):
                table[0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 0.0])
    @pytest.mark.parametrize("where", ["alpha", "beta"])
    def test_rates_are_refused_as_the_walk_refuses_them(self, bad, where):
        alpha, beta = [0.1, 0.2], [0.15, 0.05]
        (alpha if where == "alpha" else beta)[1] = bad
        with pytest.raises(MobiusDualError) as want:
            CubeWalkParams(d=2, alpha=tuple(alpha), beta=tuple(beta))
        for call in (lambda: cube_separation_formula(alpha, beta, 3),
                     lambda: cube_separation_formula(alpha, beta, np.arange(4)),
                     lambda: cube_eigenvalues(alpha, beta)):
            with pytest.raises(type(want.value)) as got:
                call()
            assert str(got.value) == str(want.value)

    def test_rates_are_checked_once_per_tables(self, monkeypatch):
        calls = []
        check = convergence.check_flip_rates
        monkeypatch.setattr(convergence, "check_flip_rates",
                            lambda rates: calls.append(rates) or check(rates))
        convergence._subset_rates.cache_clear()
        alpha, beta = (0.011, 0.012, 0.013), (0.021, 0.022, 0.023)
        for n in range(201):
            cube_separation_formula(alpha, beta, n)
        cube_eigenvalues(alpha, beta)
        assert calls == [(*alpha, *beta)]
        # the tables are the key: the same sums from other tables are checked
        cube_separation_formula(beta, alpha, 5)
        assert calls == [(*alpha, *beta), (*beta, *alpha)]

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            cube_separation_formula((0.4, 0.4), (0.3, 0.3), 2)

    def test_precondition_shows_a_plain_float(self):
        with pytest.raises(PreconditionFailed) as exc:
            cube_separation_formula((0.5, 0.5), (0.25, 0.25), 2)
        assert str(exc.value).startswith("total flip rate 1.5 exceeds 1")

    def test_dimension_cap(self):
        from mobiusdual.errors import DimensionTooLarge

        rates = (0.01,) * 21
        with pytest.raises(DimensionTooLarge):
            cube_separation_formula(rates, rates, 1)
        with pytest.raises(DimensionTooLarge):
            cube_eigenvalues(rates, rates)

    def test_eigenvalues_two_cube(self):
        values = cube_eigenvalues((0.2, 0.2), (0.2, 0.2))
        assert np.allclose(values, [1.0, 0.6, 0.6, 0.2])

    def test_unit_eigenvalue_has_multiplicity_one(self):
        values = cube_eigenvalues((0.1, 0.2, 0.15), (0.05, 0.1, 0.2))
        assert np.sum(np.isclose(values, 1.0)) == 1

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_matches_numerical_eigensolver(self, d):
        rng = np.random.default_rng(90 + d)
        total = rng.uniform(0.4, 0.95)
        parts = rng.dirichlet(np.ones(2 * d)) * total
        alpha, beta = tuple(parts[:d]), tuple(parts[d:])
        c, _ = cube_chain(d, alpha, beta)
        solver = np.sort(np.linalg.eigvals(c.P).real)[::-1]
        assert np.abs(cube_eigenvalues(alpha, beta) - solver).max() < 1e-8

    def test_matches_dual_diagonal(self):
        c, law = cube_chain(3, (0.03, 0.05, 0.07), (0.06, 0.04, 0.05))
        zm = zeta_mobius(c.poset)
        dual = build_ssd(c, law, zm, "down")
        assert np.abs(
            np.sort(np.diag(dual.P_star))[::-1]
            - cube_eigenvalues((0.03, 0.05, 0.07), (0.06, 0.04, 0.05))
        ).max() < 1e-12


class TestSimulation:
    def test_two_state_mean_within_three_sigma(self):
        a, b = 0.25, 0.15
        result = simulate_absorption(two_state_dual(a, b), 100000, seed=42)
        times_mean = (result.tail.sum())  # sum of P(T>n) over observed range
        geometric_mean = 1.0 / (a + b)
        sigma = np.sqrt((1 - a - b) / (a + b) ** 2 / 100000)
        assert abs(times_mean - geometric_mean) < 3 * sigma + 0.01

    def test_seeded_runs_are_identical(self):
        dual = two_state_dual(0.2, 0.2)
        r1 = simulate_absorption(dual, 2000, seed=7, horizon=30)
        r2 = simulate_absorption(dual, 2000, seed=7, horizon=30)
        assert np.array_equal(r1.tail, r2.tail)
        assert np.array_equal(r1.lower, r2.lower)

    def test_different_seed_differs(self):
        dual = two_state_dual(0.2, 0.2)
        r1 = simulate_absorption(dual, 2000, seed=7, horizon=30)
        r2 = simulate_absorption(dual, 2000, seed=8, horizon=30)
        assert not np.array_equal(r1.tail, r2.tail)

    def test_three_cube_envelopes_analytic_tail(self):
        c, law = cube_chain(3, (1 / 12,) * 3, (1 / 12,) * 3)
        zm = zeta_mobius(c.poset)
        dual = build_ssd(c, law, zm, "down")
        analytic = absorption_tail(dual, 50)
        result = simulate_absorption(dual, 20000, seed=11, horizon=50)
        # 51 bands at once: each at 1 - 1%/51, so all hold with 99 %
        lo, hi = binomial_band(analytic.tail, result.samples, 1 - 0.01 / 51)
        assert ((result.tail >= lo) & (result.tail <= hi)).all()

    def test_band_contains_empirical_tail(self):
        result = simulate_absorption(two_state_dual(0.3, 0.1), 5000, seed=3, horizon=20)
        assert (result.lower <= result.tail + 1e-12).all()
        assert (result.tail <= result.upper + 1e-12).all()

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [2, 3, 5, 6, 8])
    def test_sparse_sampler_matches_dense_comparison(self, d, direction):
        for mixed in (False, True):
            # without its rates a walk dual takes the move sampler
            _, dual = extreme_walk_dual(d, direction, mixed=mixed)
            dual = dataclasses.replace(dual, flips=None)
            for seed in (1, 2, 3):
                for horizon in (None, 50):
                    assert_same_simulation(dual, 2000, seed, horizon)

    @pytest.mark.parametrize("name", ["two_cube", "three_cube", "four_cube"])
    def test_sparse_sampler_matches_dense_on_fixture_duals(self, name):
        params = load_model(os.path.join(DATA, f"{name}.spec")).cube
        m = 2**params.d
        for direction, start in (("down", 0), ("up", m - 1)):
            c = nearest_neighbor_walk(params, nu=delta(m, start))
            dual = build_ssd(c, stationary(c), zeta_mobius(c.poset), direction)
            dual = dataclasses.replace(dual, flips=None)
            for seed, horizon in ((5, 25), (9, None)):
                assert_same_simulation(dual, 3000, seed, horizon)

    def test_row_blocks_keep_column_zero(self):
        _, dual = extreme_walk_dual(4, "down")
        assert (dual.P_star[1:, 0] == 0).all()
        cum, cols = _sparse_rows(dual.P_star)
        assert (cols[:, 0] == 0).all()
        # a draw of exactly 0 lands on state 0 whatever the row
        assert (cols[np.arange(dual.size), (0.0 > cum).sum(axis=1)] == 0).all()

    def test_search_counts_ties_like_the_full_comparison(self):
        _, dual = extreme_walk_dual(5, "down")
        cum, _ = _sparse_rows(dual.P_star)
        rows = np.repeat(np.arange(dual.size), cum.shape[1] + 2)
        finite = np.where(np.isfinite(cum), cum, 1.0)
        # every cumulant itself, 0 and values just past the row's cumulants
        u = np.concatenate([finite, np.zeros((dual.size, 1)),
                            np.nextafter(finite[:, -1:], 2.0)], axis=1).ravel()
        assert (_count_below(cum, rows, u)
                == (u[:, None] > cum[rows]).sum(axis=1)).all()

    def test_draw_beyond_last_cumulant_lands_on_last_state(self):
        p_star = np.array([
            [0.0, 0.25, 0.0, 0.25],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.0, 1.0],
        ])
        cum, cols = _sparse_rows(p_star)
        assert cols[0, (0.75 > cum[0]).sum()] == 3
        assert cols[1, (0.75 > cum[1]).sum()] == 2
        # row 0 sums to 1/2; the dense comparison clamps its overflow to m - 1
        dual = DualChain(nu_star=np.array([1.0, 0.0, 0.0, 0.0]), P_star=p_star,
                         absorbing_index=3, direction="down")
        assert_same_simulation(dual, 2000, 4)

    def test_dense_dual_gets_full_width(self):
        p_star = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.0, 0.0, 1.0]])
        cum, cols = _sparse_rows(p_star)
        assert cum.shape == (3, 3)
        assert cols.shape == (3, 4)
        dual = DualChain(nu_star=np.array([0.5, 0.5, 0.0]), P_star=p_star,
                         absorbing_index=2, direction="down")
        assert_same_simulation(dual, 2000, 6, 10)

    @pytest.mark.parametrize("horizon", [-1, MAX_HORIZON + 1])
    def test_horizon_outside_range_raises(self, horizon):
        with pytest.raises(HorizonTooLarge):
            simulate_absorption(two_state_dual(0.2, 0.2), 10, seed=1,
                                horizon=horizon)

    def test_signed_forced_dual_is_refused(self, raw_dual):
        model = load_model(os.path.join(DATA, "strong_not_mobius.spec"))
        c = model.chain
        dual = raw_dual(c, stationary(c), zeta_mobius(c.poset), "down")
        assert (dual.P_star < 0).any()
        with pytest.raises(PreconditionFailed, match="nonnegative"):
            simulate_absorption(dual, 10, seed=1)

    def test_negative_initial_mass_is_refused(self):
        dual = DualChain(nu_star=np.array([1.25, -0.25]),
                         P_star=two_state_dual(0.2, 0.2).P_star,
                         absorbing_index=1, direction="down")
        with pytest.raises(PreconditionFailed, match="nonnegative"):
            simulate_absorption(dual, 10, seed=1)


class TestRateSampler:
    """An unclamped closed-form dual is sampled from its flip rates: the
    empirical law of T* against its exact tail and mean."""

    SAMPLES = 20000

    @pytest.mark.parametrize("mixed", [False, True], ids=["extreme", "mixed"])
    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_law_matches_the_exact_tail(self, d, direction, mixed):
        _, dual = extreme_walk_dual(d, direction, mixed=mixed)
        result = simulate_absorption(dual, self.SAMPLES, seed=d)
        assert result.sampler == "rates"
        horizon = result.tail.size - 1
        exact = absorption_tail(dual, horizon)
        # E T = sum_n P(T > n) and E T^2 = sum_n (2n + 1) P(T > n), both
        # exact on the empirical law up to its largest time
        mean = result.tail.sum()
        var = (2 * np.arange(horizon + 1) + 1) @ result.tail - mean**2
        assert abs(mean - exact.mean) <= 5 * np.sqrt(var / self.SAMPLES)
        # Dvoretzky-Kiefer-Wolfowitz at delta = 1e-6
        dkw = np.sqrt(np.log(2 / 1e-6) / (2 * self.SAMPLES))
        assert np.abs(result.tail - exact.tail).max() <= dkw

    def test_three_cube_mean_is_eleven(self):
        # three rates of 1/6: 6/3 + 6/2 + 6/1 = 11 steps, where the last
        # of three independent Geometric(1/6) times would give 10.56
        c, law = cube_chain(3, (1 / 12,) * 3, (1 / 12,) * 3)
        dual = build_ssd(c, law, c.poset, "down")
        assert absorption_tail(dual, 1).mean == pytest.approx(11.0, rel=1e-12)
        samples = 200000
        result = simulate_absorption(dual, samples, seed=5)
        var = (2 * np.arange(result.tail.size) + 1) @ result.tail - 11.0**2
        assert abs(result.tail.sum() - 11.0) <= 5 * np.sqrt(var / samples)

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_seeded_reruns_are_identical_and_read_no_p_star(self, direction):
        _, dual = extreme_walk_dual(5, direction, mixed=True)
        m = dual.size
        blind = dataclasses.replace(dual, P_star=np.full((m, m), np.nan))
        for horizon in (None, 40):
            first, *again = (simulate_absorption(x, 3000, seed=7, horizon=horizon)
                             for x in (dual, dual, blind))
            for run in again:
                for a, b in ((first.tail, run.tail), (first.lower, run.lower),
                             (first.upper, run.upper)):
                    assert a.tobytes() == b.tobytes()
        other = simulate_absorption(dual, 3000, seed=8, horizon=40)
        assert not np.array_equal(other.tail, first.tail)

    def test_blocks_fill_every_time(self, monkeypatch):
        monkeypatch.setattr(convergence, "RATE_BLOCK", 7)
        _, dual = extreme_walk_dual(3, "down")
        result = simulate_absorption(dual, 10000, seed=2)
        exact = absorption_tail(dual, result.tail.size - 1)
        assert np.abs(result.tail - exact.tail).max() <= np.sqrt(
            np.log(2 / 1e-6) / (2 * 10000))

    def test_slow_flip_exceeds_the_horizon_at_once(self):
        # s_0 = 1e-9 survives the clamp; its wait alone is about 10^9 steps
        alpha, beta = (5e-10, 0.1, 0.15), (5e-10, 0.2, 0.1)
        c, law = cube_chain(3, alpha, beta)
        dual = build_ssd(c, law, c.poset, "down")
        assert dual.flips is not None and dual.clamp_magnitude == 0
        start = time.perf_counter()
        with pytest.raises(HorizonTooLarge, match="exceeded"):
            simulate_absorption(dual, 1000, seed=1)
        assert time.perf_counter() - start < 1.0


class TestBinomialBand:
    @staticmethod
    def assert_same_band(p, n, confidence):
        lo, hi = binomial_band(p, n, confidence)
        ref_lo, ref_hi = binom.interval(confidence, n, np.clip(p, 0.0, 1.0))
        assert lo.tobytes() == (ref_lo / n).tobytes()
        assert hi.tobytes() == (ref_hi / n).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 2000, 5000, 20000])
    def test_matches_scipy_on_every_empirical_value(self, n):
        p = np.arange(n + 1) / n
        for confidence in (0.0, 0.99, 1.0):
            self.assert_same_band(p, n, confidence)

    @pytest.mark.parametrize("n", [1, 7, 100, 2000, 10000, 20000, 100000])
    def test_matches_scipy_on_random_probabilities(self, n):
        rng = np.random.default_rng(n)
        tiny = 10.0 ** rng.uniform(-15, -1, 500)
        p = np.concatenate([rng.uniform(0, 1, 1000), tiny, 1.0 - tiny,
                            [0.0, 1.0]])
        for confidence in (0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0):
            self.assert_same_band(p, n, confidence)

    def test_edge_quantiles(self):
        lo, hi = binomial_band(np.array([0.0, 0.3, 1.0]), 10, 1.0)
        assert (lo == -0.1).all()
        assert (hi == 1.0).all()

    def test_quantile_reached_exactly(self):
        # Binomial(2, 1/2) has CDF 1/4 and 3/4, exactly the quantiles of a
        # 50 % band, and the smallest k reaching each is taken
        lo, hi = binomial_band(np.array([0.5]), 2, 0.5)
        assert (lo[0], hi[0]) == (0.0, 0.5)
        self.assert_same_band(np.array([0.5]), 2, 0.5)

    def test_confidence_outside_unit_interval_raises(self):
        with pytest.raises(ValueError):
            binomial_band(np.array([0.5]), 10, 1.5)


class TestBinomialQuantiles:
    """The numpy CDF behind ``binomial_band``, against scipy's quantiles."""

    @staticmethod
    def scipy_quantiles(qs, n, p):
        return [np.full(p.shape, -1.0) if q == 0.0 else binom.ppf(q, n, p) for q in qs]

    def test_blocks_of_one_column_give_the_same_quantiles(self, monkeypatch):
        rng = np.random.default_rng(3)
        p = np.unique(np.concatenate([rng.uniform(0, 1, 50), 10.0 ** rng.uniform(-9, -1, 20)]))
        qs = (0.005, 0.995)
        whole = convergence._binomial_quantiles(qs, 20000, p)
        monkeypatch.setattr(convergence, "QUANTILE_BLOCK", 1)
        for k, one, ref in zip(whole, convergence._binomial_quantiles(qs, 20000, p),
                               self.scipy_quantiles(qs, 20000, p)):
            assert np.array_equal(k, one) and np.array_equal(k, ref)

    @pytest.mark.parametrize("n", [1, 3, 1000])
    def test_extreme_probabilities(self, n):
        # a subnormal odds p/(1-p) and the largest p below 1 stay finite
        p = np.array([5e-324, 1e-310, 1e-300, 0.5, 1.0 - 2.0**-53])
        qs = (1e-12, 0.3, 0.5, 1.0 - 1e-12)
        for k, ref in zip(convergence._binomial_quantiles(qs, n, p),
                          self.scipy_quantiles(qs, n, p)):
            assert np.array_equal(k, ref)

    def test_odd_symmetric_median_is_reached_exactly(self):
        # Binomial(n, 1/2) with n odd has CDF((n-1)/2) = 1/2 exactly
        for n in (1, 3, 5, 7, 9, 11):
            (k,) = convergence._binomial_quantiles((0.5,), n, np.array([0.5]))
            assert k[0] == (n - 1) // 2 == binom.ppf(0.5, n, 0.5)
