import numpy as np
import pytest

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
from mobiusdual.convergence import binomial_band
from mobiusdual.duality import DualChain
from mobiusdual.errors import (
    DimensionMismatch,
    HorizonTooLarge,
    PreconditionFailed,
    SingularFundamentalMatrix,
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


def two_state_dual(a, b):
    mat = np.array([[1 - a - b, a + b], [0.0, 1.0]])
    return DualChain(
        nu_star=np.array([1.0, 0.0]),
        P_star=mat,
        absorbing_index=1,
        direction="down",
    )


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

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            cube_separation_formula((0.4, 0.4), (0.3, 0.3), 2)

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
        lo, hi = binomial_band(analytic.tail, result.samples, 0.99)
        assert ((result.tail >= lo) & (result.tail <= hi)).all()

    def test_band_contains_empirical_tail(self):
        result = simulate_absorption(two_state_dual(0.3, 0.1), 5000, seed=3, horizon=20)
        assert (result.lower <= result.tail + 1e-12).all()
        assert (result.tail <= result.upper + 1e-12).all()
