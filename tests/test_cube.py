import numpy as np
import pytest

from mobiusdual import (
    CubeWalkParams,
    GPlusMove,
    axis_moves,
    axis_transformed_walk,
    build_poset,
    build_ssd,
    cube_poset,
    cube_stationary_product,
    gplus_transform,
    mobius_monotone_down,
    nearest_neighbor_walk,
    reverse,
    stationary,
    supermodular_order_witness,
    validate_chain,
    zeta_mobius,
)
from mobiusdual import cube
from mobiusdual.cube import is_supermodular, _random_supermodular
from mobiusdual.errors import (
    DimensionMismatch,
    IncomparableRequired,
    InputError,
    InsufficientMass,
    NegativeHoldingProbability,
    NotLattice,
    NotStochastic,
)


def delta(m, k):
    out = np.zeros(m)
    out[k] = 1.0
    return out


def walk_by_flips(params):
    """Reference walk: flip each coordinate of each state tuple, look it up."""
    p = cube_poset(params.d)
    mat = np.zeros((p.size, p.size))
    for i, e in enumerate(p.elements):
        for k in range(params.d):
            flipped = list(e)
            flipped[k] = 1 - flipped[k]
            mat[i, p.index(tuple(flipped))] = params.beta[k] if e[k] else params.alpha[k]
        mat[i, i] = 1.0 - mat[i].sum()
    return mat


def product_law_by_state(params):
    """Reference product-form law, one state tuple at a time."""
    alpha = np.asarray(params.alpha)
    beta = np.asarray(params.beta)
    return np.array([
        np.prod(np.where(np.asarray(e) == 1, alpha / (alpha + beta), beta / (alpha + beta)))
        for e in cube_poset(params.d).elements
    ])


class TestWalkGenerator:
    def test_negative_holding_shows_a_plain_float(self):
        with pytest.raises(NegativeHoldingProbability) as exc:
            CubeWalkParams(d=3, alpha=(0.5,) * 3, beta=(0.5,) * 3)
        assert str(exc.value) == "holding probability at state (0, 0, 0) is -0.5"

    @pytest.mark.parametrize("alpha, beta, detail", [
        ((0.6, 0.6), (0.1, 0.1), "(0, 0) is -0.19999999999999996"),
        ((0.2, 0.45, 0.1), (0.3, 0.1, 0.4), "(1, 0, 1) is -0.1499999999999999"),
        ((0.5, 0.1, 0.2, 0.3), (0.1, 0.4, 0.2, 0.2),
         "(0, 1, 0, 0) is -0.40000000000000013"),
        ((1 / 3 + 0.6e-12,) * 3, (1 / 6,) * 3, "(0, 0, 0) is -1.7998935675223038e-12"),
    ])
    def test_params_refuse_a_walk_that_cannot_hold(self, alpha, beta, detail):
        # sum_k max(alpha_k, beta_k) > 1 + ROW_TOL: refused where the walk
        # is made, before any kernel, with the least-holding state
        with pytest.raises(NegativeHoldingProbability) as exc:
            CubeWalkParams(d=len(alpha), alpha=alpha, beta=beta)
        assert str(exc.value) == f"holding probability at state {detail}"

    def test_stay_within_row_tol_of_zero_is_exactly_zero(self):
        # sum max = 1 + 0.3e-12 is admitted, and its stay reads exactly 0
        params = CubeWalkParams(d=3, alpha=(1 / 3 + 1e-13,) * 3, beta=(0.1,) * 3)
        assert nearest_neighbor_walk(params).P[0, 0] == 0.0

    def test_two_cube_matrix_entries(self):
        a1, a2, b1, b2 = 0.11, 0.21, 0.08, 0.13
        c = nearest_neighbor_walk(CubeWalkParams(d=2, alpha=(a1, a2), beta=(b1, b2)))
        expected = np.array([
            [1 - a1 - a2, a1, a2, 0],
            [b1, 1 - b1 - a2, 0, a2],
            [b2, 0, 1 - a1 - b2, a1],
            [0, b2, b1, 1 - b1 - b2],
        ])
        assert np.abs(c.P - expected).max() < 1e-15

    def test_symmetric_walk_has_constant_holding(self):
        d, r = 4, 0.4
        rate = (1 - r) / d
        c = nearest_neighbor_walk(CubeWalkParams(d=d, alpha=(rate,) * d, beta=(rate,) * d))
        assert np.abs(np.diag(c.P) - r).max() < 1e-14

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(InputError, match="finite"):
            CubeWalkParams(d=2, alpha=(0.1, rate), beta=(0.1, 0.1))

    def test_negative_holding_rejected_with_witness(self):
        with pytest.raises(NegativeHoldingProbability) as exc:
            CubeWalkParams(d=2, alpha=(0.6, 0.6), beta=(0.1, 0.1))
        assert "(0, 0)" in str(exc.value)

    def test_refusal_names_the_least_holding_state(self, monkeypatch):
        # bit k is set iff beta_k > alpha_k (the tie at k = 2 leaves it
        # unset); the first negative state in mask order is (0, 0, 0, 0)
        alpha, beta = (0.5, 0.1, 0.2, 0.3), (0.1, 0.4, 0.2, 0.2)
        bits = cube.cube_bits(4)
        stay = 1.0 - np.where(bits, beta, alpha).sum(axis=1)
        assert stay[0] < 0 and stay[0b0010] <= stay.min() + 1e-15
        with pytest.raises(NegativeHoldingProbability) as exc:
            CubeWalkParams(d=4, alpha=alpha, beta=beta)
        assert str(exc.value) == ("holding probability at state (0, 1, 0, 0) "
                                  f"is {float(stay[0b0010])!r}")
        # the check reads the d rates alone, at any dimension
        monkeypatch.setattr(cube, "cube_bits", None)
        with pytest.raises(NegativeHoldingProbability) as exc:
            CubeWalkParams(d=20, alpha=(0.1,) * 20, beta=(0.01,) * 20)
        assert str(exc.value) == ("holding probability at state "
                                  f"{(0,) * 20!r} is {float(1.0 - np.full(20, 0.1).sum())!r}")
        CubeWalkParams(d=20, alpha=(0.01,) * 20, beta=(0.02,) * 20)

    def test_rates_must_be_positive(self):
        with pytest.raises(NegativeHoldingProbability):
            CubeWalkParams(d=2, alpha=(0.0, 0.1), beta=(0.1, 0.1))

    def test_rate_length_checked(self):
        with pytest.raises(DimensionMismatch):
            CubeWalkParams(d=3, alpha=(0.1, 0.1), beta=(0.1, 0.1, 0.1))

    def test_admissibility_flag(self):
        assert CubeWalkParams(d=2, alpha=(0.2, 0.2), beta=(0.2, 0.2)).admissible
        assert not CubeWalkParams(d=2, alpha=(0.3, 0.3), beta=(0.3, 0.3)).admissible

    @pytest.mark.parametrize("d", range(1, 7))
    def test_vectorised_walk_and_law_match_state_loops(self, d):
        rng = np.random.default_rng(d)
        params = CubeWalkParams(
            d=d,
            alpha=tuple(rng.uniform(0.01, 0.5 / d, d)),
            beta=tuple(rng.uniform(0.01, 0.5 / d, d)),
        )
        P = nearest_neighbor_walk(params).P
        ref = walk_by_flips(params)
        off = ~np.eye(P.shape[0], dtype=bool)
        assert (P[off] == ref[off]).all()
        # the holding mass sums the same rates in another order
        assert np.abs(np.diag(P) - np.diag(ref)).max() <= 4 * d * 2.0**-53
        law = cube_stationary_product(params)
        assert np.abs(law - product_law_by_state(params)).max() <= 2 * d * 2.0**-53

    def test_stationary_is_product_form(self):
        params = CubeWalkParams(d=3, alpha=(0.02, 0.08, 0.05), beta=(0.06, 0.03, 0.09))
        law = stationary(nearest_neighbor_walk(params))
        assert np.abs(law.pi - cube_stationary_product(params)).max() < 1e-13

    def test_reversibility(self):
        params = CubeWalkParams(d=3, alpha=(0.02, 0.08, 0.05), beta=(0.06, 0.03, 0.09))
        c = nearest_neighbor_walk(params)
        law = stationary(c)
        flux = law.pi[:, None] * c.P
        assert np.abs(flux - flux.T).max() < 1e-12


class TestPowerChain:
    def test_square_of_admissible_walk_stays_monotone(self):
        params = CubeWalkParams(d=3, alpha=(0.05,) * 3, beta=(0.05,) * 3)
        c = nearest_neighbor_walk(params, nu=delta(8, 0))
        squared = validate_chain(
            np.linalg.matrix_power(c.P, 2), c.poset, nu=c.nu, row_tol=1e-10
        )
        zm = zeta_mobius(c.poset)
        assert mobius_monotone_down(squared, zm).verdict
        law = stationary(squared)
        dual = build_ssd(squared, law, zm, "down")
        assert np.abs(np.tril(dual.P_star, -1)).max() < 1e-12

    def test_stationary_law_unchanged(self):
        params = CubeWalkParams(d=2, alpha=(0.12, 0.07), beta=(0.05, 0.2))
        c = nearest_neighbor_walk(params)
        law = stationary(c)
        for k in (2, 3):
            power = validate_chain(np.linalg.matrix_power(c.P, k), c.poset, row_tol=1e-10)
            assert np.abs(law.pi @ power.P - law.pi).max() < 1e-10


class TestGPlusTransform:
    def setup_method(self):
        self.params = CubeWalkParams(d=3, alpha=(0.06,) * 3, beta=(0.06,) * 3)
        self.chain = nearest_neighbor_walk(self.params)

    def test_zero_mass_is_identity(self):
        move = GPlusMove(row=(0, 0, 0), x=(1, 0, 0), y=(0, 0, 1), kappa=0.0)
        out = gplus_transform(self.chain, move)
        assert np.array_equal(out.P, self.chain.P)

    def test_row_mass_conserved_exactly(self):
        move = GPlusMove(row=(0, 0, 0), x=(1, 0, 0), y=(0, 0, 1), kappa=0.02)
        out = gplus_transform(self.chain, move)
        assert out.P[0].sum() == pytest.approx(1.0, abs=1e-15)
        p = self.chain.poset
        assert out.P[0, p.index((1, 0, 0))] == pytest.approx(0.04)
        assert out.P[0, p.index((1, 0, 1))] == pytest.approx(0.02)
        assert out.P[0, p.index((0, 0, 0))] == pytest.approx(
            self.chain.P[0, 0] + 0.02
        )
        # untouched rows stay identical
        assert np.array_equal(out.P[1:], self.chain.P[1:])

    def test_comparable_pair_rejected(self):
        move = GPlusMove(row=(0, 0, 0), x=(1, 0, 0), y=(1, 1, 0), kappa=0.01)
        with pytest.raises(IncomparableRequired):
            gplus_transform(self.chain, move)

    def test_insufficient_mass_rejected(self):
        move = GPlusMove(row=(0, 0, 0), x=(1, 0, 0), y=(0, 0, 1), kappa=0.5)
        with pytest.raises(InsufficientMass):
            gplus_transform(self.chain, move)

    def test_insufficient_mass_shows_plain_floats(self):
        move = GPlusMove(row=(0, 0, 0), x=(1, 0, 0), y=(0, 0, 1), kappa=0.5)
        with pytest.raises(InsufficientMass) as exc:
            gplus_transform(self.chain, move)
        assert "min(0.06, 0.06)" in str(exc.value) and "np." not in str(exc.value)

    def test_several_moves_match_one_at_a_time(self):
        moves = axis_moves(0.02)
        one_at_a_time = self.chain
        for move in moves:
            one_at_a_time = gplus_transform(one_at_a_time, move)
        assert np.array_equal(gplus_transform(self.chain, *moves).P, one_at_a_time.P)

    def test_each_move_reads_the_mass_earlier_moves_left(self):
        move = GPlusMove(row=(0, 0, 0), x=(1, 0, 0), y=(0, 0, 1), kappa=0.04)
        gplus_transform(self.chain, move)
        with pytest.raises(InsufficientMass):
            gplus_transform(self.chain, move, move)

    def test_cube_comparability_from_the_masks(self):
        move = GPlusMove(row=(0, 0, 0), x=(1, 0, 0), y=(1, 1, 0), kappa=0.01)
        with pytest.raises(IncomparableRequired):
            gplus_transform(self.chain, move)
        gplus_transform(self.chain, axis_moves(0.01)[0])
        assert "leq" not in vars(self.chain.poset)

    def test_non_lattice_rejected(self):
        p = build_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])
        mat = np.full((4, 4), 0.25)
        c = validate_chain(mat, p)
        with pytest.raises(NotLattice):
            gplus_transform(c, GPlusMove(row="a", x="b", y="d", kappa=0.1))


class TestAxisTransformedWalk:
    def test_only_axis_rows_change(self):
        params = CubeWalkParams(d=3, alpha=(0.06,) * 3, beta=(0.06,) * 3)
        base = nearest_neighbor_walk(params)
        out = axis_transformed_walk(params, 0.02)
        p = base.poset
        changed = [
            i for i in range(8) if not np.array_equal(out.P[i], base.P[i])
        ]
        expected_rows = sorted(
            p.index(m.row) for m in axis_moves(0.02)
        )
        assert changed == expected_rows
        # one-based rows 1, 3, 6, 8: the states fixed by the swap axis
        assert expected_rows == [0, 2, 5, 7]

    def test_transformed_chain_admits_upper_triangular_dual(self):
        params = CubeWalkParams(d=3, alpha=(0.05,) * 3, beta=(0.05,) * 3)
        c = axis_transformed_walk(params, 0.02).with_nu(delta(8, 0))
        law = stationary(c)
        zm = zeta_mobius(c.poset)
        rev = reverse(c, law)
        assert mobius_monotone_down(rev, zm).verdict
        dual = build_ssd(c, law, zm, "down")
        assert np.abs(np.tril(dual.P_star, -1)).max() < 1e-10

    def test_wrong_dimension_rejected(self):
        params = CubeWalkParams(d=2, alpha=(0.1, 0.1), beta=(0.1, 0.1))
        with pytest.raises(DimensionMismatch):
            axis_transformed_walk(params, 0.01)

    def test_validated_once_at_the_row_tolerance(self, monkeypatch):
        calls = []
        validate = cube.validate_chain
        monkeypatch.setattr(cube, "validate_chain",
                            lambda *a, **k: calls.append(k["row_tol"]) or validate(*a, **k))
        params = CubeWalkParams(d=3, alpha=(0.1,) * 3, beta=(0.05,) * 3)
        c = axis_transformed_walk(params, 0.02, row_tol=1e-9).with_nu(delta(8, 0))
        assert calls == [1e-9]
        assert c.nu.tolist() == delta(8, 0).tolist()
        assert "leq" not in vars(c.poset)
        # these rows sum to 1 only within rounding
        with pytest.raises(NotStochastic):
            axis_transformed_walk(params, 0.02, row_tol=0.0)


class TestSupermodularOrder:
    def test_sampler_produces_verified_functions(self):
        p = cube_poset(3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            f = _random_supermodular(p, 3, rng)
            assert is_supermodular(f, p)

    def test_transformed_row_dominates(self):
        params = CubeWalkParams(d=3, alpha=(0.06,) * 3, beta=(0.06,) * 3)
        base = nearest_neighbor_walk(params)
        move = axis_moves(0.02)[0]
        out = gplus_transform(base, move)
        row = base.poset.index(move.row)
        report = supermodular_order_witness(
            base.P[row], out.P[row], base.poset, trials=300, seed=5
        )
        assert report.min_difference >= -1e-12

    def test_equal_rows_give_zero(self):
        params = CubeWalkParams(d=2, alpha=(0.1, 0.1), beta=(0.1, 0.1))
        base = nearest_neighbor_walk(params)
        report = supermodular_order_witness(
            base.P[0], base.P[0], base.poset, trials=100, seed=2
        )
        assert report.min_difference == pytest.approx(0.0, abs=1e-15)

    def test_swapped_rows_violate(self):
        params = CubeWalkParams(d=3, alpha=(0.06,) * 3, beta=(0.06,) * 3)
        base = nearest_neighbor_walk(params)
        move = axis_moves(0.03)[0]
        out = gplus_transform(base, move)
        row = base.poset.index(move.row)
        report = supermodular_order_witness(
            out.P[row], base.P[row], base.poset, trials=400, seed=9
        )
        assert report.min_difference < -1e-6

    def test_two_cube_exhaustive_decomposition_oracle(self):
        # every supermodular f on the 2-cube is modular + c * r with
        # r = 1_(0,0) + 1_(1,1) and c >= 0; the expectation shift under a g+
        # move is exactly kappa * (f(00) + f(11) - f(10) - f(01)) = 2 kappa c,
        # so sampled differences must match the decomposition identically
        p = cube_poset(2)
        kappa = 0.05
        base = np.array([0.4, 0.25, 0.25, 0.1])
        moved = base + kappa * np.array([1.0, -1.0, -1.0, 1.0])
        rng = np.random.default_rng(21)
        for _ in range(50):
            f = _random_supermodular(p, 2, rng)
            assert is_supermodular(f, p)
            c = (f[0] + f[3] - f[1] - f[2]) / 2.0
            assert c >= -1e-12
            diff = moved @ f - base @ f
            assert diff == pytest.approx(2 * kappa * c, abs=1e-12)

    def test_non_cube_poset_rejected(self):
        p = build_poset(["a", "b"], [("a", "b")])
        with pytest.raises(NotLattice):
            supermodular_order_witness(
                np.array([0.5, 0.5]), np.array([0.5, 0.5]), p, trials=5, seed=0
            )
