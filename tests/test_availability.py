import os
import weakref

import numpy as np
import pytest

from mobiusdual import (
    CubeWalkParams,
    RateFunctions,
    availability_generator,
    availability_pipeline,
    mobius_monotone_down,
    mobius_monotone_up,
    nearest_neighbor_walk,
    pernode_family,
    power_family,
    reverse,
    stationary,
    uniformize,
)
from mobiusdual import availability, cli, duality, monotonicity
from mobiusdual import cube as cube_module
from mobiusdual.poset import Poset
from mobiusdual.chain import ROW_TOL
from mobiusdual.errors import (
    InputError,
    MissingSubsetValue,
    NotAperiodic,
    NumericalFailure,
    ZeroGenerator,
)

FOUR_CUBE = os.path.join(os.path.dirname(__file__), "data", "four_cube.spec")


def count_calls(monkeypatch, *targets):
    """Calls to each ``(module, name)`` of ``targets``, counted by name."""
    counts = {}
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def off_product(table, mask=5, by=1e-10):
    """``table`` with the value at ``mask`` moved by a relative ``by``."""
    out = table.copy()
    out[mask] *= 1.0 + by
    return out


class TestRateFunctions:
    def test_tables_must_be_complete(self):
        with pytest.raises(MissingSubsetValue):
            RateFunctions(d=2, psi=np.array([1.0, 2.0, 1.5]), phi=np.ones(4))

    def test_tables_must_be_positive(self):
        with pytest.raises(MissingSubsetValue):
            RateFunctions(d=1, psi=np.array([1.0, 0.0]), phi=np.ones(2))

    def test_tables_are_read_only_float_copies(self):
        psi = np.array([1, 3])
        r = RateFunctions(d=1, psi=psi, phi=[1.0, 0.7])
        assert r.psi.dtype == np.float64 and r.psi.tolist() == [1.0, 3.0]
        assert r.phi.tolist() == [1.0, 0.7]
        assert not r.psi.flags.writeable and not r.phi.flags.writeable
        assert psi.flags.writeable
        psi[1] = 5
        assert r.psi[1] == 3.0
        chain, rate = uniformize(availability_generator(r))
        assert rate == 1.05 * 3.0 and chain.size == 2

    @pytest.mark.parametrize("table", [
        [[1.0, 2.0], [3.0]],            # ragged
        np.array(["a", "b"]),           # strings
    ])
    def test_tables_numpy_cannot_read_are_refused(self, table):
        with pytest.raises(MissingSubsetValue, match="phi must be a table of numbers"):
            RateFunctions(d=1, psi=np.ones(2), phi=table)

    @pytest.mark.parametrize("name", ["psi", "phi"])
    @pytest.mark.parametrize("value", [np.nan, None, np.inf, -np.inf])
    def test_non_finite_entries_are_refused(self, name, value):
        # the first non-finite mask is named, before the zero at mask 3
        tables = {"psi": np.ones(4), "phi": np.ones(4)}
        tables[name] = [1.0, 2.0, value, 0.0]
        with pytest.raises(MissingSubsetValue) as exc:
            RateFunctions(d=2, **tables)
        assert str(exc.value) == f"{name} must be finite; offending subset mask 0b10"

    def test_power_family(self):
        psi = power_family(2, 0.5)
        assert np.allclose(psi, [1.0, 0.5, 0.5, 0.25])

    def test_pernode_family(self):
        phi = pernode_family(2, (2.0, 3.0))
        assert np.allclose(phi, [1.0, 2.0, 3.0, 6.0])

    @pytest.mark.parametrize("d", range(1, 8))
    def test_families_match_mask_loops(self, d):
        values = np.random.default_rng(d).uniform(0.5, 2.0, d)
        power, pernode = np.empty(2**d), np.empty(2**d)
        for mask in range(2**d):
            power[mask] = 0.7 ** mask.bit_count()
            prod = 1.0
            for i in range(d):
                if mask >> i & 1:
                    prod *= values[i]
            pernode[mask] = prod
        assert np.abs(power_family(d, 0.7) / power - 1).max() <= d * 2.0**-53
        assert np.abs(pernode_family(d, values) / pernode - 1).max() <= d * 2.0**-53


def submask_loop_generator(r, single_moves_only=False):
    """Oracle: the generator filled state by state over submask loops."""

    def submasks(mask):
        sub = mask
        while sub:
            yield sub
            sub = (sub - 1) & mask

    m = 2**r.d
    q = np.zeros((m, m))
    for dmask in range(m):
        for imask in submasks((m - 1) & ~dmask):
            if single_moves_only and imask.bit_count() != 1:
                continue
            q[dmask, dmask | imask] = r.psi[dmask | imask] / r.psi[dmask]
        for hmask in submasks(dmask):
            if single_moves_only and hmask.bit_count() != 1:
                continue
            q[dmask, dmask & ~hmask] = r.phi[dmask] / r.phi[dmask & ~hmask]
        q[dmask, dmask] = -q[dmask].sum()
    return q


class TestGenerator:
    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 6, 10])
    def test_matches_submask_loop_bit_for_bit(self, d, single):
        rng = np.random.default_rng(d)
        r = RateFunctions(
            d=d, psi=np.exp(rng.normal(size=2**d)), phi=np.exp(rng.normal(size=2**d))
        )
        q = availability_generator(r, single_moves_only=single)
        assert q.dtype == np.float64 and not q.flags.writeable
        assert np.array_equal(q, submask_loop_generator(r, single))

    def test_single_node_rates(self):
        # d = 1: breakdown rate a = psi({1})/psi({}) and repair rate b
        r = RateFunctions(d=1, psi=np.array([1.0, 0.3]), phi=np.array([1.0, 0.7]))
        q = availability_generator(r)
        assert np.allclose(q, [[-0.3, 0.3], [0.7, -0.7]])

    def test_unit_rate_functions_give_unit_rates(self):
        r = RateFunctions(d=2, psi=np.ones(4), phi=np.ones(4))
        q = availability_generator(r)
        off = q - np.diag(np.diag(q))
        assert np.all((off == 0) | (off == 1.0))
        # moves are pure breakdowns (supersets) or pure repairs (subsets):
        # 3 each from the empty and full sets, 2 from each singleton
        assert (off > 0).sum(axis=1).tolist() == [3, 2, 2, 3]

    def test_power_family_group_rates(self):
        c = 0.4
        r = RateFunctions(d=2, psi=power_family(2, c), phi=power_family(2, 2.0))
        q = availability_generator(r)
        # enumeration: {}, {1}, {2}, {1,2}
        assert q[0, 1] == pytest.approx(c)
        assert q[0, 2] == pytest.approx(c)
        assert q[0, 3] == pytest.approx(c**2)
        assert q[3, 0] == pytest.approx(4.0)   # phi({1,2})/phi({}) = 2^2
        assert q[3, 1] == pytest.approx(2.0)
        assert q[1, 0] == pytest.approx(2.0)

    def test_rows_sum_to_zero_offdiag_nonneg(self):
        rng = np.random.default_rng(4)
        r = RateFunctions(
            d=3,
            psi=np.exp(rng.normal(size=8)),
            phi=np.exp(rng.normal(size=8)),
        )
        q = availability_generator(r)
        assert np.abs(q.sum(axis=1)).max() < 1e-12
        off = q - np.diag(np.diag(q))
        assert off.min() >= 0

    def test_single_moves_only(self):
        r = RateFunctions(d=2, psi=np.ones(4), phi=np.ones(4))
        q = availability_generator(r, single_moves_only=True)
        assert q[0, 3] == 0.0
        assert q[3, 0] == 0.0
        assert q[0, 1] == 1.0


class TestUniformize:
    def test_two_state_embedding(self):
        a, b = 0.3, 0.7
        r = RateFunctions(d=1, psi=np.array([1.0, a]), phi=np.array([1.0, b]))
        chain, rate = uniformize(availability_generator(r), multiplier=1.0)
        m = max(a, b)
        assert rate == pytest.approx(m)
        assert np.allclose(
            chain.P, [[1 - a / m, a / m], [b / m, 1 - b / m]]
        )

    def test_multiplier_scales_off_diagonals(self):
        r = RateFunctions(d=1, psi=np.array([1.0, 0.3]), phi=np.array([1.0, 0.7]))
        q = availability_generator(r)
        p1 = uniformize(q, multiplier=1.0)[0].P
        p2 = uniformize(q, multiplier=2.0)[0].P
        assert p2[0, 1] == pytest.approx(p1[0, 1] / 2.0)
        assert p2[1, 0] == pytest.approx(p1[1, 0] / 2.0)

    def test_stationary_law_preserved(self):
        rng = np.random.default_rng(6)
        r = RateFunctions(
            d=2,
            psi=np.exp(rng.normal(size=4)),
            phi=np.exp(rng.normal(size=4)),
        )
        q = availability_generator(r)
        chain, _ = uniformize(q)
        law = stationary(chain)
        assert np.abs(law.pi @ q).max() < 1e-10

    def test_zero_generator_rejected(self):
        with pytest.raises(ZeroGenerator):
            uniformize(np.zeros((2, 2)))

    def test_multiplier_below_one_rejected(self):
        r = RateFunctions(d=1, psi=np.array([1.0, 0.3]), phi=np.array([1.0, 0.7]))
        with pytest.raises(InputError):
            uniformize(availability_generator(r), multiplier=0.5)

    @pytest.mark.parametrize("multiplier", [np.nan, np.inf])
    def test_non_finite_multiplier_rejected(self, multiplier):
        r = RateFunctions(d=1, psi=np.array([1.0, 0.3]), phi=np.array([1.0, 0.7]))
        with pytest.raises(InputError, match="finite"):
            uniformize(availability_generator(r), multiplier=multiplier)


class TestWalkReduction:
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_single_move_product_rates_match_walk(self, d):
        rng = np.random.default_rng(50 + d)
        a = rng.uniform(0.01, 0.08, size=d)
        b = rng.uniform(0.01, 0.08, size=d)
        r = RateFunctions(d=d, psi=pernode_family(d, a), phi=pernode_family(d, b))
        chain, rate = uniformize(availability_generator(r, single_moves_only=True))
        walk = nearest_neighbor_walk(
            CubeWalkParams(
                d=d,
                alpha=tuple(a / rate),
                beta=tuple(b / rate),
            )
        )
        assert np.abs(chain.P - walk.P).max() <= 1e-12

    def test_group_moves_are_products_of_node_rates(self):
        a = (0.05, 0.07)
        r = RateFunctions(d=2, psi=pernode_family(2, a), phi=pernode_family(2, (0.1, 0.1)))
        q = availability_generator(r)
        assert q[0, 3] == pytest.approx(a[0] * a[1])


def walk_shaped_rates(kind, d, seed):
    """A product-form network: failures rarer than repairs, so most
    multipliers give a Mobius monotone walk and a dual."""
    rng = np.random.default_rng(seed)
    psi, phi = rng.uniform(0.001, 0.004, d), rng.uniform(0.05, 0.1, d)
    if kind == "pernode":
        return RateFunctions(d=d, psi=pernode_family(d, psi), phi=pernode_family(d, phi))
    if kind == "power":
        return RateFunctions(d=d, psi=power_family(d, psi[0]), phi=power_family(d, phi[0]))
    # an explicit table, scaled so that the values at the empty set are not 1
    return RateFunctions(
        d=d, psi=2.5 * pernode_family(d, psi), phi=0.4 * pernode_family(d, phi)
    )


class TestWalkShapedNetworks:
    """A single-move network of product form is uniformized as the
    nearest-neighbor walk of its per-node rates: no generator and no Mobius
    transform, and the results of the dense generator path."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(
            monkeypatch,
            (availability, "availability_generator"),
            (monotonicity, "mobius_transform"),
        )

    @staticmethod
    def dense(monkeypatch, r, **kwargs):
        """The pipeline on the generator path, as for any other network."""
        with monkeypatch.context() as m:
            m.setattr(availability, "node_rates", lambda r: None)
            return availability_pipeline(r, single_moves_only=True, **kwargs)

    def test_node_rates_read_the_tables(self):
        a, b = (0.03, 0.05, 0.04), (0.04, 0.06, 0.05)
        r = RateFunctions(d=3, psi=pernode_family(3, a), phi=pernode_family(3, b))
        psi, phi = availability.node_rates(r)
        assert psi.tolist() == list(a) and phi.tolist() == list(b)
        # ratios off by a relative 1e-13 agree to ROW_TOL; 1e-9 does not
        near = RateFunctions(d=3, psi=off_product(r.psi, 6, 1e-13), phi=r.phi)
        assert availability.node_rates(near)[0].tolist() == list(a)
        far = RateFunctions(d=3, psi=r.psi, phi=off_product(r.phi, 6))
        assert availability.node_rates(far) is None
        # node k's ratio is the same from every state without k
        power = RateFunctions(d=3, psi=power_family(3, 0.5), phi=power_family(3, 2.0))
        psi, phi = availability.node_rates(power)
        assert psi.tolist() == [0.5] * 3 and phi.tolist() == [2.0] * 3

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("multiplier", [1.0, 1.05, 2.0])
    @pytest.mark.parametrize("kind", ["pernode", "power", "table"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_the_generator_path(self, monkeypatch, calls, d, kind,
                                        multiplier, direction):
        # full-length curves: where a curve stops below STOP_BELOW_DEFAULT
        # depends on its last digits
        kwargs = {"multiplier": multiplier, "direction": direction, "stop_below": None}
        r = walk_shaped_rates(kind, d, 70 + d)
        want = self.dense(monkeypatch, r, **kwargs)
        calls.clear()
        got = availability_pipeline(r, single_moves_only=True, **kwargs)
        assert calls == {}
        assert got.chain.flips is not None and want.chain.flips is None
        assert np.abs(got.chain.P - want.chain.P).max() <= ROW_TOL
        assert abs(got.rate - want.rate) <= 1e-15 * want.rate
        assert np.abs(got.law.pi / want.law.pi - 1.0).max() <= 1e-14
        for g, w in zip(got.reports, want.reports):
            assert (g.notion, g.verdict, g.witness) == (w.notion, w.verdict, w.witness)
            assert abs(g.worst_value - w.worst_value) <= 1e-14
        assert got.stopped_at == want.stopped_at
        if want.dual is None:
            assert got.dual is None
            return
        assert (got.dual.path, want.dual.path) == ("closed_form", "transform")
        assert got.dual.absorbing_index == want.dual.absorbing_index
        assert np.abs(got.dual.P_star - want.dual.P_star).max() <= 1e-15
        assert np.abs(got.dual.nu_star - want.dual.nu_star).max() <= 1e-15
        assert got.curve.horizon == want.curve.horizon
        # the walk's curve and tail step through its Kronecker factors, a
        # summation order of its own (about 1e-14 from either one here)
        assert np.abs(got.curve.values - want.curve.values).max() <= 1e-13
        assert np.abs(got.tail.tail - want.tail.tail).max() <= 1e-13

    @pytest.mark.parametrize("c", [0.03, 0.04, 0.1, 1 / 3])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_equal_exit_rates_hold_nowhere_on_either_path(self, monkeypatch, d, c):
        # at multiplier 1 every exit rate c d is the uniformization rate, so
        # no state holds and the chain has period 2, however the holding
        # probabilities round on either path
        r = RateFunctions(d=d, psi=power_family(d, c), phi=power_family(d, c))
        for run in (lambda: availability_pipeline(r, multiplier=1.0, single_moves_only=True),
                    lambda: self.dense(monkeypatch, r, multiplier=1.0)):
            with pytest.raises(NotAperiodic) as exc:
                run()
            assert exc.value.stage == "stationary" and exc.value.period == 2

    def test_cases_reach_the_dual(self):
        # the oracle above compares duals, not only verdicts
        r = walk_shaped_rates("pernode", 8, 78)
        for multiplier in (1.05, 2.0):
            report = availability_pipeline(r, multiplier=multiplier, single_moves_only=True)
            assert report.dual.path == "closed_form"

    @pytest.mark.parametrize("single, psi", [
        (False, lambda t: t),               # group moves
        (True, lambda t: off_product(t, by=1e-9)),  # one entry off the product
    ])
    def test_other_networks_keep_the_generator_path(self, calls, single, psi):
        r = walk_shaped_rates("pernode", 4, 74)
        r = RateFunctions(d=4, psi=psi(r.psi), phi=r.phi)
        report = availability_pipeline(r, multiplier=2.0, single_moves_only=single)
        assert report.chain.flips is None
        assert calls["availability_generator"] == 1
        assert calls["mobius_transform"] >= 1
        if report.dual is not None:
            assert report.dual.path == "transform"
        assert single == (report.dual is not None)

    def test_wrong_closed_form_fails_the_residuals(self, monkeypatch):
        # the flips of P* are scaled after it is written from the dual
        # operator's moves, so only the certificate can refuse it
        absorb = duality._absorb

        def wrong(p_star, absorbing):
            absorb(p_star, absorbing)
            off = ~np.eye(p_star.shape[0], dtype=bool)
            p_star[off] *= 1.01

        monkeypatch.setattr(duality, "_absorb", wrong)
        r = walk_shaped_rates("pernode", 4, 74)
        with pytest.raises(NumericalFailure, match="residuals") as exc:
            availability_pipeline(r, multiplier=2.0, single_moves_only=True)
        assert exc.value.stage == "dual"


class TestPipeline:
    def test_symmetric_power_rates_give_uniform_law(self):
        r = RateFunctions(d=3, psi=power_family(3, 0.04), phi=power_family(3, 0.04))
        report = availability_pipeline(r)
        assert np.abs(report.law.pi - 1.0 / 8).max() < 1e-12

    def test_single_move_pipeline_full_run(self):
        r = RateFunctions(
            d=2,
            psi=pernode_family(2, (0.03, 0.05)),
            phi=pernode_family(2, (0.04, 0.06)),
        )
        report = availability_pipeline(r, multiplier=2.0, single_moves_only=True)
        assert report.stopped_at is None
        assert all(rep.verdict for rep in report.reports)
        assert report.dual.nu_residual <= 1e-10
        assert report.dual.intertwine_residual <= 1e-10
        assert report.bound.ok
        assert report.tail.mean > 0

    def test_non_admissible_rates_stop_at_monotonicity(self):
        r = RateFunctions(d=2, psi=power_family(2, 0.05), phi=power_family(2, 0.08))
        report = availability_pipeline(r)
        assert report.stopped_at == "monotonicity"
        assert report.dual is None
        assert not report.reports[2].verdict

    def test_pipeline_is_deterministic(self):
        r = RateFunctions(
            d=2,
            psi=pernode_family(2, (0.03, 0.05)),
            phi=pernode_family(2, (0.04, 0.06)),
        )
        r1 = availability_pipeline(r, multiplier=2.0, single_moves_only=True)
        r2 = availability_pipeline(r, multiplier=2.0, single_moves_only=True)
        assert np.array_equal(r1.chain.P, r2.chain.P)
        assert np.array_equal(r1.law.pi, r2.law.pi)
        assert np.array_equal(r1.curve.values, r2.curve.values)
        assert np.array_equal(r1.tail.tail, r2.tail.tail)

    def test_errors_carry_stage_labels(self):
        r = RateFunctions(d=1, psi=np.array([1.0, 0.3]), phi=np.array([1.0, 0.7]))
        with pytest.raises(InputError) as exc:
            availability_pipeline(r, multiplier=0.2)
        assert exc.value.stage == "uniformize"

    def test_up_direction_starts_at_full_outage(self):
        r = RateFunctions(
            d=2,
            psi=pernode_family(2, (0.03, 0.05)),
            phi=pernode_family(2, (0.04, 0.06)),
        )
        report = availability_pipeline(
            r, multiplier=2.0, direction="up", single_moves_only=True
        )
        assert report.stopped_at is None
        assert report.dual.absorbing_index == 0
        assert report.chain.nu[-1] == 1.0


def report_facts(rep):
    return (rep.notion, rep.verdict, rep.worst_value, rep.witness,
            rep.tolerance_used, rep.exact)


# a network whose stationary law spans 300 orders of magnitude, so the
# balance certificate fails (balance inf) and the reversal is computed
UNBALANCED = dict(d=2, psi=[1.0, 1.0, 1.0, 1e150], phi=[1e150, 1.0, 1.0, 1.0])


class TestComputedReversal:
    def test_reports_are_the_kernel_and_its_computed_reversal(self):
        report = availability_pipeline(RateFunctions(**UNBALANCED), multiplier=2.0)
        c, law = report.chain, report.law
        rev = reverse(c, law)
        assert law.path == "gth" and law.balance == np.inf and rev is not c
        assert report.stopped_at is None and report.bound.ok
        expected = (mobius_monotone_down(c, c.poset), mobius_monotone_up(c, c.poset),
                    mobius_monotone_down(rev, c.poset), mobius_monotone_up(rev, c.poset))
        for got, want in zip(report.reports, expected, strict=True):
            assert report_facts(got) == report_facts(want)
            assert np.array_equal(got.transformed, want.transformed)


class TestWorkRunsOnce:
    """Each Mobius transform is computed once per run, and the dense link
    never: a dual applies it through the zeta actions on every poset.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(
            monkeypatch, (monotonicity, "mobius_transform"), (duality, "build_link")
        )

    @staticmethod
    def single_move_run(psi):
        r = RateFunctions(d=4, psi=psi, phi=pernode_family(4, (0.04, 0.06, 0.05, 0.03)))
        report = availability_pipeline(r, multiplier=2.0, single_moves_only=True)
        assert report.stopped_at is None
        assert report.reports[2] is report.dual.reversed_report

    def test_full_single_move_run(self, calls):
        # a product-form network is a cube walk, read off its rates
        self.single_move_run(pernode_family(4, (0.03, 0.05, 0.04, 0.02)))
        assert calls == {}

    def test_full_single_move_run_off_product(self, calls):
        self.single_move_run(off_product(pernode_family(4, (0.03, 0.05, 0.04, 0.02))))
        assert calls == {"mobius_transform": 2}

    def test_run_stopped_at_monotonicity(self, calls):
        r = RateFunctions(d=4, psi=power_family(4, 0.05), phi=power_family(4, 0.08))
        report = availability_pipeline(r)
        assert report.stopped_at == "monotonicity"
        assert not report.reports[2].verdict
        assert calls == {"mobius_transform": 2}

    @pytest.mark.parametrize("poset", ["general", "cube"])
    def test_dual_command_builds_no_dense_link(self, calls, tmp_path, poset):
        # the 2-cube walk given as a general poset runs the dense actions
        spec = tmp_path / "walk.spec"
        spec.write_text(
            "[poset]\nstates: 00 10 01 11\ncover: 00 10\ncover: 00 01\n"
            "cover: 10 11\ncover: 01 11\n\n[chain]\nrow: 0.8 0.1 0.1 0\n"
            "row: 0.1 0.8 0 0.1\nrow: 0.1 0 0.8 0.1\nrow: 0 0.1 0.1 0.8\n"
            "nu: delta_min\n"
        )
        source = str(spec) if poset == "general" else FOUR_CUBE
        out = str(tmp_path / "dual.spec")
        assert cli.main(["dual", "--input", source, "--output", out]) == 0
        assert "build_link" not in calls


class TestGeneratorFreed:
    @pytest.fixture
    def made(self, monkeypatch):
        made = []
        generator, stationary = availability.availability_generator, availability.stationary

        def recording(*args, **kwargs):
            gen = generator(*args, **kwargs)
            made.append(weakref.ref(gen))
            return gen

        def checked(*args, **kwargs):
            assert all(ref() is None for ref in made), "the generator outlived uniformize"
            return stationary(*args, **kwargs)

        monkeypatch.setattr(availability, "availability_generator", recording)
        monkeypatch.setattr(availability, "stationary", checked)
        return made

    @staticmethod
    def run(psi, single):
        r = RateFunctions(d=4, psi=psi, phi=pernode_family(4, (0.04, 0.06, 0.05, 0.03)))
        availability_pipeline(r, multiplier=2.0, single_moves_only=single)

    @pytest.mark.parametrize("single", [True, False])
    def test_no_later_stage_holds_the_dense_generator(self, made, single):
        # off the product form, single moves take the generator path too
        self.run(off_product(pernode_family(4, (0.03, 0.05, 0.04, 0.02))), single)
        assert len(made) == 1

    def test_walk_shaped_network_builds_no_generator(self, made):
        self.run(pernode_family(4, (0.03, 0.05, 0.04, 0.02)), True)
        assert made == []


class TestCubePathsSkipDensePair:
    """On a cube every zeta/Mobius product runs as butterflies: the dense
    oriented pair is never read."""

    @pytest.fixture(autouse=True)
    def no_dense_pair(self, monkeypatch):
        def refuse(self, direction, dtype=float):
            raise AssertionError("dense zeta/Mobius matrix read on a cube")

        monkeypatch.setattr(Poset, "zeta", refuse)
        monkeypatch.setattr(Poset, "mobius", refuse)

    @pytest.mark.parametrize("single", [True, False])
    def test_pipeline(self, single):
        r = RateFunctions(
            d=4,
            psi=pernode_family(4, (0.03, 0.05, 0.04, 0.02)),
            phi=pernode_family(4, (0.04, 0.06, 0.05, 0.03)),
        )
        report = availability_pipeline(r, multiplier=2.0, single_moves_only=single)
        assert report.stopped_at == (None if single else "monotonicity")

    @pytest.mark.parametrize("command", ["check", "cube", "sep", "dual"])
    def test_cli(self, command):
        assert cli.main([command, "--input", FOUR_CUBE]) == 0


class TestCubePairStaysUnbuilt:
    """A cube poset never builds its dense C or Cinv on these paths, and
    builds its relation only where up-sets are enumerated (the strong row of
    ``check`` and ``cube``)."""

    @pytest.fixture
    def posets(self, monkeypatch):
        made = []
        for module in (cube_module, availability):
            original = module.cube_poset

            def recording(d, _original=original):
                made.append(_original(d))
                return made[-1]

            monkeypatch.setattr(module, "cube_poset", recording)
        return made

    @staticmethod
    def assert_unbuilt(posets, built=()):
        assert posets and all(p.cube_dim == 4 for p in posets)
        for p in posets:
            assert {"leq", "C", "Cinv"} & vars(p).keys() == set(built)

    @pytest.mark.parametrize("single", [True, False])
    def test_pipeline(self, posets, single):
        r = RateFunctions(
            d=4,
            psi=pernode_family(4, (0.03, 0.05, 0.04, 0.02)),
            phi=pernode_family(4, (0.04, 0.06, 0.05, 0.03)),
        )
        availability_pipeline(r, multiplier=2.0, single_moves_only=single)
        self.assert_unbuilt(posets)

    @pytest.mark.parametrize("command", ["check", "cube", "sep", "dual", "eig", "simulate"])
    def test_cli(self, posets, command, tmp_path):
        out = str(tmp_path / "out.txt")
        assert cli.main([command, "--input", FOUR_CUBE, "--output", out]) == 0
        if command == "eig":
            assert posets == []     # the closed form needs no poset
        else:
            self.assert_unbuilt(posets, {"leq"} if command in ("check", "cube") else ())
