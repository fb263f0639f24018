"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import os
import time

import numpy as np
import pytest

import mobiusdual as md
from mobiusdual import monotonicity as mono
from mobiusdual.availability import (
    RateFunctions,
    availability_generator,
    pernode_family,
    uniformize,
)
from mobiusdual.convergence import binomial_band
from mobiusdual.errors import MobiusDualError

DATA = os.path.join(os.path.dirname(__file__), "data")


def maximal_indices(p):
    """Indices of maximal elements (no strictly greater state)."""
    strict = p.leq & ~np.eye(p.size, dtype=bool)
    return [i for i in range(p.size) if not strict[i, :].any()]


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def delta(m, k):
    out = np.zeros(m)
    out[k] = 1.0
    return out


def random_admissible(d, rng, total=None):
    total = rng.uniform(0.3, 0.98) if total is None else total
    parts = rng.dirichlet(np.ones(2 * d)) * total
    return tuple(parts[:d]), tuple(parts[d:])


def cube_walk(d, alpha, beta, start=0):
    params = md.CubeWalkParams(d=d, alpha=alpha, beta=beta)
    c = md.nearest_neighbor_walk(params, nu=delta(2**d, start))
    return c, md.stationary(c), md.zeta_mobius(c.poset)


def two_cube_transforms(a1, a2, b1, b2):
    """Hand-derived symbolic transforms of the 2-cube walk."""
    down = np.array([
        [1 - a1 - a2 - b1 - b2, 0, 0, 0],
        [b1, 1 - a2 - b2, 0, 0],
        [b2, 0, 1 - a1 - b1, 0],
        [0, b2, b1, 1],
    ])
    up = np.array([
        [1, a1, a2, 0],
        [0, 1 - a1 - b1, 0, a2],
        [0, 0, 1 - a2 - b2, a1],
        [0, 0, 0, 1 - a1 - a2 - b1 - b2],
    ])
    return down, up


def closed_form_cube_dual(p, alpha, beta):
    m = p.size
    d = len(alpha)
    out = np.zeros((m, m))
    for i, e in enumerate(p.elements):
        zero = [k for k in range(d) if e[k] == 0]
        out[i, i] = 1.0 - sum(alpha[k] + beta[k] for k in zero)
        for k in zero:
            up = list(e)
            up[k] = 1
            out[i, p.index(tuple(up))] = alpha[k] + beta[k]
    return out


def random_monotone_poset_chains(count, rng, max_size=8):
    """Randomized search for non-cube poset chains meeting the dual conditions."""
    found = []
    attempts = 0
    while len(found) < count and attempts < 20000:
        attempts += 1
        m = int(rng.integers(3, max_size + 1))
        labels = [f"s{i}" for i in range(m)]
        rels = [
            (labels[i], labels[j])
            for i in range(m)
            for j in range(i + 1, m)
            if rng.random() < 0.35
        ]
        try:
            p = md.build_poset(labels, rels)
        except MobiusDualError:
            continue
        if len(maximal_indices(p)) != 1:
            continue
        if p.leq.all():
            continue    # skip total orders; want genuinely partial orders
        zm = md.zeta_mobius(p)
        strict = p.leq & ~np.eye(m, dtype=bool)
        hasse = strict & ~(strict @ strict)
        moves = (hasse | hasse.T).astype(float)
        if not moves.sum(axis=1).all():
            continue
        total = rng.uniform(0.2, 0.9)
        rates = rng.uniform(0.2, 1.0, size=(m, m)) * moves
        mat = np.eye(m) * (1 - total) + total * rates / rates.sum(
            axis=1, keepdims=True
        )
        try:
            c = md.validate_chain(mat, p, nu=delta(m, 0))
            law = md.stationary(c)
            rev = md.reverse(c, law)
        except MobiusDualError:
            continue
        if not mono.mobius_monotone_down(rev, zm).verdict:
            continue
        g = c.nu / law.pi
        if not mono.function_mobius_monotone(g, zm, "down").verdict:
            continue
        found.append((c, law, zm))
    return found


class TestAcceptance:
    def test_criterion_01_two_cube_closed_forms(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        p = md.cube_poset(2)
        zm = md.zeta_mobius(p)
        worst = 0.0
        for _ in range(100):
            total = rng.uniform(0.2, 0.999)
            a1, a2, b1, b2 = rng.dirichlet(np.ones(4)) * total
            c = md.nearest_neighbor_walk(
                md.CubeWalkParams(d=2, alpha=(a1, a2), beta=(b1, b2))
            )
            down, up = two_cube_transforms(a1, a2, b1, b2)
            worst = max(
                worst,
                np.abs(mono.mobius_transform(c.P, zm, "down") - down).max(),
                np.abs(mono.mobius_transform(c.P, zm, "up") - up).max(),
            )
        flips_ok = True
        for _ in range(10):
            direction = rng.dirichlet(np.ones(4))
            for scale, expected in ((1 - 1e-6, True), (1 + 1e-6, False)):
                a1, a2, b1, b2 = direction * scale
                c = md.validate_chain(
                    np.array([
                        [1 - a1 - a2, a1, a2, 0],
                        [b1, 1 - b1 - a2, 0, a2],
                        [b2, 0, 1 - a1 - b2, a1],
                        [0, b2, b1, 1 - b1 - b2],
                    ]),
                    p,
                )
                if mono.mobius_monotone_down(c, zm).verdict is not expected:
                    flips_ok = False
                if mono.mobius_monotone_up(c, zm).verdict is not expected:
                    flips_ok = False
        elapsed = time.perf_counter() - start
        report(
            1,
            worst <= 1e-12 and flips_ok and elapsed < 1.0,
            f"2-cube transforms match the symbolic forms (worst {worst:.2e}), "
            f"verdict "
            f"flips at the rate-sum boundary, {elapsed:.2f}s",
        )

    def test_criterion_02_cube_dual_closed_forms(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        elapsed_d8 = 0.0
        for d in range(2, 9):
            t0 = time.perf_counter()
            for _ in range(2):
                alpha, beta = random_admissible(d, rng)
                c, law, zm = cube_walk(d, alpha, beta)
                dual = md.build_ssd(c, law, zm, "down")
                expected = closed_form_cube_dual(c.poset, alpha, beta)
                worst = max(worst, np.abs(dual.P_star - expected).max())
                strict_down = c.poset.leq.T & ~np.eye(2**d, dtype=bool)
                worst = max(worst, np.abs(dual.P_star[strict_down]).max())
            if d == 8:
                elapsed_d8 = time.perf_counter() - t0
        report(
            2,
            worst <= 1e-12 and elapsed_d8 < 5.0,
            f"cube duals d=2..8 match closed forms (worst {worst:.2e}), "
            f"d=8 pair in {elapsed_d8:.2f}s",
        )

    def test_criterion_03_duality_identities(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        built = 0
        for d in range(2, 9):
            alpha, beta = random_admissible(d, rng)
            c, law, zm = cube_walk(d, alpha, beta)
            dual = md.build_ssd(c, law, zm, "down")
            link = md.build_link(law, zm, "down")
            res = md.verify_duality(link, c, dual)
            worst = max(worst, res.nu_residual, res.intertwine_residual)
            built += 1
        poset_chains = random_monotone_poset_chains(6, rng)
        assert len(poset_chains) >= 3, "randomized poset search found too few chains"
        for c, law, zm in poset_chains:
            dual = md.build_ssd(c, law, zm, "down")
            link = md.build_link(law, zm, "down")
            res = md.verify_duality(link, c, dual)
            worst = max(worst, res.nu_residual, res.intertwine_residual)
            built += 1
        report(
            3,
            worst <= 1e-10,
            f"duality residuals on {built} duals (cubes d<=8 and "
            f"{len(poset_chains)} searched poset chains), worst {worst:.2e}",
        )

    def test_criterion_04_eigenvalue_readoff(self):
        rng = np.random.default_rng(4)
        worst_diag = 0.0
        worst_solver = 0.0
        for d in range(2, 9):
            alpha, beta = random_admissible(d, rng)
            c, law, zm = cube_walk(d, alpha, beta)
            dual = md.build_ssd(c, law, zm, "down")
            closed = md.cube_eigenvalues(alpha, beta)
            worst_diag = max(
                worst_diag,
                np.abs(np.sort(np.diag(dual.P_star))[::-1] - closed).max(),
            )
            solver = np.sort(np.linalg.eigvals(c.P).real)[::-1]
            worst_solver = max(worst_solver, np.abs(solver - closed).max())
        report(
            4,
            worst_diag <= 1e-12 and worst_solver <= 1e-8,
            f"eigenvalues: dual diagonal worst {worst_diag:.2e}, "
            f"eigensolver worst {worst_solver:.2e}, d<=8",
        )

    def test_criterion_05_separation_formula(self):
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        worst_formula = 0.0
        worst_tail = 0.0
        for d in range(1, 7):
            alpha, beta = random_admissible(d, rng)
            c, law, zm = cube_walk(d, alpha, beta)
            curve = md.separation_curve(c, law, 100)
            formula = np.array(
                [md.cube_separation_formula(alpha, beta, n) for n in range(101)]
            )
            worst_formula = max(worst_formula, np.abs(curve.values - formula).max())
            dual = md.build_ssd(c, law, zm, "down")
            tail = md.absorption_tail(dual, 100)
            worst_tail = max(worst_tail, np.abs(curve.values - tail.tail).max())
        elapsed = time.perf_counter() - start
        report(
            5,
            worst_formula <= 1e-10 and worst_tail <= 1e-10 and elapsed < 10.0,
            f"separation vs inclusion-exclusion worst {worst_formula:.2e}, vs "
            f"dual tail worst {worst_tail:.2e}, d<=6 n<=100, {elapsed:.2f}s",
        )

    def test_criterion_06_sst_bound_everywhere(self):
        rng = np.random.default_rng(6)
        checked = 0
        worst = -np.inf
        models = []
        for d in (2, 3, 4):
            alpha, beta = random_admissible(d, rng)
            models.append(cube_walk(d, alpha, beta))
        models.extend(random_monotone_poset_chains(5, rng))
        for c, law, zm in models:
            dual = md.build_ssd(c, law, zm, "down")
            curve = md.separation_curve(c, law, 80)
            tail = md.absorption_tail(dual, 80)
            check = md.sst_bound_check(curve, tail)
            worst = max(worst, check.max_violation)
            checked += 1
        non_cube = checked - 3
        report(
            6,
            worst <= 1e-10,
            f"s(n) <= P(T*>n) + 1e-10 on {checked} models "
            f"({non_cube} non-cube posets), worst violation {worst:.2e}",
        )

    def test_criterion_07_closure_lemma(self):
        rng = np.random.default_rng(7)
        failures = 0
        pairs = 0
        for _ in range(200):
            d = int(rng.integers(2, 5))
            p = md.cube_poset(d)
            zm = md.zeta_mobius(p)
            chains = []
            for _ in range(2):
                alpha, beta = random_admissible(d, rng)
                chains.append(
                    md.nearest_neighbor_walk(
                        md.CubeWalkParams(d=d, alpha=alpha, beta=beta)
                    )
                )
            c1, c2 = chains
            candidates = [c1.P @ c2.P, np.linalg.matrix_power(c1.P, 2),
                          np.linalg.matrix_power(c2.P, 2)]
            candidates += [
                t * c1.P + (1 - t) * c2.P for t in (0.25, 0.5, 0.75)
            ]
            for mat in candidates:
                c = md.validate_chain(mat, p, row_tol=1e-9)
                if not mono.mobius_monotone_down(c, zm).verdict:
                    failures += 1
                if not mono.mobius_monotone_up(c, zm).verdict:
                    failures += 1
            pairs += 1
        report(
            7,
            failures == 0,
            f"products, squares and mixtures of {pairs} Mobius-monotone cube "
            f"pairs stay monotone ({failures} counterexamples)",
        )

    def test_criterion_08_implication_and_separation(self):
        rng = np.random.default_rng(8)
        weak_failures = 0
        instances = 0
        for d in (2, 3):
            p = md.cube_poset(d)
            zm = md.zeta_mobius(p)
            for _ in range(10):
                alpha, beta = random_admissible(d, rng)
                c = md.nearest_neighbor_walk(
                    md.CubeWalkParams(d=d, alpha=alpha, beta=beta)
                )
                assert mono.mobius_monotone_up(c, zm).verdict
                assert mono.mobius_monotone_down(c, zm).verdict
                if not mono.weak_monotone(c, zm, "up").verdict:
                    weak_failures += 1
                if not mono.weak_monotone(c, zm, "down").verdict:
                    weak_failures += 1
                instances += 1
        loaded = md.load_model(os.path.join(DATA, "strong_not_mobius.spec"))
        c = loaded.chain
        zm = md.zeta_mobius(c.poset)
        strong = mono.strong_stochastic_monotone(c)
        down = mono.mobius_monotone_down(c, zm)
        up = mono.mobius_monotone_up(c, zm)
        separated = strong.verdict and not down.verdict and not up.verdict
        report(
            8,
            weak_failures == 0 and separated,
            f"weak passes on {instances} Mobius-monotone instances "
            f"({weak_failures} failures); curated fixture is strongly monotone "
            f"(true) but Mobius monotone (down {down.worst_value:.3f}, "
            f"up {up.worst_value:.3f}) in neither direction",
        )

    def test_criterion_09_gplus_supermodular(self):
        params = md.CubeWalkParams(d=3, alpha=(0.06,) * 3, beta=(0.06,) * 3)
        base = md.nearest_neighbor_walk(params)
        kappa = 0.02
        moves = md.axis_moves(kappa)
        transformed = md.axis_transformed_walk(params, kappa)
        worst = np.inf
        per_row = 250   # 4 transformed rows x 250 = 1000 sampled functions
        for k, move in enumerate(moves):
            row = base.poset.index(move.row)
            rep = md.supermodular_order_witness(
                base.P[row], transformed.P[row], base.poset,
                trials=per_row, seed=900 + k,
            )
            worst = min(worst, rep.min_difference)
        report(
            9,
            worst >= -1e-12,
            f"1000 verified supermodular functions on the 3-cube: minimum "
            f"expectation shift {worst:.2e} over the four transformed rows",
        )

    def test_criterion_10_monte_carlo(self):
        start = time.perf_counter()
        c, law, zm = cube_walk(3, (1 / 12,) * 3, (1 / 12,) * 3)
        dual = md.build_ssd(c, law, zm, "down")
        analytic = md.absorption_tail(dual, 50)
        samples = 100000
        r1 = md.simulate_absorption(dual, samples, seed=20260808, horizon=50)
        r2 = md.simulate_absorption(dual, samples, seed=20260808, horizon=50)
        identical = (
            np.array_equal(r1.tail, r2.tail)
            and np.array_equal(r1.lower, r2.lower)
            and np.array_equal(r1.upper, r2.upper)
        )
        # 51 bands at once: each at 1 - 1%/51, so all hold with 99 %
        lo, hi = binomial_band(analytic.tail, samples, 1 - 0.01 / 51)
        inside = bool(((r1.tail >= lo) & (r1.tail <= hi)).all())
        elapsed = time.perf_counter() - start
        report(
            10,
            identical and inside and elapsed < 60.0,
            f"10^5 simulated absorptions inside the family-wise 99% bands of "
            f"the analytic tail for n<=50, seeded reruns identical, {elapsed:.1f}s",
        )

    def test_criterion_11_availability_reduction(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for d in range(2, 7):
            a = rng.uniform(0.01, 0.08, size=d)
            b = rng.uniform(0.01, 0.08, size=d)
            r = RateFunctions(
                d=d, psi=pernode_family(d, a), phi=pernode_family(d, b)
            )
            chain, rate = uniformize(availability_generator(r, single_moves_only=True))
            walk = md.nearest_neighbor_walk(
                md.CubeWalkParams(
                    d=d, alpha=tuple(a / rate), beta=tuple(b / rate)
                )
            )
            worst = max(worst, np.abs(chain.P - walk.P).max())
        report(
            11,
            worst <= 1e-12,
            f"uniformized single-move availability chains reproduce the "
            f"nearest-neighbor walk entrywise (worst {worst:.2e}), d<=6",
        )
