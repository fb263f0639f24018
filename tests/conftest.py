"""Oracles shared by several test modules."""

import pytest

from mobiusdual.chain import reverse
from mobiusdual.duality import DualChain, _unique_extremal, g_ratio
from mobiusdual.monotonicity import function_mobius_monotone, mobius_transform
from mobiusdual.poset import cube_poset


@pytest.fixture(autouse=True)
def fresh_cube_posets():
    """Start each test from cube posets that have read nothing: the package
    keeps one per dimension (``poset.cube_poset``), so a relation or zeta
    pair that one test reads would otherwise stay for the next."""
    cube_poset.cache_clear()


def raw_dual_pair(c, law, zm, direction="down"):
    """Oracle: the dual pair of the construction as the formula gives it,
    unclamped, unnormalised and uncertified, so possibly signed or noisy.

    P* transposed is H(e_j)/H(e_i) (Cinv R C)(e_j, e_i) with R the computed
    time reversal (never read off a walk's rates), and nu* is the
    g-transform times H.  No precondition is checked.
    """
    h = zm.zeta_right(law.pi, direction)
    core = mobius_transform(reverse(c, law).P, zm, direction)
    g = function_mobius_monotone(g_ratio(c, law), zm, direction).transformed
    return DualChain(
        nu_star=g * h,
        P_star=((h[:, None] * core) / h[None, :]).T.copy(),
        absorbing_index=_unique_extremal(zm, direction),
        direction=direction,
    )


@pytest.fixture
def raw_dual():
    """``raw_dual_pair``, for the tests that need a signed or noisy dual."""
    return raw_dual_pair
