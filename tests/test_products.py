"""Product actions as a metamorphic check.

G1 x G2 acts block-diagonally on L1 + L2 at a common d.  Its quotient is
X1/G1 x X2/G2, and the product of crepant resolutions is a crepant
resolution of it (Kunneth), so the quotient, the resolution and the
orbifold Euler number multiply.  A point's isotropy is H1 x H2, so the
strata multiply too; at d = 1 so do the orbit nodes, and the closure
relation with its diagonal is the product of the factors'.  Each product
also runs conjugated by a seeded unimodular P, so that the engine cannot
see the blocks.  None of this reads a closed form or a golden digest.
"""

import random

import pytest

from kummer.catalog import catalog
from kummer.groupcore import generate_group
from kummer.strata import TerminalStratum, stratify
from kummer.toruslat import orbifold_euler
from lattice_reference import assert_fibers_are_the_spanned_ones

PAIRS = [("z2_sl2", "z3_sl2"), ("z4_sl2", "z2_sl2"), ("z6_sl2", "z3_sl2"),
         ("d4_sl3", "z2_sl2"), ("s3_standard_d2", "d8_b2")]


def _identity(r):
    return [[int(i == j) for j in range(r)] for i in range(r)]


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _basis_change(rng, r, steps=6):
    """A product of ``steps`` random +-1 transvections I + s e_ij and its
    exact inverse."""
    p, p_inv = _identity(r), _identity(r)
    for _ in range(steps):
        i, j = rng.sample(range(r), 2)
        s = rng.choice((1, -1))
        t, t_inv = _identity(r), _identity(r)
        t[i][j], t_inv[i][j] = s, -s
        p, p_inv = _mat_mul(p, t), _mat_mul(t_inv, p_inv)
    return p, p_inv


def _block(a, b):
    return [[*row, *[0] * len(b)] for row in a] + [[0] * len(a) + list(row) for row in b]


def product(first, second, seed=None):
    """G1 x G2 on L1 + L2, conjugated by P from ``seed`` unless it is None."""
    assert first.d == second.d
    gens = ([_block(g, _identity(second.r)) for g in first.generators]
            + [_block(_identity(first.r), h) for h in second.generators])
    if seed is not None:
        p, p_inv = _basis_change(random.Random(seed), first.r + second.r)
        gens = [_mat_mul(_mat_mul(p, g), p_inv) for g in gens]
    return generate_group(gens, d=first.d, label=f"{first.label} x {second.label}")


@pytest.fixture(scope="module")
def factors():
    """Each factor's action, report and orbifold Euler number."""
    out = {}
    for name in {name for pair in PAIRS for name in pair}:
        action = catalog(name)
        out[name] = action, stratify(action), orbifold_euler(action)
    return out


def _nodes(report):
    return sum(s.orbit_count for s in report.strata)


@pytest.mark.parametrize("seed", [None, 18], ids=["plain", "conjugated"])
@pytest.mark.parametrize("pair", PAIRS, ids="_x_".join)
def test_a_product_multiplies(pair, seed, factors):
    (a1, r1, e1), (a2, r2, e2) = (factors[name] for name in pair)
    action = product(a1, a2, seed)
    report = stratify(action)
    assert action.order == a1.order * a2.order
    assert report.quotient == r1.quotient * r2.quotient
    assert report.resolution == r1.resolution * r2.resolution
    assert orbifold_euler(action) == e1 * e2
    assert len(report.strata) == len(r1.strata) * len(r2.strata)
    assert_fibers_are_the_spanned_ones(report)
    if action.d == 1:
        n1, n2 = _nodes(r1), _nodes(r2)
        assert _nodes(report) == n1 * n2
        assert len(report.closure_edges) == (
            (len(r1.closure_edges) + n1) * (len(r2.closure_edges) + n2) - n1 * n2)


@pytest.mark.parametrize("seed", [None, 18], ids=["plain", "conjugated"])
def test_an_obstructed_factor_stops_the_product(seed):
    # -1 on an abelian surface's square has no junior class
    first, second = catalog("s3_standard_d2"), catalog("z2_sl2", d=2)
    with pytest.raises(TerminalStratum):
        stratify(second)
    with pytest.raises(TerminalStratum):
        stratify(product(first, second, seed))
