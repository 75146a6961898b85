"""Tests for the expression language and the canonical printer.

The contract under test: ``parse_element(format_element(y)) == y`` for
every normal form y (printing uses 17 significant digits, so float64
weights survive), the grammar builds the documented constructors, and
errors carry 1-based column positions pointing at the offending token.
"""

from random import Random

import pytest

from ntkms.coeff import CoefficientElement
from ntkms.dsl import DSLError, format_element, parse_element
from ntkms.nt import NTElement, unit_projection
from ntkms.product_system import (
    AffineToeplitzSystem,
    CuntzSystem,
    ModuleVector,
    TorusDilationSystem,
)
from ntkms.verify import sample_element

AFFINE = AffineToeplitzSystem()
TORUS1 = TorusDilationSystem(1)
TORUS2 = TorusDilationSystem(2)
CUNTZ = CuntzSystem(2)

ALL = [AFFINE, TORUS1, TORUS2, CUNTZ]


def fibers_for(system):
    return (1, 2, 3) if system.semigroup.name == "nat-mult" else (0, 1, 2)


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.name)
def test_round_trip_reproduces_the_element(system):
    rng = Random(29)
    for k in range(10):
        y = sample_element(rng, system, fibers_for(system), terms=3)
        if k % 3 == 1:
            y = y.adjoint() * y
        elif k % 3 == 2:
            y = y.core_expectation() + y.alpha(fibers_for(system)[1])
        assert parse_element(format_element(y), system) == y


@pytest.mark.parametrize("system", [AFFINE, CUNTZ], ids=lambda s: s.name)
def test_round_trip_survives_dynamics_weights(system):
    # time evolution scales terms by exp(i t log ratio); the irrational
    # weights must survive the print/parse cycle bit for bit
    rng = Random(31)
    for _ in range(6):
        y = sample_element(rng, system, fibers_for(system)).dynamics(1.3)
        assert parse_element(format_element(y), system) == y


def test_parse_unit_and_scalar_prefixes():
    unit = NTElement.unit(AFFINE)
    assert parse_element("i[1](1@0)", AFFINE) == unit
    assert parse_element("2 * i[1](1@0)", AFFINE) == unit.scale(2)
    assert parse_element("-2 * i[1](1@0)", AFFINE) == unit.scale(-2)
    assert parse_element("2i * i[1](1@0)", AFFINE) == unit.scale(2j)
    assert parse_element("i * i[1](1@0)", AFFINE) == unit.scale(1j)
    assert parse_element("(1+2i) * i[1](1@0)", AFFINE) == unit.scale(1 + 2j)
    assert parse_element("1.5e2 * i[1](1@0)", AFFINE) == unit.scale(150.0)
    assert parse_element("(2 - 3) * i[1](1@0)", AFFINE) == unit.scale(-1)
    # the prefix is a coefficient, so juxtaposed numbers multiply
    assert parse_element("2 3 * i[1](1@0)", AFFINE) == unit.scale(6)
    assert parse_element("(1+i)(1-i) * i[1](1@0)", AFFINE) == unit.scale(2)
    assert parse_element("-(2)(3) * i[1](1@0)", AFFINE) == unit.scale(-6)
    # but it must be a number, not a word of the coefficient algebra
    with pytest.raises(DSLError, match="leading coefficient must be a number") as err:
        parse_element("(S) * i[1](1@0)", AFFINE)
    assert err.value.position == 0


def test_parse_constructors():
    assert parse_element("alpha[2](i[1](1@0))", AFFINE) == unit_projection(AFFINE, 2)
    want = NTElement.from_monomial(
        AFFINE, 2, AFFINE.basis_vector(2, 0), 3, AFFINE.basis_vector(3, 1)
    )
    assert parse_element("i[2](1@0) * adj(i[3](1@1))", AFFINE) == want
    # core expectation keeps diagonal keys and kills the rest
    assert parse_element("E(i[2](1@0))", AFFINE).is_zero()
    core = parse_element("E(i[2](1@0) * adj(i[2](1@0)))", AFFINE)
    assert core == parse_element("i[2](1@0) * adj(i[2](1@0))", AFFINE)


def test_juxtaposition_binds_like_an_explicit_star():
    spaced = parse_element("i[2](1@0) adj(i[2](1@1))", AFFINE)
    starred = parse_element("i[2](1@0) * adj(i[2](1@1))", AFFINE)
    assert spaced == starred
    # and + still separates terms afterwards
    both = parse_element("i[2](1@0) adj(i[2](1@1)) + i[1](1@0)", AFFINE)
    assert both == starred + NTElement.unit(AFFINE)


def test_coefficient_words():
    eng = AFFINE.engine
    want = CoefficientElement.monomial(eng, (1, 0)) + CoefficientElement.monomial(
        eng, (0, 2), 2.0
    )
    assert parse_element("i[1]((S + 2 S*^2)@0)", AFFINE) == NTElement.embed_coeff(AFFINE, want)
    # juxtaposed atoms multiply: S S* is the rank-one corner monomial
    corner = CoefficientElement.monomial(eng, (1, 1))
    assert parse_element("i[1]((S S*)@0)", AFFINE) == NTElement.embed_coeff(AFFINE, corner)
    weighted = CoefficientElement.monomial(eng, (1, 0), 2 + 3j)
    assert parse_element("i[1](((2+3i) S)@0)", AFFINE) == NTElement.embed_coeff(AFFINE, weighted)

    z = CoefficientElement.monomial(TORUS1.engine, (-2,))
    assert parse_element("i[1]((z^-2)@0)", TORUS1) == NTElement.embed_coeff(TORUS1, z)
    z12 = CoefficientElement.monomial(TORUS2.engine, (1, -3))
    assert parse_element("i[1]((z1 z2^-3)@0)", TORUS2) == NTElement.embed_coeff(TORUS2, z12)


def test_repeated_indices_accumulate():
    got = parse_element("i[2](1@0, 1@0, i@1)", AFFINE)
    coords = (
        CoefficientElement.unit(AFFINE.engine, 2.0),
        CoefficientElement.unit(AFFINE.engine, 1j),
    )
    assert got == NTElement.embed(AFFINE, 2, ModuleVector(AFFINE, 2, coords))


def test_huge_fiber_vector_stays_sparse():
    # N_40 = 2^40 on cuntz(2): only the one written coordinate is stored
    got = parse_element("i[40](1@5)", CUNTZ)
    ((key, vec),) = got.terms.items()
    assert key == (40, 0, 0) and list(vec.entries) == [5]
    assert parse_element(format_element(got), CUNTZ) == got


def test_zero_prints_and_parses():
    assert format_element(NTElement.zero(AFFINE)) == "0 * i[1](1@0)"
    assert format_element(NTElement.zero(CUNTZ)) == "0 * i[0](1@0)"
    assert parse_element("0 * i[1](1@0)", AFFINE).is_zero()


def test_exact_printed_form():
    y = NTElement.from_monomial(
        AFFINE, 2, AFFINE.basis_vector(2, 0), 3, AFFINE.basis_vector(3, 1)
    )
    assert format_element(y) == "i[2](((1+0i))@0) * adj(i[3](1@1))"
    assert format_element(unit_projection(AFFINE, 2)) == (
        "i[2](((1+0i))@0) * adj(i[2](1@0)) + i[2](((1+0i))@1) * adj(i[2](1@1))"
    )


def test_imaginary_token_discrimination():
    # "2i" is a number, "i" before "[" is the embedding, "i" elsewhere
    # is the imaginary unit, and "S*" lexes as one atom
    y = parse_element("i[1]((2i)@0)", AFFINE)
    assert y == NTElement.unit(AFFINE).scale(2j)
    y = parse_element("i[1]((i S*)@0)", AFFINE)
    assert y == NTElement.embed_coeff(
        AFFINE, CoefficientElement.monomial(AFFINE.engine, (0, 1), 1j)
    )


@pytest.mark.parametrize(
    "text,pos",
    [
        ("i[2](1@5)", 7),  # basis index out of range for the fiber
        ("i[0](1@0)", 2),  # 0 is not in the multiplicative semigroup
        ("adj i[1](1@0)", 4),  # adj needs parentheses
        ("i[1](1@0) huh", 10),  # trailing input
        ("", 0),  # no factor at all
        ("i[1]((S^-1)@0)", 6),  # creation atoms take nonnegative powers
        ("2 i[1](1@0)", 2),  # scalar prefix needs an explicit star
        ("i[2](1@0) $", 10),  # unknown character
        ("i[1](1e-i@0)", 6),  # an exponent with no digits is no exponent
        ("1e+ * i[1](1@0)", 1),
    ],
)
def test_error_positions(text, pos):
    with pytest.raises(DSLError) as err:
        parse_element(text, AFFINE)
    assert err.value.position == pos
    assert str(err.value).startswith(f"column {pos + 1}:")


def test_engine_vocabulary_is_enforced():
    with pytest.raises(DSLError, match="Toeplitz"):
        parse_element("i[1]((z)@0)", AFFINE)
    with pytest.raises(DSLError, match="torus"):
        parse_element("i[1]((S)@0)", TORUS1)
    with pytest.raises(DSLError, match="scalar"):
        parse_element("i[0]((S)@0)", CUNTZ)
    with pytest.raises(DSLError, match="axis 3"):
        parse_element("i[1]((z3)@0)", TORUS2)


def test_errors_are_value_errors():
    with pytest.raises(ValueError):
        parse_element("i[1](1@0) +", AFFINE)
