import cmath
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkms.coeff import (
    MOMENT_WINDOW,
    SCALAR,
    TOEPLITZ,
    CoefficientElement,
    LaurentEngine,
    TraceSpec,
    _moment_gram,
    haar_trace,
    identity_trace,
    mixture_trace,
    point_mass_trace,
)

toeplitz_monomials = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)


def laurent_monomials(d):
    return st.tuples(*(st.integers(min_value=-4, max_value=4) for _ in range(d)))


def toeplitz_shift(mon, p):
    """The monomial S^m S*^n acting on the basis vector e_p, or None."""
    m, n = mon
    if p < n:
        return None
    return p - n + m


@given(toeplitz_monomials, toeplitz_monomials, st.integers(min_value=0, max_value=24))
def test_toeplitz_mul_matches_operator_composition(a, b, p):
    inner = toeplitz_shift(b, p)
    expected = None if inner is None else toeplitz_shift(a, inner)
    assert toeplitz_shift(TOEPLITZ.mul(a, b), p) == expected


@given(toeplitz_monomials, st.integers(min_value=0, max_value=24),
       st.integers(min_value=0, max_value=24))
def test_toeplitz_adjoint_is_matrix_adjoint(a, i, j):
    assert (toeplitz_shift(a, j) == i) == (toeplitz_shift(TOEPLITZ.adjoint(a), i) == j)


@given(toeplitz_monomials, toeplitz_monomials)
def test_toeplitz_degree_additive(a, b):
    da, db = TOEPLITZ.degree(a), TOEPLITZ.degree(b)
    assert TOEPLITZ.degree(TOEPLITZ.mul(a, b)) == (da[0] + db[0],)


@given(st.integers(min_value=1, max_value=3), st.data())
def test_laurent_mul_matches_character_evaluation(d, data):
    eng = LaurentEngine(d)
    a = data.draw(laurent_monomials(d))
    b = data.draw(laurent_monomials(d))
    theta = [0.37 + 0.61 * c for c in range(d)]

    def ev(mon):
        return cmath.exp(1j * sum(g * t for g, t in zip(mon, theta)))

    got = ev(eng.mul(a, b))
    assert abs(got - ev(a) * ev(b)) < 1e-12
    assert abs(ev(eng.adjoint(a)) - ev(a).conjugate()) < 1e-12


def test_engine_check_rejects_malformed():
    with pytest.raises(ValueError):
        TOEPLITZ.check((-1, 0))
    with pytest.raises(ValueError):
        LaurentEngine(2).check((1,))
    with pytest.raises(ValueError):
        SCALAR.check((1,))


def test_format_round_trips_in_spirit():
    assert TOEPLITZ.format((0, 0)) == "1"
    assert TOEPLITZ.format((2, 1)) == "S^2 S*"
    assert LaurentEngine(2).format((1, -3)) == "z1 z2^-3"


# -- exact algebra on elements -------------------------------------------------

gauss = st.builds(
    complex,
    st.integers(min_value=-4, max_value=4).map(float),
    st.integers(min_value=-4, max_value=4).map(float),
)


def elements(engine, mons):
    pair = st.tuples(mons, gauss)
    return st.lists(pair, min_size=0, max_size=3).map(
        lambda ps: sum(
            (CoefficientElement.monomial(engine, m, w) for m, w in ps),
            CoefficientElement.zero(engine),
        )
    )


toeplitz_elements = elements(TOEPLITZ, toeplitz_monomials)


@given(toeplitz_elements, toeplitz_elements, toeplitz_elements)
def test_element_ring_laws_exact(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)


@given(toeplitz_elements, toeplitz_elements)
def test_element_adjoint_antimultiplicative(x, y):
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()
    assert x.adjoint().adjoint() == x


@given(toeplitz_elements, toeplitz_elements)
def test_one_norm_bounds(x, y):
    assert (x + y).one_norm() <= x.one_norm() + y.one_norm() + 1e-9
    assert (x * y).one_norm() <= x.one_norm() * y.one_norm() + 1e-9


@given(toeplitz_elements)
def test_unit_and_zero(x):
    one = CoefficientElement.unit(TOEPLITZ)
    zero = CoefficientElement.zero(TOEPLITZ)
    assert one * x == x == x * one
    assert x + zero == x
    assert x - x == zero
    assert zero.is_zero()


def test_canonical_merging_drops_zeros():
    a = CoefficientElement.monomial(TOEPLITZ, (1, 0), 1.0)
    b = CoefficientElement.monomial(TOEPLITZ, (1, 0), -1.0)
    assert (a + b).is_zero()
    assert (a + b).terms == {}


# -- traces ---------------------------------------------------------------------


def quadrature_moment(k, points=64):
    """Arc-length moments by roots-of-unity quadrature, the haar oracle."""
    total = sum(cmath.exp(2j * cmath.pi * j * k / points) for j in range(points))
    return total / points


def test_haar_moments_match_quadrature():
    tr = haar_trace(TOEPLITZ)
    for k in range(-12, 13):
        assert abs(tr.moment((k,)) - quadrature_moment(k)) < 1e-12


def test_haar_eval_keeps_degree_zero():
    tr = haar_trace(TOEPLITZ)
    x = (
        CoefficientElement.monomial(TOEPLITZ, (2, 2), 3.0)
        + CoefficientElement.monomial(TOEPLITZ, (3, 1), 7.0)
        + CoefficientElement.monomial(TOEPLITZ, (0, 0), 0.5)
    )
    assert abs(tr.eval(x) - 3.5) < 1e-12


def test_point_mass_moments_are_characters():
    tr = point_mass_trace(TOEPLITZ, 0.7)
    for k in range(-6, 7):
        assert abs(tr.moment((k,)) - cmath.exp(1j * k * 0.7)) < 1e-12
    tr2 = point_mass_trace(LaurentEngine(2), (0.3, 1.1))
    assert abs(tr2.moment((2, -1)) - cmath.exp(1j * (0.6 - 1.1))) < 1e-12


def test_point_mass_needs_matching_angles():
    with pytest.raises(ValueError):
        point_mass_trace(LaurentEngine(2), 0.7)
    with pytest.raises(ValueError):
        point_mass_trace(SCALAR, 0.7)


def test_trace_validation_rejects_bad_moments():
    with pytest.raises(ValueError):
        TraceSpec(TOEPLITZ, lambda k: 2.0)  # wrong normalisation
    with pytest.raises(ValueError):
        TraceSpec(TOEPLITZ, lambda k: 1.0 if k == (0,) else 1j)  # not hermitian
    with pytest.raises(ValueError):
        TraceSpec(TOEPLITZ, lambda k: 1.0 if k == (0,) else 3.0)  # not psd


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_moment_gram_is_the_double_loop_matrix_bitwise(dim):
    theta = (0.3, 1.1, 2.9)[:dim]
    moment = point_mass_trace(LaurentEngine(dim), theta).moment
    w = MOMENT_WINDOW
    grid = list(iter_product(range(w), repeat=dim))
    want = np.empty((len(grid), len(grid)), dtype=complex)
    for i, gi in enumerate(grid):
        for j, gj in enumerate(grid):
            want[i, j] = moment(tuple(a - b for a, b in zip(gi, gj)))
    got = _moment_gram(moment, dim, w)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_moments_that_are_not_positive_definite_are_rejected(dim):
    # hermitian, but c(k) = 0.9 at every unit degree outweighs c(0) = 1
    def moment(k):
        return 0.9 if sum(map(abs, k)) == 1 else (1.0 if not any(k) else 0.0)

    with pytest.raises(ValueError, match="not positive semidefinite on window 8"):
        TraceSpec(LaurentEngine(dim), moment)


def test_non_finite_moments_are_named_before_the_eigenvalues():
    # inf only at a mixed-sign degree, which the hermitian loop never reads
    def moment(k):
        return float("inf") if k == (1, -2) else (1.0 if not any(k) else 0.0)

    with pytest.raises(ValueError, match=r"moment at degree \(1, -2\) is \(inf\+0j\), not finite"):
        TraceSpec(LaurentEngine(2), moment)
    with pytest.raises(ValueError, match="moment at degree zero is"):
        TraceSpec(TOEPLITZ, lambda k: float("nan"))


def test_zero_degree_moment_is_exactly_one():
    tr = TraceSpec(TOEPLITZ, lambda k: 1.0 if k == (0,) else 1.0 + 1e-13)
    assert tr.moment((0,)) == complex(1.0)


def test_mixture_is_convex_combination():
    tr = mixture_trace([(0.25, haar_trace(TOEPLITZ)), (0.75, point_mass_trace(TOEPLITZ, 0.7))])
    for k in range(-4, 5):
        want = 0.25 * (k == 0) + 0.75 * cmath.exp(1j * k * 0.7)
        assert abs(tr.moment((k,)) - want) < 1e-12
    with pytest.raises(ValueError):
        mixture_trace([(0.5, haar_trace(TOEPLITZ))])


def test_identity_trace_on_scalars():
    tr = identity_trace()
    x = CoefficientElement.unit(SCALAR, 2.5 + 1j)
    assert tr.eval(x) == 2.5 + 1j
