import cmath
import struct
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkms.coeff import (
    SCALAR,
    TOEPLITZ,
    CoefficientElement,
    EngineMismatch,
    LaurentEngine,
    TraceSpec,
    haar_trace,
    identity_trace,
    mixture_trace,
    point_mass_trace,
)
from ntkms.product_system import TorusDilationSystem
from ntkms.states import KMSContext

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
    # weights off 1 break c(0) = 1; a non-finite weight makes every moment non-finite
    with pytest.raises(ValueError, match="trace weights sum to 2.0, must be 1"):
        TraceSpec(TOEPLITZ, 2.0)
    with pytest.raises(ValueError, match="trace weights sum to 0.5"):
        TraceSpec(TOEPLITZ, 0.25, ((0.25, (0.7,)),))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"trace weight {bad} must be finite"):
            TraceSpec(TOEPLITZ, 0.0, ((bad, (0.7,)),))


def gram(moment, dim, w=8):
    """The Gram matrix [c(g - h)] over the degrees g, h in {0..w-1}^d."""
    grid = list(iter_product(range(w), repeat=dim))
    return np.array([[moment(tuple(a - b for a, b in zip(g, h))) for h in grid] for g in grid])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_moments_that_are_not_positive_definite_are_rejected(dim):
    # a signed measure: its moments 1.5*[k = 0] - 0.5*exp(i k.theta) have a
    # negative Gram eigenvalue, and the negative weight alone rejects it
    theta = (0.3, 1.1, 2.9)[:dim]

    def moment(k):
        return 1.5 * (not any(k)) - 0.5 * cmath.exp(1j * sum(a * t for a, t in zip(k, theta)))

    assert np.linalg.eigvalsh(gram(moment, dim)).min() < -1
    with pytest.raises(ValueError, match="trace weight -0.5 must be finite and nonnegative"):
        TraceSpec(LaurentEngine(dim), 1.5, ((-0.5, theta),))


def test_angle_tuples_of_the_wrong_length_are_rejected():
    with pytest.raises(ValueError, match="need 2 angles, got 1"):
        TraceSpec(LaurentEngine(2), 0.5, ((0.5, (0.7,)),))
    with pytest.raises(ValueError, match="need 0 angles, got 1"):
        TraceSpec(SCALAR, 0.0, ((1.0, (0.7,)),))


def test_non_finite_angles_are_named():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"angle {bad} is not finite"):
            point_mass_trace(LaurentEngine(2), (0.3, bad))


def test_a_phase_that_overflows_names_its_degree():
    tr = point_mass_trace(TOEPLITZ, 1e307)
    assert tr.moment((17,)) == cmath.exp(1.7e308j)
    with pytest.raises(ValueError, match=r"moment at degree \(18,\): phase inf is not finite"):
        tr.moment((18,))
    # inf - inf is nan, which is not finite either
    tr2 = point_mass_trace(LaurentEngine(2), (1e308, 1e308))
    assert tr2.moment((1, -1)) == 1.0
    with pytest.raises(ValueError, match=r"moment at degree \(2, -2\): phase nan"):
        tr2.moment((2, -2))


def test_zero_degree_moment_is_exactly_one():
    for total in (1.0 + 1e-13, 1.0 - 1e-13):
        point = point_mass_trace(TOEPLITZ, 0.7)
        tr = mixture_trace([(0.5, haar_trace(TOEPLITZ)), (total - 0.5, point)])
        assert tr.moment((0,)) == complex(1.0)


def bits(z):
    return struct.pack("<dd", z.real, z.imag)


def pinned_degrees(dim):
    """All of {-7..7}^d, then +-10^18 on each axis and on all axes at once."""
    yield from iter_product(range(-7, 8), repeat=dim)
    for sign in (1, -1):
        for i in range(dim):
            yield tuple(sign * 10**18 * (j == i) for j in range(dim))
        yield (sign * 10**18,) * dim


@pytest.mark.parametrize("theta", [(0.7,), (0.7, 0.7), (0.3, 1.1, 2.9)], ids=["d1", "d2", "d3"])
def test_moments_are_the_moment_function_formulas_bitwise(theta):
    # the formulas of the former moment-function traces, written out
    dim = len(theta)
    engine = TOEPLITZ if dim == 1 else LaurentEngine(dim)

    def haar_formula(k):
        return complex(1.0) if not any(k) else complex(0.0)

    def point_formula(k):
        if not any(k):
            return complex(1.0)
        return cmath.exp(1j * sum(ki * ti for ki, ti in zip(k, theta)))

    haar, point = haar_trace(engine), point_mass_trace(engine, theta)
    for k in pinned_degrees(dim):
        assert bits(haar.moment(k)) == bits(haar_formula(k)), k
        assert bits(point.moment(k)) == bits(point_formula(k)), k
    assert bits(identity_trace().moment(())) == bits(complex(1.0))

    # a mixture was the weighted sum of its components' moments
    comps = [(0.25, haar), (0.5, point), (0.25, point_mass_trace(engine, [-t for t in theta]))]
    mix = mixture_trace(comps)
    for k in pinned_degrees(dim):
        assert abs(mix.moment(k) - sum(w * t.moment(k) for w, t in comps)) <= 1e-15, k


@pytest.mark.parametrize("dim", [1, 2])
def test_random_mixtures_have_positive_hermitian_moments(dim):
    rng = np.random.default_rng(2024 + dim)
    engine = TOEPLITZ if dim == 1 else LaurentEngine(dim)
    for _ in range(25):
        weights = rng.random(1 + rng.integers(0, 5))
        weights /= weights.sum()
        atoms = tuple((float(w), tuple(rng.uniform(-10, 10, dim))) for w in weights[1:])
        tr = TraceSpec(engine, float(weights[0]), atoms)
        assert np.linalg.eigvalsh(gram(tr.moment, dim)).min() >= -1e-12
        for k in iter_product(range(-7, 8), repeat=dim):
            assert tr.moment(tuple(-x for x in k)) == tr.moment(k).conjugate(), k


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


# -- engine identity -----------------------------------------------------------


def test_engines_are_equal_by_tag_and_rank():
    assert LaurentEngine(2) == LaurentEngine(2)
    assert hash(LaurentEngine(2)) == hash(LaurentEngine(2))
    assert LaurentEngine(1) != LaurentEngine(2)
    # a Laurent and a Toeplitz engine share the degree rank 1, not the tag
    assert LaurentEngine(1) != TOEPLITZ
    assert haar_trace(LaurentEngine(2)) == haar_trace(LaurentEngine(2))


def test_elements_over_different_ranks_differ():
    zero1 = CoefficientElement.zero(LaurentEngine(1))
    zero2 = CoefficientElement.zero(LaurentEngine(2))
    assert zero1 != zero2
    assert zero1 == CoefficientElement.zero(LaurentEngine(1))
    assert hash(zero1) == hash(CoefficientElement.zero(LaurentEngine(1)))
    with pytest.raises(EngineMismatch):
        CoefficientElement.unit(LaurentEngine(1)) + CoefficientElement.unit(LaurentEngine(2))


def test_traces_of_another_rank_are_refused():
    system = TorusDilationSystem(2)
    with pytest.raises(ValueError, match="different coefficient engine"):
        KMSContext(system, haar_trace(LaurentEngine(1)), 3.0, 100)
    # an equal engine built apart is accepted
    KMSContext(system, haar_trace(LaurentEngine(2)), 3.0, 100)
    with pytest.raises(EngineMismatch):
        mixture_trace([(0.5, haar_trace(LaurentEngine(1))), (0.5, haar_trace(LaurentEngine(2)))])


def test_scalars_are_the_laurent_engine_of_rank_zero():
    assert SCALAR == LaurentEngine(0)
    assert SCALAR.tag == "scalar" and SCALAR.degree_dim == 0
    assert repr(SCALAR) == "<scalar engine>"
    assert SCALAR.unit() == ()
    assert SCALAR.mul((), ()) == ()
    assert SCALAR.adjoint(()) == ()
    assert SCALAR.degree(()) == ()
    assert SCALAR.check(()) == ()
    with pytest.raises(ValueError):
        SCALAR.check((1,))
    assert SCALAR.format(()) == "1"
    with pytest.raises(ValueError):
        LaurentEngine(-1)
