import threading
from random import Random

import pytest

from ntkms.coeff import CoefficientElement
from ntkms.nt import (
    NTElement,
    TermBudgetExceeded,
    get_term_budget,
    term_budget,
    unit_projection,
)
from ntkms.product_system import AffineToeplitzSystem, CuntzSystem, TorusDilationSystem
from ntkms.verify import sample_element

AFFINE = AffineToeplitzSystem()
TORUS = TorusDilationSystem(1)
CUNTZ = CuntzSystem(2)

SYSTEMS = [AFFINE, TORUS, CUNTZ]


def fibers_for(system):
    if system.semigroup.is_multiplicative:
        return (1, 2, 3)
    return (0, 1, 2)


def elements(system, seed, count, terms=2):
    rng = Random(seed)
    return [
        sample_element(rng, system, fibers_for(system), terms=terms)
        for _ in range(count)
    ]


def close(x, y, tol=1e-12):
    return (x - y).one_norm() <= tol


# -- ring structure, exact ----------------------------------------------------


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_star_product_associative_exact(system):
    xs = elements(system, 101, 8)
    ys = elements(system, 102, 8)
    zs = elements(system, 103, 8)
    for x, y, z in zip(xs, ys, zs):
        assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_unit_is_neutral(system):
    one = NTElement.unit(system)
    for x in elements(system, 104, 6):
        assert one * x == x
        assert x * one == x
    assert one * one == one


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_distributive_and_linear(system):
    x, y, z = elements(system, 105, 3, terms=3)
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x
    assert x.scale(2.0) * y == (x * y).scale(2.0)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_adjoint_is_antimultiplicative_involution(system):
    xs = elements(system, 106, 6)
    ys = elements(system, 107, 6)
    for x, y in zip(xs, ys):
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()
        assert x.adjoint().adjoint() == x
        assert (x + y).adjoint() == x.adjoint() + y.adjoint()
        assert x.scale(2j).adjoint() == x.adjoint().scale(-2j)


def test_hash_consistent_with_equality():
    x = elements(AFFINE, 108, 1)[0]
    y = NTElement(AFFINE, dict(x.terms))
    assert x == y and hash(x) == hash(y)


# -- generator relations --------------------------------------------------------


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_isometry_relation(system):
    """i_s(xi)* i_s(eta) = i_e(<xi, eta>), the defining inner relation."""
    rng = Random(109)
    from ntkms.verify import sample_vector

    for s in fibers_for(system):
        xi = sample_vector(rng, system, s)
        eta = sample_vector(rng, system, s)
        lhs = NTElement.embed(system, s, xi).adjoint() * NTElement.embed(system, s, eta)
        rhs = NTElement.embed_coeff(system, xi.inner(eta))
        assert lhs == rhs


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_embedding_multiplicative(system):
    """i_s(xi) i_r(eta) = i_(sr)(xi eta)."""
    rng = Random(110)
    from ntkms.verify import sample_vector

    sg = system.semigroup
    for s in fibers_for(system):
        for r in fibers_for(system):
            xi = sample_vector(rng, system, s)
            eta = sample_vector(rng, system, r)
            lhs = NTElement.embed(system, s, xi) * NTElement.embed(system, r, eta)
            rhs = NTElement.embed(system, sg.mul(s, r), system.module_product(xi, eta))
            assert lhs == rhs


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_coefficients_act_on_both_sides(system):
    rng = Random(111)
    from ntkms.verify import sample_coeff, sample_vector

    for s in fibers_for(system):
        xi = sample_vector(rng, system, s)
        a = sample_coeff(rng, system.engine)
        left = NTElement.embed_coeff(system, a) * NTElement.embed(system, s, xi)
        assert left == NTElement.embed(system, s, system.left_act(s, a, xi))
        right = NTElement.embed(system, s, xi) * NTElement.embed_coeff(system, a)
        assert right == NTElement.embed(system, s, xi.right_mul(a))


def test_from_monomial_agrees_with_product():
    rng = Random(112)
    from ntkms.verify import sample_vector

    for s in (2, 3):
        for r in (2, 3):
            xi = sample_vector(rng, AFFINE, s)
            eta = sample_vector(rng, AFFINE, r)
            built = NTElement.from_monomial(AFFINE, s, xi, r, eta)
            multiplied = (
                NTElement.embed(AFFINE, s, xi) * NTElement.embed(AFFINE, r, eta).adjoint()
            )
            assert built == multiplied


def test_coprime_doubly_faithful_product():
    """i_2(1_0)* i_3(1_0) collapses to the single term i_3(1_0) i_2(1_0)*."""
    x = NTElement.embed(AFFINE, 2, AFFINE.basis_vector(2, 0))
    y = NTElement.embed(AFFINE, 3, AFFINE.basis_vector(3, 0))
    prod = x.adjoint() * y
    assert prod == NTElement.from_monomial(
        AFFINE, 3, AFFINE.basis_vector(3, 0), 2, AFFINE.basis_vector(2, 0)
    )


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_projection_covariance(system):
    """alpha_s(1) alpha_r(1) = alpha_(s lub r)(1), the lattice relation."""
    sg = system.semigroup
    for s in fibers_for(system):
        for r in fibers_for(system):
            ps, pr = unit_projection(system, s), unit_projection(system, r)
            assert ps * pr == unit_projection(system, sg.lub(s, r))
            assert ps * ps == ps
            assert ps.adjoint() == ps


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_corner_coefficients_commute_with_projections(system):
    from ntkms.verify import sample_coeff

    rng = Random(113)
    for s in fibers_for(system):
        a = sample_coeff(rng, system.engine)
        x = NTElement.embed_coeff(system, a)
        p = unit_projection(system, s)
        assert x * p == p * x


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_alpha_of_unit_is_projection(system):
    one = NTElement.unit(system)
    for s in fibers_for(system):
        assert one.alpha(s) == unit_projection(system, s)


def alpha_by_products(y, s):
    """The defining sum sum_j i_s(1_j) y i_s(1_j)*, through products."""
    system = y.system
    out = NTElement.zero(system)
    for j in range(system.basis_count(s)):
        iso = NTElement.embed(system, s, system.basis_vector(s, j))
        out = out + iso * y * iso.adjoint()
    return out


@pytest.mark.parametrize("system", [TorusDilationSystem(2), CUNTZ, AFFINE], ids=lambda s: s.name)
def test_termwise_alpha_is_the_defining_sum(system):
    fibers = fibers_for(system)
    ys = elements(system, 119, 4, terms=3) + [unit_projection(system, fibers[1])]
    for y in ys:
        for s in fibers[1:]:
            assert y.alpha(s) == alpha_by_products(y, s)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_adjoint_is_the_sum_of_termwise_adjoints(system):
    x = sum(elements(system, 120, 8, terms=6), NTElement.zero(system))
    assert x.term_count >= 10
    termwise = NTElement.zero(system)
    for (s, r, l), vec in x.terms.items():
        termwise = termwise + NTElement.from_monomial(
            system, r, system.basis_vector(r, l), s, vec
        )
    assert x.adjoint() == termwise
    assert x.adjoint().adjoint() == x


# -- core expectation -------------------------------------------------------------


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_core_expectation_properties(system):
    for x in elements(system, 114, 4, terms=3):
        ex = x.core_expectation()
        assert ex.core_expectation() == ex
        assert all(s == r for (s, r, _) in ex.terms)
        assert x.adjoint().core_expectation() == ex.adjoint()
        assert (x - ex).core_expectation().is_zero()


def test_core_expectation_is_conditional():
    """E(p x p) = p E(x) p for core projections p."""
    for x in elements(AFFINE, 115, 4, terms=3):
        p = unit_projection(AFFINE, 2)
        lhs = (p * x * p).core_expectation()
        rhs = p * x.core_expectation() * p
        assert lhs == rhs


# -- dynamics ------------------------------------------------------------------


def test_dynamics_fixes_core_and_scales_offdiagonal():
    x = NTElement.from_monomial(
        AFFINE, 3, AFFINE.basis_vector(3, 1), 2, AFFINE.basis_vector(2, 0)
    )
    z = 0.7 + 0.3j
    moved = x.dynamics(z)
    ((key, vec),) = moved.sorted_terms()
    assert key == (3, 2, 0)
    import cmath

    want = cmath.exp(1j * z * cmath.log(3.0 / 2.0))
    got = vec.entries[1].terms[AFFINE.engine.unit()]
    assert abs(got - want) < 1e-12
    core = unit_projection(AFFINE, 2)
    assert core.dynamics(z) == core


def test_dynamics_one_parameter_group():
    x = elements(AFFINE, 116, 1, terms=3)[0]
    z, w = 0.4 - 0.2j, -1.1 + 0.5j
    assert close(x.dynamics(z).dynamics(w), x.dynamics(z + w), tol=1e-10)
    assert x.dynamics(0.0) == x


def test_dynamics_multiplicative_within_rounding():
    xs = elements(AFFINE, 117, 3)
    ys = elements(AFFINE, 118, 3)
    for x, y in zip(xs, ys):
        z = 0.9 + 0.1j
        assert close((x * y).dynamics(z), x.dynamics(z) * y.dynamics(z), tol=1e-9)


# -- term budget ------------------------------------------------------------------


def test_term_budget_caps_products():
    x = unit_projection(CUNTZ, 4)  # 16 diagonal terms
    with term_budget(10):
        with pytest.raises(TermBudgetExceeded):
            x * x
    # restored afterwards
    assert (x * x) == x


def test_set_term_budget_round_trip():
    old = get_term_budget()
    with term_budget(123):
        assert get_term_budget() == 123
    assert get_term_budget() == old


def test_term_budget_is_local_to_its_thread():
    before = get_term_budget()
    seen = []

    def worker():
        with term_budget(7):
            seen.append(get_term_budget())

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and seen == [7]
    assert get_term_budget() == before


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        with term_budget(0):
            pass
