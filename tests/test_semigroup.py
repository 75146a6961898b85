import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkms.semigroup import (
    NAT_ADD,
    NAT_MULT,
    ScalingHomomorphism,
    TruncationSet,
    geometric_scaling,
    power_scaling,
    tail_bound,
)

semigroups = st.sampled_from([NAT_MULT, NAT_ADD])


def values_for(sg):
    lo = sg.identity_value
    return st.integers(min_value=lo, max_value=60)


@given(semigroups, st.data())
def test_mul_associative_and_unital(sg, data):
    s = data.draw(values_for(sg))
    r = data.draw(values_for(sg))
    t = data.draw(values_for(sg))
    assert sg.mul(sg.mul(s, r), t) == sg.mul(s, sg.mul(r, t))
    e = sg.identity_value
    assert sg.mul(e, s) == s == sg.mul(s, e)


@given(semigroups, st.data())
def test_lattice_laws(sg, data):
    s = data.draw(values_for(sg))
    r = data.draw(values_for(sg))
    j, m = sg.lub(s, r), sg.glb(s, r)
    assert sg.leq(s, j) and sg.leq(r, j)
    assert sg.leq(m, s) and sg.leq(m, r)
    # absorption ties the two operations together
    assert sg.lub(s, sg.glb(s, r)) == s
    assert sg.glb(s, sg.lub(s, r)) == s


@given(semigroups, st.data())
def test_lub_is_least(sg, data):
    s = data.draw(values_for(sg))
    r = data.draw(values_for(sg))
    j = sg.lub(s, r)
    # any common upper bound in a window dominates the lub
    for c in TruncationSet(sg, min(j * 2 + 2, 80)):
        if sg.leq(s, c) and sg.leq(r, c):
            assert sg.leq(j, c)


@given(semigroups, st.data())
def test_quotient_inverts_mul(sg, data):
    s = data.draw(values_for(sg))
    r = data.draw(values_for(sg))
    prod = sg.mul(s, r)
    assert sg.quotient(prod, s) == r
    with_id = sg.quotient(s, s)
    assert with_id == sg.identity_value


def test_quotient_rejects_incomparable():
    with pytest.raises(ValueError):
        NAT_MULT.quotient(3, 2)
    with pytest.raises(ValueError):
        NAT_ADD.quotient(1, 4)


def test_nat_mult_is_divisibility():
    assert NAT_MULT.lub(4, 6) == math.lcm(4, 6)
    assert NAT_MULT.glb(4, 6) == math.gcd(4, 6)
    assert NAT_MULT.leq(3, 12) and not NAT_MULT.leq(3, 10)


def test_nat_add_is_linear_order():
    assert NAT_ADD.lub(4, 6) == 6
    assert NAT_ADD.glb(4, 6) == 4
    assert NAT_ADD.leq(0, 5) and not NAT_ADD.leq(5, 3)


def test_check_value_rejects_bad_inputs():
    with pytest.raises(ValueError):
        NAT_MULT.check_value(0)
    with pytest.raises(ValueError):
        NAT_ADD.check_value(-1)
    with pytest.raises(TypeError):
        NAT_MULT.check_value(2.0)


def test_truncation_set_window():
    t = TruncationSet(NAT_MULT, 10)
    assert t.values == tuple(range(1, 11))
    assert 10 in t and 11 not in t and 0 not in t
    assert t.closure_violations() == []
    ta = TruncationSet(NAT_ADD, 5)
    assert ta.values == tuple(range(6))
    assert 0 in ta and 6 not in ta
    assert ta.closure_violations() == []


def test_scaling_validate_clean():
    assert power_scaling(2).validate(TruncationSet(NAT_MULT, 32)) == []
    assert geometric_scaling(3).validate(TruncationSet(NAT_ADD, 16)) == []


def test_scaling_validate_flags_violations():
    broken = ScalingHomomorphism(
        NAT_MULT, lambda s: float(s + 1), ("custom", 0), "s+1"
    )
    problems = broken.validate(TruncationSet(NAT_MULT, 16))
    assert problems and any("N(" in p for p in problems)
    flat = ScalingHomomorphism(NAT_ADD, lambda n: 1.0, ("custom", 0), "flat")
    assert any("injective" in p for p in flat.validate(TruncationSet(NAT_ADD, 16)))


def brute_tail(scaling, weights, beta, bound, horizon):
    sg = scaling.semigroup
    total = 0.0
    for v in TruncationSet(sg, horizon):
        if v not in TruncationSet(sg, bound):
            total += scaling.of(v) ** (-beta) * weights(v)
    return total


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=2.5, max_value=6.0),
    st.integers(min_value=8, max_value=64),
)
def test_power_tail_dominates_partial_sums(d, beta, bound):
    if d * (beta - 1.0) <= 1.0:
        return
    sc = power_scaling(d)
    w = lambda s: float(s) ** d
    tb = tail_bound(sc, beta, bound)
    assert brute_tail(sc, w, beta, bound, 40 * bound) <= tb


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=1.5, max_value=5.0),
    st.integers(min_value=4, max_value=40),
)
def test_geometric_tail_dominates_partial_sums(k, beta, bound):
    sc = geometric_scaling(k)
    w = lambda n: float(k) ** n
    tb = tail_bound(sc, beta, bound)
    assert brute_tail(sc, w, beta, bound, 8 * bound) <= tb


def test_tail_bound_rejects_subcritical_beta():
    with pytest.raises(ValueError):
        tail_bound(power_scaling(1), 2.0, 100)
    with pytest.raises(ValueError):
        tail_bound(geometric_scaling(2), 1.0, 100)
