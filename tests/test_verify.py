"""Tests for the verification harness.

Two kinds of assertion live here.  The alternating-sum residual and the
trace reconstruction have independent closed-form answers, so those are
checked against exact values.  The suite runner is then exercised end to
end: a healthy built-in must come back all green, a deliberately
corrupted one must come back with the structural failure named, and the
reports themselves must serialise deterministically.
"""

import json
import math
import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkms.coeff import CoefficientElement, haar_trace, identity_trace, point_mass_trace
from ntkms.product_system import AffineToeplitzSystem, CuntzSystem, TorusDilationSystem
from ntkms.semigroup import NAT_MULT, ScalingHomomorphism
from ntkms.verify import (
    CheckReport,
    check_corner_center,
    check_euler,
    check_fock_product,
    check_ground,
    check_ground_limit,
    check_inclusion_exclusion,
    check_kms_condition,
    check_projection_covariance,
    check_scaling_identity,
    default_traces,
    inclusion_exclusion_residual,
    lambda_weight,
    reconstruct_trace,
    reconstruction_monomials,
    run_suites,
    sample_coeff,
    sample_element,
    structure_reports,
)

AFFINE = AffineToeplitzSystem()
CUNTZ = CuntzSystem(2)


# -- the alternating identity --------------------------------------------------


def closure_of(primes):
    out = set()
    for mask in range(1, 1 << len(primes)):
        out.add(math.prod(p for i, p in enumerate(primes) if mask & (1 << i)))
    return sorted(out)


gauss = st.builds(complex, st.integers(-9, 9), st.integers(-9, 9))


@given(
    primes=st.sampled_from([(2,), (3,), (2, 3), (2, 5), (3, 5), (2, 3, 5), (2, 3, 7)]),
    weights=st.lists(gauss, min_size=7, max_size=7),
)
def test_residual_cancels_for_arbitrary_weights(primes, weights):
    # the cancellation is combinatorial, so Gaussian integer weights
    # (exact in floating point) must give a residual of exactly zero
    closure = closure_of(primes)
    lam = {s: weights[i % len(weights)] for i, s in enumerate(closure)}
    assert inclusion_exclusion_residual(primes, lam) == 0j


def test_residual_on_indicators_spans_the_identity():
    # by linearity, vanishing on every indicator weight proves the
    # cancellation for all weight assignments at once
    for primes in ((2,), (2, 3), (2, 3, 5)):
        closure = closure_of(primes)
        for s in closure:
            lam = {t: (1.0 + 0j if t == s else 0j) for t in closure}
            assert inclusion_exclusion_residual(primes, lam) == 0j


def test_residual_needs_coprime_generators():
    # with generators sharing a factor the subset joins collide, the
    # alternating sum stops telescoping, and the indicator at 4 survives
    closure = closure_of((2, 4))
    lam = {t: (1.0 + 0j if t == 4 else 0j) for t in closure}
    assert inclusion_exclusion_residual((2, 4), lam) == -1 + 0j


def test_lambda_weight_of_the_unit_counts_the_fiber():
    # W_s(1) has trace N_s = s, so the weight is s^(1 - beta)
    unit = CoefficientElement.unit(AFFINE.engine)
    for s in (2, 3, 5):
        got = lambda_weight(AFFINE, haar_trace(AFFINE.engine), 3.0, s, unit)
        assert abs(got - s ** (-2.0)) <= 1e-15


def test_inclusion_exclusion_check_passes_on_affine():
    rep = check_inclusion_exclusion(AFFINE, samples=30)
    assert rep.passed
    assert rep.metrics["worst_residual"] <= 1e-9
    assert sum(rep.metrics["sizes"].values()) == 30


def test_inclusion_exclusion_skips_ungraded_engines():
    rep = check_inclusion_exclusion(CUNTZ)
    assert rep.passed and rep.metrics.get("skipped")


# -- trace reconstruction --------------------------------------------------------


def test_reconstruct_unit_multiple_is_immediate():
    a = CoefficientElement.unit(AFFINE.engine, 2.5)
    res = reconstruct_trace(AFFINE, haar_trace(AFFINE.engine), 4.0, 100, a)
    assert res.applicable and res.fprimes == ()
    assert res.value == 2.5 + 0j and res.error == 0.0


def test_reconstruct_refuses_mixed_zero_degree():
    # S S* has degree zero but is not a unit multiple: every fiber weight
    # is nonzero, so no finite prime set can isolate the identity fiber
    a = CoefficientElement.monomial(AFFINE.engine, (1, 1))
    res = reconstruct_trace(AFFINE, haar_trace(AFFINE.engine), 4.0, 100, a)
    assert not res.applicable and res.value is None
    assert "zero-degree" in res.reason


@pytest.mark.parametrize("degree,primes", [(2, (2,)), (6, (2, 3)), (30, (2, 3, 5))])
def test_reconstruct_recovers_both_traces(degree, primes):
    haar = haar_trace(AFFINE.engine)
    point = point_mass_trace(AFFINE.engine, 0.0)
    a = CoefficientElement.monomial(AFFINE.engine, (degree, 0))
    for trace, want in ((haar, 0j), (point, 1.0 + 0j)):
        res = reconstruct_trace(AFFINE, trace, 4.0, 2000, a)
        assert res.applicable and res.fprimes == primes
        assert abs(res.expected - want) <= 1e-12
        assert res.error <= 1e-2


def test_reconstruction_family_shapes():
    toeplitz = reconstruction_monomials(AFFINE.engine)
    assert len(toeplitz) == 1 + 3 * 12
    laurent = reconstruction_monomials(TorusDilationSystem(1).engine, max_diff=5)
    assert len(laurent) == 1 + 2 * 5
    assert reconstruction_monomials(CUNTZ.engine) == [CoefficientElement.unit(CUNTZ.engine)]


# -- individual checks ------------------------------------------------------------


def test_structure_reports_cover_the_validator():
    t0 = time.perf_counter()
    reports = structure_reports(AFFINE, bound=8)
    wall = time.perf_counter() - t0
    names = [r.name for r in reports]
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    for expected in (
        "structure:index-map-bijective",
        "structure:index-map-associative",
        "structure:left-action-star",
        "structure:basis-orthonormal-via-transfer",
        "structure:scaling-homomorphism",
        "structure:window-lattice-closed",
        "structure:coprime-compatibility",
    ):
        assert expected in names
    # each validator law carries its own time, not a share of the total;
    # the validator's laws come before the scaling check
    laws = reports[: names.index("structure:scaling-homomorphism")]
    seconds = [r.seconds for r in laws]
    assert len(set(seconds)) > 1
    assert sum(seconds) <= wall


def test_structure_reports_name_the_broken_law():
    bad = AFFINE.corrupted(2, 2, (0, 1), (1, 0))
    reports = structure_reports(bad, bound=6)
    failed = {r.name for r in reports if not r.passed}
    assert "structure:index-map-associative" in failed
    assoc = next(r for r in reports if r.name == "structure:index-map-associative")
    assert "witness" in assoc.metrics


class _SkewScaling(AffineToeplitzSystem):
    """N(s) = s except N(121) = 122, so only N(11 * 11) breaks the law."""

    def __init__(self):
        super().__init__()
        self.scaling = ScalingHomomorphism(
            NAT_MULT, lambda s: 122.0 if s == 121 else float(s), ("power", 1), "skewed")


def test_structure_reports_name_a_non_multiplicative_scaling():
    reports = structure_reports(_SkewScaling())
    assert [r.name for r in reports if not r.passed] == ["structure:scaling-homomorphism"]
    rep = next(r for r in reports if r.name == "structure:scaling-homomorphism")
    assert rep.metrics == {"bound": 12}
    assert rep.detail == "N(11*11) = 122.0 != N(11)N(11) = 121.0"


@pytest.mark.parametrize("pair_b, witness", [
    ((1, 0), {"j": 0, "l": 1, "collisions": [(0, 0), (2, 1)]}),
    ((1, 2), {"j": 0, "l": 2, "collisions": [(1, 0), (0, 1)]}),
])
def test_structure_reports_name_the_first_coprime_collision(pair_b, witness):
    reports = structure_reports(AFFINE.corrupted(2, 3, (0, 0), pair_b))
    rep = next(r for r in reports if r.name == "structure:coprime-compatibility")
    assert not rep.passed and rep.detail == ""
    assert rep.metrics == {"bound": 12, "pairs": 1, "witness": {"s": 2, "r": 3, **witness}}


def test_projection_and_corner_checks_pass():
    assert check_projection_covariance(AFFINE).passed
    assert check_corner_center(AFFINE).passed
    assert check_projection_covariance(CUNTZ).passed
    assert check_corner_center(CUNTZ).passed


def test_kms_condition_check_small():
    rep = check_kms_condition(AFFINE, haar_trace(AFFINE.engine), 3.0, bound=400, samples=25)
    assert rep.passed
    assert rep.metrics["samples"] == 25
    assert rep.metrics["worst_deviation"] <= rep.metrics["tolerance_at_worst"]


def test_scaling_identity_check_small():
    rep = check_scaling_identity(AFFINE, haar_trace(AFFINE.engine), 3.0, bound=400)
    assert rep.passed
    assert rep.metrics["cases"] > 0


def test_ground_checks_small():
    trace = haar_trace(AFFINE.engine)
    rep = check_ground(AFFINE, trace, samples=40)
    assert rep.passed
    assert rep.metrics["nonzero_cases"] >= 4
    lim = check_ground_limit(AFFINE, trace, bound=400)
    assert lim.passed
    assert lim.metrics["final_max_diff"] <= 1e-4


def test_euler_check_applies_only_to_power_profiles():
    rep = check_euler(AFFINE, beta=3.0, prime_bound=2000, series_bound=10**5)
    assert rep.passed
    assert rep.metrics["gap"] <= max(rep.metrics["allowed"], 1e-3)
    skipped = check_euler(CUNTZ)
    assert skipped.passed and skipped.metrics.get("skipped")


def test_fock_checks_refuse_matrix_engines():
    with pytest.raises(ValueError, match="scalar coefficient engine"):
        check_fock_product(AFFINE)


# -- suite assembly ---------------------------------------------------------------


def test_default_traces_match_the_engine():
    assert [t.name for t in default_traces(CUNTZ)] == ["identity"]
    assert [t.name for t in default_traces(AFFINE)] == ["haar", "point_mass(0.7)"]


def test_run_suites_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown suites"):
        run_suites(AFFINE, ["structure", "nonsense"])


def test_run_suites_all_green_on_cuntz():
    reports = run_suites(CUNTZ, ["all"], beta=3.0, bound=60)
    assert reports, "expected a nonempty report list"
    bad = [r.name for r in reports if not r.passed]
    assert not bad, bad
    names = {r.name for r in reports}
    # scalar engines pull in the Fock oracle; graded-only checks skip
    assert "fock:representation-multiplicative" in names
    assert "fock:state-agreement" in names
    assert "state:kms-condition" in names
    assert "state:ground-limit" in names
    assert "reconstruct:inclusion-exclusion" in names


def test_run_suites_reports_are_deterministic_and_ordered():
    kw = dict(beta=3.0, bound=60, seed=7)
    one = run_suites(CUNTZ, ["structure"], **kw)
    two = run_suites(CUNTZ, ["structure"], **kw)
    assert [r.json_line() for r in one] == [r.json_line() for r in two]


def test_json_line_shape():
    rep = CheckReport("demo", True, {"b": 1, "a": 2}, "fine", seconds=0.5)
    payload = json.loads(rep.json_line())
    assert payload == {"check": "demo", "passed": True, "metrics": {"a": 2, "b": 1}, "detail": "fine"}
    # keys arrive sorted so runs diff cleanly
    assert rep.json_line().index('"check"') < rep.json_line().index('"detail"')


def test_samplers_shape():
    rng = Random(1)
    for _ in range(20):
        # cancellation can empty the sum, but never past three monomials
        a = sample_coeff(rng, AFFINE.engine, terms=3)
        assert len(a.terms) <= 3
        y = sample_element(rng, AFFINE, (1, 2, 3), terms=2, core=True)
        assert all(s == r for (s, r, _), _ in y.sorted_terms())
