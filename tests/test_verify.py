"""Tests for the verification harness.

Two kinds of assertion live here.  The fiber traces and the trace
reconstruction have independent closed-form answers, so those are
checked against exact values.  The suite runner is then exercised end to
end: a healthy built-in must come back all green, a deliberately
corrupted one must come back with the structural failure named, and the
reports themselves must serialise deterministically.
"""

import ast
import json
import math
import time
from itertools import count
from pathlib import Path
from random import Random

import pytest

from ntkms import verify
from ntkms.coeff import (
    CoefficientElement,
    TraceSpec,
    haar_trace,
    identity_trace,
    point_mass_trace,
)
from ntkms.fock import TruncatedFock
from ntkms.product_system import (
    AffineToeplitzSystem,
    CuntzSystem,
    ModuleVector,
    TorusDilationSystem,
    get_system,
)
from ntkms.nt import NTElement
from ntkms.semigroup import TruncationSet
from ntkms.states import (
    PREFIX_TERMS,
    KMSContext,
    StateValue,
    euler_product,
    factor,
    primes_up_to,
    rounding_radius,
    zeta_series,
)
from test_product_system import _AddedIndices, _DiagonalThirteen, broken_column
from ntkms.verify import (
    CheckReport,
    check_core_trace_property,
    check_corner_center,
    check_euler,
    check_fock_nica,
    check_fock_product,
    check_fock_state,
    check_ground,
    check_ground_limit,
    check_inclusion_exclusion,
    check_kms_condition,
    check_projection_covariance,
    check_reconstruction,
    check_scaling_identity,
    core_trace_draw,
    default_traces,
    kms_draw,
    lambda_weight,
    reconstruct_trace,
    reconstruction_monomials,
    recovery_draw,
    run_suites,
    sample_coeff,
    sample_element,
    structure_reports,
)

AFFINE = AffineToeplitzSystem()
CUNTZ = CuntzSystem(2)
DATA = Path(__file__).parent / "data"


# -- fiber traces against omega's closed form ----------------------------------


def test_lambda_weight_of_the_unit_counts_the_fiber():
    # W_s(1) has trace N_s = s, so the weight is s^(1 - beta)
    unit = CoefficientElement.unit(AFFINE.engine)
    for s in (2, 3, 5):
        got = lambda_weight(AFFINE, haar_trace(AFFINE.engine), 3.0, s, unit)
        assert abs(got - s ** (-2.0)) <= 1e-15


def test_inclusion_exclusion_check_passes_on_affine():
    # the fibers 1..64 and four draws from 65..1000, two monomials per
    # fiber past the identity, under both traces
    rep = check_inclusion_exclusion(AFFINE, default_traces(AFFINE))
    assert rep.passed
    assert rep.metrics["fibers"] == 68
    assert 0.0 < rep.metrics["worst_deviation"] <= rep.metrics["tolerance_at_worst"]
    assert 0 < rep.metrics["nonzero"] < 2 * (2 * 68 - 1)


def test_inclusion_exclusion_runs_on_cuntz():
    # N_q = 2^q <= 2^16 keeps the fibers 0..16; the scalar engine has only
    # the unit, whose fiber trace is N_q
    rep = check_inclusion_exclusion(CUNTZ, default_traces(CUNTZ))
    assert rep.passed and not rep.metrics.get("skipped")
    assert (rep.metrics["fibers"], rep.metrics["nonzero"]) == (17, 17)


@pytest.mark.parametrize("d", [1, 2])
def test_a_diagonal_left_action_past_the_structure_window_fails_inclusion_exclusion(d):
    # L_13 diagonal keeps every structure law, which stops at 12, and
    # omega's closed form, which never reads L_13; only the fiber traces see it
    system = _DiagonalThirteen(d)
    assert all(rep.passed for rep in structure_reports(system))
    rep = check_inclusion_exclusion(system, default_traces(system), seed=7)
    assert not rep.passed
    assert (rep.metrics["q"], rep.metrics["trace"]) == (13, default_traces(system)[1].name)


def test_inclusion_exclusion_reports_where_the_fiber_trace_leaves_the_closed_form():
    system = _DiagonalThirteen(1)
    rep = check_inclusion_exclusion(system, default_traces(system), seed=7)
    assert (rep.passed, rep.detail) == (False, "")
    assert rep.metrics == {
        "beta": 4.0, "bound": 1000, "fibers": 68, "traces": ["haar", "point_mass(0.7)"],
        "q": 13, "monomial": "(1+2j)*z^10", "trace": "point_mass(0.7)",
        "deviation": pytest.approx(1.01778e-3, rel=1e-5),
        "tolerance": pytest.approx(1.92094e-18, rel=1e-5),
    }


# -- trace reconstruction --------------------------------------------------------


def test_reconstruct_unit_multiple_is_immediate():
    a = CoefficientElement.unit(AFFINE.engine, 2.5)
    assert verify._degree_primes(a) is None
    value = reconstruct_trace(KMSContext(AFFINE, haar_trace(AFFINE.engine), 4.0, 100), a)
    assert value == 2.5 + 0j


def test_reconstruct_refuses_mixed_zero_degree():
    # S S* has degree zero but is not a unit multiple: every fiber weight
    # is nonzero, so no finite prime set can isolate the identity fiber
    a = CoefficientElement.monomial(AFFINE.engine, (1, 1))
    assert verify.recovery_products(AFFINE, a) == []
    assert reconstruct_trace(KMSContext(AFFINE, haar_trace(AFFINE.engine), 4.0, 100), a) is None


# 10^16 factors by trial division down to 1 by 2 and 5 alone, with no
# table of the primes up to 10^8
@pytest.mark.parametrize("degree,primes",
                         [(2, (2,)), (6, (2, 3)), (30, (2, 3, 5)), (10**16, (2, 5))])
def test_reconstruct_recovers_both_traces(degree, primes):
    haar = haar_trace(AFFINE.engine)
    point = point_mass_trace(AFFINE.engine, 0.0)
    a = CoefficientElement.monomial(AFFINE.engine, (degree, 0))
    assert verify._degree_primes(a) == factor(degree, degree)[1] == list(primes)
    for trace, want in ((haar, 0j), (point, 1.0 + 0j)):
        assert abs(trace.eval(a) - want) <= 1e-12
        assert abs(reconstruct_trace(KMSContext(AFFINE, trace, 4.0, 2000), a) - want) <= 1e-2


def test_degree_primes_keep_a_large_prime_cofactor():
    # the shared factorizer tries p = 2..100 on the cofactor 10007, which
    # no p with p^2 <= 10007 divides, and keeps it as a prime
    assert factor(2 * 10007, 2 * 10007) == ([1, 2, 10007, 2 * 10007], [2, 10007], 99)
    a = CoefficientElement.monomial(AFFINE.engine, (2 * 10007, 0))
    assert verify._degree_primes(a) == [2, 10007]
    mixed = a + CoefficientElement.monomial(AFFINE.engine, (0, 9))
    assert verify._degree_primes(mixed) == [2, 3, 10007]


def test_reconstruction_family_shapes():
    toeplitz = reconstruction_monomials(AFFINE.engine)
    assert len(toeplitz) == 1 + 3 * 12
    laurent = reconstruction_monomials(TorusDilationSystem(1).engine)
    assert len(laurent) == 1 + 2 * 12
    assert reconstruction_monomials(CUNTZ.engine) == [CoefficientElement.unit(CUNTZ.engine)]


# -- individual checks ------------------------------------------------------------


def test_structure_reports_cover_the_validator():
    t0 = time.perf_counter()
    reports = AFFINE.validate(TruncationSet(AFFINE.semigroup, 8))
    wall = time.perf_counter() - t0
    names = [r.name for r in reports]
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    for expected in (
        "structure:index-map-bijective",
        "structure:index-map-associative",
        "structure:left-action-star",
        "structure:scaling-homomorphism",
        "structure:coprime-compatibility",
    ):
        assert expected in names
    # each validator law carries its own time, not a share of the total
    seconds = [r.seconds for r in reports]
    assert len(set(seconds)) > 1
    assert sum(seconds) <= wall


def test_structure_reports_name_the_broken_law():
    bad = AFFINE.corrupted(2, 2, (0, 1), (1, 0))
    reports = bad.validate(TruncationSet(bad.semigroup, 6))
    failed = {r.name for r in reports if not r.passed}
    assert "structure:index-map-associative" in failed
    assoc = next(r for r in reports if r.name == "structure:index-map-associative")
    assert "witness" in assoc.metrics


class _SkewRank(AffineToeplitzSystem):
    """N_s = s except N_121 = 122, so only N_(11 * 11) breaks the product law."""

    def basis_count(self, s):
        return 122 if s == 121 else s


def test_structure_reports_name_a_non_multiplicative_scaling():
    # N is the fiber rank, so its product law is the basis-count law; the
    # window's ranks match the profile, and only L_121's extra column
    # also breaks coherence
    reports = structure_reports(_SkewRank())
    assert [r.name for r in reports if not r.passed] == [
        "structure:basis-count-multiplicative", "structure:left-action-coherent"]
    rep = next(r for r in reports if r.name == "structure:basis-count-multiplicative")
    assert rep.metrics == {"bound": 12, "witness": {"s": 11, "r": 11}}


@pytest.mark.parametrize("system, profile, bound, s", [
    (TorusDilationSystem(2), ("power", 1), 4, 2),
    (CuntzSystem(3), ("geometric", 2), 3, 1),
], ids=["lattice-dilation(2)", "cuntz(3)"])
def test_structure_reports_name_a_profile_that_misreads_the_rank(system, profile, bound, s):
    # the series would sum the profile's closed form in place of N_s
    system.profile = profile
    reports = system.validate(TruncationSet(system.semigroup, bound))
    assert [r.name for r in reports if not r.passed] == ["structure:scaling-homomorphism"]
    rep = next(r for r in reports if r.name == "structure:scaling-homomorphism")
    assert rep.metrics == {"bound": bound, "witness": {"s": s}} and rep.detail == ""


@pytest.mark.parametrize("pair_b, witness", [
    ((1, 0), {"j": 0, "l": 1, "collisions": [(0, 0), (2, 1)]}),
    ((1, 2), {"j": 0, "l": 2, "collisions": [(1, 0), (0, 1)]}),
])
def test_structure_reports_name_the_first_coprime_collision(pair_b, witness):
    reports = structure_reports(AFFINE.corrupted(2, 3, (0, 0), pair_b))
    rep = next(r for r in reports if r.name == "structure:coprime-compatibility")
    assert not rep.passed and rep.detail == ""
    # "pairs" counts the meet-trivial pairs of the window, not those scanned
    assert rep.metrics == {"bound": 12, "pairs": 68, "witness": {"s": 2, "r": 3, **witness}}


def test_projection_and_corner_checks_pass():
    assert check_projection_covariance(AFFINE).passed
    assert check_corner_center(AFFINE).passed
    assert check_projection_covariance(CUNTZ).passed
    assert check_corner_center(CUNTZ).passed


def test_projection_covariance_names_the_first_bad_pair():
    # m(s, r; j, k) = j + k is not bijective, so alpha_2(1) alpha_3(1) misses alpha_6(1)
    rep = check_projection_covariance(_AddedIndices())
    assert not rep.passed
    assert rep.metrics == {"bound": 6, "pairs": 36, "witness": {"s": 2, "r": 3}}


def test_corner_center_names_the_first_bad_case():
    # column 2 of L_4(S) dropped: i_e(S) no longer commutes with alpha_4(1)
    system = broken_column(AffineToeplitzSystem, 4, (1, 0), lambda j, c: None if j == 2 else c)
    rep = check_corner_center(system)
    assert not rep.passed
    assert rep.metrics == {"bound": 6, "cases": 12, "witness": {"s": 4, "a": "(1+0j)*S"}}


def test_fock_product_fails_on_a_corrupted_index_map():
    # the oracle builds its creation operators from the index maps
    rep = check_fock_product(TruncatedFock(CUNTZ.corrupted(1, 1, (0, 0), (1, 0)), 5), seed=7)
    assert not rep.passed
    assert rep.metrics == {"law": "multiplicative", "sample": 2, "columns": 63,
                           "deviation": pytest.approx(2.23606797749979), "tolerance": 1e-12,
                           "samples": 100, "dim": 63, "bound": 5}


def test_kms_condition_check_small():
    rep = check_kms_condition(KMSContext(AFFINE, haar_trace(AFFINE.engine), 3.0, 400),
                              kms_draw(AFFINE, 3.0, 7))
    assert rep.passed
    assert rep.metrics["samples"] == 200
    assert rep.metrics["worst_deviation"] <= rep.metrics["tolerance_at_worst"]


def test_scaling_identity_check_small():
    rep = check_scaling_identity(KMSContext(AFFINE, haar_trace(AFFINE.engine), 3.0, 400))
    assert rep.passed
    assert rep.metrics["cases"] > 0


def test_ground_checks_small():
    trace = haar_trace(AFFINE.engine)
    # passing means at least 6 nonzero corner values (the informative
    # floor) and every KMS value within its proven distance of the ground
    # value
    rep = check_ground(AFFINE, trace)
    assert rep.passed
    assert rep.metrics["samples"] == 60
    assert rep.metrics["worst_deviation"] <= rep.metrics["tolerance_at_worst"]
    lim = check_ground_limit(AFFINE, trace, bound=400)
    assert lim.passed
    assert lim.metrics["monomials"] == 10
    assert lim.metrics["worst_deviation"] <= lim.metrics["tolerance_at_worst"]


def test_ground_fails_when_the_dynamics_reads_im_z_off(monkeypatch):
    # sigma_z with Im z scaled by 1 + 1e-8 moves the modulus of a
    # non-fixed corner value past the 1e-9 relative tolerance; the sign
    # flip z -> conj(z) is the same fault writ large
    dynamics = NTElement.dynamics
    for fault, got in [(lambda z: z.conjugate(), [13.28593075850296, 20.929992260672613]),
                       (lambda z: complex(z.real, z.imag * (1 + 1e-8)),
                        [0.7782438191559301, 1.2260064731577216])]:
        monkeypatch.setattr(NTElement, "dynamics", lambda self, z: dynamics(self, fault(z)))
        rep = check_ground(AFFINE, haar_trace(AFFINE.engine))
        assert not rep.passed
        # |base| = 6 at sample 2, so the tolerance is 6e-9
        expected = complex(0.778243830196957, 1.2260064905512045)
        assert rep.metrics == {"law": "dynamics", "sample": 2, "samples": 60, "trace": "haar",
                               "deviation": pytest.approx(abs(complex(*got) - expected), rel=1e-9),
                               "tolerance": pytest.approx(6e-9)}
        json.loads(rep.json_line())


GROUND_PAIRS = [(system, trace) for system in
                [get_system(name) for name in ("affine-toeplitz", "additive-toeplitz",
                                               "lattice-dilation", "cuntz")]
                + [get_system("lattice-dilation", d=2)]
                for trace in default_traces(system)]


@pytest.mark.parametrize("system, trace", GROUND_PAIRS,
                         ids=[f"{s.name}-{t.name}" for s, t in GROUND_PAIRS])
def test_ground_fails_when_the_dynamics_reads_re_z_off(monkeypatch, system, trace):
    # a real shift of z leaves every modulus alone and turns only the
    # phase of exp(i z log ratio); comparing moduli let even z + 1 pass
    dynamics = NTElement.dynamics
    monkeypatch.setattr(NTElement, "dynamics", lambda self, z: dynamics(self, z + 1e-8))
    rep = check_ground(system, trace)
    assert not rep.passed
    assert rep.metrics["law"] == "dynamics"


def test_euler_check_applies_only_to_power_profiles():
    rep = check_euler(AFFINE, beta=3.0)
    assert rep.passed
    assert rep.metrics["worst_deviation"] <= rep.metrics["tolerance_at_worst"]
    # the truncation gap plus the rounding of the 1229-prime product and of the series
    rounding = (verify._gamma(3 * len(primes_up_to(10**4))) * euler_product(2.0, 10**4)
                + rounding_radius(zeta_series(AFFINE, 3.0, 10**6).value.real, PREFIX_TERMS))
    assert rep.metrics["tolerance_at_worst"] == rep.metrics["allowed"] + rounding
    skipped = check_euler(CUNTZ)
    assert skipped.passed and skipped.metrics.get("skipped")


# -- the comparison-stream laws of ground, ground-limit, euler and Fock product -


HAAR = haar_trace(AFFINE.engine)


def _ground_values(monkeypatch, fault):
    """Route each ground_state value verify reads through fault(y, value)."""
    ground = verify.ground_state

    def faulty(system, trace, y):
        v = ground(system, trace, y)
        return StateValue(fault(y, v.value), v.tail, v.truncation)

    monkeypatch.setattr(verify, "ground_state", faulty)


def _unit_value_off(monkeypatch):
    _ground_values(monkeypatch, lambda y, v: v + 1e-12)
    return check_ground(AFFINE, HAAR)


class _ReversedDynamics(AffineToeplitzSystem):
    """sigma_t runs backwards: N(q)^(-1) as the weight."""

    def weight(self, q):
        return 1.0 / super().weight(q)


def _dynamics_reversed(monkeypatch):
    return check_ground(_ReversedDynamics(), HAAR)


def _corner_values_zero(monkeypatch):
    unit = NTElement.unit(AFFINE)
    _ground_values(monkeypatch, lambda y, v: v if y == unit else 0j)
    return check_ground(AFFINE, HAAR)


def _one_ground_value_off(monkeypatch):
    calls = count()  # ground-limit reads one ground value per monomial, in order
    _ground_values(monkeypatch, lambda y, v: v + (1e-3 if next(calls) == 2 else 0.0))
    return check_ground_limit(AFFINE, HAAR, bound=400)


def _kms_stuck_from_5_to_10(monkeypatch):
    class Stuck(KMSContext):
        def __init__(self, system, trace, beta, bound):
            super().__init__(system, trace, 5.0 if beta == 10.0 else beta, bound)

    monkeypatch.setattr(verify, "KMSContext", Stuck)
    return check_ground_limit(AFFINE, HAAR, bound=400)


def _euler_product_high(monkeypatch):
    product = verify.euler_product
    monkeypatch.setattr(verify, "euler_product", lambda e, bound: 1.01 * product(e, bound))
    return check_euler(AFFINE)


def _no_interior_columns(monkeypatch):
    monkeypatch.setattr(TruncatedFock, "interior_columns", lambda self, y: [])
    return check_fock_product(TruncatedFock(CUNTZ, 5))


GROUND = {"samples": 60, "trace": "haar"}
LIMIT = {"betas": [5.0, 10.0, 20.0], "monomials": 10, "trace": "haar"}
FAULTS = {
    "unit": (_unit_value_off, {**GROUND, "law": "unit", "deviation": (1 + 1e-12) - 1,
                               "tolerance": 0.0}),
    "contracting": (_dynamics_reversed, {**GROUND, "law": "contracting", "sample": 2, "s": 3,
                                         "r": 1, "deviation": 6.0, "tolerance": 1e-12}),
    "ground-informative": (_corner_values_zero, {**GROUND, "law": "informative", "floor": 6,
                                                 "deviation": 6, "tolerance": 0.0}),
    # (|y|_1 + |ground|) (zeta - 1)/zeta is 1.9e-6 at beta 20 for |y|_1 = |ground| = 1
    "ground-limit-off": (_one_ground_value_off, {**LIMIT, "beta": 20.0, "monomial": 2,
                                                 "deviation": pytest.approx(1e-3, rel=1e-9),
                                                 "tolerance": pytest.approx(1.9101e-6,
                                                                            rel=1e-4)}),
    # the beta-5 value of a fiber-2 projection misses the beta-10 bound
    "ground-limit-stuck": (_kms_stuck_from_5_to_10, {**LIMIT, "beta": 10.0, "monomial": 4,
                                                     "deviation": pytest.approx(0.03125,
                                                                                rel=1e-7),
                                                     "tolerance": pytest.approx(2.0044e-3,
                                                                                rel=1e-4)}),
    "euler": (_euler_product_high, {"law": "euler", "deviation": pytest.approx(0.0164340331050159),
                                    "tolerance": pytest.approx(0.00033001648614087667,
                                                               rel=1e-12),
                                    "allowed": pytest.approx(0.00033001648470109705),
                                    "beta": 3.0, "prime_bound": 10**4, "series_bound": 10**6}),
    "fock-informative": (_no_interior_columns, {"law": "informative", "floor": 50,
                                                "deviation": 50, "tolerance": 0.0,
                                                "samples": 100, "dim": 63, "bound": 5}),
}


@pytest.mark.parametrize("law", FAULTS)
def test_each_comparison_law_fails_on_its_fault(monkeypatch, law):
    fault, metrics = FAULTS[law]
    rep = fault(monkeypatch)
    assert (rep.passed, rep.detail) == (False, "")
    assert rep.metrics == metrics


def _nan_ground_values(monkeypatch):
    unit = NTElement.unit(AFFINE)
    _ground_values(monkeypatch, lambda y, v: v if y == unit else complex(math.nan, 0.0))


def _nan_in_ground(monkeypatch):
    _nan_ground_values(monkeypatch)
    return check_ground(AFFINE, HAAR)


def _nan_in_ground_limit(monkeypatch):
    _nan_ground_values(monkeypatch)
    return check_ground_limit(AFFINE, HAAR, bound=400)


def _nan_euler_product(monkeypatch):
    monkeypatch.setattr(verify, "euler_product", lambda e, bound: math.nan)
    return check_euler(AFFINE)


def _nan_product_defect(monkeypatch):
    monkeypatch.setattr(TruncatedFock, "product_defect", lambda self, x, y: (math.nan, 31))
    return check_fock_product(TruncatedFock(CUNTZ, 5))


NAN_FAULTS = {
    "ground": (_nan_in_ground, {**GROUND, "law": "positivity", "sample": 0, "tolerance": 1e-9}),
    "ground-limit": (_nan_in_ground_limit, {**LIMIT, "beta": 5.0, "monomial": 0,
                                            "tolerance": pytest.approx(math.nan, nan_ok=True)}),
    "euler-product": (_nan_euler_product, {"law": "euler", "beta": 3.0,
                                           "tolerance": pytest.approx(math.nan, nan_ok=True),
                                           "allowed": pytest.approx(0.00033001648470109705),
                                           "prime_bound": 10**4, "series_bound": 10**6}),
    "fock-product": (_nan_product_defect, {"law": "multiplicative", "sample": 0, "columns": 31,
                                           "tolerance": 1e-12, "samples": 100, "dim": 63,
                                           "bound": 5}),
}


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("check", NAN_FAULTS)
def test_a_nan_fails_every_comparison_check(monkeypatch, check):
    # NaN compares false both ways, so a hand-written "dev > tol" let it pass
    fault, metrics = NAN_FAULTS[check]
    rep = fault(monkeypatch)
    assert not rep.passed
    assert math.isnan(rep.metrics["deviation"])
    assert {k: v for k, v in rep.metrics.items() if k != "deviation"} == metrics
    line = json.loads(rep.json_line(), parse_constant=_refuse)
    assert line["metrics"]["deviation"] == "nan"


def test_ground_limit_fails_on_a_nan_kms_value_before_the_last_beta(monkeypatch):
    # the law holds at every beta, so a NaN value at beta 5 fails there,
    # against the finite bound that zeta_series gives
    kms = KMSContext.kms
    nan = StateValue(complex(math.nan, 0.0), 0.0, 0)
    monkeypatch.setattr(KMSContext, "kms",
                        lambda self, y: nan if self.beta == 5.0 else kms(self, y))
    rep = check_ground_limit(AFFINE, HAAR, bound=400)
    assert not rep.passed
    assert math.isnan(rep.metrics["deviation"])
    assert {k: v for k, v in rep.metrics.items() if k != "deviation"} == {
        **LIMIT, "beta": 5.0, "monomial": 0, "tolerance": pytest.approx(0.0760616, rel=1e-6)}


def test_json_lines_print_non_finite_metrics_as_strings():
    rep = CheckReport("state:x", False, {"deviation": math.inf, "got": [-math.inf, math.nan, 1.5],
                                         "where": {"tail": math.nan}, "samples": 3})
    line = json.loads(rep.json_line(), parse_constant=_refuse)
    assert line["metrics"] == {"deviation": "inf", "got": ["-inf", "nan", 1.5],
                               "where": {"tail": "nan"}, "samples": 3}


def test_only_compare_and_skipped_checks_build_a_check_report():
    """Every other verify report is a witness stream or a comparison stream."""
    tree = ast.parse(Path(verify.__file__).read_text())
    built = sorted(
        (node.name, None if node.name == "_compare" else ast.unparse(call.args[2]))
        for node in tree.body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "CheckReport")
    skipped = "{'skipped': True}"
    assert built == [("_compare", None), ("_compare", None),
                     ("check_core_trace_property", skipped), ("check_euler", skipped),
                     ("check_reconstruction", skipped)]


def test_fock_checks_refuse_matrix_engines():
    with pytest.raises(ValueError, match="scalar coefficient engine"):
        check_fock_product(TruncatedFock(AFFINE, 5))


@pytest.mark.parametrize("name, d", [
    ("affine-toeplitz", None), ("additive-toeplitz", None),
    ("lattice-dilation", 1), ("lattice-dilation", 2),
])
def test_core_trace_draws_every_index_pattern_on_every_seed(name, d):
    # a disagreement on the meet needs N_g > 1, so the rounds aiming at
    # one must not draw a pair whose meet has rank one
    system = get_system(name, d=d)
    trace = haar_trace(system.engine)
    for seed in range(1, 21):
        rep = check_core_trace_property(KMSContext(system, trace, 3.0, 60),
                                        core_trace_draw(system, seed))
        assert rep.passed
        assert all(n > 0 for n in rep.metrics["cases"].values()), (seed, rep.metrics["cases"])


# -- value comparisons: the worst case, and a failure per injected fault -----------

POINT = point_mass_trace(AFFINE.engine, 0.7)


def test_kms_condition_reports_its_worst_comparison():
    rep = check_kms_condition(KMSContext(AFFINE, POINT, 3.0, 1000), kms_draw(AFFINE, 3.0, 7))
    assert rep.passed
    assert 0.0 < rep.metrics["worst_deviation"] <= rep.metrics["tolerance_at_worst"]
    assert 0 < rep.metrics["nonzero"] <= 200


@pytest.fixture
def skewed_weights(monkeypatch):
    """N(v)^(-beta) one percent high on every fiber but the identity."""
    weight_pow = KMSContext.weight_pow
    monkeypatch.setattr(KMSContext, "weight_pow",
                        lambda self, v: weight_pow(self, v) * (1.0 if v == 1 else 1.01))


def test_kms_condition_fails_on_skewed_weights(skewed_weights):
    rep = check_kms_condition(KMSContext(AFFINE, POINT, 3.0, 1000), kms_draw(AFFINE, 3.0, 7))
    assert not rep.passed
    assert rep.metrics == {
        "samples": 200, "beta": 3.0, "bound": 1000, "trace": "point_mass(0.7)", "sample": 66,
        "deviation": pytest.approx(4.69327e-3, rel=1e-5),
        "tolerance": pytest.approx(2.73734e-3, rel=1e-5),
    }


@pytest.mark.parametrize("trace, deviation", [
    (POINT, 7.60371e-4),
    # only the coefficient S S* has a nonzero haar moment
    (haar_trace(AFFINE.engine), 1.17332e-3),
], ids=["point-mass", "haar"])
def test_scaling_identity_fails_on_skewed_weights(skewed_weights, trace, deviation):
    rep = check_scaling_identity(KMSContext(AFFINE, trace, 3.0, 1000))
    assert not rep.passed
    assert rep.metrics == {
        "cases": 270, "beta": 3.0, "trace": trace.name, "s": 2, "j": 0, "l": 0,
        "deviation": pytest.approx(deviation, rel=1e-5),
        "tolerance": pytest.approx(6.84334e-4, rel=1e-5),
    }


def test_core_trace_fails_on_a_non_tracial_state(monkeypatch):
    # weighting each core term (s, s, l) by 1 + l/100 is a non-tracial
    # functional on the fiber compacts; a long window shrinks the tails
    omega = KMSContext.omega

    def skewed(self, y):
        parts = [(key[2], omega(self, NTElement(y.system, {key: vec})))
                 for key, vec in y.sorted_terms()]
        return StateValue(sum((1 + 0.01 * l) * v.value for l, v in parts),
                          sum(v.tail for _, v in parts), self.bound)

    monkeypatch.setattr(KMSContext, "omega", skewed)
    rep = check_core_trace_property(KMSContext(AFFINE, POINT, 3.0, 10**5),
                                    core_trace_draw(AFFINE, 11))
    assert not rep.passed
    assert rep.metrics == {
        "rounds": 12, "beta": 3.0, "trace": "point_mass(0.7)", "meet_trivial_pairs": 12,
        "cases": {"False/False": 2, "False/True": 2, "True/False": 2, "True/True": 3},
        "round": 8, "s": 4, "r": 2,
        "deviation": pytest.approx(4.94097e-4, rel=1e-5),
        "tolerance": pytest.approx(3.84499e-5, rel=1e-5),
    }


def test_fock_state_fails_on_a_perturbed_oracle(monkeypatch):
    state_value = TruncatedFock.state_value
    monkeypatch.setattr(TruncatedFock, "state_value",
                        lambda self, y, beta, trace: state_value(self, y, beta, trace) * (1 + 1e-9))
    rep = check_fock_state(TruncatedFock(CUNTZ, 5))
    assert not rep.passed
    # samples 0 and 1 have value zero, which the relative fault leaves alone
    assert rep.metrics == {
        "samples": 25, "dim": 63, "beta": 3.0, "bound": 5, "sample": 2,
        "deviation": pytest.approx(2.0e-9, rel=1e-6), "tolerance": 1e-12,
    }


def test_fock_nica_fails_on_a_perturbed_defect(monkeypatch):
    nica_defect = TruncatedFock.nica_defect
    monkeypatch.setattr(TruncatedFock, "nica_defect",
                        lambda self, *vectors: nica_defect(self, *vectors) + 1e-9)
    rep = check_fock_nica(TruncatedFock(CUNTZ, 5))
    assert not rep.passed
    assert rep.metrics == {"samples": 20, "dim": 63, "s": 2, "r": 1,
                           "deviation": pytest.approx(1e-9), "tolerance": 1e-12}


def test_trace_recovery_fails_when_the_state_reads_a_moment_off(monkeypatch):
    # the state sees c(2) = c(-2) = 0.05 while tau is the Haar trace
    class Skewed(TraceSpec):
        def moment(self, k):
            return super().moment(k) + (0.05 if k in ((2,), (-2,)) else 0)

    haar = haar_trace(AFFINE.engine)
    ctx = KMSContext(AFFINE, haar, 4.0, 10**4)
    # the check compares against ctx.trace, so only the state reads the skew
    off = KMSContext(AFFINE, Skewed(haar.engine, haar.haar, haar.atoms, haar.name), 4.0, 10**4)
    monkeypatch.setattr(ctx, "omega", off.omega)
    rep = check_reconstruction(ctx, recovery_draw(AFFINE))
    assert not rep.passed
    assert rep.metrics == {
        "monomials": 37, "trace": "haar", "beta": 4.0, "bound": 10**4, "monomial": "(1+0j)*S^2",
        "deviation": pytest.approx(0.05, rel=1e-6), "tolerance": 1e-2,
    }


def test_inclusion_exclusion_fails_on_an_overflowing_weight(monkeypatch):
    # an infinite N(6)^(-beta) times a zero fiber trace is NaN, which
    # compares false against any tolerance
    weight = verify.lambda_weight
    monkeypatch.setattr(verify, "lambda_weight", lambda system, trace, beta, s, a:
                        weight(system, trace, beta, s, a) * (math.inf if s == 6 else 1.0))
    rep = check_inclusion_exclusion(AFFINE, default_traces(AFFINE))
    assert not rep.passed
    assert math.isnan(rep.metrics.pop("deviation"))
    assert rep.metrics == {"beta": 4.0, "bound": 1000, "fibers": 68,
                           "traces": ["haar", "point_mass(0.7)"], "q": 6,
                           "monomial": "(-2-1j)*S^12", "trace": "haar",
                           "tolerance": pytest.approx(1.14932e-17, rel=1e-5)}


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


# -- one draw per run, read under every trace ---------------------------------------

TWO_TRACE_SYSTEMS = [AFFINE, get_system("lattice-dilation", d=2)]


def _lines(reports):
    return [r.json_line() for r in reports]


@pytest.mark.parametrize("system", TWO_TRACE_SYSTEMS, ids=lambda s: s.name)
@pytest.mark.parametrize("suite", ["kms", "trace"])
def test_state_suites_under_two_traces_match_single_trace_runs(system, suite):
    # the shared draw makes the two-trace run the concatenation of the
    # single-trace runs, line for line
    alone = [rep for t in default_traces(system) for rep in run_suites(system, [suite], traces=[t])]
    assert _lines(run_suites(system, [suite])) == _lines(alone)


@pytest.mark.parametrize("system", TWO_TRACE_SYSTEMS, ids=lambda s: s.name)
@pytest.mark.parametrize("faulty", [0, 1], ids=["haar", "point-mass"])
def test_a_fault_under_one_trace_fails_only_its_reports(monkeypatch, system, faulty):
    # N(v)^(-beta) one percent high off the identity, under one trace only;
    # on affine-toeplitz haar fails kms-condition at sample 66, so the
    # point-mass check replays 67 pairs and draws the rest itself
    name = default_traces(system)[faulty].name
    weight_pow = KMSContext.weight_pow
    monkeypatch.setattr(KMSContext, "weight_pow", lambda self, v: weight_pow(self, v) * (
        1.01 if v != 1 and self.trace.name == name else 1.0))
    suites = ["kms", "trace", "reconstruct"]
    both = run_suites(system, suites)
    assert [r.name for r in both if not r.passed]
    assert all(r.passed for r in both if r.metrics.get("trace") != name)
    # keyed by (check, trace); inclusion-exclusion, which reads no
    # weight_pow and so passed above, compares under every trace of its run
    # in one line, so a single-trace run prints a line of its own
    lines = {(r.name, r.metrics.get("trace")): r.json_line()
             for r in both if r.name != "reconstruct:inclusion-exclusion"}
    alone = {(r.name, r.metrics.get("trace")): r.json_line()
             for t in default_traces(system) for r in run_suites(system, suites, traces=[t])
             if r.name != "reconstruct:inclusion-exclusion"}
    assert lines == alone
    assert len(alone) == len(both) - 1


def test_the_kms_and_trace_suites_build_one_state_per_trace(monkeypatch):
    built = []
    init = KMSContext.__init__

    def counting(self, system, trace, beta, bound):
        built.append((trace.name, beta, bound))
        init(self, system, trace, beta, bound)

    monkeypatch.setattr(KMSContext, "__init__", counting)
    reports = run_suites(AFFINE, ["kms", "trace"])
    assert len(reports) == 6 and all(r.passed for r in reports)
    assert built == [(t.name, 3.0, 1000) for t in default_traces(AFFINE)]


def _count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name, which keeps its behaviour."""
    calls = []
    method = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("suite, method, calls", [
    ("kms", "dynamics", 200),  # one sigma_(i beta)(y2) per pair, not per trace
    ("trace", "__mul__", 24),  # u v and v u per round
])
def test_the_state_suites_draw_their_products_once_per_run(monkeypatch, suite, method, calls):
    counted = _count_calls(monkeypatch, NTElement, method)
    reports = run_suites(AFFINE, [suite])
    assert all(r.passed for r in reports)
    assert len(counted) == calls


def test_a_check_that_stops_early_leaves_the_stream_to_the_next_trace(monkeypatch):
    # the first omega under haar is NaN, so the haar kms-condition stops at
    # sample 0; the point-mass check still reads all 200 pairs, drawn once
    counted = _count_calls(monkeypatch, NTElement, "dynamics")
    omega = KMSContext.omega
    spoiled = []

    def nan_once(self, y):
        if self.trace.name == "haar" and not spoiled:
            spoiled.append(y)
            return StateValue(complex(math.nan, 0.0), 0.0, self.bound)
        return omega(self, y)

    monkeypatch.setattr(KMSContext, "omega", nan_once)
    reports = [r for r in run_suites(AFFINE, ["kms"]) if r.name == "state:kms-condition"]
    assert [(r.passed, r.metrics.get("sample")) for r in reports] == [(False, 0), (True, None)]
    golden = (DATA / "states-affine-toeplitz.jsonl").read_text().splitlines()
    assert reports[1].json_line() == golden[2]
    assert len(counted) == 200


def test_the_structure_suite_builds_one_fock_oracle(monkeypatch):
    built = _count_calls(monkeypatch, TruncatedFock, "__init__")
    reports = run_suites(CUNTZ, ["structure"])
    assert all(r.passed for r in reports)
    assert [r.name for r in reports if r.name.startswith("fock:")] == [
        "fock:representation-multiplicative", "fock:state-agreement", "fock:nica-covariance"]
    assert len(built) == 1


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


# The samplers as they were written with randint, kept verbatim as the
# reference stream: the choice forms in verify must draw the same values
# and leave the generator in the same state.
def _randint_gauss_int(rng: Random) -> complex:
    re = rng.randint(-2, 2)
    im = rng.randint(-2, 2)
    if re == 0 and im == 0:
        re = 1
    return complex(re, im)


def _randint_sample_monomial(rng: Random, engine) -> tuple:
    if engine.tag == "toeplitz":
        return (rng.randint(0, 3), rng.randint(0, 3))
    return tuple(rng.randint(-3, 3) for _ in range(engine.degree_dim))


def _randint_sample_coeff(rng: Random, engine, terms: int = 2) -> CoefficientElement:
    out = CoefficientElement.zero(engine)
    for _ in range(rng.randint(1, terms)):
        out = out + CoefficientElement.monomial(
            engine, _randint_sample_monomial(rng, engine), _randint_gauss_int(rng)
        )
    return out


def _randint_sample_vector(rng: Random, system, fiber: int) -> ModuleVector:
    n = system.basis_count(fiber)
    picks = rng.sample(range(n), min(n, rng.randint(1, 2)))
    return ModuleVector(system, fiber, {j: _randint_sample_coeff(rng, system.engine) for j in picks})


def _randint_sample_element(rng, system, fibers, terms=2, core=False) -> NTElement:
    out = NTElement.zero(system)
    for _ in range(rng.randint(1, terms)):
        s = rng.choice(fibers)
        r = s if core else rng.choice(fibers)
        l = rng.randrange(system.basis_count(r))
        xi = _randint_sample_vector(rng, system, s)
        out = out + NTElement(system, {(s, r, l): xi})
    return out


def _ordered_bits(y: NTElement) -> list:
    """Every key, index, monomial and float hex of y, in dict order."""
    return [(key, [(j, [(mon, w.real.hex(), w.imag.hex()) for mon, w in a.terms.items()])
                   for j, a in vec.entries.items()])
            for key, vec in y.terms.items()]


@pytest.mark.parametrize("system", [get_system("affine-toeplitz"),
                                    get_system("additive-toeplitz"),
                                    get_system("lattice-dilation", d=2),
                                    CUNTZ], ids=lambda s: s.name)
@pytest.mark.parametrize("core", [False, True])
def test_samplers_draw_the_randint_stream(system, core):
    fibers = TruncationSet(system.semigroup, 4).values[:4]
    for seed in range(1, 6):
        old, new = Random(seed), Random(seed)
        for _ in range(200):
            want = _randint_sample_element(old, system, fibers, core=core)
            got = sample_element(new, system, fibers, core=core)
            assert _ordered_bits(got) == _ordered_bits(want)
        assert new.getstate() == old.getstate()


class _Scripted(Random):
    """A generator whose every draw _randbelow(n) is the next scripted value."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def _randbelow(self, n):
        v = next(self.values)
        assert v < n
        return v


def test_sample_coeff_keeps_the_order_of_a_sum():
    # monomials A, B, A, A: a repeated one keeps its place, and one whose
    # weight cancels leaves the sum and comes back at the end
    a, b = (1, 1), (2, 0)
    for signs, order in (((1, 1, 1, 1), [a, b]), ((1, 1, -1, 1), [b, a])):
        script = [3]  # four terms
        for mon, sign in zip((a, b, a, a), signs):
            script += [*mon, 2 + sign, 2]  # the weight sign + 0i
        old = _randint_sample_coeff(_Scripted(script), AFFINE.engine, terms=4)
        new = sample_coeff(_Scripted(script), AFFINE.engine, terms=4)
        assert list(new.terms.items()) == list(old.terms.items())
        assert list(new.terms) == order
