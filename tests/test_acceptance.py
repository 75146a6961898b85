"""The thirteen headline guarantees, one test and one printed line each.

These are the package's acceptance gates. Each one is a statement
about exactness (normal-form identities hold on the nose), rigor
(numerical deviations stay inside the certified truncation tails), or
scale (the gate finishes inside its stated time box). The tolerances
below are part of the statements, not tuning knobs; run with
``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import math
import time

import numpy as np

from ntkms.coeff import haar_trace, identity_trace, point_mass_trace
from ntkms.fock import TruncatedFock
from ntkms.nt import NTElement, unit_projection
from ntkms.product_system import (
    AffineToeplitzSystem,
    BUILTIN_SYSTEMS,
    CuntzSystem,
    get_system,
)
from ntkms.states import KMSContext, euler_product, euler_truncation_gap
from ntkms.verify import (
    check_core_trace_property,
    check_corner_center,
    check_fock_product,
    check_fock_state,
    check_ground_limit,
    check_inclusion_exclusion,
    check_kms_condition,
    check_reconstruction,
    check_scaling_identity,
    core_trace_draw,
    default_traces,
    kms_draw,
    recovery_draw,
    structure_reports,
)


def _gate(num: int, label: str, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: {mark} ({detail})")
    assert ok, f"criterion {num:02d} ({label}): {detail}"


def test_criterion_01_every_builtin_validates_structurally():
    failures = []
    slowest = 0.0
    for name in BUILTIN_SYSTEMS:
        system = get_system(name)
        start = time.perf_counter()
        reports = structure_reports(system)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        failures += [f"{name}:{r.name}" for r in reports if not r.passed]
        if elapsed >= 30.0:
            failures.append(f"{name} took {elapsed:.1f}s, over the 30s box")
    _gate(1, "structural laws hold on all four builtins",
          not failures, ", ".join(failures) or f"slowest system {slowest:.1f}s < 30s")


def test_criterion_02_basis_monomial_weights_match_the_scaling():
    system = AffineToeplitzSystem()
    trace = haar_trace(system.engine)
    ok = True
    worst_dev = 0.0
    worst_tail = 0.0
    cases = 0
    for beta in (3.0, 4.0):
        ctx = KMSContext(system, trace, beta, 10_000)
        for r in (2, 3, 5):
            for n in range(r):
                for m in range(r):
                    y = NTElement.from_monomial(
                        system, r, system.basis_vector(r, n),
                        r, system.basis_vector(r, m),
                    )
                    sv = ctx.kms(y)
                    expect = r ** -beta if n == m else 0.0
                    dev = abs(sv.value - expect)
                    ok = ok and dev <= sv.tail and sv.tail <= 1e-3
                    worst_dev = max(worst_dev, dev)
                    worst_tail = max(worst_tail, sv.tail)
                    cases += 1
    _gate(2, "omega(i_r(1_n) i_r(1_m)*) = delta_nm r^-beta within the tail", ok,
          f"{cases} cases, worst deviation {worst_dev:.2e},"
          f" worst tail {worst_tail:.2e} <= 1e-3")


def test_criterion_03_the_unit_evaluates_to_exactly_one():
    ok = True
    cases = 0
    for name in BUILTIN_SYSTEMS:
        system = get_system(name)
        for trace in default_traces(system):
            for beta in (2.5, 3.0, 4.0):
                sv = KMSContext(system, trace, beta, 1000).kms(NTElement.unit(system))
                ok = ok and sv.value == 1.0
                cases += 1
    _gate(3, "kms(1) == 1 exactly, every builtin, trace and beta", ok,
          f"{cases} instances, no tolerance")


def test_criterion_04_the_kms_condition_holds_on_random_samples():
    system = AffineToeplitzSystem()
    start = time.perf_counter()
    ok = True
    worst = 0.0
    # a list: the generator alone would leave the second trace nothing to read
    draw = list(kms_draw(system, 3.0, seed=7))
    for trace in (haar_trace(system.engine), point_mass_trace(system.engine, 0.7)):
        rep = check_kms_condition(KMSContext(system, trace, 3.0, 1000), draw)
        ok = ok and rep.passed
        worst = max(worst, rep.metrics.get("worst_deviation", math.inf))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _gate(4, "omega(y1 sigma_(i beta)(y2)) = omega(y2 y1), 200 samples x 2 traces",
          ok, f"worst deviation {worst:.2e}, {elapsed:.1f}s < 300s")


def test_criterion_05_the_state_is_tracial_on_the_core():
    system = AffineToeplitzSystem()
    rep = check_core_trace_property(KMSContext(system, haar_trace(system.engine), 3.0, 1000),
                                    core_trace_draw(system, 11))
    cases = rep.metrics.get("cases", {})
    ok = (rep.passed
          and len(cases) == 4 and all(n > 0 for n in cases.values())
          and rep.metrics.get("meet_trivial_pairs", 0) > 0)
    _gate(5, "omega(uv) = omega(vu) on the core, all four index patterns", ok,
          f"patterns {cases}, worst {rep.metrics.get('worst_deviation', math.inf):.2e}")


def test_criterion_06_the_scaling_identity_is_exhaustive_to_fiber_six():
    system = AffineToeplitzSystem()
    ok = True
    cases = 0
    worst = 0.0
    for trace in (haar_trace(system.engine), point_mass_trace(system.engine, 0.7)):
        rep = check_scaling_identity(KMSContext(system, trace, 3.0, 1000))
        ok = ok and rep.passed
        cases += rep.metrics.get("cases", 0)
        worst = max(worst, rep.metrics.get("worst_deviation", math.inf))
    _gate(6, "omega(i_s(xi a) i_s(1_l)*) = w_l N(s)^-beta omega(i_e(a)), "
          "xi = sum_k w_k 1_k, s <= 6",
          ok, f"{cases} cases x 2 traces, worst deviation {worst:.2e}, "
          "distinct weights w_k = k + 1 + i")


def test_criterion_07_the_normalising_series_matches_known_values():
    system = AffineToeplitzSystem()
    ctx = KMSContext(system, haar_trace(system.engine), 3.0, 100_000)
    gap = abs(ctx.zeta - math.pi ** 2 / 6.0)
    tail = float(ctx.zeta_tail)
    ok = gap <= tail <= 1e-5

    cuntz = CuntzSystem(2)
    cctx = KMSContext(cuntz, identity_trace(), 3.0, 1000)
    cgap = abs(cctx.zeta - 4.0 / 3.0)
    ok = ok and cgap <= max(float(cctx.zeta_tail), 1e-12)
    _gate(7, "zeta_3 = zeta(2) on the affine system, 4/3 on cuntz(2)", ok,
          f"|zeta - pi^2/6| = {gap:.2e} <= tail {tail:.2e} <= 1e-5, cuntz gap {cgap:.2e}")


def test_criterion_08_the_euler_product_matches_the_series():
    product = euler_product(2.0, 10_000)
    s = np.arange(1, 1_000_001, dtype=np.float64)
    partial = float(np.sum(s ** -2.0))
    gap = abs(product - partial)
    certificate = euler_truncation_gap(2.0, 10_000, 1_000_000)
    ok = gap <= 1e-3 and gap <= certificate
    _gate(8, "euler product over p <= 1e4 matches the series to s <= 1e6", ok,
          f"gap {gap:.2e} <= certificate {certificate:.2e} and <= 1e-3")


def test_criterion_09_inclusion_exclusion_is_exact_within_tolerance():
    # the fiber traces, read off the left action, against the closed form
    # omega sums, on every builtin (cuntz included) under its default traces
    failures, fibers, nonzero = [], 0, 0
    for name in BUILTIN_SYSTEMS:
        system = get_system(name)
        rep = check_inclusion_exclusion(system, default_traces(system), beta=4.0, seed=31)
        if not rep.passed:
            failures.append(f"{name} at q = {rep.metrics['q']}")
        fibers += rep.metrics["fibers"]
        nonzero += rep.metrics.get("nonzero", 0)
    ok = not failures and nonzero > 0
    _gate(9, "fiber traces match omega's closed form within gamma_n rounding", ok,
          ", ".join(failures) or f"{fibers} fibers on 4 builtins, {nonzero} nonzero comparisons")


def test_criterion_10_traces_are_reconstructed_from_the_state():
    system = AffineToeplitzSystem()
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for trace in (haar_trace(system.engine), point_mass_trace(system.engine, 0.0)):
        rep = check_reconstruction(KMSContext(system, trace, 4.0, 10**4), recovery_draw(system))
        ok = ok and rep.passed and rep.metrics.get("monomials") == 37
        worst = max(worst, rep.metrics.get("worst_deviation", math.inf))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _gate(10, "tau recovered from omega on the degree family, |m - n| <= 12", ok,
          f"37 monomials x 2 traces, worst error {worst:.2e} <= 1e-2,"
          f" {elapsed:.1f}s < 300s")


def test_criterion_11_the_fock_oracle_agrees_with_the_symbolic_state():
    system = CuntzSystem(2)
    fock = TruncatedFock(system, 5)
    ok = fock.dim == 63
    product = check_fock_product(fock, seed=41)
    state = check_fock_state(fock, beta=3.0, seed=43)
    ok = ok and product.passed and state.passed
    _gate(11, "truncated Fock matrices multiply and integrate like the algebra", ok,
          f"dim {fock.dim}, product defect {product.metrics.get('worst_deviation', math.inf):.1e},"
          f" state gap {state.metrics.get('worst_deviation', math.inf):.1e}, both <= 1e-12")


def test_criterion_12_large_beta_approaches_the_ground_state():
    system = AffineToeplitzSystem()
    # a pass holds every value within (|y|_1 + |ground|)(zeta - 1)/zeta of
    # the ground value, 1.9e-6 at beta = 20 for |y|_1 = |ground| = 1
    rep = check_ground_limit(system, haar_trace(system.engine), bound=1000)
    ok = (rep.passed
          and rep.metrics.get("monomials") == 10
          and rep.metrics.get("worst_deviation", math.inf)
          <= rep.metrics.get("tolerance_at_worst", 0.0))
    _gate(12, "kms_beta -> ground as beta runs 5, 10, 20, within the proven bound", ok,
          f"10 monomials, worst gap"
          f" {rep.metrics.get('worst_deviation', math.inf):.2e}")


def test_criterion_13_corner_elements_commute_with_projections_exactly():
    ok = True
    cases = 0
    for name in BUILTIN_SYSTEMS:
        rep = check_corner_center(get_system(name))
        ok = ok and rep.passed
        cases += rep.metrics.get("cases", 0)
    # once more by hand: equality of canonical normal forms, no tolerance
    system = AffineToeplitzSystem()
    a = system.generator_elements()[0]
    x = NTElement.embed_coeff(system, a)
    p = unit_projection(system, 6)
    ok = ok and x * p == p * x and (x * p - p * x).is_zero()
    _gate(13, "[i_e(a), alpha_s(1)] = 0 exactly for generators, s <= 6", ok,
          f"{cases} commutators as normal forms")
