import json
import math
import tracemalloc
from itertools import islice
from pathlib import Path
from random import Random

import numpy as np
import pytest

from ntkms import states
from ntkms.coeff import CoefficientElement, haar_trace, identity_trace, point_mass_trace
from ntkms.dsl import parse_element
from ntkms.nt import NTElement, TermBudgetExceeded, term_budget, unit_projection
from ntkms.product_system import (
    AffineToeplitzSystem,
    CuntzSystem,
    TorusDilationSystem,
    get_system,
)
from ntkms.semigroup import TruncationSet
from ntkms.states import (
    KMSContext,
    euler_product,
    euler_truncation_gap,
    ground_state,
    primes_up_to,
    tail_bound,
    zeta_series,
)
from ntkms.verify import default_traces, sample_element

AFFINE = AffineToeplitzSystem()
TORUS = TorusDilationSystem(1)
TORUS2 = TorusDilationSystem(2)
CUNTZ = CuntzSystem(2)
DATA = Path(__file__).parent / "data"


def context(system, beta=3.0, bound=200):
    if system.engine.degree_dim == 0:
        trace = identity_trace()
    else:
        trace = haar_trace(system.engine)
    return KMSContext(system, trace, beta, bound)


# -- the normalising series ------------------------------------------------------


def test_zeta_sandwiched_by_integral_test():
    """The affine series at beta is sum s^(1-beta); at beta = 3 the limit
    is pi^2/6, and the window sum must sit inside the integral sandwich."""
    B = 100000
    sv = zeta_series(AFFINE, 3.0, B)
    limit = math.pi**2 / 6.0
    assert limit - 1.0 / B <= sv.value.real <= limit - 1.0 / (B + 1)
    assert sv.tail <= 1.1 / B


def test_zeta_geometric_closed_form():
    sv = zeta_series(CUNTZ, 3.0, 1000)
    # sum over n of 2^n * 8^(-n) = 4/3 once the window swallows the tail,
    # which leaves the rounding radius of the 1001 held terms
    assert abs(sv.value.real - 4.0 / 3.0) < 1e-15
    radius = states.rounding_radius(sv.value.real, 1001)
    assert radius <= sv.tail <= radius * (1 + 1e-15)


def test_zeta_tail_is_honest():
    for system, beta in ((AFFINE, 3.0), (TORUS2, 2.5), (CUNTZ, 2.0)):
        small = zeta_series(system, beta, 50)
        big = zeta_series(system, beta, 5000)
        assert abs(big.value - small.value) <= small.tail
        # the truncation tail shrinks until the rounding radius of the
        # held terms, which grows with them, is all that is left
        radius = states.rounding_radius(big.value.real, states.PREFIX_TERMS)
        assert big.tail < max(small.tail, 1.01 * radius)


def test_zeta_rejects_subcritical_beta():
    with pytest.raises(ValueError):
        zeta_series(AFFINE, 2.0, 100)
    with pytest.raises(ValueError):
        KMSContext(AFFINE, haar_trace(AFFINE.engine), 1.5, 100)


def test_context_rejects_mismatched_trace():
    with pytest.raises(ValueError):
        KMSContext(AFFINE, identity_trace(), 3.0, 100)
    with pytest.raises(ValueError):
        KMSContext(TORUS2, haar_trace(TORUS.engine), 3.0, 100)


def test_frozen_tail_values():
    ctx = context(AFFINE, beta=3.0, bound=1000)
    assert abs(float(ctx.zeta_tail) - 1e-3) < 1e-18
    ctx4 = context(AFFINE, beta=4.0, bound=100)
    assert abs(float(ctx4.zeta_tail) - 5e-5) < 1e-18


# -- partial sums Z_r ------------------------------------------------------------


def brute_z(ctx, r):
    sg = ctx.system.semigroup
    total = 0.0
    for s in ctx.trunc.values:
        if sg.leq(r, s):
            q = sg.quotient(s, r)
            total += ctx.system.weight(s) ** (-ctx.beta) * ctx.system.weight(q)
    return total


@pytest.mark.parametrize("system", [AFFINE, TORUS2, CUNTZ], ids=lambda s: s.name)
def test_z_value_matches_direct_sum(system):
    ctx = context(system, beta=3.0, bound=60)
    # 61 lies beyond the window, where Z_r is an empty sum
    fibers = (1, 2, 3, 5, 61) if system.semigroup.is_multiplicative else (0, 1, 2, 5, 61)
    for r in fibers:
        assert abs(ctx.z_value(r) - brute_z(ctx, r)) < 1e-12
    assert ctx.z_value(61) == brute_z(ctx, 61) == 0.0


def test_z_value_at_identity_is_zeta_bitwise():
    for system in (AFFINE, CUNTZ):
        ctx = context(system)
        assert ctx.z_value(system.identity_fiber()) == ctx.zeta


# -- closed-form partial sums beyond the held prefix ----------------------------

BUILTINS = {
    "affine-toeplitz": AFFINE,
    "additive-toeplitz": get_system("additive-toeplitz"),
    "lattice-dilation(2)": TORUS2,
    "cuntz(2)": CUNTZ,
}
# the beta ranges of the kms-sweep benchmark workload; additive-toeplitz,
# which it does not run, shares the s^(1-beta) terms of affine-toeplitz
SWEEP_BETAS = {
    "affine-toeplitz": (2.5, 4.0),
    "additive-toeplitz": (2.5, 4.0),
    "lattice-dilation(2)": (2.0, 3.5),
    "cuntz(2)": (1.5, 3.0),
}


def all_terms(system, beta, bound):
    """Every zeta term of the window, by the formula of the full array."""
    kind, p = system.profile
    svals = np.arange(system.identity_fiber(), bound + 1, dtype=np.int64).astype(float)
    if kind == "power":
        return svals ** (p * (1.0 - beta))
    return np.exp((1.0 - beta) * math.log(p) * svals)


def terms_in_z(system, bound, r):
    """The number of zeta terms in Z_r."""
    if system.semigroup.is_multiplicative:
        return bound // r
    return bound - r + 1


@pytest.mark.parametrize("name", BUILTINS)
def test_windows_within_the_prefix_sum_the_full_array_bitwise(name):
    system = BUILTINS[name]
    beta = sum(SWEEP_BETAS[name]) / 2
    e = system.identity_fiber()
    # 1000 terms, and exactly the 2^20 held ones
    for bound in (1000, e + states.PREFIX_TERMS - 1):
        ctx = context(system, beta=beta, bound=bound)
        terms = all_terms(system, beta, bound)
        assert ctx.zeta == float(np.sum(terms))
        for r in (e, 2, 3, 7, 999, bound, bound + 1):
            n = max(terms_in_z(system, bound, r), 0)
            assert ctx.z_value(r) == ctx.weight_pow(r) * float(np.sum(terms[:n]))


PREFIX_SYSTEMS = {**BUILTINS, "cuntz(3)": CuntzSystem(3)}


def prefix_betas(name):
    """The betas whose held prefix is pinned: just above the critical
    exponent, where no geometric term underflows; the sweep midpoint
    (that of cuntz(2) on cuntz(3)); 40, where the geometric terms pass
    through subnormals to zero within a few dozen; and on affine-toeplitz
    3, whose exponent is exactly -2."""
    system = PREFIX_SYSTEMS[name]
    betas = [system.beta_c + 1e-6, sum(SWEEP_BETAS.get(name, SWEEP_BETAS["cuntz(2)"])) / 2, 40.0]
    return betas + [3.0] if name == "affine-toeplitz" else betas


@pytest.mark.parametrize("name", PREFIX_SYSTEMS)
def test_held_prefix_is_the_full_array_formula_bit_for_bit(name):
    system = PREFIX_SYSTEMS[name]
    e = system.identity_fiber()
    for beta in prefix_betas(name):
        for bound in (1000, e + states.PREFIX_TERMS - 1, 10**7):
            ctx = context(system, beta=beta, bound=bound)
            want = all_terms(system, beta, min(bound, e + states.PREFIX_TERMS - 1))
            assert ctx._zeta_terms.dtype == want.dtype
            assert ctx._zeta_terms.tobytes() == want.tobytes(), (beta, bound)
        if system.profile[0] == "geometric" and beta == 40.0:
            assert 0.0 < want[want > 0.0].min() < np.finfo(float).tiny


@pytest.mark.parametrize("name", PREFIX_SYSTEMS)
def test_held_sums_are_within_their_radius_across_the_prefix_edge(name):
    """zeta and Z_r against math.fsum of the full array's terms, on windows
    within, at and past the held prefix, up to the rounding radius of the
    held terms they sum."""
    system = PREFIX_SYSTEMS[name]
    e = system.identity_fiber()
    for beta in prefix_betas(name):
        terms = all_terms(system, beta, 10**6).tolist()
        for bound in (5, 1000, 4095, 4096, 4097, 10**5, 10**6):
            ctx = context(system, beta=beta, bound=bound)
            sv = zeta_series(system, beta, bound)
            n = terms_in_z(system, bound, e)
            radius = states.rounding_radius(sv.value.real, min(n, states.PREFIX_TERMS))
            assert abs(sv.value.real - math.fsum(islice(terms, n))) <= radius, (beta, bound)
            for r in (e, 2, 3, 7, 1000):
                n = max(terms_in_z(system, bound, r), 0)
                got = ctx.z_value(r)
                want = ctx.weight_pow(r) * math.fsum(islice(terms, n))
                radius = states.rounding_radius(got, min(n, states.PREFIX_TERMS))
                assert abs(got - want) <= radius, (beta, bound, r)


@pytest.mark.parametrize("name", BUILTINS)
def test_context_construction_holds_one_prefix_buffer(name):
    system = BUILTINS[name]
    trace = default_traces(system)[0]
    for beta in (system.beta_c + 1e-6, sum(SWEEP_BETAS[name]) / 2):
        tracemalloc.start()
        try:
            KMSContext(system, trace, beta, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * states.PREFIX_TERMS, (beta, peak)


@pytest.mark.parametrize("name", BUILTINS)
def test_windows_past_the_prefix_match_fsum(name, monkeypatch):
    monkeypatch.setattr(states, "PREFIX_TERMS", 2**10)
    system = BUILTINS[name]
    bound = 10**6
    for beta in (system.beta_c + 0.01, *SWEEP_BETAS[name]):
        ctx = context(system, beta=beta, bound=bound)
        assert len(ctx._zeta_terms) == 2**10
        terms = all_terms(system, beta, bound)
        want = math.fsum(terms)
        assert abs(ctx.zeta - want) <= 1e-15 * want
        # Z_r past the prefix and, for r = 1000, within it
        for r in (2, 3, 7, 1000):
            n = terms_in_z(system, bound, r)
            want = ctx.weight_pow(r) * math.fsum(terms[:n])
            assert abs(ctx.z_value(r) - want) <= 1e-15 * want


@pytest.mark.parametrize("name", BUILTINS)
def test_z_value_at_identity_is_zeta_bitwise_past_the_prefix(name):
    system = BUILTINS[name]
    ctx = context(system, beta=SWEEP_BETAS[name][0], bound=3 * 10**6)
    assert len(ctx._zeta_terms) == states.PREFIX_TERMS
    assert ctx.z_value(system.identity_fiber()) == ctx.zeta
    assert ctx.kms(NTElement.unit(system)).value == complex(1.0)


@pytest.mark.parametrize("name", BUILTINS)
def test_euler_maclaurin_remainder_is_negligible_at_the_prefix(name):
    system = BUILTINS[name]
    for beta in SWEEP_BETAS[name]:
        _, err = states._closed_form_sum(system.profile, beta, states.PREFIX_TERMS, 10**7)
        assert 0.0 <= err < 1e-30
        # the geometric sum is exact
        assert (err == 0.0) == (system is CUNTZ)
        ctx = context(system, beta=beta, bound=10**7)
        assert ctx.zeta_tail == tail_bound(system.profile, beta, 10**7) + err


@pytest.mark.parametrize("beta", [2.01, 2.5, 3.0, 5.0])
def test_euler_maclaurin_remainder_bounds_the_error(beta):
    """With the rest starting at s = 2, 3 or 5 the remainder is large
    enough to measure, and it must cover the error of the closed form."""
    a = beta - 1.0
    n = 10**5
    terms = np.arange(1, n + 1, dtype=float) ** -a
    for m in (1, 2, 4):
        got, err = states._closed_form_sum(AFFINE.profile, beta, m, n)
        want = math.fsum(terms[m:])
        assert err > 0.0
        assert abs(got - want) <= err + 4e-16 * want


def test_literal_evaluator_reads_windows_past_the_prefix(monkeypatch):
    """Only the fast path reads the held prefix: the literal sum runs on
    the Fock window and refuses only windows past the oracle's cap."""
    monkeypatch.setattr(states, "PREFIX_TERMS", 2**4)
    ctx = context(AFFINE, beta=3.0, bound=30)
    assert len(ctx._zeta_terms) == 16
    # numerator and normaliser are the same sum
    assert ctx.omega_literal(NTElement.unit(AFFINE)).value == complex(1.0)
    for r in (2, 3, 30):
        y = unit_projection(AFFINE, r)
        fast, slow = ctx.omega(y), ctx.omega_literal(y)
        assert slow.value != 0
        assert abs(slow.value - fast.value) <= fast.tail + slow.tail
    # the window up to 100 stacks 5050 basis vectors, past the cap of 5000
    with pytest.raises(ValueError, match="exceeds the cap 5000"):
        context(AFFINE, beta=3.0, bound=100).omega_literal(NTElement.unit(AFFINE))


def test_any_window_costs_the_same():
    for system in BUILTINS.values():
        e = system.identity_fiber()
        sv = zeta_series(system, 3.0, 10**15)
        assert sv.truncation == 10**15
        ctx = context(system, beta=3.0, bound=10**15)
        assert len(ctx._zeta_terms) == states.PREFIX_TERMS
        assert ctx.zeta == sv.value.real
        radius = states.rounding_radius(ctx.zeta, states.PREFIX_TERMS)
        assert sv.tail == (ctx.zeta_tail + radius) * (1 + 2**-50)
        assert ctx.z_value(e) == ctx.zeta


# -- the state itself --------------------------------------------------------------


@pytest.mark.parametrize("system", [AFFINE, TORUS, TORUS2, CUNTZ], ids=lambda s: s.name)
def test_state_of_unit_is_exactly_one(system):
    for beta in (2.5, 3.0, 6.0):
        ctx = context(system, beta=beta, bound=150)
        sv = ctx.kms(NTElement.unit(system))
        assert sv.value == complex(1.0)


def test_projection_value_is_scaling_power():
    for system in (AFFINE, TORUS2):
        for r in (2, 3, 5):
            for beta in (3.0, 4.0):
                ctx = context(system, beta=beta, bound=2000)
                sv = ctx.kms(unit_projection(system, r))
                want = system.weight(r) ** (-beta) * system.weight(r)
                assert abs(sv.value - want) <= sv.tail
                assert sv.tail < 1e-2


def test_matrix_unit_orthogonality_is_exact():
    ctx = context(AFFINE, beta=3.0, bound=100)
    p01 = NTElement.from_monomial(
        AFFINE, 2, AFFINE.basis_vector(2, 0), 2, AFFINE.basis_vector(2, 1)
    )
    sv = ctx.kms(p01)
    assert sv.value == 0j and sv.tail == 0.0


def test_omega_rejects_offcore_elements():
    ctx = context(AFFINE)
    y = NTElement.embed(AFFINE, 2, AFFINE.basis_vector(2, 0))
    with pytest.raises(ValueError):
        ctx.omega(y)
    # kms() routes through the expectation instead
    assert ctx.kms(y).value == 0j


def test_a_core_element_is_its_own_core_expectation():
    core = unit_projection(AFFINE, 2) + NTElement.unit(AFFINE)
    assert core.core_expectation() is core
    mixed = core + NTElement.embed(AFFINE, 2, AFFINE.basis_vector(2, 0))
    assert mixed.core_expectation() is not mixed
    assert mixed.core_expectation() == core
    ctx = context(AFFINE)
    with pytest.raises(ValueError, match="core"):
        ctx.omega(mixed)
    with pytest.raises(ValueError, match="different product system"):
        ctx.omega(unit_projection(TORUS, 2))


# Coefficient words per engine: a generator, a second monomial, a
# monomial of degree with several divisors (a number on the scalars), and
# a sum of four monomials whose state value depends on the order of its
# terms (one monomial on the scalars).
_WORDS = {
    ("toeplitz", 1): ("S", "S*", "S^6", "0.1 + 0.7 S S* + 0.3 S^2 S*^2 + S^3 S*^3"),
    ("laurent", 1): ("z", "z^-1", "z^6", "0.1 + 0.7 z^2 + 0.3 z^-3 + z^6"),
    ("laurent", 2): ("z1", "z2^-1", "z1^6 z2^-4", "0.1 + 0.7 z1^2 + 0.3 z2^-3 + z1 z2"),
    ("scalar", 0): ("(0.5+1.5i)", "2", "(2-0.5i)", "0.1"),
}

# e is the identity fiber, s and t the next two fibers of the window
_KMS_EXPRESSIONS = (
    "i[{e}](1@0)",
    "alpha[{s}](i[{e}](1@0)) + alpha[{t}](i[{e}](1@0))",
    "i[{s}](1@1) adj(i[{s}](1@1))",
    "i[{s}](1@0) adj(i[{s}](1@1))",
    "i[{s}](1@0) adj(i[{t}](1@0)) + i[{t}](1@1) adj(i[{t}](1@1))",
    "i[{e}]({c}@0) + i[{s}]({c}@1) adj(i[{s}](1@1))",
    "i[{s}](({a} + 2 {b})@1) adj(i[{s}](1@1))",
    "i[{e}](({m})@0) + i[{s}](({m})@1) adj(i[{s}](1@1))",
)

_KMS_SYSTEMS = (("affine-toeplitz", None, None), ("additive-toeplitz", None, None),
                ("lattice-dilation", 1, None), ("lattice-dilation", 2, None),
                ("cuntz", None, 2), ("cuntz", None, 3))


def _kms_value_rows():
    """kms at beta 3 of every expression, under each default trace and at
    bounds 1000 and 10^7, as float.hex strings."""
    for name, d, k in _KMS_SYSTEMS:
        system = get_system(name, d=d, k=k)
        a, b, c, m = _WORDS[system.engine.tag, system.engine.degree_dim]
        e, s, t = TruncationSet(system.semigroup, 10).values[:3]
        for trace in default_traces(system):
            for bound in (1000, 10**7):
                ctx = KMSContext(system, trace, 3.0, bound)
                for template in _KMS_EXPRESSIONS:
                    expr = template.format(e=e, s=s, t=t, a=a, b=b, c=c, m=m)
                    sv = ctx.kms(parse_element(expr, system))
                    yield {"system": system.name, "d": d, "k": k, "trace": trace.name,
                           "bound": bound, "expr": expr, "re": sv.value.real.hex(),
                           "im": sv.value.imag.hex(), "tail": sv.tail.hex()}


def test_kms_values_match_the_golden_bits():
    """Every value and tail, bit for bit, as recorded in
    tests/data/kms-values.jsonl (one JSON line per row of _kms_value_rows)."""
    want = [json.loads(line) for line in (DATA / "kms-values.jsonl").read_text().splitlines()]
    assert list(_kms_value_rows()) == want


# -- fast path against the literal evaluator ----------------------------------------


@pytest.mark.parametrize(
    "system,bound",
    [(AFFINE, 30), (TORUS, 30), (TORUS2, 12), (CUNTZ, 8)],
    ids=lambda v: getattr(v, "name", v),
)
def test_omega_matches_literal_evaluator(system, bound):
    rng = Random(71)
    if system.semigroup.is_multiplicative:
        fibers = (1, 2, 3)
    else:
        fibers = (0, 1, 2)
    traces = (
        [identity_trace()]
        if system.engine.degree_dim == 0
        else [haar_trace(system.engine),
              point_mass_trace(system.engine,
                               0.7 if system.engine.degree_dim == 1
                               else tuple(0.4 * (c + 1) for c in range(system.engine.degree_dim)))]
    )
    for trace in traces:
        ctx = KMSContext(system, trace, 3.0, bound)
        for _ in range(4):
            y = sample_element(rng, system, fibers, terms=2, core=True)
            fast = ctx.omega(y)
            slow = ctx.omega_literal(y)
            assert abs(fast.value - slow.value) < 1e-9 * max(1.0, y.one_norm())
            # the same truncation share, plus rounding radii near 1e-8 of it
            assert fast.tail == pytest.approx(slow.tail, rel=1e-6)


@pytest.mark.parametrize("system,bound", [(AFFINE, 30), (TORUS2, 8)],
                         ids=lambda v: getattr(v, "name", v))
def test_literal_evaluator_agrees_on_high_degree_words(system, bound):
    """The coefficient words of the KMS sweep, S^a S*^b with a, b <= 720
    and z1^a z2^b with |a|, |b| <= 360, at its small windows: the literal
    sum and the fast path agree within their summed tails, under haar
    and under a point mass.  Haar sees degree zero only: S^720 S*^720 and
    S^17 S*^17, and no torus word."""
    rng = Random(720)
    if system is AFFINE:
        words = [f"S^{a} S*^{b}" for a, b in ((720, 0), (720, 360), (361, 1), (5, 720),
                                              (720, 720), (17, 17))]
        words += [f"S^{rng.randint(1, 720)} S*^{rng.randint(0, 720)}" for _ in range(6)]
    else:
        words = [f"z1^{a} z2^{b}" for a, b in ((360, -360), (120, 240), (7, 14), (1, -1))]
        words += [f"z1^{rng.randint(1, 360)} z2^{rng.randint(-360, 360)}" for _ in range(6)]
    eng = system.engine
    for trace in (haar_trace(eng), point_mass_trace(eng, (0.7,) * eng.degree_dim)):
        ctx = KMSContext(system, trace, 3.0, bound)
        nonzero = 0
        for word in words:
            y = parse_element(f"i[1]({word}@0)", system)
            fast, slow = ctx.omega(y), ctx.omega_literal(y)
            assert abs(fast.value - slow.value) <= fast.tail + slow.tail, word
            nonzero += slow.value != 0
        assert nonzero == (len(words) if trace.atoms else 2 if system is AFFINE else 0)


@pytest.mark.parametrize("system", [AFFINE, TORUS2], ids=lambda s: s.name)
def test_omega_visits_only_the_divisors_in_the_window(system):
    """The fast path enumerates the divisors q of the degree gcd with r*q
    in the window; summing over every divisor and dropping the others
    afterwards must give the same bits."""
    eng = system.engine
    theta = 0.7 if eng.degree_dim == 1 else (0.4, 0.8)
    ctx = KMSContext(system, point_mass_trace(eng, theta), 3.0, 60)
    w = 1.5 - 0.5j
    for r in (1, 2, 5, 7, 60, 61):
        for g in list(range(1, 40)) + [360, 720, 5040]:
            mon = (g + 2, 2) if eng.tag == "toeplitz" else (2 * g, -g)
            deg = eng.degree(mon)
            a = CoefficientElement.monomial(eng, mon, w)
            y = NTElement(system, {(r, r, 0): system.basis_vector(r, 0, coeff=a)})
            total = 0.0 + 0.0j
            for q in range(1, g + 1):
                if g % q == 0 and r * q in ctx.trunc:
                    total += (w * ctx.weight_pow(r * q) * system.weight(q)
                              * ctx.trace.moment(tuple(c // q for c in deg)))
            assert ctx.omega(y).value == total / ctx.zeta, (r, g)


def test_factor_matches_brute_force_divisors_and_primes():
    """Divisors up to each limit and the primes among them, for every
    n < 5000, against divisor lists built by marking multiples."""
    n_max = 5000
    divisors = [[] for _ in range(n_max)]
    for d in range(1, n_max):
        for m in range(d, n_max, d):
            divisors[m].append(d)
    for limit in (0, 1, 7, 60, 4999, 10**7):
        for n in range(1, n_max):
            want = [d for d in divisors[n] if d <= limit]
            got, primes, _ = states.factor(n, limit)
            assert got == want, (n, limit)
            assert primes == [p for p in want if len(divisors[p]) == 2], (n, limit)


def _huge_degree(g):
    return NTElement.embed_coeff(AFFINE, CoefficientElement.monomial(AFFINE.engine, (g, 0)))


@pytest.mark.parametrize("k", [12, 14, 18])
def test_omega_at_a_huge_degree_is_its_exact_divisor_sum(k):
    """At bound 10^12 the divisors q = 2^i 5^j <= B of g = 10^k carry the
    state: under haar every moment c(g/q) is 0, and under a point mass at
    0 it is 1, so the value is the sum of q^(-2) over them, over zeta."""
    g = 10**k
    haar = KMSContext(AFFINE, haar_trace(AFFINE.engine), 3.0, 10**12)
    assert haar.omega(_huge_degree(g)).value == 0.0
    ctx = KMSContext(AFFINE, point_mass_trace(AFFINE.engine, 0.0), 3.0, 10**12)
    got = ctx.omega(_huge_degree(g))
    qs = [2**i * 5**j for i in range(k + 1) for j in range(k + 1) if 2**i * 5**j <= 10**12]
    assert abs(got.value - math.fsum(q**-2.0 for q in qs) / ctx.zeta) <= got.tail


def test_term_budget_counts_the_trial_divisions_made():
    """10^18 = 2^18 5^18 factors in four trial divisions; a prime near
    10^18 needs 10^9 and trips the budget, naming its degree."""
    ctx = KMSContext(AFFINE, haar_trace(AFFINE.engine), 3.0, 10**12)
    with term_budget(100):
        assert ctx.omega(_huge_degree(10**18)).value == 0.0
        assert states.factor(10**18, 10**12)[2] == 4
        with pytest.raises(TermBudgetExceeded, match=r"101 trial divisions at degree "
                                                      r"1000000000000000003,"):
            ctx.omega(_huge_degree(10**18 + 3))


def test_kms_condition_spot_samples():
    """omega(y1 sigma_(i beta)(y2)) = omega(y2 y1) inside summed tails."""
    rng = Random(73)
    beta = 3.0
    ctx = KMSContext(AFFINE, haar_trace(AFFINE.engine), beta, 400)
    for _ in range(3):
        y1 = sample_element(rng, AFFINE, (1, 2, 3), terms=2)
        y2 = sample_element(rng, AFFINE, (1, 2, 3), terms=2)
        lhs = ctx.kms(y1 * y2.dynamics(1j * beta))
        rhs = ctx.kms(y2 * y1)
        assert abs(lhs.value - rhs.value) <= lhs.tail + rhs.tail + 1e-9


def test_scaling_identity_spot():
    """omega(i_s(1_j . a) i_s(1_j)*) = N(s)^(-beta) omega(i_e(a))."""
    eng = AFFINE.engine
    a = CoefficientElement.monomial(eng, (1, 1), 2.0) + CoefficientElement.unit(eng, 0.5)
    ctx = context(AFFINE, beta=3.0, bound=500)
    corner = ctx.omega(NTElement.embed_coeff(AFFINE, a))
    for s in (2, 3):
        for j in range(s):
            xi = AFFINE.left_act(s, a, AFFINE.basis_vector(s, j))
            y = NTElement.from_monomial(AFFINE, s, xi, s, AFFINE.basis_vector(s, j))
            got = ctx.omega(y)
            want = ctx.weight_pow(s) * corner.value
            assert abs(got.value - want) <= got.tail + ctx.weight_pow(s) * corner.tail


# -- ground state -------------------------------------------------------------------


def test_ground_state_reads_the_corner():
    tr = haar_trace(AFFINE.engine)
    a = CoefficientElement.monomial(AFFINE.engine, (2, 2), 3.0) + CoefficientElement.unit(
        AFFINE.engine, 1.0
    )
    sv = ground_state(AFFINE, tr, NTElement.embed_coeff(AFFINE, a))
    assert sv.value == 4.0 + 0j and sv.tail == 0.0 and sv.truncation == 0
    off = NTElement.from_monomial(
        AFFINE, 2, AFFINE.basis_vector(2, 0), 2, AFFINE.basis_vector(2, 0)
    )
    assert ground_state(AFFINE, tr, off).value == 0j


def test_ground_state_positive_on_squares():
    rng = Random(77)
    tr = haar_trace(AFFINE.engine)
    for _ in range(6):
        y = sample_element(rng, AFFINE, (1, 2, 3), terms=2)
        sv = ground_state(AFFINE, tr, (y.adjoint() * y).core_expectation())
        assert sv.value.real >= -1e-12
        assert abs(sv.value.imag) < 1e-12


def test_ground_state_is_kms_limit():
    tr = haar_trace(AFFINE.engine)
    a = CoefficientElement.monomial(AFFINE.engine, (1, 1), 1.0)
    y = NTElement.embed_coeff(AFFINE, a) + unit_projection(AFFINE, 2)
    want = ground_state(AFFINE, tr, y).value
    prev = None
    for beta in (5.0, 10.0, 20.0):
        got = KMSContext(AFFINE, tr, beta, 500).kms(y).value
        diff = abs(got - want)
        if prev is not None:
            assert diff <= 0.5 * prev + 1e-14
        prev = diff
    assert prev <= 1e-4


# -- euler product -------------------------------------------------------------------


def test_primes_sieve():
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert primes_up_to(1) == ()


def test_euler_product_approaches_zeta_two():
    limit = math.pi**2 / 6.0
    prev = None
    for P in (10, 100, 1000):
        got = euler_product(2.0, P)
        err = abs(got - limit)
        if prev is not None:
            assert err < prev
        prev = err
        assert got < limit  # finite products underestimate
    gap = euler_truncation_gap(2.0, 1000, 10**6)
    partial = float(np.sum(np.arange(1, 10**6 + 1, dtype=float) ** -2.0))
    assert abs(euler_product(2.0, 1000) - partial) <= gap


def test_euler_product_needs_convergence():
    with pytest.raises(ValueError):
        euler_product(1.0, 100)


# -- serialisation ---------------------------------------------------------------------


def test_state_value_dict_shape():
    ctx = context(AFFINE)
    sv = ctx.kms(unit_projection(AFFINE, 2))
    d = sv.as_dict()
    assert set(d) == {"value", "tail", "truncation"}
    assert d["truncation"] == 200
    assert isinstance(d["value"], list) and len(d["value"]) == 2
    assert complex(sv) == sv.value
