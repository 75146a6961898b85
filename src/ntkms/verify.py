"""Numerical verification drivers for the state and algebra layers.

Each check returns a CheckReport carrying a pass flag, a metrics dict
and a JSON line for machine consumption.  Reports come in two shapes:

* exact algebraic identities on normal forms (projection covariance,
  commutation with the coefficient corner) stream witnesses against
  themselves to CheckReport.from_witnesses, as the structure laws do;
* every other check yields ``(got, want, tol, where)`` comparisons to
  one helper, _compare: series identities within the summed rigorous
  tails plus float slack, the ground-state laws, the Euler product, and
  the Fock oracle, which composes creation operators as index arrays
  and shares nothing with the symbolic engine.

The first comparison with |got - want| > tol (or a NaN deviation) fails
the check, and its report carries that ``deviation``, its ``tolerance``
and the ``where`` keys; a check that tests several laws names each
under ``where["law"]``.  A passing report carries ``worst_deviation``,
``tolerance_at_worst`` (the tolerance of the comparison that gave it)
and ``nonzero``, the number of comparisons with a nonzero side.  Both
carry the check's metrics.  A check that needs enough informative
samples ends its stream with (n, max(n, floor), 0.0, {"law":
"informative", "floor": floor}), which fails exactly when n < floor.
Only a check that does not apply builds its own report, a passing one
with ``{"skipped": True}``.

Each check runs in one configuration, the one ``ntkms verify`` uses:
sample counts, windows and tolerances are constants of the check.  The
state checks (kms-condition, scaling-identity, core-trace and
trace-recovery) take the KMSContext they check and read its system,
trace, beta and bound.  run_suites builds one state per trace and
window: at the run's beta and bound for the kms and trace suites, and at
(max(beta, 4), max(bound, 100)) for trace-recovery.  It builds the
default traces once per call, and only for the kms, trace, ground and
reconstruct suites; inclusion-exclusion compares under all of them.

Random inputs use seeded generators and Gaussian-integer coefficients.
Integer real and imaginary parts keep products exactly representable in
floats, so the exact-equality checks stay exact under sampling.

The products a state check evaluates are exact algebra and do not
depend on the trace; only the final omega does.  So kms-condition,
core-trace and trace-recovery read them from a generator (kms_draw,
core_trace_draw, recovery_draw) that run_suites starts once per run and
splits with itertools.tee, a branch per trace.  An item is computed
when the first branch asks for it, so its time lands on the first
report, and later branches get the same objects: every trace compares
the same floats as a run of its own, and a check that stops early
leaves the rest to the next branch.  scaling-identity has no samples
and rebuilds its basis vectors per trace.  The fock: checks share the
run's one TruncatedFock and read the system and window from it.
state:ground keeps its own generator: its samples skip an rng draw on
a zero corner value, which depends on the trace, so they differ from
trace to trace.  reconstruct_trace returns tau(a), or None (a NaN to
trace-recovery) when a has a zero-degree monomial and is not a unit
multiple.
"""

from __future__ import annotations

import cmath
import math
import time
from itertools import islice, takewhile, tee
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .coeff import (
    CoefficientElement,
    TraceSpec,
    haar_trace,
    identity_trace,
    point_mass_trace,
)
from .fock import TruncatedFock
from .nt import NTElement, _accumulate, diagonal, unit_projection
from .product_system import CheckReport, ModuleVector, ProductSystem
from .semigroup import TruncationSet
from .states import (
    PREFIX_TERMS,
    KMSContext,
    _gamma,
    euler_product,
    euler_truncation_gap,
    factor,
    ground_state,
    primes_up_to,
    rounding_radius,
    zeta_series,
)

__all__ = [
    "CheckReport",
    "structure_reports",
    "check_projection_covariance",
    "check_corner_center",
    "check_kms_condition",
    "check_core_trace_property",
    "kms_draw",
    "core_trace_draw",
    "recovery_draw",
    "check_ground",
    "check_ground_limit",
    "check_scaling_identity",
    "check_euler",
    "check_inclusion_exclusion",
    "check_reconstruction",
    "check_fock_product",
    "check_fock_state",
    "check_fock_nica",
    "lambda_weight",
    "reconstruct_trace",
    "reconstruction_monomials",
    "run_suites",
    "SUITE_NAMES",
    "default_traces",
]


def _timed(fn: Callable[[], CheckReport]) -> CheckReport:
    """Run one check and record its time on its report."""
    t0 = time.perf_counter()
    rep = fn()
    rep.seconds = time.perf_counter() - t0
    return rep


def _compare(name: str, comparisons: Iterable[tuple[complex, complex, float, dict]],
             **metrics) -> CheckReport:
    """Fail on the first |got - want| > tol, else report the worst case."""
    worst, nonzero = None, 0
    for got, want, tol, where in comparisons:
        dev = abs(got - want)
        if not dev <= tol:  # a NaN deviation fails too
            return CheckReport(name, False, {**metrics, **where, "deviation": dev, "tolerance": tol})
        if worst is None or dev > worst[0]:
            worst = (dev, tol)
        nonzero += got != 0 or want != 0
    dev, tol = worst or (0.0, 0.0)
    return CheckReport(
        name, True,
        {**metrics, "worst_deviation": dev, "tolerance_at_worst": tol, "nonzero": nonzero},
    )


# -- samplers ---------------------------------------------------------------


# choice over a range makes the one _randbelow(width) call that randint
# makes (CPython 3.10-3.12): the samplers draw their randint forms' stream
_GAUSS, _TOEPLITZ, _LAURENT = range(-2, 3), range(0, 4), range(-3, 4)


def _gauss_int(rng: Random) -> complex:
    re = rng.choice(_GAUSS)
    im = rng.choice(_GAUSS)
    if re == 0 and im == 0:
        re = 1
    return complex(re, im)


def _sample_monomial(rng: Random, engine) -> tuple:
    if engine.tag == "toeplitz":
        return (rng.choice(_TOEPLITZ), rng.choice(_TOEPLITZ))
    return tuple(rng.choice(_LAURENT) for _ in range(engine.degree_dim))


def sample_coeff(rng: Random, engine, terms: int = 2) -> CoefficientElement:
    """1 to ``terms`` monomials with Gaussian-integer weights, drawn from
    the randint stream (see _GAUSS) and summed in place by the rules of
    CoefficientElement.__add__: a repeated monomial keeps its place, one
    that cancels leaves, and a later one re-enters at the end."""
    out: dict[tuple, complex] = {}
    for _ in range(rng.choice(range(1, terms + 1))):
        mon = _sample_monomial(rng, engine)
        out[mon] = out.get(mon, 0.0) + _gauss_int(rng)
        if out[mon] == 0:
            del out[mon]
    return CoefficientElement(engine, out)


def sample_vector(rng: Random, system: ProductSystem, fiber: int) -> ModuleVector:
    n = system.basis_count(fiber)
    picks = rng.sample(range(n), min(n, rng.choice((1, 2))))
    return ModuleVector(system, fiber, {j: sample_coeff(rng, system.engine) for j in picks})


def sample_element(
    rng: Random,
    system: ProductSystem,
    fibers: tuple[int, ...],
    terms: int = 2,
    core: bool = False,
) -> NTElement:
    """1 to ``terms`` sampled terms, gathered by NTElement.__add__'s rules."""
    out: dict[tuple[int, int, int], ModuleVector] = {}
    for _ in range(rng.choice(range(1, terms + 1))):
        s = rng.choice(fibers)
        r = s if core else rng.choice(fibers)
        l = rng.randrange(system.basis_count(r))
        _accumulate(out, (s, r, l), sample_vector(rng, system, s))
    return NTElement(system, out)


def _small_fibers(system: ProductSystem) -> tuple[int, ...]:
    return TruncationSet(system.semigroup, 4).values[:4]


# -- structure --------------------------------------------------------------


def structure_reports(system: ProductSystem) -> list[CheckReport]:
    """ProductSystem.validate up to 12 on nat-mult and up to 6 on nat-add."""
    bound = 12 if system.semigroup.is_multiplicative else 6
    return system.validate(TruncationSet(system.semigroup, bound))


def check_projection_covariance(system: ProductSystem) -> CheckReport:
    """alpha_s(1) alpha_r(1) = alpha_(lub)(1), exactly on normal forms."""
    bound = 6 if system.semigroup.is_multiplicative else 4
    vals = TruncationSet(system.semigroup, bound).values
    sg = system.semigroup
    return CheckReport.from_witnesses(
        "algebra:projection-covariance",
        ({"s": s, "r": r} for s in vals for r in vals
         if unit_projection(system, s) * unit_projection(system, r)
         != unit_projection(system, sg.lub(s, r))),
        pairs=len(vals) ** 2, bound=bound)


def check_corner_center(system: ProductSystem) -> CheckReport:
    """[i_e(a), alpha_s(1)] = 0 exactly, for generator coefficients a."""
    bound = 6 if system.semigroup.is_multiplicative else 4
    vals = TruncationSet(system.semigroup, bound).values
    gens = system.generator_elements()

    def witnesses():
        for a in gens:
            x = NTElement.embed_coeff(system, a)
            for s in vals:
                p = unit_projection(system, s)
                if x * p != p * x:
                    yield {"s": s, "a": repr(a)}

    return CheckReport.from_witnesses("algebra:corner-commutes-with-projections", witnesses(),
                                      cases=len(gens) * len(vals), bound=bound)


# -- KMS condition -----------------------------------------------------------


def kms_draw(system: ProductSystem, beta: float, seed: int = 7) -> Iterator[tuple]:
    """The 200 diagonal product pairs (y1 sigma_(i beta)(y2), y2 y1) of
    check_kms_condition, on seeded samples y1, y2."""
    rng = Random(seed)
    fibers = _small_fibers(system)
    for _ in range(200):
        y1 = sample_element(rng, system, fibers)
        y2 = sample_element(rng, system, fibers)
        yield y1.product(y2.dynamics(complex(0.0, beta)), diagonal), y2.product(y1, diagonal)


def check_kms_condition(ctx: KMSContext, draw: Iterable) -> CheckReport:
    """omega(y1 sigma_(i beta)(y2)) = omega(y2 y1) within summed tails, on
    200 samples; draw is (a tee branch of) kms_draw(ctx.system, ctx.beta, seed)."""

    def comparisons():
        for i, (left, right) in enumerate(draw):
            lhs = ctx.omega(left)
            rhs = ctx.omega(right)
            yield lhs.value, rhs.value, lhs.tail + rhs.tail + 1e-9, {"sample": i}

    return _compare("state:kms-condition", comparisons(),
                    samples=200, beta=ctx.beta, bound=ctx.bound, trace=ctx.trace.name)


_CORE_TARGETS = ((False, False), (False, True), (True, False), (True, True))


def _core_pairs(system: ProductSystem):
    """The non-identity fiber pairs of the core-trace window, the
    meet-trivial ones, and those whose meet has rank above one."""
    sg = system.semigroup
    vals = TruncationSet(sg, 6 if sg.is_multiplicative else 4).values
    pairs = [(s, r) for s in vals for r in vals if s != sg.identity_value and r != sg.identity_value]
    coprime = [(s, r) for (s, r) in pairs if sg.glb(s, r) == sg.identity_value]
    ranked = [(s, r) for (s, r) in pairs if system.basis_count(sg.glb(s, r)) > 1]
    return pairs, coprime, ranked


def _meet_digit(rng: Random, ng: int, match: bool, other: int) -> int:
    """A digit on a meet of rank ng: other when match, else a draw that
    differs from other whenever ng > 1."""
    digit = other if match else rng.randrange(ng)
    if not match and ng > 1 and digit == other:
        digit = (digit + 1) % ng
    return digit


def core_trace_draw(system: ProductSystem, seed: int = 11) -> Iterator[tuple]:
    """The 12 rounds of check_core_trace_property: (s, r, the round's
    index pattern, u v, v u).

    The commutation argument splits on whether the right indices of u
    and v agree on the meet component in each order, so the sampler
    drives all four agreement patterns and a meet-trivial fiber pair.
    Indices can disagree only on a meet g with N_g > 1, so a round
    aiming at a disagreement draws its pair from those.
    """
    rng = Random(seed)
    sg = system.semigroup
    pairs, coprime, ranked = _core_pairs(system)
    for i in range(12):
        want = _CORE_TARGETS[i % 4]
        if i == 0:
            s, r = coprime[0]
        else:
            s, r = rng.choice(pairs if all(want) else ranked)
        g = sg.glb(s, r)
        ng = system.basis_count(g)
        ss, rr = sg.quotient(s, g), sg.quotient(r, g)
        lg = rng.randrange(ng)
        jg = rng.randrange(ng)
        kg = _meet_digit(rng, ng, want[0], lg)
        k = system.index_map(g, ss, kg, rng.randrange(system.basis_count(ss)))
        mg = _meet_digit(rng, ng, want[1], jg)
        m = system.index_map(g, rr, mg, rng.randrange(system.basis_count(rr)))
        j = system.index_map(g, ss, jg, rng.randrange(system.basis_count(ss)))
        l = system.index_map(g, rr, lg, rng.randrange(system.basis_count(rr)))

        u = NTElement(system, {(s, s, k): sample_vector(rng, system, s)}) + NTElement(
            system, {(s, s, j): sample_vector(rng, system, s)}
        )
        v = NTElement(system, {(r, r, m): sample_vector(rng, system, r)}) + NTElement(
            system, {(r, r, l): sample_vector(rng, system, r)}
        )
        yield s, r, f"{kg == lg}/{mg == jg}", u * v, v * u


def check_core_trace_property(ctx: KMSContext, draw: Iterable) -> CheckReport:
    """omega(uv) = omega(vu) on the core, in the 12 rounds of draw, (a
    tee branch of) core_trace_draw(ctx.system, seed)."""
    _, coprime, _ = _core_pairs(ctx.system)
    if not coprime:
        return CheckReport("state:core-trace", True, {"skipped": True},
                           "no meet-trivial pairs in the window")
    # counted as the rounds run, so the report shows the final tally
    cases = {f"{a}/{b}": 0 for a, b in _CORE_TARGETS}

    def comparisons():
        for i, (s, r, pattern, uv, vu) in enumerate(draw):
            cases[pattern] += 1
            a = ctx.omega(uv)
            b = ctx.omega(vu)
            yield a.value, b.value, a.tail + b.tail + 1e-9, {"round": i, "s": s, "r": r}

    return _compare("state:core-trace", comparisons(), rounds=12, beta=ctx.beta,
                    trace=ctx.trace.name, meet_trivial_pairs=len(coprime), cases=cases)


# -- ground states ------------------------------------------------------------


def check_ground(system: ProductSystem, trace: TraceSpec, seed: int = 23) -> CheckReport:
    """Ground state laws on 60 samples: unit value 1, positivity, no
    nonzero corner value on a contracting monomial, and z -> state(y
    sigma_z(y')) following the complexified dynamics on the upper half
    plane, on at least 6 nonzero corner values."""
    rng = Random(seed)
    fibers = _small_fibers(system)
    e = system.identity_fiber()

    def corner(s, r):
        return s == e == r

    def comparisons():
        unit = ground_state(system, trace, NTElement.unit(system))
        yield unit.value, 1.0, 0.0, {"law": "unit"}
        yield unit.tail, 0.0, 0.0, {"law": "unit"}
        nonzero = 0
        for i in range(60):
            y = sample_element(rng, system, fibers)
            pos = ground_state(system, trace, y.adjoint().product(y, corner)).value
            yield (complex(min(pos.real, 0.0), pos.imag), 0.0, 1e-9,
                   {"law": "positivity", "sample": i})

            s = rng.choice(fibers)
            r = e if i % 2 == 0 else rng.choice(fibers)
            if i % 2 == 0:
                # aim at the corner on purpose: a bra at fiber s catches the
                # creation leg of y2 and leaves tau(a a*), which a generic
                # product almost never reaches
                a = sample_coeff(rng, system.engine)
                m = rng.randrange(system.basis_count(s))
                coords = {**sample_vector(rng, system, s).entries, m: a.adjoint()}
                y2 = NTElement(system, {(s, r, 0): ModuleVector(system, s, coords)})
                left = NTElement(system, {(e, s, m): ModuleVector(system, e, (a,))})
            else:
                y2 = NTElement(
                    system,
                    {(s, r, rng.randrange(system.basis_count(r))): sample_vector(rng, system, s)},
                )
                left = y
            base = ground_state(system, trace, left.product(y2, corner)).value
            ratio = system.weight(s) / system.weight(r)
            if ratio < 1.0:
                yield base, 0.0, 1e-12, {"law": "contracting", "sample": i, "s": s, "r": r}
            if abs(base) <= 1e-12:
                continue
            nonzero += 1
            z = complex(rng.uniform(-2, 2), rng.uniform(0, 3))
            shifted = ground_state(system, trace, left.product(y2.dynamics(z), corner)).value
            expect = cmath.exp(1j * z * math.log(ratio)) * base
            yield shifted, expect, 1e-9 * max(1.0, abs(base)), {"law": "dynamics", "sample": i}
        yield nonzero, max(nonzero, 6), 0.0, {"law": "informative", "floor": 6}

    return _compare("state:ground", comparisons(), samples=60, trace=trace.name)


def _limit_monomials(system: ProductSystem) -> list[NTElement]:
    """Ten fixed core elements: corner elements, then the diagonal basis
    elements of the fibers up to 5 (every builtin has ten of them)."""
    out: list[NTElement] = []
    for a in system.generator_elements()[:2]:
        out.append(NTElement.embed_coeff(system, a))
        out.append(NTElement.embed_coeff(system, a * a.adjoint()))
    vals = [v for v in TruncationSet(system.semigroup, 5).values
            if v != system.semigroup.identity_value]
    fibers = (NTElement(system, {(s, s, j): system.basis_vector(s, j)})
              for s in vals for j in range(system.basis_count(s)))
    return out + list(islice(fibers, 10 - len(out)))


def check_ground_limit(system: ProductSystem, trace: TraceSpec, bound: int = 1000) -> CheckReport:
    """KMS states approach the ground state as beta runs 5, 10, 20.

    The identity fiber contributes ground(y)/zeta to the windowed state
    and every other fiber s at most N(s)^(-beta) N_s |y|_1/zeta, so on ten
    fixed core elements, at each beta, |kms_beta(y) - ground(y)| is at
    most (|y|_1 + |ground(y)|)(zeta - 1)/zeta, with zeta from zeta_series,
    not from the state under test.  Rounding adds 4 gamma_n (|y|_1 +
    |ground(y)|), n = 16 plus the held zeta terms: one gamma_n each for the
    state's sum (of terms whose moduli add up to |y|_1 zeta), its division
    by zeta, the ground value and the bound.
    """
    betas = (5.0, 10.0, 20.0)
    monomials = _limit_monomials(system)
    rounding = 4.0 * _gamma(min(TruncationSet(system.semigroup, bound).size, PREFIX_TERMS) + 16)

    def comparisons():
        ground = [ground_state(system, trace, y).value for y in monomials]
        for beta in betas:
            ctx = KMSContext(system, trace, beta, bound)
            zeta = zeta_series(system, beta, bound).value.real
            for m, (y, g) in enumerate(zip(monomials, ground)):
                yield (ctx.kms(y).value, g,
                       (y.one_norm() + abs(g)) * ((zeta - 1.0) / zeta + rounding),
                       {"beta": beta, "monomial": m})

    return _compare("state:ground-limit", comparisons(),
                    betas=list(betas), monomials=len(monomials), trace=trace.name)


def check_scaling_identity(ctx: KMSContext) -> CheckReport:
    """omega(i_s(1_j a) i_s(1_l)*) = delta_(jl) N(s)^(-beta) omega(i_e(a)),
    exhaustively over the fibers up to 6, exactly zero off the diagonal.
    a runs over the generators and g g* of the first one, S S* or 1, whose
    haar moment is nonzero where those of the generators vanish."""
    system, beta = ctx.system, ctx.beta
    sg = system.semigroup
    vals = [v for v in TruncationSet(sg, 6).values if v != sg.identity_value]
    if not sg.is_multiplicative:
        vals = vals[:3]
    gens = system.generator_elements()
    square = gens[0] * gens[0].adjoint()
    if square not in gens:
        gens.append(square)

    def comparisons():
        for a in gens:
            corner = ctx.omega(NTElement.embed_coeff(system, a).core_expectation())
            for s in vals:
                scale = system.weight(s) ** (-beta)
                for j in range(system.basis_count(s)):
                    vec = system.basis_vector(s, j, coeff=a)
                    for l in range(system.basis_count(s)):
                        y = NTElement(system, {(s, s, l): vec})
                        got = ctx.omega(y)
                        where = {"s": s, "j": j, "l": l}
                        if j != l:
                            yield got.value, 0.0, 0.0, where
                        else:
                            yield (got.value, scale * corner.value,
                                   got.tail + scale * corner.tail + 1e-12, where)

    return _compare("state:scaling-identity", comparisons(),
                    cases=len(gens) * sum(system.basis_count(s) ** 2 for s in vals),
                    beta=beta, trace=ctx.trace.name)


# -- euler product -------------------------------------------------------------


def check_euler(system: ProductSystem, beta: float = 3.0) -> CheckReport:
    """Euler form of the normalising series for power-profile systems:
    the product over primes up to 10^4 against the series up to 10^6.

    The tolerance is the truncation gap plus the rounding of both sides:
    gamma_(3P) times the product, for its P prime factors of three rounded
    operations each (a power, a difference and a quotient), and the
    series' rounding radius.  The Euler-Maclaurin remainder of the series
    past the held prefix is below 1e-45 of it and is not added."""
    kind, d = system.profile
    if kind != "power":
        return CheckReport(
            "state:euler-product", True, {"skipped": True},
            f"not applicable to the {kind} profile",
        )
    exponent = d * (beta - 1.0)
    prime_bound, series_bound = 10**4, 10**6
    allowed = euler_truncation_gap(exponent, prime_bound, series_bound)
    product = euler_product(exponent, prime_bound)
    series = zeta_series(system, beta, series_bound).value.real
    rounding = (_gamma(3 * len(primes_up_to(prime_bound))) * product
                + rounding_radius(series, min(series_bound, PREFIX_TERMS)))
    return _compare("state:euler-product",
                    [(product, series, allowed + rounding, {"law": "euler"})],
                    allowed=allowed, beta=beta, prime_bound=prime_bound, series_bound=series_bound)


# -- reconstruction -------------------------------------------------------------


def lambda_weight(
    system: ProductSystem, trace: TraceSpec, beta: float, s: int, a: CoefficientElement
) -> complex:
    """N(s)^(-beta) tau(W_s(a)), the fiber weight of a coefficient."""
    return system.weight(s) ** (-beta) * trace.eval(system.fiber_trace(s, a))


def _subset_products(primes: Sequence[int]) -> list[int]:
    """p_J for every subset J of the primes, in bitmask order from the empty set."""
    return [math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
            for mask in range(1 << len(primes))]


def _fiber_monomials(rng: Random, engine, q: int, zero: bool) -> Iterable[CoefficientElement]:
    """Gaussian-integer multiples of a monomial whose degree q divides, of
    degree 0 when zero, and, on a graded engine past the identity, of one
    whose degree it does not."""
    deg = [0 if zero else q * rng.randint(-2, 2) for _ in range(engine.degree_dim)]
    for d in [deg] + ([[deg[0] + rng.randrange(1, q), *deg[1:]]] if deg and q > 1 else []):
        e = rng.randint(0, 2)  # S^e S*^e pads a Toeplitz monomial
        mon = (max(d[0], 0) + e, max(-d[0], 0) + e) if engine.tag == "toeplitz" else tuple(d)
        yield CoefficientElement.monomial(engine, mon, _gauss_int(rng))


def check_inclusion_exclusion(system: ProductSystem, traces: Sequence[TraceSpec],
                              beta: float = 4.0, bound: int = 1000, seed: int = 31) -> CheckReport:
    """The fiber weights lambda_weight, which read the left action, against
    the closed form N(q)^(-beta) N_q c(deg(a)/q) that KMSContext.omega sums
    in their place, 0 where q does not divide deg(a) componentwise, under
    every trace.

    The fibers are the first 64 of the window, 1 to 64 on nat-mult, then
    four seeded draws from the rest, all with N_q <= 2^16; each gets the
    monomials of _fiber_monomials, of degree 0 on every third fiber.  Both
    sides sum at most N_q terms w c(.) with |c| <= 1, so the tolerance is
    gamma_(N_q + 4) |w| N_q N(q)^(-beta) (see _gamma); the four covers the
    products around the sum.
    """
    rng = Random(seed)
    eng = system.engine
    window = range(system.identity_fiber(), bound + 1)
    capped = list(takewhile(lambda q: system.basis_count(q) <= 2**16, window))
    rest = capped[64:]
    fibers = capped[:64] + sorted(rng.sample(rest, min(4, len(rest))))

    def comparisons():
        for i, q in enumerate(fibers):
            n = system.basis_count(q)
            scale = system.weight(q) ** (-beta)
            for a in _fiber_monomials(rng, eng, q, zero=i % 3 == 0):
                (mon, w), = a.terms.items()
                deg = eng.degree(mon)
                where = {"q": q, "monomial": repr(a)}
                for t in traces:
                    c = 0.0 if any(x % q for x in deg) else t.moment(tuple(x // q for x in deg))
                    yield (lambda_weight(system, t, beta, q, a), scale * (w * n * c),
                           _gamma(n + 4) * abs(w) * n * scale, {**where, "trace": t.name})

    return _compare("reconstruct:inclusion-exclusion", comparisons(), beta=beta, bound=bound,
                    fibers=len(fibers), traces=[t.name for t in traces])


def _degree_primes(a: CoefficientElement) -> Optional[list[int]]:
    """The primes dividing the degree gcds of a's monomials, ascending, by
    states.factor; None when one of them has degree zero."""
    degrees = [math.gcd(*a.engine.degree(mon)) for mon in a.terms]
    return None if 0 in degrees else sorted({p for g in degrees for p in factor(g, g)[1]})


def recovery_products(system: ProductSystem, a: CoefficientElement) -> list[NTElement]:
    """i_e(a) alpha_(p_J)(1) on the core, for every subset J of the degree
    primes of a in bitmask order; empty when a has a degree-zero monomial
    (unit multiples included), where reconstruct_trace reads no state."""
    fprimes = _degree_primes(a)
    if fprimes is None:
        return []
    x = NTElement.embed_coeff(system, a)
    return [x.product(unit_projection(system, pj), diagonal)
            for pj in _subset_products(fprimes)]


def reconstruct_trace(
    ctx: KMSContext,
    a: CoefficientElement,
    products: Optional[list[NTElement]] = None,
) -> Optional[complex]:
    """Recover tau(a) from the KMS state ctx by prime inclusion-exclusion.

    zeta * sum over J subsets of the degree primes of (-1)^|J| omega(
    i_e(a) alpha_(p_J)(1)) kills every fiber contribution except the
    identity one, leaving tau(a); products are recovery_products(a),
    computed here when not given.  A unit multiple is its own value.
    Any other element with a zero-degree monomial contributes to every
    fiber at once, so no finite prime set works and the result is None.
    """
    if a.is_unit_multiple():
        return a.terms.get(a.engine.unit(), 0.0 + 0.0j)
    if products is None:
        products = recovery_products(ctx.system, a)
    if not products:
        return None
    total = 0.0 + 0.0j
    for mask, y in enumerate(products):
        sign = -1.0 if bin(mask).count("1") % 2 else 1.0
        total += sign * ctx.omega(y).value
    return ctx.zeta * total


def reconstruction_monomials(engine) -> list[CoefficientElement]:
    """The applicable test family: all degree magnitudes 1..12 in three
    monomial shapes on Toeplitz engines, two on Laurent ones, plus the unit."""
    out = [CoefficientElement.unit(engine)]
    for d in range(1, 13):
        if engine.tag == "toeplitz":
            out.append(CoefficientElement.monomial(engine, (d, 0)))
            out.append(CoefficientElement.monomial(engine, (0, d)))
            out.append(CoefficientElement.monomial(engine, (d + 2, 2)))
        elif engine.tag == "laurent":
            base = [0] * engine.d
            base[0] = d
            out.append(CoefficientElement.monomial(engine, tuple(base)))
            out.append(CoefficientElement.monomial(engine, tuple(-x for x in base)))
        else:
            break
    return out


def recovery_draw(system: ProductSystem) -> Iterator[list[NTElement]]:
    """recovery_products of each member of the reconstruction family."""
    for a in reconstruction_monomials(system.engine):
        yield recovery_products(system, a)


def check_reconstruction(ctx: KMSContext, draw: Iterable) -> CheckReport:
    """Recover tau on the degree-graded monomial family, within 1e-2;
    draw is (a tee branch of) recovery_draw(ctx.system)."""
    system, trace = ctx.system, ctx.trace
    if not system.semigroup.is_multiplicative or system.engine.degree_dim == 0:
        return CheckReport(
            "reconstruct:trace-recovery", True, {"skipped": True},
            "needs a graded engine over nat-mult",
        )
    family = reconstruction_monomials(system.engine)

    def recoveries():
        for a, products in zip(family, draw):
            value = reconstruct_trace(ctx, a, products)
            # every member is applicable by construction; one that is not
            # has no value and fails as a NaN deviation
            yield (math.nan if value is None else value), trace.eval(a), 1e-2, {"monomial": repr(a)}

    return _compare("reconstruct:trace-recovery", recoveries(), monomials=len(family),
                    trace=trace.name, beta=ctx.beta, bound=ctx.bound)


# -- Fock oracle ------------------------------------------------------------------
# Each check reads its system and window from the oracle it is given, whose
# operators need a scalar engine: run_suites schedules these checks only
# there, and they raise ValueError on any other.


def _fock_fibers(fock: TruncatedFock) -> tuple[int, ...]:
    """Low fibers worth sampling: small ranks, identity included."""
    e = fock.system.semigroup.identity_value
    small = [v for v in fock.trunc.values if fock.system.basis_count(v) <= 8]
    return tuple(small[:4]) if len(small) > 1 else (e,)


def check_fock_product(fock: TruncatedFock, seed: int = 41) -> CheckReport:
    """Compressed products match products of compressions on interior
    columns within 1e-12, on 100 pairs in the oracle's window, at least
    50 of them with interior columns."""
    system = fock.system
    rng = Random(seed)
    fibers = _fock_fibers(fock)

    def comparisons():
        used = 0
        for i in range(100):
            x = sample_element(rng, system, fibers)
            y = sample_element(rng, system, fibers)
            defect, cols = fock.product_defect(x, y)
            if cols:
                used += 1
                yield defect, 0.0, 1e-12, {"law": "multiplicative", "sample": i, "columns": cols}
        yield used, max(used, 50), 0.0, {"law": "informative", "floor": 50}

    return _compare("fock:representation-multiplicative", comparisons(),
                    samples=100, dim=fock.dim, bound=fock.trunc.bound)


def check_fock_state(fock: TruncatedFock, beta: float = 3.0, seed: int = 43) -> CheckReport:
    """The Gibbs diagonal sum over the oracle's window equals the series
    state on that window within 1e-12, on 25 samples, both under the
    identity trace."""
    system = fock.system
    ctx = KMSContext(system, identity_trace(), beta, fock.trunc.bound)
    rng = Random(seed)
    fibers = _fock_fibers(fock)

    def comparisons():
        for i in range(25):
            y = sample_element(rng, system, fibers, core=(i % 2 == 0))
            yield fock.state_value(y, beta, ctx.trace), ctx.kms(y).value, 1e-12, {"sample": i}

    return _compare("fock:state-agreement", comparisons(),
                    samples=25, dim=fock.dim, beta=beta, bound=ctx.bound)


def check_fock_nica(fock: TruncatedFock, seed: int = 47) -> CheckReport:
    """Rank-one operators compose through the join fiber in the oracle
    within 1e-12, on 20 samples in its window."""
    system = fock.system
    rng = Random(seed)
    sg = system.semigroup
    fibers = [v for v in fock.trunc.values
              if v != sg.identity_value and system.basis_count(v) <= 8]

    def defects():
        for _ in range(20):
            s = rng.choice(fibers)
            r = rng.choice(fibers)
            if sg.lub(s, r) not in fock.trunc:
                continue
            yield fock.nica_defect(
                sample_vector(rng, system, s),
                sample_vector(rng, system, s),
                sample_vector(rng, system, r),
                sample_vector(rng, system, r),
            ), 0.0, 1e-12, {"s": s, "r": r}

    return _compare("fock:nica-covariance", defects(), samples=20, dim=fock.dim)


# -- suite assembly -----------------------------------------------------------------


SUITE_NAMES = ("structure", "kms", "trace", "ground", "reconstruct", "euler", "all")


def default_traces(system: ProductSystem) -> list[TraceSpec]:
    if system.engine.degree_dim == 0:
        return [identity_trace()]
    theta = tuple(0.7 for _ in range(system.engine.degree_dim))
    return [haar_trace(system.engine), point_mass_trace(system.engine, theta)]


def run_suites(
    system: ProductSystem,
    suites: list[str],
    beta: float = 3.0,
    bound: int = 1000,
    seed: int = 7,
    traces: Optional[list[TraceSpec]] = None,
) -> list[CheckReport]:
    """Assemble and run the named suites, in a stable order."""
    wanted = set(suites)
    if "all" in wanted:
        wanted = set(SUITE_NAMES) - {"all"}
    unknown = wanted - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suites {sorted(unknown)}; known: {SUITE_NAMES}")
    # only the kms, trace, ground and reconstruct suites read the traces
    if traces is None and wanted & {"kms", "trace", "ground", "reconstruct"}:
        traces = default_traces(system)

    # the structure laws time themselves; every other check is timed here
    reports = structure_reports(system) if "structure" in wanted else []
    tasks: list[Callable[[], CheckReport]] = []
    if "structure" in wanted:
        tasks.append(lambda: check_projection_covariance(system))
        tasks.append(lambda: check_corner_center(system))
        if system.engine.degree_dim == 0:
            fock = TruncatedFock(system, 5)
            tasks.append(lambda: check_fock_product(fock, seed=seed))
            tasks.append(lambda: check_fock_state(fock, beta=max(beta, 2.0), seed=seed))
            tasks.append(lambda: check_fock_nica(fock, seed=seed))
    # one state per trace and window, and one sample stream per run, a tee
    # branch of which each trace's check reads
    if wanted & {"kms", "trace"}:
        contexts = [KMSContext(system, t, beta, bound) for t in traces]
    if "kms" in wanted:
        for ctx, pairs in zip(contexts, tee(kms_draw(system, beta, seed), len(contexts))):
            tasks.append(lambda ctx=ctx, pairs=pairs: check_kms_condition(ctx, pairs))
            tasks.append(lambda ctx=ctx: check_scaling_identity(ctx))
    if "trace" in wanted:
        for ctx, rounds in zip(contexts, tee(core_trace_draw(system, seed), len(contexts))):
            tasks.append(lambda ctx=ctx, rounds=rounds: check_core_trace_property(ctx, rounds))
    if "ground" in wanted:
        for t in traces:
            tasks.append(lambda t=t: check_ground(system, t, seed=seed))
            tasks.append(lambda t=t: check_ground_limit(system, t, bound=bound))
    if "reconstruct" in wanted:
        tasks.append(lambda: check_inclusion_exclusion(system, traces, max(beta, 4.0), bound, seed))
        for t, products in zip(traces, tee(recovery_draw(system), len(traces))):
            ctx = KMSContext(system, t, max(beta, 4.0), max(bound, 100))
            tasks.append(lambda ctx=ctx, products=products: check_reconstruction(ctx, products))
    if "euler" in wanted:
        tasks.append(lambda: check_euler(system, beta=max(beta, 3.0)))

    return reports + [_timed(fn) for fn in tasks]
