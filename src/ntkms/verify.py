"""Numerical verification drivers for the state and algebra layers.

Each check returns a CheckReport carrying a pass flag, a metrics dict
and a JSON line for machine consumption.  Checks come in three flavours:

* exact algebraic identities, asserted on normal forms with no
  tolerance (projection covariance, commutation with the coefficient
  corner);
* series identities, compared within the sum of the rigorous tail
  bounds of both sides plus 1e-9 of float slack;
* cross-representation comparisons against the Fock oracle, which is
  plain matrix arithmetic and shares nothing with the symbolic engine.

Checks that compare values yield ``(got, want, tol, where)`` tuples to
one helper, _compare.  The first comparison with |got - want| > tol (or
a NaN deviation) fails the check, and its report carries that
``deviation``, its ``tolerance`` and the ``where`` keys.  A passing
report carries ``worst_deviation``, ``tolerance_at_worst`` (the
tolerance of the comparison that gave it) and ``nonzero``, the number
of comparisons with a nonzero side.  Both carry the check's metrics.

Each check runs in one configuration, the one ``ntkms verify`` uses:
sample counts, windows and tolerances are constants of the check, and
run_suites passes the run's beta, bound and seed.

Random inputs use seeded generators and Gaussian-integer coefficients.
Integer real and imaginary parts keep products exactly representable in
floats, so the exact-equality checks stay exact under sampling.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from itertools import islice
from random import Random
from typing import Callable, Iterable, Optional

from .coeff import (
    CoefficientElement,
    TraceSpec,
    haar_trace,
    identity_trace,
    point_mass_trace,
)
from .fock import TruncatedFock
from .nt import NTElement, unit_projection
from .product_system import CheckReport, ModuleVector, ProductSystem
from .semigroup import TruncationSet
from .states import (
    KMSContext,
    euler_product,
    euler_truncation_gap,
    ground_state,
    primes_up_to,
    zeta_series,
)

__all__ = [
    "CheckReport",
    "structure_reports",
    "check_projection_covariance",
    "check_corner_center",
    "check_kms_condition",
    "check_core_trace_property",
    "check_ground",
    "check_ground_limit",
    "check_scaling_identity",
    "check_euler",
    "check_inclusion_exclusion",
    "check_reconstruction",
    "check_fock_product",
    "check_fock_state",
    "check_fock_nica",
    "inclusion_exclusion_residual",
    "lambda_weight",
    "reconstruct_trace",
    "ReconstructionResult",
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


def _gauss_int(rng: Random) -> complex:
    re = rng.randint(-2, 2)
    im = rng.randint(-2, 2)
    if re == 0 and im == 0:
        re = 1
    return complex(re, im)


def _sample_monomial(rng: Random, engine) -> tuple:
    if engine.tag == "toeplitz":
        return (rng.randint(0, 3), rng.randint(0, 3))
    if engine.tag == "laurent":
        return tuple(rng.randint(-3, 3) for _ in range(engine.d))
    return ()


def sample_coeff(rng: Random, engine, terms: int = 2) -> CoefficientElement:
    out = CoefficientElement.zero(engine)
    for _ in range(rng.randint(1, terms)):
        out = out + CoefficientElement.monomial(
            engine, _sample_monomial(rng, engine), _gauss_int(rng)
        )
    return out


def sample_vector(rng: Random, system: ProductSystem, fiber: int) -> ModuleVector:
    n = system.basis_count(fiber)
    picks = rng.sample(range(n), min(n, rng.randint(1, 2)))
    return ModuleVector(system, fiber, {j: sample_coeff(rng, system.engine) for j in picks})


def sample_element(
    rng: Random,
    system: ProductSystem,
    fibers: tuple[int, ...],
    terms: int = 2,
    core: bool = False,
) -> NTElement:
    out = NTElement.zero(system)
    for _ in range(rng.randint(1, terms)):
        s = rng.choice(fibers)
        r = s if core else rng.choice(fibers)
        l = rng.randrange(system.basis_count(r))
        xi = sample_vector(rng, system, s)
        out = out + NTElement(system, {(s, r, l): xi})
    return out


def _small_fibers(system: ProductSystem) -> tuple[int, ...]:
    vals = TruncationSet(system.semigroup, 4).values
    return tuple(vals[:4]) if len(vals) >= 2 else vals


# -- structure --------------------------------------------------------------


def structure_reports(system: ProductSystem, bound: Optional[int] = None) -> list[CheckReport]:
    """ProductSystem.validate up to bound, by default 12 on nat-mult and 6 on nat-add."""
    if bound is None:
        bound = 12 if system.semigroup.name == "nat-mult" else 6
    return system.validate(TruncationSet(system.semigroup, bound))


def check_projection_covariance(system: ProductSystem) -> CheckReport:
    """alpha_s(1) alpha_r(1) = alpha_(lub)(1), exactly on normal forms."""
    bound = 4 if system.semigroup.name == "nat-add" else 6
    vals = TruncationSet(system.semigroup, bound).values
    sg = system.semigroup
    checked = 0
    for s in vals:
        for r in vals:
            lhs = unit_projection(system, s) * unit_projection(system, r)
            rhs = unit_projection(system, sg.lub(s, r))
            if lhs != rhs:
                return CheckReport(
                    "algebra:projection-covariance",
                    False,
                    {"s": s, "r": r, "bound": bound},
                    "product of range projections missed the join projection",
                )
            checked += 1
    return CheckReport("algebra:projection-covariance", True, {"pairs": checked, "bound": bound})


def check_corner_center(system: ProductSystem) -> CheckReport:
    """[i_e(a), alpha_s(1)] = 0 exactly, for generator coefficients a."""
    bound = 4 if system.semigroup.name == "nat-add" else 6
    vals = TruncationSet(system.semigroup, bound).values
    checked = 0
    for a in system.generator_elements():
        x = NTElement.embed_coeff(system, a)
        for s in vals:
            p = unit_projection(system, s)
            if x * p != p * x:
                return CheckReport(
                    "algebra:corner-commutes-with-projections",
                    False,
                    {"s": s, "a": repr(a), "bound": bound},
                )
            checked += 1
    return CheckReport(
        "algebra:corner-commutes-with-projections", True, {"cases": checked, "bound": bound}
    )


# -- KMS condition -----------------------------------------------------------


def check_kms_condition(
    system: ProductSystem,
    trace: TraceSpec,
    beta: float,
    bound: int = 1000,
    seed: int = 7,
) -> CheckReport:
    """omega(y1 sigma_(i beta)(y2)) = omega(y2 y1) within summed tails, on 200 samples."""
    ctx = KMSContext(system, trace, beta, bound)
    rng = Random(seed)
    fibers = _small_fibers(system)

    def comparisons():
        for i in range(200):
            y1 = sample_element(rng, system, fibers)
            y2 = sample_element(rng, system, fibers)
            lhs = ctx.kms(y1 * y2.dynamics(complex(0.0, beta)))
            rhs = ctx.kms(y2 * y1)
            yield lhs.value, rhs.value, lhs.tail + rhs.tail + 1e-9, {"sample": i}

    return _compare("state:kms-condition", comparisons(),
                    samples=200, beta=beta, bound=bound, trace=trace.name)


def check_core_trace_property(
    system: ProductSystem,
    trace: TraceSpec,
    beta: float,
    bound: int = 1000,
    seed: int = 11,
) -> CheckReport:
    """omega(uv) = omega(vu) on the core, in 12 rounds.

    The commutation argument splits on whether the right indices of u
    and v agree on the meet component in each order, so the sampler
    drives all four agreement patterns and a meet-trivial fiber pair.
    Indices can disagree only on a meet g with N_g > 1, so a round
    aiming at a disagreement draws its pair from those.
    """
    ctx = KMSContext(system, trace, beta, bound)
    rng = Random(seed)
    sg = system.semigroup
    vals = TruncationSet(sg, 6 if sg.name == "nat-mult" else 4).values
    pairs = [(s, r) for s in vals for r in vals if s != sg.identity_value and r != sg.identity_value]
    coprime = [(s, r) for (s, r) in pairs if sg.glb(s, r) == sg.identity_value]
    if not coprime:
        return CheckReport("state:core-trace", True, {"skipped": True},
                           "no meet-trivial pairs in the window")
    ranked = [(s, r) for (s, r) in pairs if system.basis_count(sg.glb(s, r)) > 1]
    targets = [(False, False), (False, True), (True, False), (True, True)]
    # counted as the rounds run, so the report shows the final tally
    cases = {f"{a}/{b}": 0 for a, b in targets}

    def comparisons():
        for i in range(12):
            want = targets[i % 4]
            if i == 0:
                s, r = coprime[0]
            else:
                s, r = rng.choice(pairs if all(want) else ranked)
            g = sg.glb(s, r)
            ng = system.basis_count(g)
            ss, rr = sg.quotient(s, g), sg.quotient(r, g)

            def build_index(fiber_rest, match_digit, other_digit):
                digit = other_digit if match_digit else rng.randrange(ng)
                if not match_digit and ng > 1 and digit == other_digit:
                    digit = (digit + 1) % ng
                rest = rng.randrange(system.basis_count(fiber_rest))
                return digit, rest

            lg = rng.randrange(ng)
            jg = rng.randrange(ng)
            kg, krest = build_index(ss, want[0], lg)
            mg, mrest = build_index(rr, want[1], jg)
            k = system.index_map(g, ss, kg, krest)
            m = system.index_map(g, rr, mg, mrest)
            j = system.index_map(g, ss, jg, rng.randrange(system.basis_count(ss)))
            l = system.index_map(g, rr, lg, rng.randrange(system.basis_count(rr)))
            cases[f"{kg == lg}/{mg == jg}"] += 1

            u = NTElement(system, {(s, s, k): sample_vector(rng, system, s)}) + NTElement(
                system, {(s, s, j): sample_vector(rng, system, s)}
            )
            v = NTElement(system, {(r, r, m): sample_vector(rng, system, r)}) + NTElement(
                system, {(r, r, l): sample_vector(rng, system, r)}
            )
            a = ctx.omega(u * v)
            b = ctx.omega(v * u)
            yield a.value, b.value, a.tail + b.tail + 1e-9, {"round": i, "s": s, "r": r}

    return _compare("state:core-trace", comparisons(), rounds=12, beta=beta, trace=trace.name,
                    meet_trivial_pairs=len(coprime), cases=cases)


# -- ground states ------------------------------------------------------------


def check_ground(system: ProductSystem, trace: TraceSpec, seed: int = 23) -> CheckReport:
    """Ground state laws on 60 samples: unit value 1, positivity, and
    boundedness of z -> state(y sigma_z(y')) on the upper half plane."""
    unit_val = ground_state(system, trace, NTElement.unit(system))
    if unit_val.value != 1.0 or unit_val.tail != 0.0:
        return CheckReport("state:ground", False, {"unit_value": repr(unit_val.value)})

    rng = Random(seed)
    fibers = _small_fibers(system)
    e = system.identity_fiber()
    nonzero = 0
    worst_pos = 0.0
    for i in range(60):
        y = sample_element(rng, system, fibers)
        pos = ground_state(system, trace, y.adjoint() * y).value
        if abs(pos.imag) > 1e-9 or pos.real < -1e-9:
            return CheckReport(
                "state:ground", False, {"positivity": [pos.real, pos.imag], "sample": i}
            )
        worst_pos = min(worst_pos, pos.real)

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
        base = ground_state(system, trace, left * y2).value
        if abs(base) <= 1e-12:
            continue
        nonzero += 1
        ratio = system.weight(s) / system.weight(r)
        if ratio < 1.0:
            return CheckReport(
                "state:ground",
                False,
                {"sample": i, "s": s, "r": r},
                "nonzero corner value with a contracting monomial",
            )
        z = complex(rng.uniform(-2, 2), rng.uniform(0, 3))
        shifted = ground_state(system, trace, left * y2.dynamics(z)).value
        expect = abs(cmath.exp(1j * z * math.log(ratio))) * abs(base)
        if abs(abs(shifted) - expect) > 1e-9 * max(1.0, abs(base)):
            return CheckReport(
                "state:ground",
                False,
                {"sample": i, "got": abs(shifted), "expected": expect},
                "modulus under the complexified dynamics",
            )
        if abs(shifted) > abs(base) + 1e-9:
            return CheckReport(
                "state:ground",
                False,
                {"sample": i, "shifted": abs(shifted), "base": abs(base)},
                "not bounded on the upper half plane",
            )
    if nonzero < 6:
        return CheckReport(
            "state:ground", False, {"nonzero_cases": nonzero},
            "sampler produced too few nonzero corner values to be conclusive",
        )
    return CheckReport(
        "state:ground", True,
        {"samples": 60, "nonzero_cases": nonzero, "min_positivity": worst_pos,
         "trace": trace.name},
    )


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

    Requires the final beta to sit within 1e-4 of the ground value on
    ten fixed core elements, with geometric shrinking along the way.
    """
    betas = (5.0, 10.0, 20.0)
    monomials = _limit_monomials(system)
    diffs = []
    for beta in betas:
        ctx = KMSContext(system, trace, beta, bound)
        step = [abs(ctx.kms(y).value - ground_state(system, trace, y).value) for y in monomials]
        diffs.append(step)
    final = max(diffs[-1])
    if final > 1e-4:
        return CheckReport(
            "state:ground-limit", False,
            {"final_max_diff": final, "betas": list(betas), "trace": trace.name},
        )
    floor = 1e-14
    for i in range(1, len(diffs)):
        for m in range(len(monomials)):
            prev, cur = diffs[i - 1][m], diffs[i][m]
            if prev > floor and cur > 0.5 * prev:
                return CheckReport(
                    "state:ground-limit", False,
                    {"monomial": m, "beta_from": betas[i - 1], "beta_to": betas[i],
                     "prev": prev, "cur": cur, "trace": trace.name},
                    "difference did not shrink geometrically",
                )
    return CheckReport(
        "state:ground-limit", True,
        {"final_max_diff": final, "betas": list(betas), "monomials": len(monomials),
         "trace": trace.name},
    )


def check_scaling_identity(
    system: ProductSystem,
    trace: TraceSpec,
    beta: float,
    bound: int = 1000,
) -> CheckReport:
    """omega(i_s(1_j a) i_s(1_l)*) = delta_(jl) N(s)^(-beta) omega(i_e(a)),
    exhaustively over the fibers up to 6, exactly zero off the diagonal.
    a runs over the generators and g g* of the first one, S S* or 1, whose
    haar moment is nonzero where those of the generators vanish."""
    ctx = KMSContext(system, trace, beta, bound)
    sg = system.semigroup
    vals = [v for v in TruncationSet(sg, 6).values if v != sg.identity_value]
    if sg.name == "nat-add":
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
                    for l in range(system.basis_count(s)):
                        y = NTElement(system, {(s, s, l): system.basis_vector(s, j, coeff=a)})
                        got = ctx.omega(y)
                        where = {"s": s, "j": j, "l": l}
                        if j != l:
                            yield got.value, 0.0, 0.0, where
                        else:
                            yield (got.value, scale * corner.value,
                                   got.tail + scale * corner.tail + 1e-12, where)

    return _compare("state:scaling-identity", comparisons(),
                    cases=len(gens) * sum(system.basis_count(s) ** 2 for s in vals),
                    beta=beta, trace=trace.name)


# -- euler product -------------------------------------------------------------


def check_euler(system: ProductSystem, beta: float = 3.0) -> CheckReport:
    """Euler form of the normalising series for power-profile systems:
    the product over primes up to 10^4 against the series up to 10^6."""
    kind, d = system.profile
    if kind != "power" or system.semigroup.name != "nat-mult":
        return CheckReport(
            "state:euler-product", True, {"skipped": True},
            f"not applicable to the {kind} profile",
        )
    exponent = d * (beta - 1.0)
    prime_bound, series_bound = 10**4, 10**6
    prod = euler_product(exponent, prime_bound)
    series = zeta_series(system, beta, series_bound)
    gap = abs(prod - series.value.real)
    allowed = euler_truncation_gap(exponent, prime_bound, series_bound)
    return CheckReport(
        "state:euler-product",
        gap <= max(allowed, 1e-3),
        {"gap": gap, "allowed": allowed, "product": prod, "series": series.value.real,
         "beta": beta, "prime_bound": prime_bound, "series_bound": series_bound},
    )


# -- reconstruction -------------------------------------------------------------


def lambda_weight(
    system: ProductSystem, trace: TraceSpec, beta: float, s: int, a: CoefficientElement
) -> complex:
    """N(s)^(-beta) tau(W_s(a)), the fiber weight of a coefficient."""
    return system.weight(s) ** (-beta) * trace.eval(system.fiber_trace(s, a))


def inclusion_exclusion_residual(fprimes: tuple[int, ...], lam: dict[int, complex]) -> complex:
    """The alternating identity over the join closure of the prime set.

    sum over nonempty J of lam[p_J] plus the signed double sum must
    cancel exactly for any weights; a nonzero residual means the closure
    or the divisibility bookkeeping is wrong.
    """
    ps = tuple(sorted(fprimes))
    subsets = []
    for mask in range(1, 1 << len(ps)):
        sub = [p for i, p in enumerate(ps) if mask & (1 << i)]
        prod = math.prod(sub)
        subsets.append((len(sub), prod))
    closure = sorted({prod for _, prod in subsets})
    first = sum(lam[p] for _, p in subsets)
    second = 0.0 + 0.0j
    for size, pj in subsets:
        inner = sum(lam[s] for s in closure if s % pj == 0)
        second += (-1.0) ** size * inner
    return first + second


def check_inclusion_exclusion(
    system: ProductSystem, beta: float = 4.0, seed: int = 31
) -> CheckReport:
    """Residual of the alternating identity on 50 samples of coefficient
    data, within 1e-9."""
    if system.semigroup.name != "nat-mult" or system.engine.degree_dim == 0:
        return CheckReport(
            "reconstruct:inclusion-exclusion", True, {"skipped": True},
            "needs a graded engine over nat-mult",
        )
    rng = Random(seed)
    # counted as the samples run, so the report shows the final tally
    sizes = {1: 0, 2: 0, 3: 0}

    def residuals():
        for i in range(50):
            k = 1 + i % 3
            ps = tuple(sorted(rng.sample((2, 3, 5), k)))
            sizes[k] += 1
            d = math.prod(ps) * rng.choice((1, 1, 2))
            if system.engine.tag == "toeplitz":
                extra = rng.randint(0, 2)
                a = CoefficientElement.monomial(system.engine, (d + extra, extra), _gauss_int(rng))
            else:
                gamma = [0] * system.engine.d
                gamma[rng.randrange(system.engine.d)] = d * rng.choice((1, -1))
                a = CoefficientElement.monomial(system.engine, tuple(gamma), _gauss_int(rng))
            # the angle(s) come before the 2-way choice, and only the kept trace is built
            theta = (rng.uniform(0, 6) if system.engine.degree_dim == 1
                     else tuple(rng.uniform(0, 6) for _ in range(system.engine.d)))
            if rng.choice((False, True)):
                trace = point_mass_trace(system.engine, theta)
            else:
                trace = haar_trace(system.engine)
            needed = set()
            for mask in range(1, 1 << len(ps)):
                needed.add(math.prod(p for n, p in enumerate(ps) if mask & (1 << n)))
            lam = {s: lambda_weight(system, trace, beta, s, a) for s in needed}
            yield (inclusion_exclusion_residual(ps, lam), 0.0, 1e-9,
                   {"primes": list(ps), "sample": i})

    return _compare("reconstruct:inclusion-exclusion", residuals(),
                    samples=50, sizes=sizes, beta=beta)


@dataclass
class ReconstructionResult:
    applicable: bool
    value: Optional[complex]
    expected: complex
    error: Optional[float]
    fprimes: tuple[int, ...]
    reason: str = ""


def _monomial_gcd(engine, mon: tuple) -> int:
    deg = engine.degree(mon)
    return math.gcd(*(abs(c) for c in deg)) if deg else 0


def reconstruct_trace(
    system: ProductSystem,
    trace: TraceSpec,
    beta: float,
    bound: int,
    a: CoefficientElement,
) -> ReconstructionResult:
    """Recover tau(a) from the KMS state by prime inclusion-exclusion.

    zeta * sum over J subsets of the degree primes of (-1)^|J| omega(
    i_e(a) alpha_(p_J)(1)) kills every fiber contribution except the
    identity one, leaving tau(a).  Elements with a zero-degree monomial
    other than a unit multiple contribute to every fiber at once, so no
    finite prime set works and the result is marked not applicable.
    """
    expected = trace.eval(a)
    if a.is_unit_multiple():
        weight = a.terms.get(a.engine.unit(), 0.0 + 0.0j)
        return ReconstructionResult(True, weight, expected, abs(weight - expected), ())
    degs = [_monomial_gcd(a.engine, mon) for mon in a.terms]
    if any(g == 0 for g in degs):
        return ReconstructionResult(
            False, None, expected, None, (),
            "zero-degree monomial present: every fiber weight is nonzero",
        )
    fprimes = sorted({p for g in degs for p in _prime_factors(g)})
    ctx = KMSContext(system, trace, beta, bound)
    x = NTElement.embed_coeff(system, a)
    total = 0.0 + 0.0j
    for mask in range(1 << len(fprimes)):
        pj = math.prod(p for i, p in enumerate(fprimes) if mask & (1 << i))
        sign = -1.0 if bin(mask).count("1") % 2 else 1.0
        y = (x * unit_projection(system, pj)).core_expectation()
        total += sign * ctx.omega(y).value
    value = ctx.zeta * total
    return ReconstructionResult(
        True, value, expected, abs(value - expected), tuple(fprimes)
    )


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    m = n
    for p in primes_up_to(max(2, int(n**0.5) + 1)) + (n,):
        if p < 2:
            continue
        while m % p == 0:
            out.append(p)
            m //= p
        if m == 1:
            break
    if m > 1:
        out.append(m)
    return tuple(sorted(set(out)))


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


def check_reconstruction(
    system: ProductSystem,
    trace: TraceSpec,
    beta: float = 4.0,
    bound: int = 10**4,
) -> CheckReport:
    """Recover tau on the degree-graded monomial family, within 1e-2."""
    if system.semigroup.name != "nat-mult" or system.engine.degree_dim == 0:
        return CheckReport(
            "reconstruct:trace-recovery", True, {"skipped": True},
            "needs a graded engine over nat-mult",
        )
    family = reconstruction_monomials(system.engine)

    def recoveries():
        for a in family:
            res = reconstruct_trace(system, trace, beta, bound, a)
            # every member is applicable by construction; one that is not
            # has no value and fails as a NaN deviation
            got = math.nan if res.value is None else res.value
            yield got, res.expected, 1e-2, {"monomial": repr(a)}

    return _compare("reconstruct:trace-recovery", recoveries(), monomials=len(family),
                    trace=trace.name, beta=beta, bound=bound)


# -- Fock oracle ------------------------------------------------------------------
# The oracle needs a scalar engine: run_suites schedules these checks only
# there, and TruncatedFock raises ValueError on any other.


def _fock_fibers(fock: TruncatedFock) -> tuple[int, ...]:
    """Low fibers worth sampling: small ranks, identity included."""
    e = fock.system.semigroup.identity_value
    small = [v for v in fock.trunc.values if fock.system.basis_count(v) <= 8]
    return tuple(small[:4]) if len(small) > 1 else (e,)


def check_fock_product(system: ProductSystem, seed: int = 41) -> CheckReport:
    """Compressed products match products of compressions on interior
    columns within 1e-12, on 100 pairs in the window up to 5."""
    fock = TruncatedFock(system, 5)
    rng = Random(seed)
    fibers = _fock_fibers(fock)
    worst = 0.0
    used = 0
    for _ in range(100):
        x = sample_element(rng, system, fibers)
        y = sample_element(rng, system, fibers)
        defect, cols = fock.product_defect(x, y)
        if cols == 0:
            continue
        used += 1
        worst = max(worst, defect)
        if defect > 1e-12:
            return CheckReport(
                "fock:representation-multiplicative", False,
                {"defect": defect, "tolerance": 1e-12, "columns": cols},
            )
    if used < 50:
        return CheckReport(
            "fock:representation-multiplicative", False,
            {"informative_pairs": used},
            "too many samples had no interior columns",
        )
    return CheckReport(
        "fock:representation-multiplicative", True,
        {"pairs": used, "worst_defect": worst, "dim": fock.dim, "bound": 5},
    )


def check_fock_state(system: ProductSystem, beta: float = 3.0, seed: int = 43) -> CheckReport:
    """The Gibbs diagonal sum over the window up to 5 equals the series
    state within 1e-12, on 25 samples."""
    bound = 5
    fock = TruncatedFock(system, bound)
    ctx = KMSContext(system, identity_trace(), beta, bound)
    rng = Random(seed)
    fibers = _fock_fibers(fock)

    def comparisons():
        for i in range(25):
            y = sample_element(rng, system, fibers, core=(i % 2 == 0))
            yield fock.state_value(y, beta), ctx.kms(y).value, 1e-12, {"sample": i}

    return _compare("fock:state-agreement", comparisons(),
                    samples=25, dim=fock.dim, beta=beta, bound=bound)


def check_fock_nica(system: ProductSystem, seed: int = 47) -> CheckReport:
    """Rank-one operators compose through the join fiber in the oracle
    within 1e-12, on 20 samples in the window up to 5."""
    fock = TruncatedFock(system, 5)
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
    theta = 0.7 if system.engine.degree_dim == 1 else tuple(
        0.7 for _ in range(system.engine.degree_dim)
    )
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
    traces = traces if traces is not None else default_traces(system)

    # the structure laws time themselves; every other check is timed here
    reports = structure_reports(system) if "structure" in wanted else []
    tasks: list[Callable[[], CheckReport]] = []
    if "structure" in wanted:
        tasks.append(lambda: check_projection_covariance(system))
        tasks.append(lambda: check_corner_center(system))
        if system.engine.tag == "scalar":
            tasks.append(lambda: check_fock_product(system, seed=seed))
            tasks.append(lambda: check_fock_state(system, beta=max(beta, 2.0), seed=seed))
            tasks.append(lambda: check_fock_nica(system, seed=seed))
    if "kms" in wanted:
        for t in traces:
            tasks.append(lambda t=t: check_kms_condition(system, t, beta, bound, seed=seed))
            tasks.append(lambda t=t: check_scaling_identity(system, t, beta, bound))
    if "trace" in wanted:
        for t in traces:
            tasks.append(lambda t=t: check_core_trace_property(system, t, beta, bound, seed=seed))
    if "ground" in wanted:
        for t in traces:
            tasks.append(lambda t=t: check_ground(system, t, seed=seed))
            tasks.append(lambda t=t: check_ground_limit(system, t, bound=bound))
    if "reconstruct" in wanted:
        tasks.append(lambda: check_inclusion_exclusion(system, beta=max(beta, 4.0), seed=seed))
        for t in traces:
            tasks.append(
                lambda t=t: check_reconstruction(system, t, beta=max(beta, 4.0),
                                                 bound=max(bound, 100))
            )
    if "euler" in wanted:
        tasks.append(lambda: check_euler(system, beta=max(beta, 3.0)))

    return reports + [_timed(fn) for fn in tasks]
