"""KMS and ground states on the Nica-Toeplitz algebra from trace data.

The dynamics scales i_s(xi) by N(s)^(it), where N(s) = N_s is the fiber
rank (``ProductSystem.weight``).  For an inverse temperature beta above
the critical exponent of N, the Gibbs construction over a truncation
window T(B) is

    omega(y) = (1/zeta) * sum_(s in T(B)) N(s)^(-beta)
               * sum_(j < N_s) tau(<1_j, y . 1_j>),

    zeta     = sum_(s in T(B)) N(s)^(-beta) * N_s,

a state on the core; composing with the core expectation extends it to
the whole algebra and the result satisfies the KMS_beta condition for
the scaling dynamics.  The inner sum telescopes: a canonical core term
i_r(xi) i_r(1_l)* meets the fiber at s = r q through the fiberwise trace

    W_q(a) = sum_j L_q(a)[j, j],    tau(W_q(a)) summed over coordinates,

and on the built-in systems tau(W_q(mon)) = N_q * c(deg(mon) / q) when q
divides the degree componentwise and 0 otherwise, where c is the moment
function of tau (``reconstruct:inclusion-exclusion`` checks it against the
left action).  Evaluation therefore loops over the divisors of the degree,
from ``factor``, whose trial divisions the term budget counts, not over the
window, which enters only through cached partial sums Z_r = sum_(r <= s)
N(s)^(-beta) N_(s/r).  Writing s = r q and using N(r q) = N(r) N(q),

    Z_r = N(r)^(-beta) * sum_(q in T(B/r)) N(q)^(-beta) N_q,

a partial sum of the zeta terms: the first floor(B/r) of them on nat-mult
and the first B - r + 1 on nat-add.  At most PREFIX_TERMS = 2^12 terms are
held, in one float64 buffer (32 KB) that is filled in place.  A partial
sum of n <= 2^12 terms is a slice sum over them; past the held prefix,
the prefix sum is completed in closed form, by Euler-Maclaurin with six
Bernoulli terms on the power profile (terms s^(-a), a = p(beta-1)) and
by the geometric sum on the geometric one (terms x^n, x = k^(1-beta)).
So a window of any size costs the same time and memory.  There is one
literal evaluator, ``omega_literal``: the Gibbs diagonal sum of the Fock
oracle under the same trace, kept as a slow cross-check on windows of up
to FOCK_DIMENSION_CAP basis vectors.

A core element is its own core expectation, so ``kms`` reads it with no
copy, and ``omega`` reads a diagonal coefficient of one monomial in
place, with no one-norm sum and no sort.  Both keep the summation
order, so every value and tail is the same to the bit as without them.

This module alone holds the closed forms of the system's ``profile``:
N(s)^(-beta) N_s as s^(d(1-beta)) on ("power", d) and k^((1-beta)n) on
("geometric", k), their partial sums and their tails.

Dropped series tails are bounded in closed form: each term beyond the
window contributes at most N(s)^(-beta) N_s times the coordinate
one-norm, so the reported tail is the zeta tail bound, plus the
Euler-Maclaurin remainder bound on windows past the prefix, scaled by
the total one-norm over zeta.  Every tail also counts the rounding of
the held sums (``rounding_radius``).  The zero-degree moment is pinned to
exactly 1.0, and the identity partial sum is the same computation as
zeta, so the state of the unit is exactly 1.0, not 1.0 up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeff import TraceSpec
from .fock import TruncatedFock
from .nt import NTElement, TermBudgetExceeded, get_term_budget
from .product_system import ProductSystem
from .semigroup import TruncationSet

__all__ = [
    "StateValue",
    "KMSContext",
    "ground_state",
    "zeta_series",
    "euler_product",
    "euler_truncation_gap",
    "primes_up_to",
    "tail_bound",
    "rounding_radius",
]


@dataclass(frozen=True)
class StateValue:
    """A state evaluation with its truncation certificate.

    ``tail`` bounds the modulus of the dropped series remainder plus the
    rounding of the held sums.
    """

    value: complex
    tail: float
    truncation: int

    def as_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "tail": self.tail,
            "truncation": self.truncation,
        }

    def __complex__(self):
        return complex(self.value)


# The zeta terms held in memory.  Past 2^12 terms the closed forms are
# exact to rounding: the Euler-Maclaurin remainder at m = 2^12 is below
# 1e-45 of zeta at every beta above the critical exponent.
PREFIX_TERMS = 2**12

# B_2k / (2k)! for k = 1..6, and 2 zeta(12) / (2 pi)^12 = |B_12| / 12!,
# which bounds the periodic Bernoulli function in the remainder integral.
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                    -691 / 1307674368000)
_EULER_MACLAURIN_REMAINDER = abs(_EULER_MACLAURIN[-1])

# The rounded operations that rounding_radius does not count one by one,
# and the factor that rounds a bound of a few operations up.
_UNCOUNTED_OPERATIONS = 64
_UP = 1.0 + 2.0**-50


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2^-53, the relative error bound of n rounded
    operations (Higham, Accuracy and Stability of Numerical Algorithms, section 3)."""
    return n * 2.0**-53 / (1.0 - n * 2.0**-53)


def rounding_radius(mass: float, held: int, accumulated: int = 0) -> float:
    """mass * gamma_(held + accumulated + 64), rounded up: a bound on the
    rounding error of a sum of ``accumulated`` terms, each a product of a
    few rounded factors (weight, N(v)^(-beta) by pow or exp, fiber rank,
    moment, quotient by zeta) and of partial sums of ``held`` held terms
    in all, completed past the prefix in about 25 operations.

    A product of k rounded factors errs by gamma_k relatively and a sum of
    n terms by gamma_(n-1) times the sum of their moduli, recursively or
    pairwise (Higham, Accuracy and Stability of Numerical Algorithms,
    Lemma 3.3 and section 4.2); 64 covers the factors and closed forms.
    The moduli sum to at most mass: zeta for zeta, whose terms are
    positive, and the coefficient one-norm for a state value, whose terms
    over zeta are weights times Z_r / zeta or one zeta term over zeta,
    times moments of modulus at most 1, with |Z_r| <= zeta.  Exponents of
    pow and exp count as exact: the moment phase and log(k) times a large
    degree round further.  The factor 1 + 2^-50 rounds up; 0 stays 0.
    """
    return mass * _gamma(held + accumulated + _UNCOUNTED_OPERATIONS) * _UP


def tail_bound(profile: tuple[str, int], beta: float, bound: int) -> float:
    """Bound sum of N(s)**(-beta) * N_s over elements beyond ``bound``.

    For the power profile (weights s**d on nat-mult) the integral test
    gives bound**(d*(1-beta)+1) / (d*(beta-1)-1).  For the geometric
    profile (weights k**n on nat-add) the geometric series starting at
    ``bound`` gives k**((1-beta)*bound) / (1 - k**(1-beta)); starting at
    the bound rather than just past it keeps the estimate an over-count.
    Any other profile is a ``ValueError``.
    """
    kind, p = profile
    if kind == "power":
        if p * (beta - 1.0) <= 1.0:
            raise ValueError(f"beta = {beta} is at or below the critical exponent {1 + 1 / p}")
        return bound ** (p * (1.0 - beta) + 1.0) / (p * (beta - 1.0) - 1.0)
    if kind == "geometric":
        ratio = float(p) ** (1.0 - beta)
        if ratio >= 1.0:
            raise ValueError(f"beta = {beta} is at or below the critical exponent 1")
        return ratio**bound / (1.0 - ratio)
    raise ValueError(f"no closed-form tail bound for the scaling profile {profile!r}")


def _zeta_terms(system: ProductSystem, beta: float, bound: int) -> np.ndarray:
    """N(s)^(-beta) * N_s for the first min(PREFIX_TERMS, window size) elements
    s = e, e + 1, ... up to bound, in overflow-safe closed form.

    One float64 buffer holds s and is overwritten by its term in place.
    """
    kind, p = system.profile
    e = system.identity_fiber()
    buf = np.arange(e, min(bound, e + PREFIX_TERMS - 1) + 1, dtype=float)
    if kind == "power":
        return np.power(buf, p * (1.0 - beta), out=buf)
    if kind == "geometric":
        return np.exp(np.multiply(buf, (1.0 - beta) * math.log(p), out=buf), out=buf)
    raise ValueError(f"no closed-form series for the scaling profile {system.profile!r}")


def _closed_form_sum(profile: tuple[str, int], beta: float, m: int, n: int) -> tuple[float, float]:
    """The zeta terms numbered m, ..., n - 1 from 0, summed in closed form,
    and a bound on the error of that closed form.

    Geometric profile: the terms are x^i with x = k^(1-beta), summing to
    x^m (1 - x^(n-m)) / (1 - x), exactly.  Power profile: the terms are
    f(s) = s^(-a) for s = m + 1, ..., n with a = p(beta - 1), summed by
    Euler-Maclaurin with six Bernoulli terms (DLMF 2.10.1); the remainder
    is at most 2 zeta(12) / (2 pi)^12 * |f^(11)(m)|, as f^(12) keeps one
    sign.  The integral goes through expm1 so that it does not cancel
    near the critical exponent, where a - 1 is small.
    """
    kind, p = profile
    if kind == "geometric":
        lx = (1.0 - beta) * math.log(p)
        return math.exp(lx * m) * math.expm1(lx * (n - m)) / math.expm1(lx), 0.0
    a = p * (beta - 1.0)
    fm, fn = float(m) ** -a, float(n) ** -a
    total = float(m) ** (1.0 - a) * math.expm1((1.0 - a) * math.log(n / m)) / (1.0 - a)
    total += 0.5 * (fn - fm)
    # f^(2k-1)(x) = -(a)_(2k-1) x^(-a-2k+1), with the rising factorial (a)_j
    rising = a
    for k, c in enumerate(_EULER_MACLAURIN, start=1):
        total += c * rising * (fm * float(m) ** (1 - 2 * k) - fn * float(n) ** (1 - 2 * k))
        rising *= (a + 2 * k - 1) * (a + 2 * k)
    # rising is now (a)_13, and |f^(11)(m)| = (a)_11 m^(-a-11)
    f11 = rising / ((a + 11) * (a + 12)) * fm * float(m) ** -11
    return total, _EULER_MACLAURIN_REMAINDER * f11


def _partial_sum(
    profile: tuple[str, int], beta: float, prefix: np.ndarray, prefix_sum: float, n: int
) -> tuple[float, float]:
    """The sum of the first n zeta terms and a bound on its closed-form error.

    Within the held prefix a plain sum over a slice, not a cumulative
    sum, with no error term; beyond it prefix_sum, the sum of the whole
    prefix computed once, plus the closed form of the rest.
    """
    m = len(prefix)
    if n <= m:
        return float(np.sum(prefix[: max(n, 0)])), 0.0
    rest, err = _closed_form_sum(profile, beta, m, n)
    return prefix_sum + rest, err


def _series(system: ProductSystem, beta: float,
            bound: int) -> tuple[TruncationSet, np.ndarray, float, float, float]:
    """The window up to bound, the held zeta terms, their sum, zeta over
    the window and its tail bound, for beta above the critical exponent."""
    if not beta > system.beta_c:
        raise ValueError(f"beta = {beta} must exceed the critical exponent {system.beta_c}")
    trunc = TruncationSet(system.semigroup, bound)  # rejects a bound below the identity
    terms = _zeta_terms(system, beta, bound)
    prefix_sum = float(np.sum(terms))
    zeta, err = _partial_sum(system.profile, beta, terms, prefix_sum, trunc.size)
    return trunc, terms, prefix_sum, zeta, tail_bound(system.profile, beta, bound) + err


class KMSContext:
    """A KMS_beta state over a fixed system, trace and truncation window."""

    def __init__(self, system: ProductSystem, trace: TraceSpec, beta: float, bound: int):
        if trace.engine != system.engine:
            raise ValueError("trace is over a different coefficient engine")
        self.system = system
        self.trace = trace
        self.beta = float(beta)
        self.bound = int(bound)
        self.trunc, self._zeta_terms, self._prefix_sum, self.zeta, self.zeta_tail = _series(
            system, self.beta, self.bound)
        self._z_cache: dict[int, float] = {}
        # omega at mass 0: the value 0j / zeta and the tail _value gives it
        self._zero = StateValue(0.0 + 0.0j, 0.0, self.bound)

    # -- series building blocks ------------------------------------------

    def _quotient_bound(self, r: int) -> int:
        """The largest q with r q in the window: the quotients of window
        elements by r form the window T(B/r), empty when r lies beyond."""
        return self.bound // r if self.system.semigroup.is_multiplicative else self.bound - r

    def weight_pow(self, v: int) -> float:
        """N(v)^(-beta) in the same closed form as the zeta terms."""
        kind, p = self.system.profile
        if kind == "power":
            return float(v) ** (-self.beta * p)
        return math.exp(-self.beta * math.log(p) * v)

    def z_value(self, r: int) -> float:
        """Z_r = sum over window elements s = r q of N(s)^(-beta) N_q.

        N(r)^(-beta) times the sum of the first n zeta terms, n the size
        of T(B/r) (see the module docstring): a slice sum over the held
        2^12-term prefix when n fits in it, else the prefix sum plus the
        closed-form rest.  0.0 when r lies beyond the window.  Z_e is
        computed exactly as zeta is, so it is bitwise zeta.
        """
        out = self._z_cache.get(r)
        if out is None:
            n = self._quotient_bound(r) - self.system.identity_fiber() + 1
            total, _ = _partial_sum(
                self.system.profile, self.beta, self._zeta_terms, self._prefix_sum, n
            )
            out = self.weight_pow(r) * total
            self._z_cache[r] = out
        return out

    # -- evaluation ----------------------------------------------------------

    def omega(self, y: NTElement) -> StateValue:
        """The state on a core element, by the degree fast path over its
        terms in key order.  With no diagonal coefficient (mass 0) it is
        the context's one held zero, the value and tail the sum would give."""
        if y.system is not self.system:
            raise ValueError("element is over a different product system")
        sg = self.system.semigroup
        eng = self.system.engine
        total = 0.0 + 0.0j
        mass = 0.0
        added = 0
        spent = 0  # the trial divisions of one evaluation share the raw-work cap
        terms = y.terms.items() if len(y.terms) < 2 else y.sorted_terms()
        for (s, r, l), vec in terms:
            if s != r:
                raise ValueError(
                    "omega is defined on the core; use kms() for general elements"
                )
            a = vec.entries.get(l)
            if a is None:
                continue
            if len(a.terms) == 1:
                # one monomial, read in place: abs(w) is its one-norm bitwise
                (mon, w), = a.terms.items()
                mass += abs(w)
                monomials = ((mon, w),)
            else:
                mass += a.one_norm()
                monomials = a.sorted_terms()
            for mon, w in monomials:
                deg = eng.degree(mon)
                if not any(deg):
                    total += w * self.z_value(r)
                    added += 1
                    continue
                g = math.gcd(*(abs(c) for c in deg))
                # only the divisors q with r*q in the window contribute
                divisors, _, spent = factor(g, self._quotient_bound(r), spent)
                added += len(divisors)
                for q in divisors:
                    total += (w * self.weight_pow(sg.mul(r, q)) * self.system.weight(q)
                              * self.trace.moment(tuple(c // q for c in deg)))
        if mass == 0.0:
            return self._zero
        # zeta and each Z_r sum the held terms
        return self._value(total / self.zeta, mass, 2 * len(self._zeta_terms), added)

    def omega_literal(self, y: NTElement) -> StateValue:
        """The defining double sum, read literally: the Fock oracle's Gibbs
        diagonal sum under this trace, on windows of up to
        FOCK_DIMENSION_CAP basis vectors.

        The tail is omega's truncation share plus a rounding radius.  Per
        column the oracle adds at most A products w * moment, A the
        monomials of the diagonal coefficients of y, then sums the N_s
        columns of each fiber s and the |T| fibers times N(s)^(-beta): terms
        whose moduli add up to at most |y|_1 zeta, as in omega.  Its
        normaliser sums |T| positive terms, so the quotient errs by at most
        |y|_1 gamma_(A + N_s + 2 |T| + c), c a few rounded factors, within
        rounding_radius(|y|_1, 2 dim, A) as N_s + |T| <= dim + 1.
        """
        if any(s != r for s, r, _ in y.terms):
            raise ValueError("omega is defined on the core; use kms() for general elements")
        diagonal = [vec.entries[l] for (_, _, l), vec in y.terms.items() if l in vec.entries]
        fock = TruncatedFock(self.system, self.bound)
        return self._value(fock.state_value(y, self.beta, self.trace),
                           sum(a.one_norm() for a in diagonal), 2 * fock.dim,
                           sum(len(a.terms) for a in diagonal))

    def _value(self, value: complex, mass: float, held: int, added: int) -> StateValue:
        """value with its tail: the truncation share plus the rounding radius
        of a sum of ``added`` terms and ``held`` held ones, rounded up; 0.0
        at once for a zero mass, where that formula gives 0.0 too."""
        if mass == 0.0:
            return StateValue(value, 0.0, self.bound)
        tail = self.zeta_tail * mass / self.zeta + rounding_radius(mass, held, added)
        return StateValue(value, tail * _UP, self.bound)

    def kms(self, y: NTElement) -> StateValue:
        """The KMS_beta state on a general element: omega after the core
        expectation."""
        return self.omega(y.core_expectation())

    def __repr__(self):
        return (
            f"KMSContext({self.system.name}, {self.trace.name}, "
            f"beta={self.beta}, bound={self.bound})"
        )


def ground_state(system: ProductSystem, trace: TraceSpec, y: NTElement) -> StateValue:
    """The beta -> infinity limit state: tau on the identity corner.

    Exact (no series), so the tail is zero.
    """
    e = system.identity_fiber()
    vec = y.terms.get((e, e, 0))
    value = 0.0 + 0.0j if vec is None else trace.eval(vec.entries[0])
    return StateValue(value, 0.0, 0)


def zeta_series(system: ProductSystem, beta: float, bound: int) -> StateValue:
    """The normalising series over the window, with its tail bound.

    Sums the held prefix of the terms and completes longer windows in
    closed form, so every window costs the same.  The tail adds the
    rounding radius of that sum to the truncation tail.
    """
    _, terms, _, value, tail = _series(system, beta, bound)
    return StateValue(complex(value), (tail + rounding_radius(value, len(terms))) * _UP, bound)


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> tuple[int, ...]:
    """Eratosthenes sieve."""
    if n < 2:
        return ()
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return tuple(int(p) for p in np.nonzero(flags)[0])


def euler_product(exponent: float, prime_bound: int) -> float:
    """prod over primes p <= prime_bound of (1 - p^(-exponent))^(-1).

    For the power-profile systems this is the Euler form of the full
    normalising series sum_s s^(-exponent) with exponent d*(beta-1); the
    product converges only for exponent > 1.
    """
    if not exponent > 1.0:
        raise ValueError("euler product needs exponent > 1")
    out = 1.0
    for p in primes_up_to(prime_bound):
        out /= 1.0 - float(p) ** (-exponent)
    return out


def euler_truncation_gap(exponent: float, prime_bound: int, series_bound: int) -> float:
    """Bound on |euler_product(a, P) - sum_(s <= B) s^(-a)|.

    The series tail beyond B contributes at most B^(1-a)/(a-1); the
    missing primes beyond P inflate the product by at most
    exp(2 * P^(1-a)/(a-1)) since -log(1-x) <= 2x for x <= 1/2.
    """
    a = exponent
    series_tail = float(series_bound) ** (1.0 - a) / (a - 1.0)
    prime_tail = float(prime_bound) ** (1.0 - a) / (a - 1.0)
    product = euler_product(a, prime_bound)
    return series_tail + product * (math.exp(2.0 * prime_tail) - 1.0)


def factor(n: int, limit: int, spent: int = 0) -> tuple[list[int], list[int], int]:
    """The divisors of n >= 1 up to limit, ascending, the primes among
    them, and spent plus the trial divisions made: p = 2, 3, ... divides
    the shrinking cofactor m while p^2 <= m (past that, m is 1 or prime)
    and p <= limit (no larger prime divides a divisor up to limit), and
    each trial is charged to the term budget as it is made."""
    budget, m, p, primes = get_term_budget(), n, 2, []
    divisors = [1] if limit >= 1 else []
    while p * p <= m and p <= limit:
        spent += 1
        if spent > budget:
            raise TermBudgetExceeded(
                f"the divisor scans of this evaluation reach {spent} trial divisions at degree "
                f"{n}, past the raw-work cap ({budget}); raise the budget or shrink the window")
        if m % p == 0:
            primes.append(p)
            base, pk = divisors, 1
            while m % p == 0:
                m, pk = m // p, pk * p
                divisors = divisors + [d * pk for d in base if d * pk <= limit]
        p += 1
    if 1 < m <= limit:
        primes.append(m)
        divisors += [d * m for d in divisors if d * m <= limit]
    return sorted(divisors), primes, spent
