"""KMS and ground states on the Nica-Toeplitz algebra from trace data.

For an inverse temperature beta above the critical exponent of the
scaling map N, the Gibbs construction over a truncation window T(B) is

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
function of tau.  Evaluation therefore loops over divisors of the degree
instead of the whole window; the window enters only through cached
partial sums Z_r = sum_(r <= s) N(s)^(-beta) N_(s/r).  Writing s = r q
and using N(r q) = N(r) N(q),

    Z_r = N(r)^(-beta) * sum_(q in T(B/r)) N(q)^(-beta) N_q,

a partial sum of the zeta terms: the first floor(B/r) of them on nat-mult
and the first B - r + 1 on nat-add.  At most PREFIX_TERMS = 2^20 terms are
held.  A partial sum of n <= 2^20 terms is a slice sum over them; past the
held prefix, the prefix sum is completed in closed form, by Euler-Maclaurin
with six Bernoulli terms on the power profile (terms s^(-a), a = p(beta-1))
and by the geometric sum on the geometric one (terms x^n, x = k^(1-beta)).
So a window of any size costs the same time and memory.  A literal
evaluator that walks every fiber basis vector symbolically, within the
held prefix, is kept as a slow cross-check.

Dropped series tails are bounded in closed form: each term beyond the
window contributes at most N(s)^(-beta) N_s times the coordinate
one-norm, so the reported tail is the zeta tail bound, plus the
Euler-Maclaurin remainder bound on windows past the prefix, scaled by
the total one-norm over zeta.  The zero-degree moment is pinned to
exactly 1.0, and the identity partial sum is the same computation as
zeta, so the state of the unit is exactly 1.0, not 1.0 up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeff import TraceSpec
from .nt import NTElement, TermBudgetExceeded, get_term_budget
from .product_system import ProductSystem
from .semigroup import TruncationSet, tail_bound

__all__ = [
    "StateValue",
    "KMSContext",
    "ground_state",
    "zeta_series",
    "euler_product",
    "euler_truncation_gap",
    "primes_up_to",
]


@dataclass(frozen=True)
class StateValue:
    """A state evaluation with its truncation certificate.

    ``tail`` bounds the modulus of the dropped series remainder.
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


# The zeta terms held in memory: the smallest power of two that keeps the
# 10^6-term window of the euler-product check on the direct slice sums.
PREFIX_TERMS = 2**20

# B_2k / (2k)! for k = 1..6, and 2 zeta(12) / (2 pi)^12 = |B_12| / 12!,
# which bounds the periodic Bernoulli function in the remainder integral.
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                    -691 / 1307674368000)
_EULER_MACLAURIN_REMAINDER = abs(_EULER_MACLAURIN[-1])


def _zeta_terms(system: ProductSystem, beta: float, bound: int) -> np.ndarray:
    """N(s)^(-beta) * N_s for the first min(PREFIX_TERMS, window size) elements
    s = e, e + 1, ... up to bound, in overflow-safe closed form."""
    kind, p = system.scaling.profile
    e = system.identity_fiber()
    last = min(bound, e + PREFIX_TERMS - 1)
    svals = np.arange(e, last + 1, dtype=np.int64).astype(float)
    if kind == "power":
        return svals ** (p * (1.0 - beta))
    if kind == "geometric":
        return np.exp((1.0 - beta) * math.log(p) * svals)
    raise ValueError(f"no closed-form series for the scaling profile {system.scaling.profile!r}")


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
    sum, with no error term; the whole prefix is prefix_sum, its sum
    computed once; beyond it the prefix sum plus the closed form of the
    rest.
    """
    m = len(prefix)
    if n < m:
        return float(np.sum(prefix[: max(n, 0)])), 0.0
    if n == m:
        return prefix_sum, 0.0
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
    zeta, err = _partial_sum(system.scaling.profile, beta, terms, prefix_sum, trunc.size)
    return trunc, terms, prefix_sum, zeta, tail_bound(system.scaling, beta, bound) + err


class KMSContext:
    """A KMS_beta state over a fixed system, trace and truncation window."""

    def __init__(self, system: ProductSystem, trace: TraceSpec, beta: float, bound: int):
        if trace.engine.tag != system.engine.tag or trace.engine.degree_dim != system.engine.degree_dim:
            raise ValueError("trace is over a different coefficient engine")
        self.system = system
        self.trace = trace
        self.beta = float(beta)
        self.bound = int(bound)
        self.trunc, self._zeta_terms, self._prefix_sum, self.zeta, self.zeta_tail = _series(
            system, self.beta, self.bound)
        self._z_cache: dict[int, float] = {}

    # -- series building blocks ------------------------------------------

    def weight_pow(self, v: int) -> float:
        """N(v)^(-beta) in the same closed form as the zeta terms."""
        kind, p = self.system.scaling.profile
        if kind == "power":
            return float(v) ** (-self.beta * p)
        return math.exp(-self.beta * math.log(p) * v)

    def z_value(self, r: int) -> float:
        """Z_r = sum over window elements s = r q of N(s)^(-beta) N_q.

        N(r)^(-beta) times the sum of the first n zeta terms (see the
        module docstring): a slice sum over the held 2^20-term prefix
        when n fits in it, else the prefix sum plus the closed-form rest.
        0.0 when r lies beyond the window.  Z_e is computed exactly as
        zeta is, so it is bitwise zeta.
        """
        out = self._z_cache.get(r)
        if out is None:
            sg = self.system.semigroup
            n = self.bound // r if sg.is_multiplicative else self.bound - r + 1
            total, _ = _partial_sum(
                self.system.scaling.profile, self.beta, self._zeta_terms, self._prefix_sum, n
            )
            out = self.weight_pow(r) * total
            self._z_cache[r] = out
        return out

    # -- evaluation ----------------------------------------------------------

    def omega(self, y: NTElement) -> StateValue:
        """The state on a core element, by the degree fast path."""
        if y.system is not self.system:
            raise ValueError("element is over a different product system")
        sg = self.system.semigroup
        eng = self.system.engine
        total = 0.0 + 0.0j
        mass = 0.0
        scanned = 0
        for (s, r, l), vec in y.sorted_terms():
            if s != r:
                raise ValueError(
                    "omega is defined on the core; use kms() for general elements"
                )
            a = vec.entries.get(l)
            if a is None:
                continue
            mass += a.one_norm()
            for mon, w in a.sorted_terms():
                deg = eng.degree(mon)
                if not any(deg):
                    total += w * self.z_value(r)
                    continue
                g = math.gcd(*(abs(c) for c in deg))
                # only the divisors q with r*q in the window contribute
                limit = self.bound // r if sg.is_multiplicative else self.bound - r
                # the divisor scans of one evaluation share the raw-work cap
                scanned += min(limit, math.isqrt(g))
                if scanned > get_term_budget():
                    raise TermBudgetExceeded(
                        f"the divisor scans of this evaluation reach {scanned} trial divisions "
                        f"at degree {g}, past the raw-work cap ({get_term_budget()}); raise the "
                        "budget or shrink the window")
                for q in _divisors(g, limit):
                    rq = sg.mul(r, q)
                    total += (
                        w
                        * self.weight_pow(rq)
                        * self.system.weight(q)
                        * self.trace.moment(tuple(c // q for c in deg))
                    )
        value = total / self.zeta
        return StateValue(value, self.zeta_tail * mass / self.zeta, self.bound)

    def omega_literal(self, y: NTElement) -> StateValue:
        """The defining double sum, walking fiber bases symbolically.

        Quadratic in the window size; kept as an independent cross-check
        of the degree fast path.  It reads every zeta term, so it refuses
        windows longer than the held prefix.
        """
        if y.system is not self.system:
            raise ValueError("element is over a different product system")
        if self.trunc.size > len(self._zeta_terms):
            raise ValueError(
                f"omega_literal walks at most PREFIX_TERMS = {PREFIX_TERMS} window "
                f"elements; bound {self.bound} has {self.trunc.size}"
            )
        sys = self.system
        sg = sys.semigroup
        total = 0.0 + 0.0j
        mass = 0.0
        for (rs, r, l), vec in y.sorted_terms():
            if rs != r:
                raise ValueError(
                    "omega is defined on the core; use kms() for general elements"
                )
            mass += vec.entries[l].one_norm() if l in vec.entries else 0.0
        for i, s in enumerate(self.trunc):
            w_s = float(self._zeta_terms[i]) / sys.weight(s)  # N(s)^(-beta)
            for j in range(sys.basis_count(s)):
                probe = sys.basis_vector(s, j)
                acc = 0.0 + 0.0j
                for (_, r, l), vec in y.sorted_terms():
                    if not sg.leq(r, s):
                        continue
                    q = sg.quotient(s, r)
                    jr, jq = sys.index_split(r, q, j)
                    if jr != l:
                        continue
                    image = sys.module_product(vec, sys.basis_vector(q, jq))
                    acc += self.trace.eval(probe.inner(image))
                total += w_s * acc
        value = total / self.zeta
        return StateValue(value, self.zeta_tail * mass / self.zeta, self.bound)

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
    closed form, so every window costs the same.
    """
    value, tail = _series(system, beta, bound)[3:]
    return StateValue(complex(value), tail, bound)


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


def _divisors(n: int, limit: int) -> list[int]:
    """The divisors of n >= 1 that are at most limit, ascending.

    Trial division runs to min(limit, isqrt(n)): past isqrt(n) only the
    cofactors n // d of smaller divisors d remain.  KMSContext.omega
    charges that scan length to the term budget before it calls this.
    """
    scan = min(limit, math.isqrt(n))
    low = [d for d in range(1, scan + 1) if n % d == 0]
    high = [n // d for d in reversed(low) if d * d != n and n // d <= limit]
    return low + high
