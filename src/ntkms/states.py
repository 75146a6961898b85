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

a prefix of the zeta terms: the first floor(B/r) of them on nat-mult and
the first B - r + 1 on nat-add.  A literal evaluator that walks every
fiber basis vector symbolically is kept as a slow cross-check.

Dropped tails are bounded rigorously: each term beyond the window
contributes at most N(s)^(-beta) N_s times the coordinate one-norm, so
the reported tail is the zeta tail bound scaled by the total one-norm
over zeta.  The zero-degree moment is pinned to exactly 1.0, and the
identity partial sum is the same summation over the same array as zeta,
so the state of the unit is exactly 1.0, not 1.0 up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeff import TraceSpec
from .nt import NTElement
from .product_system import ProductSystem
from .semigroup import TailBound, TruncationSet, tail_bound

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

    ``tail`` bounds the modulus of the dropped series remainder;
    ``rigorous`` records whether the bound came from a closed form.
    """

    value: complex
    tail: float
    truncation: int
    rigorous: bool = True

    def as_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "tail": self.tail,
            "truncation": self.truncation,
        }

    def __complex__(self):
        return complex(self.value)


def _zeta_terms(system: ProductSystem, beta: float, bound: int) -> np.ndarray:
    """N(s)^(-beta) * N_s for s = e, ..., bound, in overflow-safe closed form."""
    kind, p = system.scaling.profile
    svals = np.arange(system.identity_fiber(), bound + 1, dtype=np.int64).astype(float)
    if kind == "power":
        return svals ** (p * (1.0 - beta))
    if kind == "geometric":
        return np.exp((1.0 - beta) * math.log(p) * svals)
    raise ValueError(f"no closed-form series for the scaling profile {system.scaling.profile!r}")


class KMSContext:
    """A KMS_beta state over a fixed system, trace and truncation window."""

    def __init__(self, system: ProductSystem, trace: TraceSpec, beta: float, bound: int):
        if trace.engine.tag != system.engine.tag or trace.engine.degree_dim != system.engine.degree_dim:
            raise ValueError("trace is over a different coefficient engine")
        if not beta > system.beta_c:
            raise ValueError(
                f"beta = {beta} must exceed the critical exponent {system.beta_c}"
            )
        self.system = system
        self.trace = trace
        self.beta = float(beta)
        self.bound = int(bound)
        self.trunc = TruncationSet(system.semigroup, self.bound)
        self._zeta_terms = _zeta_terms(system, self.beta, self.bound)
        self.zeta = float(np.sum(self._zeta_terms))
        self.zeta_tail: TailBound = tail_bound(
            system.scaling, system.weight, self.beta, self.bound
        )
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

        N(r)^(-beta) times a prefix of the zeta terms (see the module
        docstring); 0.0 when r lies beyond the window.  A plain sum over
        a slice, not a cumulative sum, so Z_e is bitwise zeta.
        """
        out = self._z_cache.get(r)
        if out is None:
            sg = self.system.semigroup
            n = self.bound // r if sg.is_multiplicative else self.bound - r + 1
            out = self.weight_pow(r) * float(np.sum(self._zeta_terms[: max(n, 0)]))
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
        for (s, r, l), vec in y.sorted_terms():
            if s != r:
                raise ValueError(
                    "omega is defined on the core; use kms() for general elements"
                )
            a = vec.coords[l]
            mass += a.one_norm()
            for mon, w in a.sorted_terms():
                deg = eng.degree(mon)
                if not any(deg):
                    total += w * self.z_value(r)
                    continue
                g = math.gcd(*(abs(c) for c in deg))
                for q in _divisors(g):
                    rq = sg.mul(r, q)
                    if rq not in self.trunc:
                        continue
                    total += (
                        w
                        * self.weight_pow(rq)
                        * self.system.weight(q)
                        * self.trace.moment(tuple(c // q for c in deg))
                    )
        value = total / self.zeta
        tail = float(self.zeta_tail) * mass / self.zeta
        return StateValue(value, tail, self.bound, rigorous=self.zeta_tail.rigorous)

    def omega_literal(self, y: NTElement) -> StateValue:
        """The defining double sum, walking fiber bases symbolically.

        Quadratic in the window size; kept as an independent cross-check
        of the degree fast path.
        """
        if y.system is not self.system:
            raise ValueError("element is over a different product system")
        sys = self.system
        sg = sys.semigroup
        total = 0.0 + 0.0j
        mass = 0.0
        for (rs, r, l), vec in y.sorted_terms():
            if rs != r:
                raise ValueError(
                    "omega is defined on the core; use kms() for general elements"
                )
            mass += vec.coords[l].one_norm()
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
        tail = float(self.zeta_tail) * mass / self.zeta
        return StateValue(value, tail, self.bound, rigorous=self.zeta_tail.rigorous)

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
    value = 0.0 + 0.0j if vec is None else trace.eval(vec.coords[0])
    return StateValue(value, 0.0, 0)


def zeta_series(system: ProductSystem, beta: float, bound: int) -> StateValue:
    """The normalising series over the window, with its tail bound.

    Uses the interval shape of the built-in cones directly, so very
    large windows stay cheap.
    """
    if not beta > system.beta_c:
        raise ValueError(f"beta = {beta} must exceed the critical exponent {system.beta_c}")
    TruncationSet(system.semigroup, bound)  # rejects a bound below the identity
    terms = _zeta_terms(system, beta, bound)
    tb = tail_bound(system.scaling, system.weight, beta, bound)
    return StateValue(complex(float(np.sum(terms))), float(tb), bound, rigorous=tb.rigorous)


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


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    out.sort()
    return out
