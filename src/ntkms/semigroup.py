"""Lattice-ordered semigroups underlying the truncated series engine.

Two instances are built in:

* ``nat-mult`` -- the positive integers 1, 2, 3, ... under multiplication,
  sitting inside the positive rationals.  The order is divisibility, the
  join is lcm and the meet is gcd.
* ``nat-add`` -- the nonnegative integers under addition, sitting inside
  the integers.  The order is the usual one, join is max, meet is min.

Both are positive cones of abelian lattice-ordered groups, so any two
elements have a join and a meet and these satisfy glb(s, r) * lub(s, r)
== s * r.  Elements of the enveloping group are never materialised;
everything downstream works with pairs of cone elements instead.

Elements are plain ``int`` values; a :class:`Semigroup` instance supplies
the operations on them.  Truncation windows are the intervals from the
identity up to a bound.

Scaling homomorphisms N : P -> (0, oo) drive the dynamics.  The default
one attached to each product system sends a fiber to its basis count, and
carries a profile tag so that series tails admit closed-form bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

__all__ = [
    "Semigroup",
    "TruncationSet",
    "ScalingHomomorphism",
    "NAT_MULT",
    "NAT_ADD",
    "tail_bound",
]


class Semigroup:
    """One of the two built-in lattice-ordered positive cones.

    Operations act on plain ``int`` values.
    """

    def __init__(self, name: str):
        if name not in ("nat-mult", "nat-add"):
            raise ValueError(f"unknown semigroup instance {name!r}")
        self.name = name
        self.is_multiplicative = name == "nat-mult"
        self.identity_value = 1 if self.is_multiplicative else 0

    def __repr__(self):
        return f"Semigroup({self.name!r})"

    def check_value(self, v: int) -> int:
        if not isinstance(v, int):
            raise TypeError(f"semigroup values are ints, got {type(v).__name__}")
        if self.is_multiplicative:
            if v < 1:
                raise ValueError(f"{v} is not a positive integer")
        elif v < 0:
            raise ValueError(f"{v} is not a nonnegative integer")
        return v

    def mul(self, s: int, r: int) -> int:
        return s * r if self.is_multiplicative else s + r

    def lub(self, s: int, r: int) -> int:
        return math.lcm(s, r) if self.is_multiplicative else max(s, r)

    def glb(self, s: int, r: int) -> int:
        return math.gcd(s, r) if self.is_multiplicative else min(s, r)

    def leq(self, s: int, r: int) -> bool:
        return r % s == 0 if self.is_multiplicative else s <= r

    def quotient(self, r: int, s: int) -> int:
        """The unique q with s * q == r; requires s <= r in the order."""
        if not self.leq(s, r):
            raise ValueError(f"{s} is not below {r} in {self.name}")
        return r // s if self.is_multiplicative else r - s


NAT_MULT = Semigroup("nat-mult")
NAT_ADD = Semigroup("nat-add")


@dataclass(frozen=True)
class TruncationSet:
    """The window {e, ..., bound} of the cone: an interval, so divisor-complete.

    Being an interval it also holds the meet of any two members, and
    their join whenever that is at most the bound.  Membership and size
    are arithmetic; the ascending tuple of members is built on first use
    only.
    """

    semigroup: Semigroup
    bound: int

    def __post_init__(self):
        if self.bound < self.semigroup.identity_value:
            raise ValueError(f"bound must be >= {self.semigroup.identity_value}")

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def size(self) -> int:
        """The number of members; unlike len(), not capped at sys.maxsize."""
        return self.bound - self.semigroup.identity_value + 1

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(range(self.semigroup.identity_value, self.bound + 1))

    def __contains__(self, v: int) -> bool:
        return self.semigroup.identity_value <= v <= self.bound


@dataclass(frozen=True)
class ScalingHomomorphism:
    """A multiplicative map N : P -> (0, oo) used by the dynamics.

    ``profile`` tags the closed-form family the map belongs to:

    * ``("power", d)`` on nat-mult: N(s) = s**d,
    * ``("geometric", k)`` on nat-add: N(n) = k**n.

    Series code handles only these two; :meth:`validate` checks the
    homomorphism laws of any map.
    """

    semigroup: Semigroup
    fn: Callable[[int], float]
    profile: tuple[str, int]
    name: str = "N"

    def of(self, v: int) -> float:
        return self.fn(v)

    def validate(self, trunc: TruncationSet) -> list[str]:
        """Check homomorphism law, positivity and injectivity on a window,
        to a relative 1e-12.

        Returns a list of human-readable violations (empty when clean).
        """
        sg = self.semigroup
        tol = 1e-12
        out = []
        if abs(self.of(sg.identity_value) - 1.0) > tol:
            out.append(f"N(e) = {self.of(sg.identity_value)} != 1")
        vals = trunc.values[: min(len(trunc), 64)]
        for s in vals:
            if self.of(s) <= 0:
                out.append(f"N({s}) = {self.of(s)} is not positive")
        for s in vals[:24]:
            for r in vals[:24]:
                lhs = self.of(sg.mul(s, r))
                rhs = self.of(s) * self.of(r)
                if abs(lhs - rhs) > tol * max(1.0, abs(rhs)):
                    out.append(f"N({s}*{r}) = {lhs} != N({s})N({r}) = {rhs}")
        seen: dict[float, int] = {}
        for s in trunc.values:
            x = self.of(s)
            if x in seen and seen[x] != s:
                out.append(f"N not injective: N({seen[x]}) == N({s}) == {x}")
                break
            seen[x] = s
        return out


def power_scaling(d: int = 1) -> ScalingHomomorphism:
    return ScalingHomomorphism(NAT_MULT, lambda s: float(s) ** d, ("power", d), f"s^{d}")


def geometric_scaling(k: int) -> ScalingHomomorphism:
    return ScalingHomomorphism(NAT_ADD, lambda n: float(k) ** n, ("geometric", k), f"{k}^n")


def tail_bound(scaling: ScalingHomomorphism, beta: float, bound: int) -> float:
    """Bound sum of N(s)**(-beta) * N_s over elements beyond ``bound``.

    For the power profile (weights s**d on nat-mult) the integral test
    gives bound**(d*(1-beta)+1) / (d*(beta-1)-1).  For the geometric
    profile (weights k**n on nat-add) the geometric series starting at
    ``bound`` gives k**((1-beta)*bound) / (1 - k**(1-beta)); starting at
    the bound rather than just past it keeps the estimate an over-count.
    Both closed forms take N_s to be the profile's own weight; any other
    profile is a ``ValueError``.
    """
    kind, p = scaling.profile
    if kind == "power":
        d = p
        if d * (beta - 1.0) <= 1.0:
            raise ValueError(
                f"beta = {beta} is at or below the critical exponent {1 + 1 / d}"
            )
        return bound ** (d * (1.0 - beta) + 1.0) / (d * (beta - 1.0) - 1.0)
    if kind == "geometric":
        k = p
        ratio = float(k) ** (1.0 - beta)
        if ratio >= 1.0:
            raise ValueError(f"beta = {beta} is at or below the critical exponent 1")
        return ratio**bound / (1.0 - ratio)
    raise ValueError(f"no closed-form tail bound for the scaling profile {scaling.profile!r}")
