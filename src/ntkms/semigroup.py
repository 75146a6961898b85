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

The scaling map N : P -> (0, oo) of the dynamics is the fiber rank of
the product system, ``ProductSystem.weight``; its series closed forms
live in ``states``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "Semigroup",
    "TruncationSet",
    "NAT_MULT",
    "NAT_ADD",
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
