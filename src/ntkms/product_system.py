"""Finite-type product systems of bimodules over the built-in cones.

A product system here is concrete data over a lattice-ordered cone P and
a coefficient engine A:

* a basis count N_s for every fiber s, with N_e = 1 and N_(sr) = N_s N_r;
  it is also the scaling map N(s) of the dynamics, and ``profile`` names
  its closed form, ("power", d) for N_s = s^d on nat-mult or
  ("geometric", k) for N_n = k^n on nat-add, which the series code reads;
* index maps m(s, r; j, k) identifying the basis of the fiber product
  X_s x X_r with the basis of X_(sr), bijective in (j, k) and associative
  across triples;
* a left action of A on each fiber, given by the matrix entries
  L_s(a)[v, j] = <1_v, a . 1_j> over A, which must be a unital
  *-homomorphism into N_s by N_s matrices and coherent with the index
  maps: L_(sr)(a)[m(v, u), m(j, k)] = L_r(L_s(a)[v, j])[u, k].  On every
  builtin a monomial acts as a weighted partial permutation, so an
  instance gives the left action only by columns: column j of L_s(mon)
  as its one nonzero entry (v, monomial), or None.  Module products,
  fiber traces and the left-action laws read columns; ``left_matrix``
  gathers them into a plain {(v, j): entry} dict.

Vectors in a fiber are sparse: only their nonzero coordinates over A
relative to the orthonormal basis are stored, keyed by basis index, so
a vector in a huge fiber costs only its support.  The inner product is
<x, y> = sum_j x_j* y_j and the bimodule structure is exact symbolic
arithmetic.

Built-in instances
------------------

affine-toeplitz   nat-mult over the Toeplitz engine, N_s = s, index map
                  j + s*k; the left action comes from the transfer that
                  maps S^a S*^b to S^ceil(a/s) S*^ceil(b/s) when a == b
                  mod s and kills it otherwise.
additive-toeplitz nat-mult over the 1-torus, N_s = s, same index map;
                  the transfer divides exponents by s when possible.
lattice-dilation  nat-mult over the d-torus; the fiber at s is spanned by
                  the coset representatives {0..s-1}^d of s Z^d, so
                  N_s = s^d, indices concatenate digitwise.
cuntz             nat-add over scalars with branching k: fibers are words
                  over a k-letter alphabet, N_n = k^n, index maps
                  concatenate words; the left action is scalar.
"""

from __future__ import annotations

import json
import numbers
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .coeff import (
    SCALAR,
    TOEPLITZ,
    CoefficientElement,
    Engine,
    LaurentEngine,
)
from .semigroup import NAT_ADD, NAT_MULT, Semigroup, TruncationSet

__all__ = [
    "ModuleVector",
    "ProductSystem",
    "AffineToeplitzSystem",
    "TorusDilationSystem",
    "CuntzSystem",
    "get_system",
    "BUILTIN_SYSTEMS",
]


class ModuleVector:
    """A vector in one fiber: its nonzero coordinates over the engine.

    ``entries`` maps basis indices to nonzero coefficients in ascending
    index order.  The constructor takes such a mapping, or a dense
    sequence of exactly N_s coordinates.
    """

    __slots__ = ("system", "fiber", "entries")

    def __init__(self, system: "ProductSystem", fiber: int, x):
        n = system.basis_count(fiber)
        if not isinstance(x, Mapping):
            if len(x) != n:
                raise ValueError(f"fiber {fiber} needs {n} coordinates, got {len(x)}")
            x = dict(enumerate(x))
        keys = sorted(x)
        for j in keys[:1] + keys[-1:]:
            if not 0 <= j < n:
                raise ValueError(f"basis index {j} out of range for fiber {fiber}")
        self.system, self.fiber = system, fiber
        self.entries = {j: x[j] for j in keys if not x[j].is_zero()}

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if self.system is not other.system or self.fiber != other.fiber:
            raise ValueError("vectors live in different fibers")
        out = dict(self.entries)
        zero = CoefficientElement.zero(self.system.engine)
        for j, c in other.entries.items():
            out[j] = out.get(j, zero) + c
        return ModuleVector(self.system, self.fiber, out)

    def scale(self, w: complex) -> "ModuleVector":
        scaled = {j: c.scale(w) for j, c in self.entries.items()}
        return ModuleVector(self.system, self.fiber, scaled)

    def right_mul(self, a: CoefficientElement) -> "ModuleVector":
        """The right module action, coordinatewise on the right."""
        return ModuleVector(self.system, self.fiber, {j: c * a for j, c in self.entries.items()})

    def inner(self, other: "ModuleVector") -> CoefficientElement:
        """<x, y> = sum_j x_j* y_j, conjugate linear in the first slot."""
        if self.system is not other.system or self.fiber != other.fiber:
            raise ValueError("vectors live in different fibers")
        out = CoefficientElement.zero(self.system.engine)
        for j, a in self.entries.items():
            if j in other.entries:
                out = out + a.adjoint() * other.entries[j]
        return out

    def one_norm(self) -> float:
        return sum(c.one_norm() for c in self.entries.values())

    def __eq__(self, other):
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return (self.system is other.system and self.fiber == other.fiber
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.fiber, frozenset(self.entries.items())))

    def __repr__(self):
        bits = [f"{c!r}@{j}" for j, c in self.entries.items()]
        return f"<fiber {self.fiber}: {', '.join(bits) or '0'}>"


@dataclass
class CheckReport:
    """One outcome of a structure law of ProductSystem.validate or of a
    verify check, serialisable as a JSON line."""

    name: str
    passed: bool
    metrics: dict = field(default_factory=dict)
    detail: str = ""
    seconds: float = 0.0

    def json_line(self) -> str:
        # timing is left out so repeated runs emit identical bytes
        payload = {
            "check": self.name,
            "passed": self.passed,
            "metrics": self.metrics,
            "detail": self.detail,
        }
        return json.dumps(payload, sort_keys=True)


class ProductSystem:
    """Base class; subclasses provide counts, index maps and left actions."""

    name = "abstract"
    semigroup: Semigroup
    engine: Engine
    profile: tuple[str, int]

    # -- structure data ------------------------------------------------

    def basis_count(self, s: int) -> int:
        raise NotImplementedError

    def index_map(self, s: int, r: int, j: int, k: int) -> int:
        """m(s, r; j, k), the index in the fiber at s*r of 1_j x 1_k.

        j and k may also be numpy int arrays: the map then acts
        elementwise under broadcasting.  It never mutates its inputs.
        """
        raise NotImplementedError

    def index_split(self, s: int, r: int, i: int) -> tuple[int, int]:
        """Inverse of index_map: i in the fiber at s*r as (j, k).

        Like index_map, it acts elementwise on a numpy int array i and
        never mutates it.
        """
        raise NotImplementedError

    def left_column(self, s: int, mon: tuple, j: int) -> Optional[tuple[int, tuple]]:
        """The one nonzero entry of column j of L_s(mon) as (nu, monomial),
        or None when the column is zero."""
        raise NotImplementedError

    def generator_monomials(self) -> list[tuple]:
        raise NotImplementedError

    def weight(self, q: int) -> float:
        """N(q) = N_q as a float: the scaling of the dynamics and the
        series weight of the fiber at q."""
        return float(self.basis_count(q))

    @property
    def beta_c(self) -> float:
        """The critical exponent: sum_s N(s)^(1-beta) converges exactly
        for beta above it, 1 + 1/d on ("power", d) and 1 on geometric."""
        kind, p = self.profile
        return 1.0 + 1.0 / p if kind == "power" else 1.0

    @property
    def params(self) -> dict:
        return {}

    # -- derived structure ---------------------------------------------

    def identity_fiber(self) -> int:
        return self.semigroup.identity_value

    def _column(self, s: int, a: CoefficientElement, j: int) -> dict[int, CoefficientElement]:
        """Column j of L_s(a) as {nu: entry}, nonzero entries only.

        Each entry sums monomial.scale(w) over the monomials of a in
        order; a sum that cancels to zero is absent, so a later monomial
        starts it afresh.
        """
        cells: dict[int, CoefficientElement] = {}
        for mon, w in a.terms.items():
            col = self.left_column(s, mon, j)
            if col is not None:
                v = CoefficientElement.monomial(self.engine, col[1]).scale(w)
                c = cells.get(col[0])
                cells[col[0]] = v if c is None or c.is_zero() else c + v
        return {nu: c for nu, c in cells.items() if not c.is_zero()}

    def left_matrix(self, s: int,
                    a: CoefficientElement) -> dict[tuple[int, int], CoefficientElement]:
        """L_s(a) as a plain {(nu, j): entry} dict of its nonzero entries,
        assembled column by column in O(N_s) per monomial."""
        return {(nu, j): c for j in range(self.basis_count(s))
                for nu, c in self._column(s, a, j).items()}

    def left_act(self, s: int, a: CoefficientElement, xi: ModuleVector) -> ModuleVector:
        """a . xi, the module product of a in the identity fiber with xi."""
        if xi.fiber != s:
            raise ValueError("vector not in the requested fiber")
        return self.module_product(self.basis_vector(self.identity_fiber(), 0, a), xi)

    def basis_vector(self, s: int, j: int, coeff: CoefficientElement | None = None) -> ModuleVector:
        """coeff (default the unit) at basis index j of the fiber at s."""
        c = CoefficientElement.unit(self.engine) if coeff is None else coeff
        return ModuleVector(self, s, {j: c})

    def module_product(self, xi: ModuleVector, eta: ModuleVector) -> ModuleVector:
        """The multiplication X_s x X_r -> X_(sr) in coordinates.

        (xi eta)[m(j, v)] = sum_k L_r(x_j)[v, k] y_k, which is the unique
        bilinear extension of 1_j a . 1_k b = 1_(m(j, v)) L_r(a)[v, k] b.
        Only the columns k in the support of eta are read, so the cost
        does not depend on N_r.
        """
        s, r = xi.fiber, eta.fiber
        out: dict[int, CoefficientElement] = {}
        for j, xc in xi.entries.items():
            for k, y in eta.entries.items():
                for nu, c in self._column(r, xc, k).items():
                    i = self.index_map(s, r, j, nu)
                    out[i] = out[i] + c * y if i in out else c * y
        return ModuleVector(self, self.semigroup.mul(s, r), out)

    def fiber_trace(self, s: int, a: CoefficientElement) -> CoefficientElement:
        """sum_j <1_j, a . 1_j>, the unnormalised trace of L_s(a)."""
        out = CoefficientElement.zero(self.engine)
        for mon, w in a.terms.items():
            diag = CoefficientElement.zero(self.engine)
            for j in range(self.basis_count(s)):
                col = self.left_column(s, mon, j)
                if col is not None and col[0] == j:
                    diag = diag + CoefficientElement.monomial(self.engine, col[1])
            out = out + diag.scale(w)
        return out

    def generator_elements(self) -> list[CoefficientElement]:
        return [CoefficientElement.monomial(self.engine, m) for m in self.generator_monomials()]

    # -- validation ------------------------------------------------------

    def validate(self, trunc: TruncationSet) -> list[CheckReport]:
        """Every structure law over a truncation window, one report each.

        Basis-count, index-map, left-action and transfer laws, then the
        scaling law (N_s agrees with the closed form ``profile`` names)
        and coprime (meet-trivial) compatibility.  Reports are named
        structure:<law> with metrics {"bound": trunc.bound}, the first
        "witness" of a failure and, on the coprime law, the "pairs"
        scanned.  Each law is a lazy, separately timed stream of
        witnesses whose first item fails it; index-map laws run on numpy
        index grids, and coherence assumes the bijectivity checked before it.
        """
        checks: list[CheckReport] = []
        sg = self.semigroup
        e = sg.identity_value
        vals = trunc.values
        n, im, split = self.basis_count, self.index_map, self.index_split
        L, column = self.left_matrix, self._column
        gens = self.generator_elements()

        def law(name: str, witnesses: Iterable[dict], detail: str = "",
                since: Optional[float] = None, **metrics) -> None:
            # a law whose scan runs before the call passes the scan's start time
            t0 = time.perf_counter() if since is None else since
            bad = next(iter(witnesses), None)
            # an empty witness fails the law with nothing to point at
            metrics = {"bound": trunc.bound, **metrics, **({"witness": bad} if bad else {})}
            checks.append(CheckReport(f"structure:{name}", bad is None, metrics, detail,
                                      time.perf_counter() - t0))

        def unit_witnesses():
            for s in vals:
                j = np.arange(n(s))
                for j0 in np.flatnonzero((im(s, e, j, 0) != j) | (im(e, s, 0, j) != j))[:1]:
                    yield {"s": s, "j": int(j0)}

        def bijective_witnesses():
            for s in vals:
                for r in vals:
                    ns, nr = n(s), n(r)
                    j, k = np.indices((ns, nr)).reshape(2, -1)
                    i = im(s, r, j, k)
                    _, first, inv = np.unique(i, return_index=True, return_inverse=True)
                    clash = first[inv]
                    out = (i < 0) | (i >= ns * nr)
                    sj, sk = split(s, r, i)
                    flagged = out | (clash != np.arange(i.size)) | (sj != j) | (sk != k)
                    for p in np.flatnonzero(flagged)[:1]:
                        w = {"s": s, "r": r, "j": int(j[p]), "k": int(k[p])}
                        v = int(i[p])
                        if out[p] or clash[p] != p:
                            yield {**w, "value": v,
                                   "clash": None if out[p] else divmod(int(clash[p]), nr)}
                        else:
                            yield {**w, "split": split(s, r, v)}

        def associative_witnesses():
            for s in vals:
                for r in vals:
                    for q in vals:
                        k, l = np.indices((n(r), n(q)))
                        kl = im(r, q, k, l)
                        for j in range(n(s)):
                            lhs = im(sg.mul(s, r), q, im(s, r, j, k), l)
                            rhs = im(s, sg.mul(r, q), j, kl)
                            for k0, l0 in np.argwhere(lhs != rhs)[:1]:
                                yield {"s": s, "r": r, "q": q, "j": j, "k": int(k0),
                                       "l": int(l0), "lhs": int(lhs[k0, l0]),
                                       "rhs": int(rhs[k0, l0])}

        def coherent_witnesses():
            # L_(sr)(a)[m(nu, u), m(j, k)] = L_r(L_s(a)[nu, j])[u, k], compared
            # on the sparse entries; building L_(sr) costs (N_s N_r)^2 entry
            # evaluations, so the window is capped
            small = [v for v in vals if n(v) <= 12]
            for s in small:
                for r in small:
                    for a in gens:
                        want = {
                            (im(s, r, nu, u), im(s, r, j, k)): v
                            for (nu, j), c in L(s, a).items()
                            for (u, k), v in L(r, c).items()
                        }
                        got = L(sg.mul(s, r), a)
                        diff = [key for key in want.keys() | got.keys()
                                if want.get(key) != got.get(key)]
                        if diff:
                            cells = [(split(s, r, row), split(s, r, col)) for row, col in diff]
                            (nu, u), (j, k) = min(cells, key=lambda c: (c[1][0], c[0][0],
                                                                        c[1][1], c[0][1]))
                            yield {"s": s, "r": r, "a": repr(a),
                                   "nu": nu, "j": j, "u": u, "k": k}

        def product_column(s, a, b, j):
            # column j of L_s(a) L_s(b): L_s(a) applied to column j of L_s(b)
            out: dict[int, CoefficientElement] = {}
            for nu, c in column(s, b, j).items():
                for mu, x in column(s, a, nu).items():
                    out[mu] = out[mu] + x * c if mu in out else x * c
            return {mu: v for mu, v in out.items() if not v.is_zero()}

        law("identity-fiber-rank", [{}] if n(e) != 1 else [], f"N_e = {n(e)}")
        law("basis-count-multiplicative",
            ({"s": s, "r": r} for s in vals for r in vals
             if n(sg.mul(s, r)) != n(s) * n(r)))
        law("index-map-unit", unit_witnesses())
        law("index-map-bijective", bijective_witnesses())
        law("index-map-associative", associative_witnesses())

        one = self.engine.unit()
        law("left-action-unital",
            ({"s": s} for s in vals
             if any(self.left_column(s, one, j) != (j, one) for j in range(n(s)))))

        law("left-action-homomorphism",
            ({"s": s, "a": repr(a), "b": repr(b)} for s in vals for a in gens for b in gens
             if any(column(s, a * b, j) != product_column(s, a, b, j) for j in range(n(s)))))
        law("left-action-star",
            ({"s": s, "a": repr(a)} for s in vals for a in gens
             if L(s, a.adjoint()) != {(j, nu): c.adjoint() for (nu, j), c in L(s, a).items()}))
        law("left-action-coherent", coherent_witnesses())

        # orthonormality of the declared basis against the transfer
        law("basis-orthonormal-via-transfer",
            ({"s": s, "j": j, "k": k, "got": got}
             for s in vals if n(s) <= 64
             for j in range(n(s)) for k in range(n(s))
             if (got := self._basis_inner_via_transfer(s, j, k)) != (one if j == k else None)))

        # the series code sums the profile's closed form in place of N_s; with
        # the rank laws above, agreement makes N a positive injective homomorphism
        kind, p = self.profile
        law("scaling-homomorphism",
            ({"s": s} for s in vals if n(s) != (s**p if kind == "power" else p**s)))
        t0 = time.perf_counter()
        ok, witness, pairs = self.check_coprime_pairs(trunc)
        law("coprime-compatibility", [] if ok else [witness], since=t0, pairs=pairs)
        return checks

    def _basis_inner_via_transfer(self, s: int, j: int, k: int) -> Optional[tuple]:
        raise NotImplementedError

    def check_coprime_pairs(self, trunc: TruncationSet) -> tuple[bool, Optional[dict], int]:
        """Exhaustive doubly-faithful check on meets equal to the identity.

        For glb(s, r) = e the same product index must never arise from
        two different (right factor) choices on either side:
        m(s,r; j, m) = m(r,s; l, g) and m(s,r; j, n) = m(r,s; l, h)
        forces m = n and g = h.  Both maps are evaluated on index grids;
        for each j, every value m(r,s; l, g) is looked up in the row
        m(s,r; j, .), the last m winning where the row repeats a value,
        and the first (j, l) with two hits fails with its first two.
        """
        sg = self.semigroup
        e = sg.identity_value
        pairs = 0
        for s in trunc.values:
            for r in trunc.values:
                if s == e or r == e or sg.glb(s, r) != e:
                    continue
                pairs += 1
                ns, nr = self.basis_count(s), self.basis_count(r)
                rows = self.index_map(s, r, *np.indices((ns, nr)))
                other = self.index_map(r, s, *np.indices((nr, ns)))
                for j, row in enumerate(rows):
                    order = np.argsort(row, kind="stable")
                    ranked = row[order]
                    # the last position of each value, so the last m wins
                    pos = np.searchsorted(ranked, other, side="right") - 1
                    hit = (pos >= 0) & (ranked[pos] == other)
                    for l in np.flatnonzero(hit.sum(axis=1) > 1)[:1]:
                        hits = [(int(order[pos[l, g]]), int(g)) for g in np.flatnonzero(hit[l])]
                        return False, {"s": s, "r": r, "j": j, "l": int(l),
                                       "collisions": hits[:2]}, pairs
        return True, None, pairs

    def corrupted(self, s: int, r: int, pair_a: tuple[int, int], pair_b: tuple[int, int]):
        """A copy with two index-map values swapped, for negative tests.

        The copy is an instance of a subclass of this system's class that
        overrides only index_map and index_split: at the fiber pair (s, r)
        the images of pair_a and pair_b trade places, elementwise.
        """
        a, b = self.index_map(s, r, *pair_a), self.index_map(s, r, *pair_b)

        def swap(fs, fr, i):
            if (fs, fr) != (s, r):
                return i
            out = np.where(i == a, b, np.where(i == b, a, i))
            return int(out) if out.ndim == 0 else out

        class Corrupted(type(self)):
            def index_map(self, fs, fr, j, k):
                return swap(fs, fr, super().index_map(fs, fr, j, k))

            def index_split(self, fs, fr, i):
                return super().index_split(fs, fr, swap(fs, fr, i))

        bad = object.__new__(Corrupted)
        bad.__dict__.update(vars(self), name=self.name + "-corrupted")
        return bad

    def __repr__(self):
        return f"<product system {self.name}>"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class AffineToeplitzSystem(ProductSystem):
    """nat-mult acting on the Toeplitz algebra by power endomorphisms.

    The fiber at s is the Toeplitz algebra as a right module over itself
    twisted by S |-> S^s, with orthonormal basis S^0 ... S^(s-1).  The
    inner product is the transfer sending S^a S*^b to
    S^ceil(a/s) S*^ceil(b/s) when a == b mod s, to zero otherwise.
    """

    name = "affine-toeplitz"

    def __init__(self):
        self.semigroup = NAT_MULT
        self.engine = TOEPLITZ
        self.profile = ("power", 1)

    def basis_count(self, s):
        return s

    def index_map(self, s, r, j, k):
        return j + s * k

    def index_split(self, s, r, i):
        return (i % s, i // s)

    def transfer_monomial(self, s, mon):
        a, b = mon
        if (a - b) % s != 0:
            return None
        return (_ceil_div(a, s), _ceil_div(b, s))

    def left_column(self, s, mon, j):
        # S*^nu (S^m S*^n) S^j has degree m - n + j - nu, and the transfer
        # keeps it exactly when that degree is divisible by s
        eng = self.engine
        nu = (mon[0] - mon[1] + j) % s
        return nu, self.transfer_monomial(s, eng.mul(eng.mul((0, nu), mon), (j, 0)))

    def generator_monomials(self):
        return [(1, 0), (0, 1)]

    def _basis_inner_via_transfer(self, s, j, k):
        eng = self.engine
        return self.transfer_monomial(s, eng.mul((0, j), (k, 0)))


class TorusDilationSystem(ProductSystem):
    """nat-mult dilating the d-torus; the fiber at s has basis the cosets
    of s Z^d, indexed by digit vectors in {0..s-1}^d flattened base s.
    """

    def __init__(self, d: int = 1, name: str | None = None):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d
        self.semigroup = NAT_MULT
        self.engine = LaurentEngine(d)
        self.profile = ("power", d)
        self.name = name or f"lattice-dilation({d})"

    @property
    def params(self):
        return {"d": self.d}

    def basis_count(self, s):
        return s**self.d

    def _digits(self, s: int, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.d):
            out.append(i % s)
            i = i // s
        return tuple(out)

    def _undigits(self, s: int, v: Iterable[int]) -> int:
        out = 0
        for c, x in enumerate(v):
            out += x * s**c
        return out

    def index_map(self, s, r, j, k):
        vj, vk = self._digits(s, j), self._digits(r, k)
        return self._undigits(s * r, tuple(a + s * b for a, b in zip(vj, vk)))

    def index_split(self, s, r, i):
        w = self._digits(s * r, i)
        return (
            self._undigits(s, tuple(x % s for x in w)),
            self._undigits(r, tuple(x // s for x in w)),
        )

    def transfer_monomial(self, s, mon):
        if any(g % s for g in mon):
            return None
        return tuple(g // s for g in mon)

    def left_column(self, s, mon, j):
        # mon + digits(j) - digits(nu) must vanish mod s digitwise
        shifted = tuple(g + a for g, a in zip(mon, self._digits(s, j)))
        return self._undigits(s, (x % s for x in shifted)), tuple(x // s for x in shifted)

    def generator_monomials(self):
        gens = []
        for c in range(self.d):
            e = tuple(1 if i == c else 0 for i in range(self.d))
            gens.append(e)
            gens.append(tuple(-x for x in e))
        return gens

    def _basis_inner_via_transfer(self, s, j, k):
        gj, gk = self._digits(s, j), self._digits(s, k)
        return self.transfer_monomial(s, tuple(b - a for a, b in zip(gj, gk)))


class CuntzSystem(ProductSystem):
    """Words over a k-letter alphabet, graded by length over nat-add.

    The coefficient algebra is the scalars, so left actions are scalar
    multiples of the identity; all structure lives in the index maps,
    which concatenate words with the earlier word in the low digits.
    """

    def __init__(self, k: int = 2):
        if k < 2:
            raise ValueError("branching k must be >= 2")
        self.k = k
        self.semigroup = NAT_ADD
        self.engine = SCALAR
        self.profile = ("geometric", k)
        self.name = f"cuntz({k})"

    @property
    def params(self):
        return {"k": self.k}

    def basis_count(self, s):
        return self.k**s

    def index_map(self, s, r, j, k):
        return j + self.k**s * k

    def index_split(self, s, r, i):
        base = self.k**s
        return (i % base, i // base)

    def left_column(self, s, mon, j):
        return j, ()

    def generator_monomials(self):
        return [()]

    def _basis_inner_via_transfer(self, s, j, k):
        return () if j == k else None


BUILTIN_SYSTEMS = ("affine-toeplitz", "additive-toeplitz", "lattice-dilation", "cuntz")


def get_system(name: str, d: int | None = None, k: int | None = None) -> ProductSystem:
    """Instance factory used by the CLI and the verification drivers.

    lattice-dilation takes the torus rank d (default 1) and cuntz the
    branching k (default 2); affine-toeplitz and additive-toeplitz take
    no parameters.  A parameter the named system does not take, a
    boolean or non-integral one (2.0 reads as 2), and an unknown name
    raise ValueError.
    """
    for key, v in (("d", d), ("k", k)):
        if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Integral)
                              and not (isinstance(v, float) and v.is_integer())):
            raise ValueError(f"{key} must be an integer, got {v!r}")
    if name in ("affine-toeplitz", "additive-toeplitz"):
        if d is not None or k is not None:
            raise ValueError(f"system {name!r} takes no parameters")
        if name == "affine-toeplitz":
            return AffineToeplitzSystem()
        return TorusDilationSystem(1, name="additive-toeplitz")
    if name == "lattice-dilation":
        if k is not None:
            raise ValueError("k does not apply to lattice-dilation")
        return TorusDilationSystem(1 if d is None else int(d))
    if name == "cuntz":
        if d is not None:
            raise ValueError("d does not apply to cuntz")
        return CuntzSystem(2 if k is None else int(k))
    raise ValueError(f"unknown system {name!r}; known: {', '.join(BUILTIN_SYSTEMS)}")
