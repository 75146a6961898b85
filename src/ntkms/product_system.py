"""Finite-type product systems of bimodules over the built-in cones.

A product system here is concrete data over a lattice-ordered cone P and
a coefficient engine A:

* a basis count N_s for every fiber s, with N_e = 1 and N_(sr) = N_s N_r;
* index maps m(s, r; j, k) identifying the basis of the fiber product
  X_s x X_r with the basis of X_(sr), bijective in (j, k) and associative
  across triples;
* a left action of A on each fiber, stored as the matrix entries
  L_s(a)[v, j] = <1_v, a . 1_j> over A, which must be a unital
  *-homomorphism into N_s by N_s matrices and coherent with the index
  maps: L_(sr)(a)[m(v, u), m(j, k)] = L_r(L_s(a)[v, j])[u, k].

Vectors in a fiber are coordinate tuples over A relative to the
orthonormal basis, so the inner product is <x, y> = sum_j x_j* y_j and
the bimodule structure is exact symbolic arithmetic.

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

import time
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .coeff import (
    SCALAR,
    TOEPLITZ,
    CoefficientElement,
    Engine,
    LaurentEngine,
)
from .semigroup import (
    NAT_ADD,
    NAT_MULT,
    ScalingHomomorphism,
    Semigroup,
    TruncationSet,
    geometric_scaling,
    power_scaling,
)

__all__ = [
    "ModuleVector",
    "ProductSystem",
    "LMatrix",
    "AffineToeplitzSystem",
    "TorusDilationSystem",
    "CuntzSystem",
    "get_system",
    "BUILTIN_SYSTEMS",
    "ValidationReport",
]


@dataclass(frozen=True)
class ModuleVector:
    """A vector in one fiber, as coordinates over the coefficient engine."""

    system: "ProductSystem"
    fiber: int
    coords: tuple[CoefficientElement, ...]

    def __post_init__(self):
        n = self.system.basis_count(self.fiber)
        if len(self.coords) != n:
            raise ValueError(
                f"fiber {self.fiber} needs {n} coordinates, got {len(self.coords)}"
            )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if self.system is not other.system or self.fiber != other.fiber:
            raise ValueError("vectors live in different fibers")
        return ModuleVector(
            self.system,
            self.fiber,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def scale(self, w: complex) -> "ModuleVector":
        return ModuleVector(self.system, self.fiber, tuple(c.scale(w) for c in self.coords))

    def right_mul(self, a: CoefficientElement) -> "ModuleVector":
        """The right module action, coordinatewise on the right."""
        return ModuleVector(self.system, self.fiber, tuple(c * a for c in self.coords))

    def inner(self, other: "ModuleVector") -> CoefficientElement:
        """<x, y> = sum_j x_j* y_j, conjugate linear in the first slot."""
        if self.system is not other.system or self.fiber != other.fiber:
            raise ValueError("vectors live in different fibers")
        out = CoefficientElement.zero(self.system.engine)
        for a, b in zip(self.coords, other.coords):
            if not a.is_zero() and not b.is_zero():
                out = out + a.adjoint() * b
        return out

    def one_norm(self) -> float:
        return sum(c.one_norm() for c in self.coords)

    def __repr__(self):
        bits = [f"{c!r}@{j}" for j, c in enumerate(self.coords) if not c.is_zero()]
        return f"<fiber {self.fiber}: {', '.join(bits) or '0'}>"


class LMatrix:
    """A sparse matrix over a coefficient engine, keyed by (row, col)."""

    __slots__ = ("engine", "shape", "entries")

    def __init__(self, engine: Engine, shape: tuple[int, int], entries=None):
        self.engine = engine
        self.shape = shape
        self.entries: dict[tuple[int, int], CoefficientElement] = {}
        for key, val in (entries or {}).items():
            if not val.is_zero():
                self.entries[key] = val

    @classmethod
    def identity(cls, engine: Engine, n: int):
        one = CoefficientElement.unit(engine)
        return cls(engine, (n, n), {(j, j): one for j in range(n)})

    def scale(self, w: complex) -> "LMatrix":
        return LMatrix(
            self.engine, self.shape, {k: v.scale(w) for k, v in self.entries.items()}
        )

    def __add__(self, other: "LMatrix") -> "LMatrix":
        out = dict(self.entries)
        for k, v in other.entries.items():
            cur = out.get(k)
            out[k] = v if cur is None else cur + v
        return LMatrix(self.engine, self.shape, out)

    def matmul(self, other: "LMatrix") -> "LMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch")
        by_row: dict[int, list[tuple[int, CoefficientElement]]] = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        out: dict[tuple[int, int], CoefficientElement] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                prod = a * b
                cur = out.get(key)
                out[key] = prod if cur is None else cur + prod
        return LMatrix(self.engine, (self.shape[0], other.shape[1]), out)

    def adjoint(self) -> "LMatrix":
        return LMatrix(
            self.engine,
            (self.shape[1], self.shape[0]),
            {(j, i): v.adjoint() for (i, j), v in self.entries.items()},
        )

    def apply(self, coords: tuple[CoefficientElement, ...]) -> list[CoefficientElement]:
        out = [CoefficientElement.zero(self.engine) for _ in range(self.shape[0])]
        for (i, j), v in self.entries.items():
            c = coords[j]
            if not c.is_zero():
                out[i] = out[i] + v * c
        return out

    def __eq__(self, other):
        if not isinstance(other, LMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    witness: Optional[dict] = None
    seconds: float = 0.0


@dataclass
class ValidationReport:
    system: str
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> Optional[CheckResult]:
        for c in self.checks:
            if not c.passed:
                return c
        return None


class ProductSystem:
    """Base class; subclasses provide counts, index maps and left actions."""

    name = "abstract"
    semigroup: Semigroup
    engine: Engine
    scaling: ScalingHomomorphism
    beta_c: float

    def __init__(self):
        self._left_memo: dict[tuple[int, tuple], LMatrix] = {}
        self._trace_memo: dict[tuple[int, tuple], CoefficientElement] = {}

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

    def left_entry(self, s: int, mon: tuple, nu: int, j: int) -> Optional[tuple]:
        """Matrix entry L_s(mon)[nu, j] as a single monomial, or None."""
        raise NotImplementedError

    def generator_monomials(self) -> list[tuple]:
        raise NotImplementedError

    def weight(self, q: int) -> float:
        """N_q as a float, for series weights."""
        return float(self.basis_count(q))

    def transfer_monomial(self, s: int, mon: tuple) -> Optional[tuple]:
        """The scalar transfer on a monomial where the instance has one."""
        return None

    @property
    def params(self) -> dict:
        return {}

    # -- derived structure ---------------------------------------------

    def identity_fiber(self) -> int:
        return self.semigroup.identity_value

    def left_matrix(self, s: int, a: CoefficientElement) -> LMatrix:
        """L_s(a) with memoisation per monomial.

        Cache fills are idempotent, so concurrent readers are safe under
        the usual dict atomicity.
        """
        n = self.basis_count(s)
        out = LMatrix(self.engine, (n, n))
        for mon, w in a.terms.items():
            key = (s, mon)
            mat = self._left_memo.get(key)
            if mat is None:
                entries = {}
                for j in range(n):
                    for nu in range(n):
                        res = self.left_entry(s, mon, nu, j)
                        if res is not None:
                            entries[(nu, j)] = CoefficientElement.monomial(self.engine, res)
                mat = LMatrix(self.engine, (n, n), entries)
                self._left_memo[key] = mat
            out = out + mat.scale(w)
        return out

    def left_act(self, s: int, a: CoefficientElement, xi: ModuleVector) -> ModuleVector:
        """a . xi via the stored matrices; entries multiply on the left."""
        if xi.fiber != s:
            raise ValueError("vector not in the requested fiber")
        mat = self.left_matrix(s, a)
        return ModuleVector(self, s, tuple(mat.apply(xi.coords)))

    def basis_vector(self, s: int, j: int, coeff: CoefficientElement | None = None) -> ModuleVector:
        n = self.basis_count(s)
        if not (0 <= j < n):
            raise ValueError(f"basis index {j} out of range for fiber {s}")
        coeff = coeff if coeff is not None else CoefficientElement.unit(self.engine)
        zero = CoefficientElement.zero(self.engine)
        return ModuleVector(self, s, tuple(coeff if i == j else zero for i in range(n)))

    def zero_vector(self, s: int) -> ModuleVector:
        zero = CoefficientElement.zero(self.engine)
        return ModuleVector(self, s, tuple(zero for _ in range(self.basis_count(s))))

    def module_product(self, xi: ModuleVector, eta: ModuleVector) -> ModuleVector:
        """The multiplication X_s x X_r -> X_(sr) in coordinates.

        (xi eta)[m(j, v)] = sum_k L_r(x_j)[v, k] y_k, which is the unique
        bilinear extension of 1_j a . 1_k b = 1_(m(j, v)) L_r(a)[v, k] b.
        """
        s, r = xi.fiber, eta.fiber
        sg = self.semigroup
        sr = sg.mul(s, r)
        out = [CoefficientElement.zero(self.engine) for _ in range(self.basis_count(sr))]
        for j, xc in enumerate(xi.coords):
            if xc.is_zero():
                continue
            acted = self.left_matrix(r, xc).apply(eta.coords)
            for v, val in enumerate(acted):
                if not val.is_zero():
                    idx = self.index_map(s, r, j, v)
                    out[idx] = out[idx] + val
        return ModuleVector(self, sr, tuple(out))

    def fiber_trace(self, s: int, a: CoefficientElement) -> CoefficientElement:
        """sum_j <1_j, a . 1_j>, the unnormalised trace of L_s(a)."""
        out = CoefficientElement.zero(self.engine)
        n = self.basis_count(s)
        for mon, w in a.terms.items():
            key = (s, mon)
            diag = self._trace_memo.get(key)
            if diag is None:
                acc = CoefficientElement.zero(self.engine)
                for j in range(n):
                    res = self.left_entry(s, mon, j, j)
                    if res is not None:
                        acc = acc + CoefficientElement.monomial(self.engine, res)
                diag = acc
                self._trace_memo[key] = diag
            out = out + diag.scale(w)
        return out

    def generator_elements(self) -> list[CoefficientElement]:
        return [CoefficientElement.monomial(self.engine, m) for m in self.generator_monomials()]

    # -- validation ------------------------------------------------------

    def validate(self, trunc: TruncationSet) -> ValidationReport:
        """Structural validation over a truncation window.

        Runs the basis-count, index-map and left-action laws in order.
        Each law is a lazy stream of witnesses in loop order; the first
        one, if any, fails the law, and each law is timed on its own.
        The index-map laws evaluate the maps on numpy index grids, and
        the coherence law assumes the bijectivity checked before it.
        """
        checks: list[CheckResult] = []
        sg = self.semigroup
        e = sg.identity_value
        vals = trunc.values
        n, im, split = self.basis_count, self.index_map, self.index_split
        L = self.left_matrix
        gens = self.generator_elements()

        def law(name: str, witnesses: Iterable[dict], detail: str = "") -> Optional[dict]:
            t0 = time.perf_counter()
            bad = next(iter(witnesses), None)
            # an empty witness fails the law with nothing to point at
            checks.append(CheckResult(name, bad is None, detail, bad or None,
                                      time.perf_counter() - t0))
            return bad

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
                            for (nu, j), c in L(s, a).entries.items()
                            for (u, k), v in L(r, c).entries.items()
                        }
                        got = L(sg.mul(s, r), a).entries
                        diff = [key for key in want.keys() | got.keys()
                                if want.get(key) != got.get(key)]
                        if diff:
                            cells = [(split(s, r, row), split(s, r, col)) for row, col in diff]
                            (nu, u), (j, k) = min(cells, key=lambda c: (c[1][0], c[0][0],
                                                                        c[1][1], c[0][1]))
                            yield {"s": s, "r": r, "a": repr(a),
                                   "nu": nu, "j": j, "u": u, "k": k}

        law("identity-fiber-rank", [{}] if n(e) != 1 else [], f"N_e = {n(e)}")
        law("basis-count-multiplicative",
            ({"s": s, "r": r} for s in vals for r in vals
             if n(sg.mul(s, r)) != n(s) * n(r)))
        law("index-map-unit", unit_witnesses())
        law("index-map-bijective", bijective_witnesses())
        law("index-map-associative", associative_witnesses())

        unit = CoefficientElement.unit(self.engine)
        unital = law("left-action-unital",
                     ({"s": s} for s in vals
                      if L(s, unit) != LMatrix.identity(self.engine, n(s))))

        if self.engine.tag == "scalar":
            # Scalar actions are unit multiples of the identity, so the
            # homomorphism, star and coherence laws reduce to the unital
            # check plus index-map bijectivity established above.
            failed = [{}] if unital else []
            law("left-action-homomorphism", failed, "scalar action: follows from unitality")
            law("left-action-star", failed, "scalar action: follows from unitality")
            law("left-action-coherent", failed, "scalar action: follows from index-map laws")
        else:
            law("left-action-homomorphism",
                ({"s": s, "a": repr(a), "b": repr(b)} for s in vals for a in gens for b in gens
                 if L(s, a * b) != L(s, a).matmul(L(s, b))))
            law("left-action-star",
                ({"s": s, "a": repr(a)} for s in vals for a in gens
                 if L(s, a.adjoint()) != L(s, a).adjoint()))
            law("left-action-coherent", coherent_witnesses())

        one = self.engine.unit()
        if self.transfer_monomial(vals[-1], one) is not None:
            # orthonormality of the declared basis against the transfer
            law("basis-orthonormal-via-transfer",
                ({"s": s, "j": j, "k": k, "got": got}
                 for s in vals if n(s) <= 64
                 for j in range(n(s)) for k in range(n(s))
                 if (got := self._basis_inner_via_transfer(s, j, k)) != (one if j == k else None)))

        return ValidationReport(self.name, checks)

    def _basis_inner_via_transfer(self, s: int, j: int, k: int) -> Optional[tuple]:
        raise NotImplementedError

    def check_coprime_pairs(self, trunc: TruncationSet) -> tuple[bool, Optional[dict], int]:
        """Exhaustive doubly-faithful check on meets equal to the identity.

        For glb(s, r) = e the same product index must never arise from
        two different (right factor) choices on either side:
        m(s,r; j, m) = m(r,s; l, g) and m(s,r; j, n) = m(r,s; l, h)
        forces m = n and g = h.
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
                for j in range(ns):
                    row_j = {self.index_map(s, r, j, m_): m_ for m_ in range(nr)}
                    for l in range(nr):
                        hits = []
                        for g in range(ns):
                            i = self.index_map(r, s, l, g)
                            if i in row_j:
                                hits.append((row_j[i], g))
                        if len(hits) > 1:
                            return False, {"s": s, "r": r, "j": j, "l": l,
                                           "collisions": hits[:2]}, pairs
        return True, None, pairs

    def corrupted(self, s: int, r: int, pair_a: tuple[int, int], pair_b: tuple[int, int]):
        """A copy with two index-map values swapped, for negative tests."""
        return _CorruptedSystem(self, s, r, pair_a, pair_b)

    def __repr__(self):
        return f"<product system {self.name}>"


class _CorruptedSystem(ProductSystem):
    """Delegating wrapper with one index-map transposition."""

    def __init__(self, base: ProductSystem, s: int, r: int, pair_a, pair_b):
        super().__init__()
        self.base = base
        self.name = base.name + "-corrupted"
        self.semigroup = base.semigroup
        self.engine = base.engine
        self.scaling = base.scaling
        self.beta_c = base.beta_c
        self._s, self._r = s, r
        self._pa, self._pb = tuple(pair_a), tuple(pair_b)

    def basis_count(self, s):
        return self.base.basis_count(s)

    def _swap(self, s, r, i):
        """Exchange the two images of the corrupted pair, elementwise."""
        if (s, r) != (self._s, self._r):
            return i
        a = self.base.index_map(s, r, *self._pa)
        b = self.base.index_map(s, r, *self._pb)
        out = np.where(i == a, b, np.where(i == b, a, i))
        return int(out) if out.ndim == 0 else out

    def index_map(self, s, r, j, k):
        return self._swap(s, r, self.base.index_map(s, r, j, k))

    def index_split(self, s, r, i):
        return self.base.index_split(s, r, self._swap(s, r, i))

    def left_entry(self, s, mon, nu, j):
        return self.base.left_entry(s, mon, nu, j)

    def generator_monomials(self):
        return self.base.generator_monomials()

    def transfer_monomial(self, s, mon):
        return self.base.transfer_monomial(s, mon)

    def _basis_inner_via_transfer(self, s, j, k):
        return self.base._basis_inner_via_transfer(s, j, k)

    def weight(self, q):
        return self.base.weight(q)

    @property
    def params(self):
        return self.base.params


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
        super().__init__()
        self.semigroup = NAT_MULT
        self.engine = TOEPLITZ
        self.scaling = power_scaling(1)
        self.beta_c = 2.0

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

    def left_entry(self, s, mon, nu, j):
        # reduce S*^nu (S^m S*^n) S^j to one monomial, then transfer
        eng = self.engine
        t = eng.mul(eng.mul((0, nu), mon), (j, 0))
        return self.transfer_monomial(s, t)

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
        super().__init__()
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d
        self.semigroup = NAT_MULT
        self.engine = LaurentEngine(d)
        self.scaling = power_scaling(d)
        self.beta_c = 1.0 + 1.0 / d
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

    def left_entry(self, s, mon, nu, j):
        gj, gn = self._digits(s, j), self._digits(s, nu)
        shifted = tuple(g + a - b for g, a, b in zip(mon, gj, gn))
        return self.transfer_monomial(s, shifted)

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
        super().__init__()
        if k < 2:
            raise ValueError("branching k must be >= 2")
        self.k = k
        self.semigroup = NAT_ADD
        self.engine = SCALAR
        self.scaling = geometric_scaling(k)
        self.beta_c = 1.0
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

    def transfer_monomial(self, s, mon):
        return ()

    def left_entry(self, s, mon, nu, j):
        return () if nu == j else None

    def generator_monomials(self):
        return [()]

    def _basis_inner_via_transfer(self, s, j, k):
        return () if j == k else None


BUILTIN_SYSTEMS = ("affine-toeplitz", "additive-toeplitz", "lattice-dilation", "cuntz")


def get_system(name: str, **params) -> ProductSystem:
    """Instance factory used by the CLI and the verification drivers."""
    if name == "affine-toeplitz":
        _reject_params(name, params)
        return AffineToeplitzSystem()
    if name == "additive-toeplitz":
        _reject_params(name, params)
        return TorusDilationSystem(1, name="additive-toeplitz")
    if name == "lattice-dilation":
        d = params.pop("d", 1)
        _reject_params(name, params)
        return TorusDilationSystem(int(d))
    if name == "cuntz":
        k = params.pop("k", 2)
        _reject_params(name, params)
        return CuntzSystem(int(k))
    raise ValueError(f"unknown system {name!r}; known: {', '.join(BUILTIN_SYSTEMS)}")


def _reject_params(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"system {name!r} does not accept parameters {sorted(params)}")
