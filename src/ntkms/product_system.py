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
  fiber traces and the left-action laws, coherence included, read
  columns; ``left_matrix`` gathers them into a plain {(v, j): entry}
  dict.

Index maps, their splits and the left columns act elementwise on numpy
int arrays, fibers and monomial components included, so the structure
laws run on grids over the whole window, in blocks of about 2^16 cells.

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
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

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

    @classmethod
    def from_sorted(cls, system: "ProductSystem", fiber: int, pairs) -> "ModuleVector":
        """The canonical constructor: pairs (j, c) in ascending index
        order, every j in range; zero coefficients are dropped."""
        out = cls.__new__(cls)
        out.system, out.fiber, out.entries = system, fiber, {j: c for j, c in pairs if c.terms}
        return out

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
        return ModuleVector.from_sorted(
            self.system, self.fiber, [(j, c.scale(w)) for j, c in self.entries.items()])

    def right_mul(self, a: CoefficientElement) -> "ModuleVector":
        """The right module action, coordinatewise on the right."""
        return ModuleVector.from_sorted(
            self.system, self.fiber, [(j, c * a) for j, c in self.entries.items()])

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

    @classmethod
    def from_witnesses(cls, name: str, witnesses: Iterable[dict], detail: str = "",
                       **metrics) -> "CheckReport":
        """An exact law from a lazy stream of witnesses against it: the
        first witness fails the law and is reported under "witness" (an
        empty one fails it with nothing to point at), and the scan is timed."""
        t0 = time.perf_counter()
        bad = next(iter(witnesses), None)
        metrics = {**metrics, **({"witness": bad} if bad else {})}
        return cls(name, bad is None, metrics, detail, time.perf_counter() - t0)

    def json_line(self) -> str:
        # timing is left out so repeated runs emit identical bytes
        payload = {
            "check": self.name,
            "passed": self.passed,
            "metrics": _strict_json(self.metrics),
            "detail": self.detail,
        }
        return json.dumps(payload, sort_keys=True)


def _strict_json(v):
    """v with each non-finite float as the string "nan", "inf" or "-inf",
    since strict JSON has no NaN or Infinity."""
    if isinstance(v, float) and not np.isfinite(v):
        return str(float(v))
    if isinstance(v, dict):
        return {k: _strict_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict_json(x) for x in v]
    return v


# cells per block of a structure-law grid
_BLOCK = 2**16

# the most associativity cells, (sum of N_s over the window)^3, that
# validate checks: lattice-dilation(2)'s 650^3 take about 2.7 s on 2 vCPUs
# under Python 3.11, and cuntz(4)'s 5461^3, 590 times as many, would take
# about half an hour at that rate
STRUCTURE_CELL_CAP = 2**32


def _ragged(sizes) -> tuple[np.ndarray, np.ndarray]:
    """(g, c) over the cells of consecutive groups of the given sizes: the
    group of each cell and its index within the group."""
    sizes = np.asarray(sizes, dtype=np.int64)
    g = np.repeat(np.arange(sizes.size), sizes)
    return g, np.arange(g.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _grid(groups: list[tuple], sizes: list[int]) -> Iterator[tuple]:
    """The cells of consecutive groups of int fields, sizes[g] cells for
    group g, in blocks of about _BLOCK cells (a larger group alone).

    Yields (g, fields, c) per block: the group of each cell, the fields
    of its group as one array per field, and its index within the group.
    """
    if not groups:
        return
    table = np.array(groups, dtype=np.int64)
    lo = 0
    while lo < len(groups):
        hi, cells = lo + 1, sizes[lo]
        while hi < len(groups) and cells + sizes[hi] <= _BLOCK:
            cells += sizes[hi]
            hi += 1
        g, c = _ragged(sizes[lo:hi])
        g += lo
        yield g, table[g].T, c
        lo = hi


def _same(x: tuple, y: tuple):
    """Elementwise equality of two monomials given as component arrays."""
    out = np.True_
    for a, b in zip(x, y):
        out = out & (a == b)
    return out


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

        Any argument, the fibers included, may also be a numpy int array:
        the map then acts elementwise under broadcasting.  It never
        mutates its inputs.
        """
        raise NotImplementedError

    def index_split(self, s: int, r: int, i: int) -> tuple[int, int]:
        """Inverse of index_map: i in the fiber at s*r as (j, k).

        Like index_map, it acts elementwise on numpy int arrays, fibers
        included, and never mutates them.
        """
        raise NotImplementedError

    def left_column(self, s: int, mon: tuple, j: int) -> Optional[tuple[int, tuple]]:
        """The one nonzero entry of column j of L_s(mon) as (nu, monomial),
        or None when the column is zero.

        Like index_map, it acts elementwise when s, j or the components of
        mon are numpy int arrays; the monomial is then a tuple of
        component arrays, and nu = -1 marks a zero column.
        """
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
        """sum_j <1_j, a . 1_j>, the unnormalised trace of L_s(a), exactly: one
        int64 grid of columns per monomial, or the diagonal of left_matrix, in
        Python ints, once a component reaches 2^61 and index sums could wrap."""
        if any(abs(c) >= 2**61 for mon in a.terms for c in mon):
            return sum((c for (nu, j), c in self.left_matrix(s, a).items() if nu == j),
                       CoefficientElement.zero(self.engine))
        j = np.arange(self.basis_count(s))
        out: dict[tuple, complex] = {}
        for mon, w in a.terms.items():
            nu, x = self.left_column(s, mon, j)
            hit = (nu == j).nonzero()[0]
            cols = [(c + 0 * j)[hit].tolist() for c in x]  # + 0 * j broadcasts a constant
            for m, c in (Counter(zip(*cols)) if cols else {(): hit.size}).items():
                out[m] = out.get(m, 0.0) + c * w
        return CoefficientElement(self.engine, out)

    def generator_elements(self) -> list[CoefficientElement]:
        return [CoefficientElement.monomial(self.engine, m) for m in self.generator_monomials()]

    # -- validation ------------------------------------------------------

    def validate(self, trunc: TruncationSet) -> list[CheckReport]:
        """Every structure law over a truncation window, one report each.

        Basis-count, index-map and left-action laws, then the scaling
        law (N_s agrees with the closed form ``profile`` names) and
        coprime (meet-trivial) compatibility.  Reports are named
        structure:<law> with metrics {"bound": trunc.bound}, the first
        "witness" of a failure and, on the coprime law, the number of
        meet-trivial "pairs" in the window.  Each law is a lazy stream of
        witnesses read by CheckReport.from_witnesses.

        The laws run on whole-window grids: one array call of index_map,
        index_split or left_column covers every fiber, pair, generator
        and index of a block of about 2^16 cells, and only a failing
        block is searched for the witness the scalar loops would find
        first.  Associativity runs once per (s, r), with every q of the
        window concatenated along the l axis of its (k, l) grid.
        Coherence reads every column of L_(sr) of every pair, keyed by
        index_split, and the coprime law reads index_split alone.  Both
        assume the bijectivity checked before them: on a non-bijective
        index map they may name another witness or pass, and the
        bijectivity law fails either way.  A window past
        STRUCTURE_CELL_CAP associativity cells raises ValueError before
        any grid is built.
        """
        checks: list[CheckReport] = []
        sg, eng = self.semigroup, self.engine
        e = sg.identity_value
        vals = trunc.values
        n, im, split, left = self.basis_count, self.index_map, self.index_split, self.left_column
        gens = self.generator_elements()
        # component c of generator a is gen[c, a]
        gen = np.array(self.generator_monomials(), dtype=np.int64).reshape(len(gens), -1).T
        fibers = [(s,) for s in vals]
        ranks = [n(s) for s in vals]
        cells = sum(ranks) ** 3
        if cells > STRUCTURE_CELL_CAP:
            raise ValueError(f"the structure window up to {trunc.bound} has {cells} "
                             f"associativity cells, past the cap of {STRUCTURE_CELL_CAP}")
        pairs = [(s, r, n(s), n(r)) for s in vals for r in vals]

        def law(name: str, witnesses: Iterable[dict], detail: str = "", **metrics) -> None:
            checks.append(CheckReport.from_witnesses(f"structure:{name}", witnesses, detail,
                                                     bound=trunc.bound, **metrics))

        def unit_witnesses():
            for _, (s,), j in _grid(fibers, ranks):
                for c in np.flatnonzero((im(s, e, j, 0) != j) | (im(e, s, 0, j) != j))[:1]:
                    yield {"s": int(s[c]), "j": int(j[c])}

        def bijective_witnesses():
            # a value met twice fails the split at its first cell or at this
            # one, so the first cell out of range or off the split is the
            # first bad cell; only there is an earlier equal value sought
            for _, (s, r, ns, nr), p in _grid(pairs, [ns * nr for *_, ns, nr in pairs]):
                j, k = p // nr, p % nr
                i = im(s, r, j, k)
                sj, sk = split(s, r, i)
                for x in np.flatnonzero((i < 0) | (i >= ns * nr) | (sj != j) | (sk != k))[:1]:
                    w = {"s": int(s[x]), "r": int(r[x]), "j": int(j[x]), "k": int(k[x])}
                    v = int(i[x])
                    seen = np.flatnonzero(i[x - p[x]:x] == v)[:1]
                    if not 0 <= v < ns[x] * nr[x]:
                        yield {**w, "value": v, "clash": None}
                    elif seen.size:
                        yield {**w, "value": v, "clash": divmod(int(seen[0]), int(nr[x]))}
                    else:
                        yield {**w, "split": split(w["s"], w["r"], v)}

        def associative_witnesses():
            # the (q, l) axis of every q of the window, q ascending; per r,
            # m(r, q; k, l) on the (k, (q, l)) plane and r q along the axis
            g, l = _ragged(ranks)
            q = np.asarray(vals)[g]
            plane = {r: (im(r, q, np.arange(n(r))[:, None], l), sg.mul(r, q)) for r in vals}
            for s in vals:
                for r in vals:
                    kl, rq = plane[r]
                    sr, ns, nr = sg.mul(s, r), n(s), n(r)
                    # blocks of about 2^16 cells: runs of j by runs of k, the
                    # runs of j long, since m(r, q; k, l) is read once per block
                    rows = min(ns, max(1, _BLOCK // g.size))
                    width = max(1, _BLOCK // (rows * g.size))
                    worst = None
                    for j0 in range(0, ns, rows):
                        j = np.arange(j0, min(j0 + rows, ns))[:, None, None]
                        for k0 in range(0, nr, width):
                            k = np.arange(k0, min(k0 + width, nr))[:, None]
                            lhs = im(sr, q, im(s, r, j, k), l)
                            rhs = im(s, rq, j, kl[k0:k0 + width])
                            if not (lhs != rhs).any():
                                continue
                            # the least cell by (q, j, k, l) of the block
                            dj, dk, dt = np.nonzero(lhs != rhs)
                            x = np.lexsort((dt, dk, dj, g[dt]))[0]
                            cell = (g[dt[x]], j0 + dj[x], k0 + dk[x], dt[x],
                                    lhs[dj[x], dk[x], dt[x]], rhs[dj[x], dk[x], dt[x]])
                            worst = cell if worst is None else min(worst, cell)
                    if worst is not None:
                        _, jw, kw, tw, lv, rv = (int(v) for v in worst)
                        yield {"s": s, "r": r, "q": int(q[tw]), "j": jw, "k": kw,
                               "l": int(l[tw]), "lhs": lv, "rhs": rv}

        def unital_witnesses():
            one = eng.unit()
            for _, (s,), j in _grid(fibers, ranks):
                nu, x = left(s, one, j)
                for c in np.flatnonzero((nu != j) | ~_same(x, one))[:1]:
                    yield {"s": int(s[c])}

        def homomorphism_witnesses():
            # column j of L_s(ab) against L_s(a) applied to column j of L_s(b)
            sab = [(s, a, b) for s in vals for a in range(len(gens)) for b in range(len(gens))]
            for _, (s, a, b), j in _grid(sab, [n(s) for s, _, _ in sab]):
                nu, y = left(s, tuple(gen[:, b]), j)
                mu, x = left(s, tuple(gen[:, a]), nu)
                got, z = left(s, eng.mul(tuple(gen[:, a]), tuple(gen[:, b])), j)
                zero = (nu < 0) | (mu < 0)
                bad = ((got < 0) != zero) | (~zero & ((got != mu) | ~_same(z, eng.mul(x, y))))
                for c in np.flatnonzero(bad)[:1]:
                    yield {"s": int(s[c]), "a": repr(gens[a[c]]), "b": repr(gens[b[c]])}

        def star_witnesses():
            # L_s(a*) = L_s(a)*: column j of either side, (nu, x), must meet
            # column nu of the other at (j, x*)
            sa = [(s, a) for s in vals for a in range(len(gens))]
            for _, (s, a), j in _grid(sa, [n(s) for s, _ in sa]):
                bad = np.zeros(j.shape, dtype=bool)
                for mon in (tuple(gen[:, a]), eng.adjoint(tuple(gen[:, a]))):
                    nu, x = left(s, mon, j)
                    back, y = left(s, eng.adjoint(mon), nu)
                    bad |= (nu >= 0) & ((back != j) | ~_same(y, eng.adjoint(x)))
                for c in np.flatnonzero(bad)[:1]:
                    yield {"s": int(s[c]), "a": repr(gens[a[c]])}

        def coherent_witnesses():
            # L_(sr)(a)[m(nu, u), m(j, k)] = L_r(L_s(a)[nu, j])[u, k] on every
            # column m(j, k); a split outside N_s x N_r wants a zero column
            cells = [(*pair, a) for pair in pairs for a in range(len(gens))]
            for g, (s, r, ns, nr, a), i in _grid(cells, [n(sg.mul(s, r)) for s, r, *_ in cells]):
                mon = tuple(gen[:, a])
                j, k = split(s, r, i)
                nu, x = left(s, mon, j)
                u, y = left(r, x, k)
                want = im(s, r, nu, u)
                zero = (j < 0) | (j >= ns) | (k < 0) | (k >= nr) | (nu < 0) | (u < 0)
                got, z = left(sg.mul(s, r), mon, i)
                bad = ((got < 0) != zero) | (~zero & ((got != want) | ~_same(z, y)))
                for c in np.flatnonzero(bad)[:1]:
                    fs, fr = int(s[c]), int(r[c])
                    bad &= g == g[c]
                    # the cells of both sides, least by (j, nu, k, u)
                    rows = [(j[keep], *split(fs, fr, row[keep]), k[keep])
                            for row, keep in ((got, bad & (got >= 0)), (want, bad & ~zero))]
                    jj, nn, uu, kk = (np.concatenate(t) for t in zip(*rows))
                    x = np.lexsort((uu, kk, nn, jj))[0]
                    yield {"s": fs, "r": fr, "a": repr(gens[a[c]]),
                           "nu": int(nn[x]), "j": int(jj[x]), "u": int(uu[x]), "k": int(kk[x])}

        law("identity-fiber-rank", [{}] if n(e) != 1 else [], f"N_e = {n(e)}")
        law("basis-count-multiplicative",
            ({"s": s, "r": r} for s, r, ns, nr in pairs if n(sg.mul(s, r)) != ns * nr))
        law("index-map-unit", unit_witnesses())
        law("index-map-bijective", bijective_witnesses())
        law("index-map-associative", associative_witnesses())
        law("left-action-unital", unital_witnesses())
        law("left-action-homomorphism", homomorphism_witnesses())
        law("left-action-star", star_witnesses())
        law("left-action-coherent", coherent_witnesses())

        # the series code sums the profile's closed form in place of N_s; with
        # the rank laws above, agreement makes N a positive injective homomorphism
        kind, p = self.profile
        law("scaling-homomorphism",
            ({"s": s} for s in vals if n(s) != (s**p if kind == "power" else p**s)))
        coprime = [(s, r) for s in vals for r in vals if e not in (s, r) and sg.glb(s, r) == e]
        law("coprime-compatibility", self.coprime_witnesses(coprime), pairs=len(coprime))
        return checks

    def coprime_witnesses(self, pairs: Iterable[tuple[int, int]]) -> Iterator[dict]:
        """Witnesses against the doubly-faithful law on meet-trivial pairs.

        For glb(s, r) = e the same product index must never arise from
        two different (right factor) choices on either side:
        m(s,r; j, m) = m(r,s; l, g) and m(s,r; j, n) = m(r,s; l, h)
        forces m = n and g = h.  The law assumes the bijectivity that
        index-map-bijective checks, under which it says i |-> (j, l) is
        injective: every cell i of the window splits as (j, m) on (s, r)
        and as (l, h) on (r, s), and the first (pair, j, l) of each
        (pair, j) met twice is a witness with the (m, h) of its two
        least h.
        """
        n, split = self.basis_count, self.index_split
        groups = [(s, r, n(s), n(r)) for s, r in pairs]
        for g, (s, r, *_), i in _grid(groups, [ns * nr for *_, ns, nr in groups]):
            (j, m), (l, h) = split(s, r, i), split(r, s, i)
            order = np.lexsort((h, l, j, g))
            g, s, r, j, m, l, h = (t[order] for t in (g, s, r, j, m, l, h))
            twice = np.flatnonzero((g[1:] == g[:-1]) & (j[1:] == j[:-1]) & (l[1:] == l[:-1]))
            # the first such l of each (pair, j)
            first = np.ones(twice.size, dtype=bool)
            first[1:] = (g[twice[1:]] != g[twice[:-1]]) | (j[twice[1:]] != j[twice[:-1]])
            for x in twice[first]:
                yield {"s": int(s[x]), "r": int(r[x]), "j": int(j[x]), "l": int(l[x]),
                       "collisions": [(int(m[y]), int(h[y])) for y in (x, x + 1)]}

    def corrupted(self, s: int, r: int, pair_a: tuple[int, int], pair_b: tuple[int, int]):
        """A copy with two index-map values swapped, for negative tests.

        The copy is an instance of a subclass of this system's class that
        overrides only index_map and index_split: at the fiber pair (s, r)
        the images of pair_a and pair_b trade places, elementwise, fibers
        included.
        """
        a, b = self.index_map(s, r, *pair_a), self.index_map(s, r, *pair_b)

        def swap(fs, fr, i):
            hit = (fs == s) & (fr == r)
            out = np.where(hit & (i == a), b, np.where(hit & (i == b), a, i))
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
        # S*^nu (S^m S*^n) S^j = S^a S*^b, b = max(n + max(nu - m, 0) - j, 0): this nu
        # makes a - b = t - nu divisible by s, so no column is zero, and the
        # transfer gives ceil(a/s) = ceil(b/s) + (a - b)/s
        m, n = mon
        t = m - n + j
        nu = t % s
        w = n + (nu - m) * (nu > m) - j
        b = -(-(w * (w > 0)) // s)
        return nu, (b + (t - nu) // s, b)

    def generator_monomials(self):
        return [(1, 0), (0, 1)]


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
            i, x = divmod(i, s)
            out.append(x)
        return tuple(out)

    def _undigits(self, s: int, v: Iterable[int]) -> int:
        out = 0
        for x in reversed(tuple(v)):
            out = out * s + x
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
