"""A truncated Fock representation as an independent numerical oracle.

The Fock module over a window S of fibers has the orthonormal basis
{(s, j) : s in S, j < N_s} over the coefficients.  Over the scalars it is
a finite-dimensional space, and a vector xi in the fiber at s acts by the
creation operator

    l(xi) (r, k) = sum_j xi_j (sr, m(s, r; j, k))   when sr in S,
                   0                                 otherwise,

and a normal-form term i_s(xi) i_r(1_l)* is represented by
l(xi) l(1_l)^T-conjugate.  No symbolic layer is involved, so agreement
with the series state is evidence for the normal-form engine, not a
restatement of it.  Only the operators need scalar coefficients; the
Gibbs state reads a trace of the diagonal entries of the left action.

Each l(1_j) sends basis vectors to basis vectors: it is a partial
injection, stored as an integer array from column to row (``image``),
and l(1_l)* as the inverse array.  A term is a weighted sum of their
compositions, each again one index array, so operators are applied and
composed by indexing and scatter-added column by column into matrices.
No dense product is formed and nothing enters BLAS.  Within one
composition each column receives one value, and distinct j have disjoint
ranges, so summing in term order gives the floats of the dense products.

Because the window is an order interval, lowering never leaves it; only
raising clips.  Two consequences drive the checks:

* the compressed representation of a product agrees with the product of
  compressions on columns whose y-image stays inside the window (the
  interior columns);
* the Gibbs diagonal sum over the window equals the truncated series
  state exactly, since diagonal evaluation of a core term lowers and
  re-raises within the window, so nothing clips.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice
from typing import Iterable

import numpy as np

from .coeff import CoefficientElement, TraceSpec
from .nt import NTElement
from .product_system import ModuleVector, ProductSystem
from .semigroup import TruncationSet

__all__ = ["TruncatedFock", "FOCK_DIMENSION_CAP"]

FOCK_DIMENSION_CAP = 5000

# weighted partial injections w * g, g sending column c to row g[c]
Maps = Iterable[tuple[np.ndarray, complex]]


def _scalar(c: CoefficientElement) -> complex:
    """A scalar coefficient as a number: the operators' one engine check."""
    if c.engine.degree_dim != 0:
        raise ValueError("the Fock operators need a scalar coefficient engine")
    return c.terms.get((), 0.0 + 0.0j)


class TruncatedFock:
    """The compressed Fock representation over a truncation window."""

    def __init__(self, system: ProductSystem, bound: int):
        self.system = system
        self.trunc = TruncationSet(system.semigroup, bound)
        # every rank is at least one, so cap + 1 fibers tell an oversized
        # window before anything of its size is built
        ranks = [system.basis_count(s) for s in islice(self.trunc, FOCK_DIMENSION_CAP + 1)]
        *starts, self.dim = accumulate(ranks, initial=0)
        if self.dim > FOCK_DIMENSION_CAP:
            raise ValueError(f"the Fock window up to {bound} exceeds the cap "
                             f"{FOCK_DIMENSION_CAP} on its dimension; shrink the window")
        # the first column of each window fiber, indexed by the fiber
        self.offsets = np.zeros(bound + 1, dtype=np.int64)
        self.offsets[list(self.trunc.values)] = starts
        self._columns = np.arange(self.dim)
        # column (q, k) as its fiber q and index k
        self._fiber = np.repeat(self.trunc.values, ranks)
        self._index = self._columns - np.repeat(starts, ranks)
        self._creation: dict[tuple[int, int], np.ndarray] = {}
        self._adjoint: dict[tuple[int, int], np.ndarray] = {}

    def image(self, s: int, j: int) -> np.ndarray:
        """The row of l(1_j) e_c for every column c of the window, -1 where
        raising by s leaves it.  A last slot, for the zero vector, holds -1
        too, so images compose by indexing: (g h)[c] = g[h[c]]."""
        img = self._creation.get((s, j))
        if img is not None:
            return img
        img = np.full(self.dim + 1, -1)
        sr = self.system.semigroup.mul(s, self._fiber)
        inside = sr <= self.trunc.bound  # the window is an interval from the identity
        r, k = self._fiber[inside], self._index[inside]
        img[:-1][inside] = self.offsets[sr[inside]] + self.system.index_map(s, r, j, k)
        self._creation[s, j] = img
        return img

    def _coimage(self, s: int, j: int) -> np.ndarray:
        """image(s, j) for l(1_j)*, which inverts l(1_j) on its range."""
        inv = self._adjoint.get((s, j))
        if inv is None:
            img = self.image(s, j)
            inv = np.full(self.dim + 1, -1)
            inv[img[img >= 0]] = np.flatnonzero(img >= 0)
            self._adjoint[s, j] = inv
        return inv

    def creation(self, s: int, j: int) -> np.ndarray:
        """The matrix of l(1_j) for the basis vector at fiber s: a dense
        view of image(s, j), built on each call."""
        return self._matrix([(self.image(s, j), 1.0)])

    def _maps(self, y: NTElement) -> Maps:
        """l(y) as the maps xi_j l(1_j) l(1_l)*, in sorted term order."""
        if y.system is not self.system:
            raise ValueError("element is over a different product system")
        for (s, r, l), vec in y.sorted_terms():
            adj = self._coimage(r, l)
            for j, c in vec.entries.items():
                yield self.image(s, j)[adj], _scalar(c)

    def _matrix(self, maps: Maps, cols=None) -> np.ndarray:
        """The sum of the maps on the given columns (all by default)."""
        cols = self._columns if cols is None else cols
        # row -1 (the last) collects what a map sends to zero
        out = np.zeros((self.dim + 1, len(cols)), dtype=complex)
        at = np.arange(len(cols))
        for g, w in maps:
            out[g[cols], at] += w
        return out[:-1]

    def represent(self, y: NTElement) -> np.ndarray:
        """The compression P l(y) P as a dim x dim complex matrix."""
        return self._matrix(self._maps(y))

    # -- checks -----------------------------------------------------------

    def interior_fibers(self, y: NTElement) -> list[int]:
        """Fibers q whose basis vectors y maps entirely inside the window."""
        sg = self.system.semigroup
        return [q for q in self.trunc.values
                if all(sg.mul(s, sg.quotient(q, r)) in self.trunc
                       for s, r, _ in y.terms if sg.leq(r, q))]

    def interior_columns(self, y: NTElement) -> list[int]:
        return [self.offsets[q] + i for q in self.interior_fibers(y)
                for i in range(self.system.basis_count(q))]

    def product_defect(self, x: NTElement, y: NTElement) -> tuple[float, int]:
        """Max entry deviation of represent(x y) from represent(x)
        represent(y) over the interior columns of y."""
        cols = self.interior_columns(y)
        if not cols:
            return 0.0, 0
        ys = list(self._maps(y))
        # y, then x, applied to the interior columns, subtracted from x y
        rhs = ((g[h], -v * w) for g, v in self._maps(x) for h, w in ys)
        diff = self._matrix(chain(self._maps(x * y), rhs), np.array(cols))
        return float(np.abs(diff).max()), len(cols)

    def _rank_one(self, xi: ModuleVector, eta: ModuleVector) -> list:
        if xi.fiber != eta.fiber:
            raise ValueError("rank-one data must share a fiber")
        w = xi.fiber
        return [(self.image(w, a)[self._coimage(w, b)], _scalar(x) * _scalar(y).conjugate())
                for a, x in xi.entries.items() for b, y in eta.entries.items()]

    def _lift(self, w: int, block: np.ndarray) -> list:
        # entry (a, b) of the block acts as block[a, b] l(1_a) l(1_b)*
        return [(self.image(w, a)[self._coimage(w, b)], block[a, b])
                for a, b in zip(*np.nonzero(block))]

    def lift_matrix(self, w: int, block: np.ndarray) -> np.ndarray:
        """Extend an operator on the fiber at w to all window fibers q
        above w, acting on the w-leg of the index splitting."""
        return self._matrix(self._lift(w, block))

    def nica_defect(self, xi: ModuleVector, eta: ModuleVector,
                    zeta: ModuleVector, kappa: ModuleVector) -> float:
        """Deviation of theta_(xi,eta) theta_(zeta,kappa) from the lifted
        product over the join fiber, on window fibers above the join."""
        w = self.system.semigroup.lub(xi.fiber, zeta.fiber)
        if w not in self.trunc:
            raise ValueError("join fiber outside the window")
        zk = self._rank_one(zeta, kappa)
        prod = self._matrix((g[h], u * v) for g, u in self._rank_one(xi, eta) for h, v in zk)
        # both factors are block diagonal over the window fibers, so the
        # product's block at the join is the product of their blocks; the
        # lift is zero on fibers not above the join, where prod must vanish
        base = self.offsets[w]
        n = self.system.basis_count(w)
        lifted = self.lift_matrix(w, prod[base : base + n, base : base + n])
        return float(np.abs(prod - lifted).max())

    # -- the Gibbs state ----------------------------------------------------

    def state_value(self, y: NTElement, beta: float, trace: TraceSpec) -> complex:
        """Normalised Gibbs diagonal sum over the window under trace, a
        trace of the coefficients that the caller always names.

        A core term i_r(1_j c) i_r(1_l)* fixes column (rq, m(r, q; l, k))
        when the index arrays say so, and there adds tau(L_q(c)[k, k]), read
        from left_column for all such columns at once.  Matches the
        truncated series state exactly (no compression loss on diagonals).
        """
        if y.system is not self.system or trace.engine != self.system.engine:
            raise ValueError("element or trace does not belong to this product system")
        diag = np.zeros(self.dim, dtype=complex)
        for (r, _, l), vec in y.core_expectation().sorted_terms():
            adj = self._coimage(r, l)
            for j, c in vec.entries.items():
                cols = np.flatnonzero(self.image(r, j)[adj][:-1] == self._columns)
                src = adj[cols]
                q, k = self._fiber[src], self._index[src]
                for mon, w in c.sorted_terms():
                    if any(abs(x) >= 2**61 for x in mon):  # index sums could wrap in int64
                        raise ValueError(f"the Fock oracle reads no exponent past 2^61: {mon}")
                    nu, entry = self.system.left_column(q, mon, k)
                    hit = nu == k
                    # diagonal degrees, a row per coordinate; k's row keeps the shape at d = 0
                    degree = np.array([k, *(x + 0 * k for x in c.engine.degree(entry))])[1:, hit]
                    at = cols[hit]
                    while at.size:  # one moment per distinct degree
                        same = (degree == degree[:, :1]).all(axis=0)
                        diag[at[same]] += w * trace.moment(tuple(int(x) for x in degree[:, 0]))
                        at, degree = at[~same], degree[:, ~same]
        num, zeta = 0.0 + 0.0j, 0.0
        for s in self.trunc.values:
            w, n = self.system.weight(s) ** (-beta), self.system.basis_count(s)
            num += w * complex(np.sum(diag[self.offsets[s] : self.offsets[s] + n]))
            zeta += w * n
        return num / zeta
