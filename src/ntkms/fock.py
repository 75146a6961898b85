"""A truncated Fock representation as an independent numerical oracle.

For a product system whose coefficient engine is the scalars, the Fock
module over a window S of fibers is the finite-dimensional space with
orthonormal basis {(s, j) : s in S, j < N_s}.  A vector xi in the fiber
at s acts by the creation operator

    l(xi) (r, k) = sum_j xi_j (sr, m(s, r; j, k))   when sr in S,
                   0                                 otherwise,

and a normal-form term i_s(xi) i_r(1_l)* is represented by
l(xi) l(1_l)^T-conjugate.  Everything here is plain complex matrix
arithmetic with no symbolic layer, so agreement with the series state is
evidence for the normal-form engine, not a restatement of it.

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

import numpy as np

from .coeff import CoefficientElement
from .nt import NTElement
from .product_system import ModuleVector, ProductSystem
from .semigroup import TruncationSet

__all__ = ["TruncatedFock", "FOCK_DIMENSION_CAP"]

FOCK_DIMENSION_CAP = 5000


def _scalar(c: CoefficientElement) -> complex:
    return c.terms.get((), 0.0 + 0.0j)


class TruncatedFock:
    """The compressed Fock representation over a truncation window."""

    def __init__(self, system: ProductSystem, bound: int):
        if system.engine.tag != "scalar":
            raise ValueError("the Fock oracle needs a scalar coefficient engine")
        self.system = system
        self.trunc = TruncationSet(system.semigroup, bound)
        self.offsets: dict[int, int] = {}
        dim = 0
        for s in self.trunc.values:
            self.offsets[s] = dim
            dim += system.basis_count(s)
        if dim > FOCK_DIMENSION_CAP:
            raise ValueError(
                f"Fock dimension {dim} exceeds the cap {FOCK_DIMENSION_CAP}; "
                "shrink the window"
            )
        self.dim = dim
        self._creation: dict[tuple[int, int], np.ndarray] = {}

    def basis_index(self, s: int, j: int) -> int:
        return self.offsets[s] + j

    def creation(self, s: int, j: int) -> np.ndarray:
        """The matrix of l(1_j) for the basis vector at fiber s."""
        key = (s, j)
        mat = self._creation.get(key)
        if mat is not None:
            return mat
        sys = self.system
        sg = sys.semigroup
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for r in self.trunc.values:
            sr = sg.mul(s, r)
            if sr not in self.trunc:
                continue
            base_r = self.offsets[r]
            base_sr = self.offsets[sr]
            for k in range(sys.basis_count(r)):
                mat[base_sr + sys.index_map(s, r, j, k), base_r + k] = 1.0
        self._creation[key] = mat
        return mat

    def creation_vector(self, xi: ModuleVector) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for j, c in xi.entries.items():
            w = _scalar(c)
            if w != 0:
                out += w * self.creation(xi.fiber, j)
        return out

    def represent(self, y: NTElement) -> np.ndarray:
        """The compression P l(y) P as a dim x dim complex matrix."""
        if y.system is not self.system:
            raise ValueError("element is over a different product system")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (s, r, l), vec in y.sorted_terms():
            out += self.creation_vector(vec) @ self.creation(r, l).conj().T
        return out

    # -- checks -----------------------------------------------------------

    def interior_fibers(self, y: NTElement) -> list[int]:
        """Fibers q whose basis vectors y maps entirely inside the window."""
        sg = self.system.semigroup
        out = []
        for q in self.trunc.values:
            ok = True
            for (s2, r2, _), _vec in y.terms.items():
                if not sg.leq(r2, q):
                    continue
                if sg.mul(s2, sg.quotient(q, r2)) not in self.trunc:
                    ok = False
                    break
            if ok:
                out.append(q)
        return out

    def interior_columns(self, y: NTElement) -> list[int]:
        sys = self.system
        cols = []
        for q in self.interior_fibers(y):
            base = self.offsets[q]
            cols.extend(range(base, base + sys.basis_count(q)))
        return cols

    def product_defect(self, x: NTElement, y: NTElement) -> tuple[float, int]:
        """Max entry deviation of represent(x y) from represent(x)
        represent(y) over the interior columns of y."""
        cols = self.interior_columns(y)
        if not cols:
            return 0.0, 0
        lhs = self.represent(x * y)[:, cols]
        rhs = (self.represent(x) @ self.represent(y))[:, cols]
        return float(np.abs(lhs - rhs).max()), len(cols)

    def rank_one_matrix(self, xi: ModuleVector, eta: ModuleVector) -> np.ndarray:
        """The operator theta_(xi,eta) on the fiber at s, lifted to every
        window fiber above s."""
        if xi.fiber != eta.fiber:
            raise ValueError("rank-one data must share a fiber")
        s = xi.fiber
        n = self.system.basis_count(s)
        block = np.zeros((n, n), dtype=complex)
        for j, c in xi.entries.items():
            wj = _scalar(c)
            if wj == 0:
                continue
            for i, c2 in eta.entries.items():
                wi = _scalar(c2)
                if wi != 0:
                    block[j, i] += wj * wi.conjugate()
        return self.lift_matrix(s, block)

    def lift_matrix(self, w: int, block: np.ndarray) -> np.ndarray:
        """Extend an operator on the fiber at w to all window fibers q
        above w, acting on the w-leg of the index splitting."""
        sys = self.system
        sg = sys.semigroup
        out = np.zeros((self.dim, self.dim), dtype=complex)
        rows, cols = np.nonzero(block)
        for q in self.trunc.values:
            if not sg.leq(w, q):
                continue
            qq = sg.quotient(q, w)
            base = self.offsets[q]
            for a, b in zip(rows, cols):
                for i2 in range(sys.basis_count(qq)):
                    out[
                        base + sys.index_map(w, qq, int(a), i2),
                        base + sys.index_map(w, qq, int(b), i2),
                    ] += block[a, b]
        return out

    def nica_defect(
        self,
        xi: ModuleVector,
        eta: ModuleVector,
        zeta: ModuleVector,
        kappa: ModuleVector,
    ) -> float:
        """Deviation of theta_(xi,eta) theta_(zeta,kappa) from the lifted
        product over the join fiber, on window fibers above the join."""
        sg = self.system.semigroup
        s, r = xi.fiber, zeta.fiber
        w = sg.lub(s, r)
        if w not in self.trunc:
            raise ValueError("join fiber outside the window")
        a = self.rank_one_matrix(xi, eta)
        b = self.rank_one_matrix(zeta, kappa)
        prod = a @ b

        m1 = self._block_on(w, a)
        m2 = self._block_on(w, b)
        lifted = self.lift_matrix(w, m1 @ m2)

        # both are block diagonal over the window fibers, and lifted is zero
        # on fibers not above the join, where the product must vanish too
        return float(np.abs(prod - lifted).max())

    def _block_on(self, w: int, full: np.ndarray) -> np.ndarray:
        base = self.offsets[w]
        n = self.system.basis_count(w)
        return full[base : base + n, base : base + n]

    # -- the Gibbs state ----------------------------------------------------

    def state_value(self, y: NTElement, beta: float) -> complex:
        """Normalised Gibbs diagonal sum over the window.

        Matches the truncated series state exactly (same window, no
        compression loss on diagonals).
        """
        diag = np.diagonal(self.represent(y.core_expectation()))
        num = 0.0 + 0.0j
        zeta = 0.0
        for s in self.trunc.values:
            w = self.system.weight(s) ** (-beta)
            base = self.offsets[s]
            n = self.system.basis_count(s)
            num += w * complex(np.sum(diag[base : base + n]))
            zeta += w * n
        return num / zeta
