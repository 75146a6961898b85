"""Exact normal forms in the Nica-Toeplitz algebra of a product system.

Every element handled here is a finite sum of monomials i_s(xi) i_r(eta)*
where xi, eta are vectors in the fibers at s and r.  Two reductions make
the representation canonical:

* the right leg is always a plain basis vector: using the right module
  action, i_s(xi) i_r(eta)* = sum_l i_s(xi . eta_l*) i_r(1_l)*, so a term
  is a triple (s, r, l) carrying one fiber vector;
* terms with equal (s, r, l) merge by adding their vectors, and terms
  with zero vector are dropped.

Equality of canonical forms is exact dict equality, so algebraic
identities can be asserted with no tolerance.

Multiplication reduces to the core identity for i_r(1_l)* i_g(zeta).
With w = lub(r, g), g'' = r\\w and r'' = g\\w, each basis index i of the
fiber at w splits two ways, i = m(r, g''; i_r, i_g'') = m(g, r''; i_g,
i_r''), and

    i_r(1_l)* i_g(zeta)
        = sum_u i_g''(1_u) i_r''(phi(zeta_(i_g)*) 1_(i_r''))*

over u < N_g'' with i = m(r, g''; l, u).  Outer legs then absorb through
the module product and the result is re-canonicalised.  A term pair
lands in the fiber pair (s g'', h r'') whatever u is, so a product asked
for only some fiber pairs (the diagonal for a KMS state, the identity
corner for a ground state) skips the other term pairs before any
reduction.  The sum runs over whichever side is smaller: the N_g'' values
of u, or the |zeta| N_r'' pairs (i_g, i_r''), sent through m(g, r''; .)
and split by m(r, g''; .), keeping those whose first index is l.  The
hits are taken in increasing u either way, so every output key
accumulates in the same order and the floats agree bitwise.  Raw work
is capped: the number of raw terms emitted during a product, and the
trial divisions made by the divisor scans of one state evaluation, may
not cross the term budget, and crossing it raises TermBudgetExceeded
rather than grinding on.
"""

from __future__ import annotations

import cmath
from contextlib import contextmanager
from contextvars import ContextVar

from .coeff import CoefficientElement
from .product_system import ModuleVector, ProductSystem

__all__ = [
    "NTElement",
    "TermBudgetExceeded",
    "term_budget",
    "get_term_budget",
    "unit_projection",
    "diagonal",
]

DEFAULT_TERM_BUDGET = 1_000_000

# context-local, so a budget set in one thread or task leaves the others alone
_budget: ContextVar[int] = ContextVar("term_budget", default=DEFAULT_TERM_BUDGET)


class TermBudgetExceeded(RuntimeError):
    """A computation would do more raw work than the configured cap: a
    product emitting more raw terms, or one evaluation's trial divisions."""


def get_term_budget() -> int:
    """The raw-work cap in the current context."""
    return _budget.get()


@contextmanager
def term_budget(n: int):
    """The raw-work cap n within the block, restored on exit.

    The cap bounds the raw terms of one product and the trial divisions
    made by one state evaluation; it is the only way to set it.
    """
    if n < 1:
        raise ValueError("term_budget must be positive")
    token = _budget.set(int(n))
    try:
        yield
    finally:
        _budget.reset(token)


class NTElement:
    """A canonical finite sum of terms i_s(xi) i_r(1_l)*.

    ``terms`` maps (s, r, l) to the fiber vector xi; vectors are nonzero
    and the dict is the whole state, so == is exact equality of normal
    forms.
    """

    __slots__ = ("system", "terms")

    def __init__(self, system: ProductSystem, terms: dict[tuple[int, int, int], ModuleVector] | None = None):
        self.system = system
        clean: dict[tuple[int, int, int], ModuleVector] = {}
        for key, vec in (terms or {}).items():
            if not vec.is_zero():
                clean[key] = vec
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, system: ProductSystem) -> "NTElement":
        return cls(system, {})

    @classmethod
    def unit(cls, system: ProductSystem) -> "NTElement":
        e = system.identity_fiber()
        return cls(system, {(e, e, 0): system.basis_vector(e, 0)})

    @classmethod
    def embed(cls, system: ProductSystem, s: int, xi: ModuleVector) -> "NTElement":
        """i_s(xi), a creation-type element."""
        if xi.fiber != s:
            raise ValueError("vector not in the requested fiber")
        e = system.identity_fiber()
        return cls(system, {(s, e, 0): xi})

    @classmethod
    def embed_coeff(cls, system: ProductSystem, a: CoefficientElement) -> "NTElement":
        """i_e(a), the copy of the coefficient algebra."""
        e = system.identity_fiber()
        return cls.embed(system, e, ModuleVector(system, e, {0: a}))

    @classmethod
    def from_monomial(
        cls, system: ProductSystem, s: int, xi: ModuleVector, r: int, eta: ModuleVector
    ) -> "NTElement":
        """i_s(xi) i_r(eta)*, split so the right leg is a basis vector."""
        if xi.fiber != s or eta.fiber != r:
            raise ValueError("vectors not in the stated fibers")
        out: dict[tuple[int, int, int], ModuleVector] = {}
        for l, c in eta.entries.items():
            _accumulate(out, (s, r, l), xi.right_mul(c.adjoint()))
        return cls(system, out)

    # -- linear structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def __add__(self, other: "NTElement") -> "NTElement":
        self._same(other)
        out = dict(self.terms)
        for key, vec in other.terms.items():
            _accumulate(out, key, vec)
        return NTElement(self.system, out)

    def __sub__(self, other: "NTElement") -> "NTElement":
        return self + other.scale(-1.0)

    def __neg__(self) -> "NTElement":
        return self.scale(-1.0)

    def scale(self, w: complex) -> "NTElement":
        if w == 0:
            return NTElement.zero(self.system)
        return NTElement(self.system, {k: v.scale(w) for k, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    # -- star algebra ---------------------------------------------------------

    def adjoint(self) -> "NTElement":
        """Termwise [i_s(xi) i_r(1_l)*]* = i_r(1_l) i_s(xi)* =
        sum_k i_r(1_l xi_k*) i_s(1_k)*, gathered in one pass: the entry
        (k, c) of xi puts c* at index l of the vector keyed (r, s, k)."""
        acc: dict[tuple[int, int, int], dict[int, CoefficientElement]] = {}
        for (s, r, l), vec in self.terms.items():
            for k, c in vec.entries.items():
                acc.setdefault((r, s, k), {})[l] = c.adjoint()
        sys = self.system
        return NTElement(sys, {key: ModuleVector(sys, key[0], x) for key, x in acc.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return self.product(other)

    def product(self, other: "NTElement", keep=None) -> "NTElement":
        """self * other, restricted to the terms whose fiber pair (s, r)
        passes keep(s, r) when keep is given; the kept terms are exactly
        those of the full product."""
        self._same(other)
        sys = self.system
        sg = sys.semigroup
        out: dict[tuple[int, int, int], ModuleVector] = {}
        emitted = 0
        budget = _budget.get()
        for (s, r, l), xi in self.terms.items():
            for (g, h, m), zeta in other.terms.items():
                w = sg.lub(r, g)
                gg = sg.quotient(w, r)
                rr = sg.quotient(w, g)
                sgg = sg.mul(s, gg)
                hrr = sg.mul(h, rr)
                if keep is not None and not keep(sgg, hrr):
                    continue
                n_gg, n_rr = sys.basis_count(gg), sys.basis_count(rr)
                if len(zeta.entries) * n_rr < n_gg:
                    # fewer right-support pairs (i_g, i_r'') than values of u:
                    # invert them, keeping the hits whose r-index is l
                    hits = sorted(
                        (u, ig, irr) for ig in zeta.entries for irr in range(n_rr)
                        for lh, u in [sys.index_split(r, gg, sys.index_map(g, rr, ig, irr))]
                        if lh == l)
                else:
                    hits = ((u, *sys.index_split(g, rr, sys.index_map(r, gg, l, u)))
                            for u in range(n_gg))
                for u, ig, irr in hits:
                    b = zeta.entries.get(ig)
                    if b is None:
                        continue
                    emitted += 1
                    if emitted > budget:
                        raise TermBudgetExceeded(
                            f"product of {len(self.terms)} x {len(other.terms)} terms "
                            f"exceeded the raw-term cap ({budget}) while reducing the "
                            f"fiber pair (r, g) = ({r}, {g}); "
                            "raise the budget or shrink the operands"
                        )
                    left = sys.module_product(xi, sys.basis_vector(gg, u))
                    right = sys.module_product(
                        sys.basis_vector(h, m, coeff=b.adjoint()),
                        sys.basis_vector(rr, irr),
                    )
                    for lr, c in right.entries.items():
                        _accumulate(out, (sgg, hrr, lr), left.right_mul(c.adjoint()))
        return NTElement(sys, out)

    # -- structure maps -------------------------------------------------------

    def core_expectation(self) -> "NTElement":
        """Keep the terms with equal fibers; the projection onto the core.

        A core element is its own core expectation: elements are immutable
        values, so one whose terms all have s == r is returned as it is.
        """
        if all(s == r for s, r, _ in self.terms):
            return self
        return NTElement(
            self.system, {k: v for k, v in self.terms.items() if k[0] == k[1]}
        )

    def alpha(self, s: int) -> "NTElement":
        """alpha_s(y) = sum_j i_s(1_j) y i_s(1_j)*, written termwise.

        Since L_g(1) is the identity, i_s(1_j) i_g(zeta) i_h(1_m)* i_s(1_j)*
        = i_(sg)(1_j zeta) i_(sh)(1_(m(s, h; j, m)))*, where 1_j zeta has
        the entry zeta_v at index m(s, g; j, v).  Distinct (j, term) give
        distinct keys, so alpha_s only reindexes and does no arithmetic.
        """
        sys = self.system
        sg = sys.semigroup
        im = sys.index_map
        out: dict[tuple[int, int, int], ModuleVector] = {}
        for j in range(sys.basis_count(s)):
            for (g, h, m), zeta in self.terms.items():
                x = {im(s, g, j, v): c for v, c in zeta.entries.items()}
                out[(sg.mul(s, g), sg.mul(s, h), im(s, h, j, m))] = ModuleVector(
                    sys, sg.mul(s, g), x)
        return NTElement(sys, out)

    def dynamics(self, z: complex) -> "NTElement":
        """Scale each term by (N(s)/N(r))^(iz); z = i*beta gives the
        KMS-side factor (N(s)/N(r))^(-beta)."""
        sys = self.system
        nof = sys.weight
        out: dict[tuple[int, int, int], ModuleVector] = {}
        for (s, r, l), vec in self.terms.items():
            ratio = nof(s) / nof(r)
            factor = cmath.exp(1j * z * cmath.log(ratio)) if ratio != 1.0 else 1.0
            _accumulate(out, (s, r, l), vec.scale(factor))
        return NTElement(sys, out)

    # -- inspection -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, int, int], ModuleVector]]:
        return sorted(self.terms.items())

    def one_norm(self) -> float:
        return sum(v.one_norm() for v in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, NTElement):
            return NotImplemented
        return self.system is other.system and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.system), frozenset(self.terms.items())))

    def _same(self, other: "NTElement") -> None:
        if self.system is not other.system:
            raise ValueError("elements live over different product systems")

    def __repr__(self):
        if not self.terms:
            return "NT<0>"
        bits = []
        for (s, r, l), vec in self.sorted_terms()[:4]:
            bits.append(f"i[{s}]({vec!r}) i[{r}](1@{l})*")
        more = "" if len(self.terms) <= 4 else f" ... ({len(self.terms)} terms)"
        return "NT<" + " + ".join(bits) + more + ">"


def _accumulate(store: dict, key: tuple[int, int, int], vec: ModuleVector) -> None:
    cur = store.get(key)
    if cur is None:
        if not vec.is_zero():
            store[key] = vec
        return
    tot = cur + vec
    if tot.is_zero():
        del store[key]
    else:
        store[key] = tot


def diagonal(s: int, r: int) -> bool:
    """The product filter keeping the core: fiber pairs with s == r."""
    return s == r


def unit_projection(system: ProductSystem, s: int) -> NTElement:
    """alpha_s(1) = sum_j i_s(1_j) i_s(1_j)*, the range projection."""
    return NTElement.unit(system).alpha(s)
