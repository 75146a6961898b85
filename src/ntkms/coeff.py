"""Coefficient algebras: exact symbolic arithmetic plus trace data.

Three engines cover the built-in product systems:

* Toeplitz -- monomials S^m S*^n with m, n >= 0.  The relation S*S = 1
  collapses any word to a single such monomial, so multiplication of two
  monomials always yields exactly one monomial:

      (S^m S*^n)(S^p S*^q) = S^(m+p-n) S*^q     if p >= n,
                             S^m S*^(q+n-p)      otherwise.

* Laurent -- monomials z^gamma with gamma in Z^d; exponents add and the
  adjoint negates them.  d = 1 models functions on the circle, general d
  the d-torus.
* Scalar -- the complex numbers; the unit is the only monomial.

Elements are finite complex combinations of monomials held in canonical
dict form with zero coefficients dropped, so equality of elements is
exact.  Every monomial has a degree in Z^d (S^m S*^n has degree m - n,
z^gamma has degree gamma, scalars have the empty degree) and traces are
evaluated through moment functions on those degrees.

Trace data is a moment function k |-> c(k) with c(0) = 1, c(-k) equal to
the conjugate of c(k), and positive semidefinite Gram matrices on a
finite window.  Violations raise at construction.  On these engines any
valid moment functional is automatically tracial: a product of two
monomials is a single monomial whose degree is the sum of the factors'
degrees, so trace(ab) and trace(ba) read the same moment.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Engine",
    "ToeplitzEngine",
    "LaurentEngine",
    "ScalarEngine",
    "TOEPLITZ",
    "SCALAR",
    "CoefficientElement",
    "TraceSpec",
    "haar_trace",
    "point_mass_trace",
    "mixture_trace",
    "identity_trace",
]


class EngineMismatch(ValueError):
    """Raised when elements over different engines are combined."""


class Engine:
    """Base for monomial arithmetic; subclasses fix the monomial shape.

    mul and adjoint also act elementwise on monomials given as tuples of
    numpy int arrays, one array per component, under broadcasting.
    """

    tag = "abstract"
    degree_dim = 0

    def unit(self) -> tuple:
        raise NotImplementedError

    def mul(self, a: tuple, b: tuple) -> tuple:
        raise NotImplementedError

    def adjoint(self, a: tuple) -> tuple:
        raise NotImplementedError

    def degree(self, a: tuple) -> tuple[int, ...]:
        raise NotImplementedError

    def check(self, a: tuple) -> tuple:
        raise NotImplementedError

    def format(self, a: tuple) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.tag} engine>"


class ToeplitzEngine(Engine):
    tag = "toeplitz"
    degree_dim = 1

    def unit(self):
        return (0, 0)

    def mul(self, a, b):
        # S*^n S^p cancels min(n, p)
        m, n = a
        p, q = b
        d = p - n
        return (m + d * (d > 0), q - d * (d < 0))

    def adjoint(self, a):
        return (a[1], a[0])

    def degree(self, a):
        return (a[0] - a[1],)

    def check(self, a):
        m, n = a
        if not (isinstance(m, int) and isinstance(n, int) and m >= 0 and n >= 0):
            raise ValueError(f"bad Toeplitz monomial {a!r}")
        return (m, n)

    def format(self, a):
        m, n = a
        if m == 0 and n == 0:
            return "1"
        parts = []
        if m:
            parts.append("S" if m == 1 else f"S^{m}")
        if n:
            parts.append("S*" if n == 1 else f"S*^{n}")
        return " ".join(parts)


class LaurentEngine(Engine):
    tag = "laurent"

    def __init__(self, d: int = 1):
        if d < 1:
            raise ValueError("laurent engine needs d >= 1")
        self.d = d
        self.degree_dim = d

    def unit(self):
        return (0,) * self.d

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def adjoint(self, a):
        return tuple(-x for x in a)

    def degree(self, a):
        return a

    def check(self, a):
        if len(a) != self.d or not all(isinstance(x, int) for x in a):
            raise ValueError(f"bad Laurent monomial {a!r} for d = {self.d}")
        return tuple(a)

    def format(self, a):
        if all(x == 0 for x in a):
            return "1"
        names = ["z"] if self.d == 1 else [f"z{i + 1}" for i in range(self.d)]
        parts = []
        for name, x in zip(names, a):
            if x == 0:
                continue
            parts.append(name if x == 1 else f"{name}^{x}")
        return " ".join(parts)

    def __repr__(self):
        return f"<laurent engine d={self.d}>"


class ScalarEngine(Engine):
    tag = "scalar"
    degree_dim = 0

    def unit(self):
        return ()

    def mul(self, a, b):
        return ()

    def adjoint(self, a):
        return ()

    def degree(self, a):
        return ()

    def check(self, a):
        if a != ():
            raise ValueError(f"bad scalar monomial {a!r}")
        return ()

    def format(self, a):
        return "1"


TOEPLITZ = ToeplitzEngine()
SCALAR = ScalarEngine()


def _same_engine(a: "CoefficientElement", b: "CoefficientElement") -> None:
    ea, eb = a.engine, b.engine
    if ea is eb:
        return
    if ea.tag != eb.tag or getattr(ea, "d", None) != getattr(eb, "d", None):
        raise EngineMismatch(f"cannot combine {ea!r} with {eb!r}")


class CoefficientElement:
    """A finite complex combination of engine monomials, kept canonical."""

    __slots__ = ("engine", "terms")

    def __init__(self, engine: Engine, terms: dict[tuple, complex] | None = None):
        self.engine = engine
        clean: dict[tuple, complex] = {}
        for mon, w in (terms or {}).items():
            w = complex(w)
            if w != 0:
                clean[mon] = w
        self.terms = clean

    @classmethod
    def monomial(cls, engine: Engine, mon: tuple, weight: complex = 1.0):
        return cls(engine, {engine.check(mon): complex(weight)})

    @classmethod
    def unit(cls, engine: Engine, weight: complex = 1.0):
        return cls(engine, {engine.unit(): complex(weight)})

    @classmethod
    def zero(cls, engine: Engine):
        return cls(engine, {})

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit_multiple(self) -> bool:
        return set(self.terms) <= {self.engine.unit()}

    def __add__(self, other):
        _same_engine(self, other)
        out = dict(self.terms)
        for mon, w in other.terms.items():
            out[mon] = out.get(mon, 0.0) + w
        return CoefficientElement(self.engine, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        _same_engine(self, other)
        eng = self.engine
        out: dict[tuple, complex] = {}
        for m1, w1 in self.terms.items():
            for m2, w2 in other.terms.items():
                mon = eng.mul(m1, m2)
                out[mon] = out.get(mon, 0.0) + w1 * w2
        return CoefficientElement(eng, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def scale(self, w: complex):
        if w == 1:
            return self
        return CoefficientElement(self.engine, {m: w * c for m, c in self.terms.items()})

    def adjoint(self):
        # conjugating a real weight gives it a -0.0 imaginary part; 0.0 +
        # clears it, as products and sums do, so printed forms keep "+0i"
        eng = self.engine
        return CoefficientElement(
            eng, {eng.adjoint(m): 0.0 + w.conjugate() for m, w in self.terms.items()}
        )

    def one_norm(self) -> float:
        return sum(abs(w) for w in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, CoefficientElement):
            return NotImplemented
        return self.engine.tag == other.engine.tag and self.terms == other.terms

    def __hash__(self):
        return hash((self.engine.tag, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple, complex]]:
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({w:g})*{self.engine.format(m)}" for m, w in self.sorted_terms()]
        return " + ".join(bits)


def _zero_degree(dim: int) -> tuple[int, ...]:
    return (0,) * dim


# degrees per axis on which TraceSpec checks its moments
MOMENT_WINDOW = 8


def _moment_gram(moment: Callable[[tuple[int, ...]], complex], dim: int, w: int) -> np.ndarray:
    """The Gram matrix [c(g - h)] over the degrees g, h in {0..w-1}^d, in
    ``iter_product`` order.

    It is block Toeplitz, so c is called once per difference in
    {1-w..w-1}^d and one gather fills the matrix.  Read in base 2w - 1
    with digits shifted by w - 1, a difference g - h sits at
    pos(g) - pos(h) + center in the table of differences, and reversing
    the table maps k to -k.  A non-finite moment, or a pair with
    c(-k) != conj(c(k)), raises ValueError naming the first such degree.
    """
    degrees = list(iter_product(range(1 - w, w), repeat=dim))
    table = np.array([moment(k) for k in degrees], dtype=complex)
    for i in np.flatnonzero(~np.isfinite(table))[:1]:
        raise ValueError(f"moment at degree {degrees[i]} is {table[i]}, not finite")
    for i in np.flatnonzero(np.abs(table[::-1] - table.conj()) > 1e-9)[:1]:
        raise ValueError(f"moment not hermitian at degree {degrees[i]}")
    strides = (2 * w - 1) ** np.arange(dim - 1, -1, -1)
    pos = np.indices((w,) * dim).reshape(dim, -1).T @ strides
    return table[np.subtract.outer(pos, pos) + (w - 1) * int(strides.sum())]


@dataclass
class TraceSpec:
    """Moment data defining a state on a coefficient engine.

    ``moment_fn`` maps a degree in Z^d to a complex number.  Construction
    validates c(0) = 1, hermitian symmetry and positive semidefiniteness
    of the Gram matrix over the degrees {0..MOMENT_WINDOW-1}^d, which
    caps the torus rank d at 4; violations raise ValueError.  ``moment``
    returns exactly 1.0 at the zero degree, which downstream
    normalisation relies on.
    """

    engine: Engine
    moment_fn: Callable[[tuple[int, ...]], complex]
    name: str = "trace"

    def __post_init__(self):
        self._validate()

    def _validate(self):
        dim = self.engine.degree_dim
        zero = _zero_degree(dim)
        raw0 = complex(self.moment_fn(zero))
        if not abs(raw0 - 1.0) <= 1e-12:
            raise ValueError(f"moment at degree zero is {raw0}, must be 1")
        if dim == 0:
            return
        w = MOMENT_WINDOW
        if w**dim > 4096:
            raise ValueError(f"cannot check moments on torus rank d = {dim}: "
                             f"window {w}^{dim} exceeds 4096 degrees")
        low = float(np.linalg.eigvalsh(_moment_gram(self.moment, dim, w)).min())
        if low < -1e-9:
            raise ValueError(
                f"moment data not positive semidefinite on window {w}: min eig {low:.3e}"
            )

    def moment(self, k: tuple[int, ...]) -> complex:
        if not any(k):
            return complex(1.0)
        return complex(self.moment_fn(k))

    def eval(self, a: CoefficientElement) -> complex:
        """Linear extension of the moments to a full element."""
        eng = a.engine
        total = 0.0 + 0.0j
        for mon, w in a.sorted_terms():
            total += w * self.moment(eng.degree(mon))
        return total

    def __repr__(self):
        return f"TraceSpec({self.name!r} on {self.engine.tag})"


def haar_trace(engine: Engine) -> TraceSpec:
    """Moments of normalised arc length: 1 at degree zero, else 0."""
    dim = engine.degree_dim
    zero = _zero_degree(dim)

    def moment(k):
        return 1.0 if k == zero else 0.0

    return TraceSpec(engine, moment, name="haar")


def point_mass_trace(engine: Engine, theta) -> TraceSpec:
    """Moments of a point evaluation at angle(s) theta: c(k) = exp(i k.theta)."""
    dim = engine.degree_dim
    if dim == 0:
        raise ValueError("point mass needs a torus engine")
    if isinstance(theta, (int, float)):
        if dim != 1:
            raise ValueError(f"need {dim} angles")
        thetas = (float(theta),)
    else:
        thetas = tuple(float(t) for t in theta)
        if len(thetas) != dim:
            raise ValueError(f"need {dim} angles, got {len(thetas)}")

    def moment(k):
        return cmath.exp(1j * sum(ki * ti for ki, ti in zip(k, thetas)))

    label = "point_mass(" + ",".join(f"{t:g}" for t in thetas) + ")"
    return TraceSpec(engine, moment, name=label)


def mixture_trace(components: Iterable[tuple[float, TraceSpec]]) -> TraceSpec:
    """Convex combination of trace specs over a common engine."""
    comps = [(float(w), t) for w, t in components]
    if not comps:
        raise ValueError("empty mixture")
    engine = comps[0][1].engine
    for w, t in comps:
        if w < 0:
            raise ValueError("mixture weights must be nonnegative")
        if t.engine.tag != engine.tag or t.engine.degree_dim != engine.degree_dim:
            raise EngineMismatch("mixture components over different engines")
    total = sum(w for w, _ in comps)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {total}, must be 1")

    def moment(k):
        return sum(w * t.moment(k) for w, t in comps)

    label = "mixture(" + ",".join(f"{w:g}*{t.name}" for w, t in comps) + ")"
    return TraceSpec(engine, moment, name=label)


def identity_trace() -> TraceSpec:
    """The unique state on the scalar engine."""
    return TraceSpec(SCALAR, lambda k: 1.0, name="identity")
