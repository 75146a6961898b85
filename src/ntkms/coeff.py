"""Coefficient algebras: exact symbolic arithmetic plus trace data.

Two engines cover the built-in product systems:

* Toeplitz -- monomials S^m S*^n with m, n >= 0.  The relation S*S = 1
  collapses any word to a single such monomial, so multiplication of two
  monomials always yields exactly one monomial:

      (S^m S*^n)(S^p S*^q) = S^(m+p-n) S*^q     if p >= n,
                             S^m S*^(q+n-p)      otherwise.

* Laurent -- monomials z^gamma with gamma in Z^d; exponents add and the
  adjoint negates them.  d = 1 models functions on the circle, general d
  the d-torus.  The scalars are the rank d = 0: C(T^0) = C, and the
  empty exponent () is the only monomial.

Elements are finite complex combinations of monomials held in canonical
dict form with zero coefficients dropped, so equality of elements is
exact.  Every monomial has a degree in Z^d (S^m S*^n has degree m - n,
z^gamma has degree gamma, scalars have the empty degree) and traces are
evaluated through their moments on those degrees.

Trace data is a probability measure on the torus T^d: a Haar weight
plus finitely many point masses, each the character k |-> exp(i k.theta)
on degrees.  Its moments c(k) are normalised, hermitian and positive
semidefinite by construction, so only the weights and angles are
checked.  On these engines every such moment functional is
automatically tracial: a product of two monomials is a single monomial
whose degree is the sum of the factors' degrees, so trace(ab) and
trace(ba) read the same moment.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "Engine",
    "ToeplitzEngine",
    "LaurentEngine",
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
    numpy int arrays, one array per component, under broadcasting.  An
    engine is identified by its tag and its degree rank degree_dim.
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

    def __eq__(self, other):
        if not isinstance(other, Engine):
            return NotImplemented
        return (self.tag, self.degree_dim) == (other.tag, other.degree_dim)

    def __hash__(self):
        return hash((self.tag, self.degree_dim))

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
    """Laurent polynomials on the d-torus, d >= 0; rank 0 is the scalars,
    tagged "scalar", whose only monomial is ()."""

    def __init__(self, d: int = 1):
        if d < 0:
            raise ValueError("laurent engine needs d >= 0")
        self.d = d
        self.degree_dim = d
        self.tag = "laurent" if d else "scalar"

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
        return f"<laurent engine d={self.d}>" if self.d else super().__repr__()


TOEPLITZ = ToeplitzEngine()
SCALAR = LaurentEngine(0)


def _same_engine(a: "CoefficientElement", b: "CoefficientElement") -> None:
    ea, eb = a.engine, b.engine
    if ea is not eb and ea != eb:
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
        same = self.engine is other.engine or self.engine == other.engine
        return same and self.terms == other.terms

    def __hash__(self):
        return hash((self.engine, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple, complex]]:
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({w:g})*{self.engine.format(m)}" for m, w in self.sorted_terms()]
        return " + ".join(bits)


@dataclass(frozen=True)
class TraceSpec:
    """A probability measure on the torus T^d, read as a state on an engine.

    The measure is ``haar`` times normalised Haar measure plus a point
    mass of weight ``w`` at the angles ``theta`` for each ``(w, theta)``
    in ``atoms``.  Construction checks only the data: the weights are
    finite, nonnegative and sum to 1 within 1e-12, and each angle tuple
    has d finite entries; violations raise ValueError.  ``moment`` is the
    closed form c(k) = haar*[k = 0] + sum of w*exp(i k.theta), so c(0) = 1,
    c(-k) = conj(c(k)) and positive semidefiniteness hold at every degree.
    It returns exactly 1.0 at the zero degree, which downstream
    normalisation relies on, and raises ValueError naming the degree when
    a phase k.theta is not finite.  On the scalar engine (d = 0) the torus
    is a point and every such measure is the identity state.
    """

    engine: Engine
    haar: float
    atoms: tuple[tuple[float, tuple[float, ...]], ...] = ()
    name: str = "trace"

    def __post_init__(self):
        weights = [self.haar] + [w for w, _ in self.atoms]
        for w in weights:
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"trace weight {w} must be finite and nonnegative")
        total = sum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"trace weights sum to {total}, must be 1")
        dim = self.engine.degree_dim
        for _, theta in self.atoms:
            if len(theta) != dim:
                raise ValueError(f"need {dim} angles, got {len(theta)}")
            for t in theta:
                if not math.isfinite(t):
                    raise ValueError(f"angle {t} is not finite")

    def moment(self, k: tuple[int, ...]) -> complex:
        if not any(k):
            return complex(1.0)
        total = 0j
        for w, theta in self.atoms:
            phase = sum(ki * ti for ki, ti in zip(k, theta))
            if not math.isfinite(phase):
                raise ValueError(f"moment at degree {k}: phase {phase} is not finite")
            total += w * cmath.exp(1j * phase)
        return total

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
    """Normalised arc length: moment 1 at degree zero, else 0."""
    return TraceSpec(engine, 1.0, (), "haar")


def point_mass_trace(engine: Engine, theta) -> TraceSpec:
    """The point evaluation at angle(s) theta: c(k) = exp(i k.theta)."""
    if isinstance(theta, (int, float)):
        thetas = (float(theta),)
    else:
        thetas = tuple(float(t) for t in theta)
    label = "point_mass(" + ",".join(f"{t:g}" for t in thetas) + ")"
    return TraceSpec(engine, 0.0, ((1.0, thetas),), label)


def mixture_trace(components: Iterable[tuple[float, TraceSpec]]) -> TraceSpec:
    """Convex combination of trace specs over a common engine."""
    comps = [(float(w), t) for w, t in components]
    if not comps:
        raise ValueError("empty mixture")
    engine = comps[0][1].engine
    for _, t in comps:
        if t.engine != engine:
            raise EngineMismatch("mixture components over different engines")
    haar = sum(w * t.haar for w, t in comps)
    atoms = tuple((w * a, theta) for w, t in comps for a, theta in t.atoms)
    label = "mixture(" + ",".join(f"{w:g}*{t.name}" for w, t in comps) + ")"
    return TraceSpec(engine, haar, atoms, label)


def identity_trace() -> TraceSpec:
    """The unique state on the scalar engine."""
    return TraceSpec(SCALAR, 1.0, (), "identity")
