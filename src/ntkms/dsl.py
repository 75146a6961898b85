"""A small expression language for normal-form elements.

Grammar, with juxtaposition binding tighter than "+":

    element := term { "+" term }
    term    := [ coeff "*" ] factor { ["*"] factor }
    factor  := "i[" fiber "](" coords ")"
             | "adj(" factor ")"
             | "alpha[" fiber "](" element ")"
             | "E(" element ")"
    coords  := coeff "@" index { "," coeff "@" index }

Coefficients are sums of complex-weighted monomial words:

    coeff   := [sign] product { ("+" | "-") product }
    product := primary { primary }
    primary := number | number"i" | "i" | "(" coeff ")" | atom
    atom    := ("S" | "S*" | "z" | "z<k>") [ "^" [-]digits ]

so "S^2 S*", "z1^2 z2^-1", "(1.5+2i)", "2 + 3i" and "(S + S*)" all
parse in coefficient position.  A bare "i" is the imaginary unit except
directly before "[", where it is the monomial constructor.  A term's
leading coefficient must be a number, and may be a product such as
"(1+i)(1-i)".

``format_element`` prints the canonical normal form; parsing it back
reproduces the element exactly (floats are printed with 17 significant
digits, and a zero element prints as "0 * i[e](1@0)").  Numbers must
fit a float: a literal that overflows is an error at its column, and an
element whose arithmetic overflows is an error at column 1.  Errors
carry 1-based column positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coeff import CoefficientElement
from .nt import NTElement
from .product_system import ModuleVector, ProductSystem

__all__ = ["DSLError", "parse_element", "format_element"]


class DSLError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"column {position + 1}: {message}")
        self.position = position


# -- lexer -------------------------------------------------------------------

_SYMBOLS = set("[]()@,+-*^")


@dataclass(frozen=True)
class _Token:
    kind: str  # INT, FLOAT, IMAG, NAME, SYM, END
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            is_float = False
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                is_float = True
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            # an exponent needs a digit after its optional sign
            j = i + 1 + (i + 1 < n and text[i + 1] in "+-")
            if i < n and text[i] in "eE" and j < n and text[j].isdigit():
                is_float = True
                i = j
                while i < n and text[i].isdigit():
                    i += 1
            body = text[start:i]
            if i < n and text[i] == "i" and not (
                i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "[")
            ):
                i += 1
                out.append(_Token("IMAG", text[start:i], start))
            else:
                out.append(_Token("FLOAT" if is_float else "INT", body, start))
            continue
        if c.isalpha() or c == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            name = text[start:i]
            if name == "S" and i < n and text[i] == "*":
                i += 1
                name = "S*"
            out.append(_Token("NAME", name, start))
            continue
        if c in _SYMBOLS:
            out.append(_Token("SYM", c, start))
            i += 1
            continue
        raise DSLError(f"unexpected character {c!r}", i)
    out.append(_Token("END", "", n))
    return out


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, system: ProductSystem):
        self.text = text
        self.system = system
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.k + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.k]
        if tok.kind != "END":
            self.k += 1
        return tok

    def expect_sym(self, sym: str) -> _Token:
        tok = self.peek()
        if tok.kind != "SYM" or tok.text != sym:
            raise DSLError(f"expected {sym!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.take()

    def expect_int(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            raise DSLError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.pos)
        self.take()
        return int(tok.text)

    # element level ------------------------------------------------------

    def parse_element(self) -> NTElement:
        out = self.parse_term()
        while self.peek().kind == "SYM" and self.peek().text == "+":
            self.take()
            out = out + self.parse_term()
        return out

    def _at_factor(self) -> bool:
        tok = self.peek()
        if tok.kind != "NAME":
            return False
        if tok.text == "i":
            nxt = self.peek(1)
            return nxt.kind == "SYM" and nxt.text == "["
        return tok.text in ("adj", "alpha", "E")

    def parse_term(self) -> NTElement:
        scalar = None
        if not self._at_factor():
            tok = self.peek()
            coeff = self.parse_coeff_sum()
            if not coeff.is_unit_multiple():
                raise DSLError("a term's leading coefficient must be a number", tok.pos)
            scalar = coeff.terms.get(self.system.engine.unit(), 0j)
            self.expect_sym("*")
        if not self._at_factor():
            tok = self.peek()
            raise DSLError(
                f"expected i[..], adj(..), alpha[..](..) or E(..), found "
                f"{tok.text or 'end of input'!r}",
                tok.pos,
            )
        out = self.parse_factor()
        while True:
            if self._at_factor():
                out = out * self.parse_factor()
                continue
            tok = self.peek()
            if tok.kind == "SYM" and tok.text == "*":
                self.take()
                out = out * self.parse_factor()
                continue
            break
        if scalar is not None:
            out = out.scale(scalar)
        return out

    def parse_factor(self) -> NTElement:
        tok = self.peek()
        if tok.kind != "NAME":
            raise DSLError(f"expected a factor, found {tok.text or 'end of input'!r}", tok.pos)
        if tok.text == "i":
            self.take()
            self.expect_sym("[")
            fiber = self.parse_fiber()
            self.expect_sym("]")
            self.expect_sym("(")
            vec = self.parse_coords(fiber)
            self.expect_sym(")")
            return NTElement.embed(self.system, fiber, vec)
        if tok.text == "adj":
            self.take()
            self.expect_sym("(")
            inner = self.parse_factor()
            self.expect_sym(")")
            return inner.adjoint()
        if tok.text == "alpha":
            self.take()
            self.expect_sym("[")
            fiber = self.parse_fiber()
            self.expect_sym("]")
            self.expect_sym("(")
            inner = self.parse_element()
            self.expect_sym(")")
            return inner.alpha(fiber)
        if tok.text == "E":
            self.take()
            self.expect_sym("(")
            inner = self.parse_element()
            self.expect_sym(")")
            return inner.core_expectation()
        raise DSLError(f"unknown constructor {tok.text!r}", tok.pos)

    def parse_fiber(self) -> int:
        tok = self.peek()
        v = self.expect_int("a fiber")
        try:
            self.system.semigroup.check_value(v)
        except ValueError as exc:
            raise DSLError(str(exc), tok.pos) from None
        return v

    def parse_coords(self, fiber: int) -> ModuleVector:
        n = self.system.basis_count(fiber)
        coords: dict[int, CoefficientElement] = {}
        zero = CoefficientElement.zero(self.system.engine)
        while True:
            coeff = self.parse_coeff_sum()
            self.expect_sym("@")
            tok = self.peek()
            idx = self.expect_int("a basis index")
            if not (0 <= idx < n):
                raise DSLError(
                    f"basis index {idx} out of range for fiber {fiber} (rank {n})", tok.pos
                )
            coords[idx] = coords.get(idx, zero) + coeff
            if self.peek().kind == "SYM" and self.peek().text == ",":
                self.take()
                continue
            break
        return ModuleVector(self.system, fiber, coords)

    # coefficient level --------------------------------------------------------

    def parse_coeff_sum(self) -> CoefficientElement:
        sign = 1.0
        if self.peek().kind == "SYM" and self.peek().text in ("+", "-"):
            sign = -1.0 if self.take().text == "-" else 1.0
        total = self.parse_coeff_product().scale(sign)
        while self.peek().kind == "SYM" and self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.parse_coeff_product()
            total = total + rhs if op == "+" else total - rhs
        return total

    def _at_coeff_primary(self) -> bool:
        tok = self.peek()
        if tok.kind in ("INT", "FLOAT", "IMAG"):
            return True
        if tok.kind == "NAME":
            return not self._at_factor()
        return tok.kind == "SYM" and tok.text == "("

    def parse_coeff_product(self) -> CoefficientElement:
        out = self.parse_coeff_primary()
        while self._at_coeff_primary():
            out = out * self.parse_coeff_primary()
        return out

    def parse_coeff_primary(self) -> CoefficientElement:
        eng = self.system.engine
        tok = self.peek()
        if tok.kind in ("INT", "FLOAT", "IMAG"):
            self.take()
            x = float(tok.text.removesuffix("i"))
            if not math.isfinite(x):
                raise DSLError(f"number {tok.text} overflows a float", tok.pos)
            return CoefficientElement.unit(eng, complex(0.0, x) if tok.kind == "IMAG" else x)
        if tok.kind == "SYM" and tok.text == "(":
            self.take()
            inner = self.parse_coeff_sum()
            self.expect_sym(")")
            return inner
        if tok.kind == "NAME":
            if tok.text == "i":
                self.take()
                return CoefficientElement.unit(eng, 1j)
            return self.parse_monomial_atom()
        raise DSLError(
            f"expected a coefficient, found {tok.text or 'end of input'!r}", tok.pos
        )

    def parse_monomial_atom(self) -> CoefficientElement:
        eng = self.system.engine
        tok = self.take()
        name = tok.text
        power = 1
        if self.peek().kind == "SYM" and self.peek().text == "^":
            self.take()
            negative = False
            if self.peek().kind == "SYM" and self.peek().text == "-":
                self.take()
                negative = True
            power = self.expect_int("an exponent")
            if negative:
                power = -power
        if eng.tag == "toeplitz":
            if name == "S":
                if power < 0:
                    raise DSLError("S takes nonnegative exponents; use S* instead", tok.pos)
                return CoefficientElement.monomial(eng, (power, 0))
            if name == "S*":
                if power < 0:
                    raise DSLError("S* takes nonnegative exponents; use S instead", tok.pos)
                return CoefficientElement.monomial(eng, (0, power))
            raise DSLError(f"unknown symbol {name!r} for the Toeplitz engine", tok.pos)
        if eng.tag == "laurent":
            d = eng.d
            if name == "z" and d == 1:
                return CoefficientElement.monomial(eng, (power,))
            if name.startswith("z") and name[1:].isdigit():
                axis = int(name[1:])
                if 1 <= axis <= d:
                    gamma = [0] * d
                    gamma[axis - 1] = power
                    return CoefficientElement.monomial(eng, tuple(gamma))
                raise DSLError(f"axis {axis} out of range for d = {d}", tok.pos)
            raise DSLError(f"unknown symbol {name!r} for the torus engine", tok.pos)
        raise DSLError(f"unknown symbol {name!r} for the scalar engine", tok.pos)


def parse_element(text: str, system: ProductSystem) -> NTElement:
    parser = _Parser(text, system)
    out = parser.parse_element()
    tok = parser.peek()
    if tok.kind != "END":
        raise DSLError(f"unexpected trailing input {tok.text!r}", tok.pos)
    if not all(math.isfinite(abs(w)) for vec in out.terms.values()
               for c in vec.entries.values() for w in c.terms.values()):
        raise DSLError("a coefficient of the element overflows a float", 0)
    return out


# -- canonical printing -----------------------------------------------------------


def _g(x: float) -> str:
    return f"{x:.17g}"


def _format_complex(w: complex) -> str:
    im = w.imag
    sign = "-" if (im < 0 or (im == 0 and str(im)[0] == "-")) else "+"
    return f"({_g(w.real)}{sign}{_g(abs(im))}i)"


def _format_coeff(c: CoefficientElement) -> str:
    eng = c.engine
    unit = eng.unit()
    bits = []
    for mon, w in c.sorted_terms():
        head = _format_complex(w)
        if mon == unit:
            bits.append(head)
        else:
            bits.append(f"{head} {eng.format(mon)}")
    return " + ".join(bits)


def _format_vector(vec: ModuleVector) -> str:
    return ", ".join(f"({_format_coeff(c)})@{j}" for j, c in vec.entries.items())


def format_element(y: NTElement) -> str:
    """The canonical printed form; parsing it back reproduces ``y``."""
    if y.is_zero():
        e = y.system.identity_fiber()
        return f"0 * i[{e}](1@0)"
    bits = []
    for (s, r, l), vec in y.sorted_terms():
        bits.append(f"i[{s}]({_format_vector(vec)}) * adj(i[{r}](1@{l}))")
    return " + ".join(bits)
