"""JSON interchange and the text grammar for polynomials.

All scalars travel as strings ("3", "-5/2") so no precision is lost;
multi-quadratic values become objects mapping a radicand label to the
rational coordinate, e.g. {"1": "1/2", "2": "3"} for 1/2 + 3*sqrt(2).
A matrix document is {"n": ..., "entries": [[...], ...]} with optional
"label" and "seed" metadata; a polynomial is its ascending coefficient
list.  Malformed input raises FormatError (PolyParseError for the text
grammar), which the command line maps to a distinct exit code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Union

from mindec.errors import FormatError, PolyParseError
from mindec.matrix import DenseMatrix
from mindec.poly import Polynomial, X
from mindec.scalar import (
    MultiQuad,
    int_from_digits,
    rational_from_string,
    rational_to_string,
)

Scalar = Union[Fraction, MultiQuad]


def scalar_to_json(value) -> Union[str, Dict[str, str]]:
    if isinstance(value, MultiQuad):
        if value.is_rational:
            return rational_to_string(value.rational_part)
        return {
            str(label): rational_to_string(coeff)
            for label, coeff in sorted(value.coordinates.items())
        }
    if isinstance(value, (int, Fraction)):
        return rational_to_string(value)
    raise FormatError(f"cannot serialize scalar of type {type(value).__name__}")


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, str):
        try:
            return rational_from_string(obj)
        except PolyParseError as exc:
            raise FormatError(str(exc)) from None
    if isinstance(obj, dict):
        coords = {}
        for label, coeff in obj.items():
            try:
                key = int(label)
            except (TypeError, ValueError):
                raise FormatError(f"bad radicand label: {label!r}") from None
            if not isinstance(coeff, str):
                raise FormatError(f"coordinate for {label!r} must be a string")
            try:
                coords[key] = rational_from_string(coeff)
            except PolyParseError as exc:
                raise FormatError(f"coordinate for {label!r}: {exc}") from None
        try:
            return MultiQuad(coords)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    raise FormatError(f"scalar must be a string or object, got {type(obj).__name__}")


# -- matrices ---------------------------------------------------------


@dataclass(frozen=True)
class MatrixDocument:
    """A matrix plus free-form metadata about how it was built."""

    matrix: DenseMatrix
    label: str = ""
    seed: str = ""
    min_poly: Optional[Polynomial] = None  # known by construction, if any


def matrix_to_json(M: DenseMatrix) -> Dict[str, Any]:
    return {"n": M.n, "entries": [[scalar_to_json(e) for e in row] for row in M.rows]}


def document_to_json(doc: MatrixDocument) -> Dict[str, Any]:
    data = matrix_to_json(doc.matrix)
    if doc.label:
        data["label"] = doc.label
    if doc.seed:
        data["seed"] = doc.seed
    if doc.min_poly is not None:
        data["min_poly"] = poly_to_json(doc.min_poly)
    return data


def matrix_from_json(data) -> DenseMatrix:
    return document_from_json(data).matrix


def document_from_json(data) -> MatrixDocument:
    if not isinstance(data, dict):
        raise FormatError("matrix document must be a JSON object")
    if "entries" not in data:
        raise FormatError('matrix document is missing "entries"')
    entries = data["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise FormatError('"entries" must be a list of rows')
    rows = [[scalar_from_json(e) for e in row] for row in entries]
    try:
        M = DenseMatrix(rows)
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from None
    n = data.get("n", M.n)
    if n != M.n:
        raise FormatError(f'"n" is {n} but the entries form a {M.n}x{M.n} matrix')
    label = data.get("label", "")
    seed = data.get("seed", "")
    if not isinstance(label, str) or not isinstance(seed, str):
        raise FormatError('"label" and "seed" must be strings')
    min_poly = None
    if "min_poly" in data:
        min_poly = poly_from_json(data["min_poly"])
    return MatrixDocument(matrix=M, label=label, seed=seed, min_poly=min_poly)


# -- polynomials ------------------------------------------------------


def poly_to_json(p: Polynomial) -> List[Union[str, Dict[str, str]]]:
    if p.is_zero:
        return []
    return [scalar_to_json(c) for c in p.coeffs]


def poly_from_json(data) -> Polynomial:
    if not isinstance(data, list):
        raise FormatError("polynomial must be a list of coefficients")
    return Polynomial(tuple(scalar_from_json(c) for c in data))


def poly_to_text(p: Polynomial) -> str:
    """Render a rational polynomial as e.g. "2 - X + 3/2*X^2"."""
    if not p.is_rational:
        raise FormatError("text form is only defined for rational coefficients")
    if p.is_zero:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "X" if k == 1 else f"X^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_TOKEN_RE = re.compile(r"(\d+)|(X)|([()+\-*^/])|(\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.group(4):
            raise PolyParseError(f"unexpected character {m.group(4)!r} at {m.start()}")
        if m.group(1):
            tokens.append(("int", m.group(1), m.start()))
        elif m.group(2):
            tokens.append(("X", "X", m.start()))
        else:
            tokens.append((m.group(3), m.group(3), m.start()))
    return tokens


#: deepest nesting of parentheses that parse_poly_expression accepts
MAX_POLY_NESTING = 100
#: largest exponent, and largest degree of any product or power, that
#: parse_poly_expression expands; (X+1)^MAX_POLY_DEGREE parses in about
#: 0.2 s under CPython 3.11 on a 2-CPU Xeon
MAX_POLY_DEGREE = 1000
#: largest coefficient bit bound of a product or power that
#: parse_poly_expression expands: the sum of the factors' bounds, or e
#: times the base's for a power e.  (X+1)^1000 needs 1000 bits, and
#: (X+3)^1000, near the largest accepted power of degree 1000, parses in
#: about 0.5 s under CPython 3.11 on a 2-CPU Xeon
MAX_POLY_BITS = 2048


class _PolyParser:
    """Recursive descent over: expr = term (+- term)*;
    term = factor ('*'? factor)*; factor = atom ('^' int)?;
    atom = int ('/' int)? | 'X' | '(' expr ')'.
    Juxtaposition multiplies, so "(X^2-2)(X-1)^2" works as written.
    Nesting deeper than MAX_POLY_NESTING, an exponent or the degree of a
    product or power above MAX_POLY_DEGREE, and a coefficient bit bound
    of a product or power above MAX_POLY_BITS raise PolyParseError
    before anything is expanded.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        if self.pos >= len(self.tokens):
            raise PolyParseError(f"unexpected end of input in {self.text!r}")
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolyParseError(f"expected {kind!r} at position {tok[2]}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = -acc
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
            elif nxt not in ("int", "X", "("):
                return acc
            pos = self.tokens[self.pos][2]
            f = self.factor()
            _check_degree(acc.degree + f.degree, "product degree", pos)
            _check_bits(_bits(acc) + _bits(f), "product", pos)
            acc = acc * f

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek() == "^":
            pos = self.take()[2]
            exponent = int_from_digits(self.take("int")[1])
            _check_degree(exponent, "exponent", pos)
            _check_degree(base.degree * exponent, "power degree", pos)
            _check_bits(_bits(base) * exponent, "power", pos)
            base = base ** exponent
        return base

    def atom(self) -> Polynomial:
        kind, value, pos = self.take()
        if kind == "int":
            num = int_from_digits(value)
            if self.peek() == "/":
                self.take()
                den = int_from_digits(self.take("int")[1])
                if den == 0:
                    raise PolyParseError(f"zero denominator at position {pos}")
                return Polynomial((Fraction(num, den),))
            return Polynomial((Fraction(num),))
        if kind == "X":
            return X
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_POLY_NESTING:
                raise PolyParseError(
                    f"parentheses nested deeper than {MAX_POLY_NESTING} at position {pos}"
                )
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        raise PolyParseError(f"unexpected {value!r} at position {pos}")


def _check_degree(value: int, what: str, pos: int) -> None:
    if value > MAX_POLY_DEGREE:
        raise PolyParseError(f"{what} {value} at position {pos} is above {MAX_POLY_DEGREE}")


def _bits(p: Polynomial) -> int:
    # bits of the numerators' absolute sum and of the denominator; both
    # are submultiplicative, so _bits(f*g) <= _bits(f) + _bits(g)
    return max((sum(map(abs, p._num)) - 1).bit_length(), p._den.bit_length())


def _check_bits(value: int, what: str, pos: int) -> None:
    if value > MAX_POLY_BITS:
        raise PolyParseError(
            f"{what} at position {pos} has coefficients of up to {value} bits, "
            f"above {MAX_POLY_BITS}"
        )


def parse_poly_expression(text: str) -> Polynomial:
    """Parse products of polynomial expressions, e.g. "(X^2-2)(X-1)^2"."""
    parser = _PolyParser(text)
    if not parser.tokens:
        raise PolyParseError("empty polynomial expression")
    result = parser.expr()
    if parser.pos != len(parser.tokens):
        tok = parser.tokens[parser.pos]
        raise PolyParseError(f"trailing input {tok[1]!r} at position {tok[2]}")
    return result
