"""JSON interchange and the text grammar for polynomials.

All scalars travel as strings ("3", "-5/2") so no precision is lost;
multi-quadratic values become objects mapping a radicand label to the
rational coordinate, e.g. {"1": "1/2", "2": "3"} for 1/2 + 3*sqrt(2).
A matrix document is {"n": ..., "entries": [[...], ...]} with optional
"label" and "seed" metadata; a polynomial is its ascending coefficient
list.  Malformed input raises FormatError (PolyParseError for the text
grammar), which the command line maps to a distinct exit code.

Matrices cross the text boundary in their integer form.  The reader,
:func:`document_from_json`, parses each entry string straight to a
reduced (numerator, denominator) pair and each object to its
({label: integer}, denominator) pair, splitting each distinct radicand
label once per document, and assembles the integer parts over the lcm
of the denominators: no entry becomes a Fraction.  Polynomial text
crosses as integer pairs too: the coefficient lists of
:func:`parse_poly_expression` and its rational literals assemble their
(numerator, denominator) pairs over the lcm into a rational
:class:`Polynomial`.  The writers,
:func:`matrix_to_json` and :func:`poly_to_json`, write from the integer
parts over the one denominator.  :func:`json_text` is the one writer of
JSON text, for every document the command line prints: it returns
exactly ``json.dumps(value, indent=2)``, about twice as fast under
CPython 3.11 on a 2-CPU Xeon, since json's C encoder serves no
indented output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Dict, List, Optional, Tuple, Union

from mindec.errors import FormatError, OrderTooLarge, PolyParseError
from mindec.matrix import DenseMatrix, _parts_of_scalars
from mindec.poly import Polynomial, X, _int_to_string, ratio_to_string
from mindec.scalar import MultiQuad, _ascii_digits, int_from_digits, ratio_from_string

Scalar = Union[Fraction, MultiQuad]

#: largest order n of a matrix document, and of a matrix gen builds;
#: fraction-free Krylov grows as about n^7.5 on dense input, so a
#: dense n = 64 document already costs tens of seconds
MAX_ORDER = 64


def scalar_to_json(value) -> Union[str, Dict[str, str]]:
    if isinstance(value, (int, Fraction)):
        return ratio_to_string(value.numerator, value.denominator)
    if not isinstance(value, MultiQuad):
        raise FormatError(f"cannot serialize scalar of type {type(value).__name__}")
    num, den = value._num, value._den
    if value.is_rational:
        return ratio_to_string(num.get(1, 0), den)
    return {_int_to_string(label): ratio_to_string(x, den) for label, x in sorted(num.items())}


def scalar_from_json(obj) -> Scalar:
    num, den = _json_scalar(obj, {})
    return Fraction(num.get(1, 0), den) if isinstance(obj, str) else MultiQuad._of_ints(num, den)


def _json_scalar(obj, splits) -> Tuple[Dict[int, int], int]:
    """({label: integer}, den) in lowest terms of a JSON scalar, as
    :func:`mindec.matrix._scalar_parts` gives it, with no Fraction
    built; a radicand label is split through splits (see
    MultiQuad._of_coords)."""
    if isinstance(obj, str):
        try:
            p, q = ratio_from_string(obj)
        except PolyParseError as exc:
            raise FormatError(str(exc)) from None
        return ({1: p} if p else {}), q
    if isinstance(obj, dict):
        coords = {}
        for label, coeff in obj.items():
            # a sign and ASCII digits, the rule of ratio_from_string
            text = label.strip() if isinstance(label, str) else ""
            if not _ascii_digits(text[1:] if text[:1] in "+-" else text):
                raise FormatError(f"bad radicand label: {label!r}")
            try:
                key = int_from_digits(text)
            except PolyParseError as exc:
                raise FormatError(f"radicand label: {exc}") from None
            if not isinstance(coeff, str):
                raise FormatError(f"coordinate for {label!r} must be a string")
            try:
                coords[key] = ratio_from_string(coeff)
            except PolyParseError as exc:
                raise FormatError(f"coordinate for {label!r}: {exc}") from None
        try:
            value = MultiQuad._of_coords(((k, p, q) for k, (p, q) in coords.items()), splits)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        return value._num, value._den
    raise FormatError(f"scalar must be a string or object, got {type(obj).__name__}")


# -- text ------------------------------------------------------------


#: json's own C escaper, the one json.dumps uses by default
_quoted = json.encoder.encode_basestring_ascii


def json_text(value) -> str:
    """json.dumps(value, indent=2), character for character, for every
    JSON value: lists (and tuples) and dicts indented by two spaces per
    level, strings escaped by json's C escaper, numbers and keys written
    as json writes them; a value json cannot write raises TypeError.
    json.dumps runs its pure-Python encoder whenever indent is set;
    building each list and object with one join is faster."""
    return _text(value, "\n")


def _text(v, nl: str) -> str:
    if isinstance(v, str):
        return _quoted(v)
    if not isinstance(v, (list, tuple, dict)):
        return _atom(v)
    if not v:
        return "{}" if isinstance(v, dict) else "[]"
    inner = nl + "  "
    if isinstance(v, dict):
        items = [_key(k) + ": " + _text(x, inner) for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    items = [_quoted(x) if type(x) is str else _text(x, inner) for x in v]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


#: json's words for the constants, and for the floats whose
#: float.__repr__ ("nan", "inf", "-inf") JSON has no literal for
_WORDS = {None: "null", True: "true", False: "false", "nan": "NaN"}
_WORDS.update({"inf": "Infinity", "-inf": "-Infinity"})


def _atom(v) -> str:
    if v is None or type(v) is bool:
        return _WORDS[v]
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        text = float.__repr__(v)
        return _WORDS.get(text, text)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _key(k) -> str:
    # json writes a key that is no string as its text, quoted
    return _quoted(k) if isinstance(k, str) else '"' + _atom(k) + '"'


# -- matrices ---------------------------------------------------------


@dataclass(frozen=True)
class MatrixDocument:
    """A matrix plus free-form metadata about how it was built."""

    matrix: DenseMatrix
    label: str = ""
    seed: str = ""
    min_poly: Optional[Polynomial] = None  # known by construction, if any


def matrix_to_json(M: DenseMatrix) -> Dict[str, Any]:
    """{"n": ..., "entries": ...} of M, written as scalar_to_json writes
    its entries but from the integer parts over M's one denominator, so
    no entry is built: each coordinate is reduced by one gcd."""
    n, den, parts = M.n, M._den, M._parts
    if not parts:
        return {"n": n, "entries": [["0"] * n for _ in range(n)]}
    if M.is_rational:
        return {"n": n, "entries": [[ratio_to_string(x, den) for x in r] for r in parts[1]]}
    items = sorted(parts.items())
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            coords = [(lbl, p[i][j]) for lbl, p in items if p[i][j]]
            if not coords:
                row.append("0")
            elif len(coords) == 1 and coords[0][0] == 1:
                row.append(ratio_to_string(coords[0][1], den))
            else:
                row.append({_int_to_string(lbl): ratio_to_string(x, den) for lbl, x in coords})
        entries.append(row)
    return {"n": n, "entries": entries}


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
    if len(entries) > MAX_ORDER or any(len(r) > MAX_ORDER for r in entries):
        raise OrderTooLarge(
            f"matrix order is limited to {MAX_ORDER}; the document has "
            f"{len(entries)} rows, the longest of {max(map(len, entries))} entries"
        )
    # one square_split per distinct radicand label of the document
    splits: Dict[int, Tuple[int, int]] = {}
    scalars = [[_json_scalar(e, splits) for e in row] for row in entries]
    try:
        M = DenseMatrix._of_parts(len(scalars), *_parts_of_scalars(scalars))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    n = data.get("n", M.n)
    if type(n) is not int:
        raise FormatError(f'"n" must be an integer, got {type(n).__name__} {n!r}')
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
    if p.is_rational:
        den = p._den
        return [ratio_to_string(x, den) for x in p._num]
    return [scalar_to_json(c) for c in p.coeffs]


def poly_from_json(data) -> Polynomial:
    if not isinstance(data, list):
        raise FormatError("polynomial must be a list of coefficients")
    return Polynomial(tuple(scalar_from_json(c) for c in data))


def _rational_poly(pairs, what: Optional[str] = None) -> Polynomial:
    """The rational polynomial of the (p, q) pairs p/q, q > 0, lowest
    degree first, as the text grammar reads them: integers over the lcm
    of the q, with no Fraction built.  With what, the lcm is checked
    against MAX_POLY_BITS as each q joins it: the lcm of many large
    denominators alone costs seconds."""
    den = 1
    for _, q in pairs:
        den = lcm(den, q)
        if what:
            _check_bits(den.bit_length(), what, 0)
    num = [p * (den // q) for p, q in pairs]
    while num and not num[-1]:
        num.pop()
    return Polynomial._of_ints(num, den)


def poly_to_text(p: Polynomial) -> str:
    """The text form str(p) of a rational polynomial, e.g.
    "2 - X + 3/2*X^2", which parse_poly_expression reads back."""
    if not p.is_rational:
        raise FormatError("text form is only defined for rational coefficients")
    return str(p)


# [0-9], not \d: \d also matches the digits of other scripts, which
# int() reads
_TOKEN_RE = re.compile(r"([0-9]+)|X|[()+\-*^/]|(\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.group(2):
            raise PolyParseError(f"unexpected character {m.group(2)!r} at {m.start()}")
        # the kind of X and of an operator is its own text
        kind = "int" if m.group(1) else m.group()
        tokens.append((kind, m.group(), m.start()))
    return tokens


#: deepest nesting of parentheses that parse_poly_expression accepts
MAX_POLY_NESTING = 100
#: largest exponent, and largest degree of any product or power, that
#: parse_poly_expression expands; (X+1)^MAX_POLY_DEGREE parses in about
#: 0.2 s under CPython 3.11 on a 2-CPU Xeon
MAX_POLY_DEGREE = 1000
#: largest coefficient bit bound (_bits) of a literal or a sum that
#: parse_poly_expression reads, and of a product or power that it
#: expands: the sum of the factors' bounds, or e times the base's for a
#: power e.  (X+1)^1000 needs 1000 bits, and (X+3)^1000, near the
#: largest accepted power of degree 1000, parses in about 0.5 s under
#: CPython 3.11 on a 2-CPU Xeon
MAX_POLY_BITS = 2048


class _PolyParser:
    """Recursive descent over: expr = term (+- term)*;
    term = factor ('*'? factor)*; factor = atom ('^' int)?;
    atom = int ('/' int)? | 'X' | '(' expr ')'.
    Juxtaposition multiplies, so "(X^2-2)(X-1)^2" works as written.
    Nesting deeper than MAX_POLY_NESTING, an exponent or the degree of a
    product or power above MAX_POLY_DEGREE, and a coefficient bit bound
    of a product or power above MAX_POLY_BITS raise PolyParseError
    before anything is expanded.  A literal or a sum whose own bit bound
    is above MAX_POLY_BITS raises it as soon as it is formed, so every
    operand of every step is bounded.
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
            op, _, pos = self.take()
            t = self.term()
            acc = acc + t if op == "+" else acc - t
            _check_bits(_bits(acc), "sum", pos)
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
            num, den = int_from_digits(value), 1
            if self.peek() == "/":
                self.take()
                den = int_from_digits(self.take("int")[1])
                if den == 0:
                    raise PolyParseError(f"zero denominator at position {pos}")
            literal = _rational_poly([(num, den)])
            _check_bits(_bits(literal), "literal", pos)
            return literal
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
    """Parse products of polynomial expressions, e.g. "(X^2-2)(X-1)^2",
    or, when text holds a comma, an ascending coefficient list, e.g.
    "1,0,-2" for 1 - 2*X^2."""
    if "," in text:
        return _coefficient_list(text)
    parser = _PolyParser(text)
    if not parser.tokens:
        raise PolyParseError("empty polynomial expression")
    result = parser.expr()
    if parser.pos != len(parser.tokens):
        tok = parser.tokens[parser.pos]
        raise PolyParseError(f"trailing input {tok[1]!r} at position {tok[2]}")
    return result


def _coefficient_list(text: str) -> Polynomial:
    """The polynomial of comma-separated rationals "p" or "p/q", lowest
    degree first, under the limits of the expression grammar: at most
    MAX_POLY_DEGREE + 1 entries and a coefficient bit bound of at most
    MAX_POLY_BITS, the common denominator checked as each entry joins
    it."""
    entries = text.split(",")
    _check_degree(len(entries) - 1, "coefficient list degree", 0)
    p = _rational_poly([ratio_from_string(entry) for entry in entries], "coefficient list")
    _check_bits(_bits(p), "coefficient list", 0)
    return p
