"""JSON round trips and the polynomial text grammar."""

import hashlib
import json
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from mindec.errors import FormatError, PolyParseError
from mindec.generator import random_matrix
from mindec.matrix import DenseMatrix
from mindec.poly import _STR_BITS, Polynomial, X
from mindec.scalar import MultiQuad, ratio_from_string
from mindec.selftest import run_cli
from mindec.serialize import (
    MAX_POLY_BITS,
    MAX_POLY_DEGREE,
    MAX_POLY_NESTING,
    MatrixDocument,
    document_from_json,
    document_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_poly_expression,
    poly_from_json,
    poly_to_json,
    poly_to_text,
    scalar_from_json,
    scalar_to_json,
)

SQRT2 = MultiQuad({2: 1})
#: 430 primes; their product has about 4,200 bits
PRIMES_BELOW_3000 = [p for p in range(2, 3000) if all(p % d for d in range(2, int(p**0.5) + 1))]


class TestScalarJson:
    def test_rationals_travel_as_strings(self):
        assert scalar_to_json(Fraction(-5, 2)) == "-5/2"
        assert scalar_to_json(3) == "3"
        assert scalar_from_json("-5/2") == Fraction(-5, 2)

    def test_integers_past_the_str_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        big = 10**5000 + 1
        assert scalar_to_json(Fraction(-big, 10**4500)) == "-1" + "0" * 4999 + "1/1" + "0" * 4500
        for k in (3610, 3615, 4299, 4300, 4301, 9000):
            assert scalar_to_json(10**k - 1) == "9" * k
            assert scalar_to_json(Fraction(1, 10**k)) == "1/1" + "0" * k
        assert scalar_to_json(MultiQuad({2: -big})) == {"2": "-1" + "0" * 4999 + "1"}
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts integers of any length",
    )
    def test_literals_past_the_str_digit_limit_are_format_errors(self):
        long = "7" * (sys.get_int_max_str_digits() + 1)
        t0 = time.perf_counter()
        for text in (long, f"-{long}", f"1/{long}", f"{long}/3"):
            with pytest.raises(PolyParseError, match="digits"):
                ratio_from_string(text)
            with pytest.raises(FormatError, match="digits"):
                scalar_from_json(text)
            with pytest.raises(FormatError, match="digits"):
                scalar_from_json({"3": text})
        for text in (long, f"X + {long}", f"X^{long}", f"{long}/2*X", f"1/{long}"):
            with pytest.raises(PolyParseError, match="digits"):
                parse_poly_expression(text)
        assert time.perf_counter() - t0 < 2.0
        # one digit fewer is still a number
        assert ratio_from_string(long[1:]) == (int(long[1:]), 1)

    def test_rational_multiquad_collapses_to_string(self):
        assert scalar_to_json(MultiQuad(Fraction(7, 3))) == "7/3"

    def test_surd_objects_round_trip(self):
        value = MultiQuad(Fraction(1, 2)) + SQRT2 * 3
        data = scalar_to_json(value)
        assert data == {"1": "1/2", "2": "3"}
        assert scalar_from_json(data) == value

    def test_imaginary_labels_are_negative_ints(self):
        value = MultiQuad({-1: Fraction(2)})
        data = scalar_to_json(value)
        assert data == {"-1": "2"}
        assert scalar_from_json(data) == value

    def test_bad_inputs(self):
        with pytest.raises(FormatError):
            scalar_from_json("seven")
        # a radicand label is a sign and ASCII digits, as a coordinate is:
        # an Arabic-Indic 4 and an underscore are refused, not read as 4 and 40
        for label in ("abc", "\u0664", "4_0"):
            with pytest.raises(FormatError, match="radicand label"):
                scalar_from_json({label: "1"})
        with pytest.raises(FormatError):
            scalar_from_json({"2": 3})
        with pytest.raises(FormatError):
            scalar_from_json([1, 2])
        with pytest.raises(FormatError):
            scalar_to_json(1.5)


class TestMatrixJson:
    def test_rational_round_trip_is_stable(self):
        for k in range(15):
            M = random_matrix(f"ser-{k}", max_size=5).matrix
            data = matrix_to_json(M)
            back = matrix_from_json(data)
            assert back == M
            # serializing again must reproduce the same JSON text
            assert json.dumps(matrix_to_json(back), sort_keys=True) == json.dumps(
                data, sort_keys=True
            )

    def test_mixed_entries_promote_uniformly(self):
        M = DenseMatrix([[SQRT2, MultiQuad(1)], [MultiQuad(0), SQRT2 * -1]])
        data = matrix_to_json(M)
        # rational positions still serialize as plain strings
        assert data["entries"][0][1] == "1"
        assert data["entries"][0][0] == {"2": "1"}
        back = matrix_from_json(data)
        assert back == M
        assert all(isinstance(e, MultiQuad) for row in back.rows for e in row)

    def test_document_metadata_round_trip(self):
        doc = MatrixDocument(
            matrix=DenseMatrix([[1, 2], [0, 1]]),
            label="(X-1)^2",
            seed="demo",
            min_poly=(X - 1) ** 2,
        )
        data = document_to_json(doc)
        assert data["label"] == "(X-1)^2"
        assert data["seed"] == "demo"
        back = document_from_json(data)
        assert back.matrix == doc.matrix
        assert back.label == doc.label
        assert back.seed == doc.seed
        assert back.min_poly == doc.min_poly

    def test_bare_matrix_has_no_metadata_keys(self):
        data = document_to_json(MatrixDocument(matrix=DenseMatrix([[4]])))
        assert set(data) == {"n", "entries"}

    def test_malformed_documents(self):
        with pytest.raises(FormatError):
            document_from_json([1, 2])
        with pytest.raises(FormatError):
            document_from_json({"n": 2})
        with pytest.raises(FormatError):
            document_from_json({"entries": "nope"})
        with pytest.raises(FormatError):
            document_from_json({"entries": [["1", "2"], ["3"]]})
        with pytest.raises(FormatError):
            document_from_json({"n": 3, "entries": [["1", "0"], ["0", "1"]]})
        with pytest.raises(FormatError):
            document_from_json({"entries": [["1"]], "label": 7})


#: the longest integer literal one int() converts, or 0 for no limit
STR_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG_LITERAL = "1" * 5000
TOO_LONG = "longer than this interpreter converts"
SQRT_MISMATCH = ("FieldMismatch", "minimal_polynomial expects a matrix with rational entries")

#: (entry e, exit code of ``sn`` on [[e, 1], [0, 2]], its (error, message)
#: or None, the document's matrix entries or None), recorded from the
#: reader that built a Fraction or a MultiQuad per entry before the matrix
READER_TABLE = [
    (" 7 ", 0, None, [["7", "1"], ["0", "2"]]),
    ("+5", 0, None, [["5", "1"], ["0", "2"]]),
    ("-0", 0, None, [["0", "1"], ["0", "2"]]),
    ("4/6", 0, None, [["2/3", "1"], ["0", "2"]]),
    ("0/5", 0, None, [["0", "1"], ["0", "2"]]),
    ("-12/-4", 2, ("FormatError", "not a rational: '-12/-4'"), None),
    ("1.5", 2, ("FormatError", "not a rational: '1.5'"), None),
    ("1e3", 2, ("FormatError", "not a rational: '1e3'"), None),
    ("", 2, ("FormatError", "not a rational: ''"), None),
    ("1/0", 2, ("FormatError", "zero denominator: '1/0'"), None),
    ("\u0661", 2, ("FormatError", "not a rational: '\u0661'"), None),
    (5, 2, ("FormatError", "scalar must be a string or object, got int"), None),
    (None, 2, ("FormatError", "scalar must be a string or object, got NoneType"), None),
    (True, 2, ("FormatError", "scalar must be a string or object, got bool"), None),
    (["1"], 2, ("FormatError", "scalar must be a string or object, got list"), None),
    pytest.param(
        LONG_LITERAL,
        *(
            (2, ("FormatError", f"integer literal of 5000 digits is {TOO_LONG}"), None)
            if STR_LIMIT
            else (0, None, [[LONG_LITERAL, "1"], ["0", "2"]])
        ),
        id="5000-digit literal",
    ),
    ({"x": "1"}, 2, ("FormatError", "bad radicand label: 'x'"), None),
    ({"0": "1"}, 2, ("FormatError", "bad radicand label: 0"), None),
    ({"0": "0"}, 2, ("FormatError", "bad radicand label: 0"), None),
    ({"0": "1", "x": "1"}, 2, ("FormatError", "bad radicand label: 'x'"), None),
    ({"\u0664": "1"}, 2, ("FormatError", "bad radicand label: '\u0664'"), None),
    ({"4": 1}, 2, ("FormatError", "coordinate for '4' must be a string"), None),
    ({"+2": "1/0"}, 2, ("FormatError", "coordinate for '+2': zero denominator: '1/0'"), None),
    ({"2": "1.5"}, 2, ("FormatError", "coordinate for '2': not a rational: '1.5'"), None),
    ({"12": "1/2", "3": "-1"}, 0, None, [["0", "1"], ["0", "2"]]),
    ({"2": "4/6", "8": "-1/3"}, 0, None, [["0", "1"], ["0", "2"]]),
    ({"4": "1/2", "9": "-1/3"}, 0, None, [["0", "1"], ["0", "2"]]),
    ({"1": "3"}, 0, None, [["3", "1"], ["0", "2"]]),
    ({}, 0, None, [["0", "1"], ["0", "2"]]),
    ({"2": "0"}, 0, None, [["0", "1"], ["0", "2"]]),
    # a label written twice keeps its last coordinate
    ({"2": "1", "+2": "3"}, 3, SQRT_MISMATCH, [[{"2": "3"}, "1"], ["0", "2"]]),
    ({" -3 ": "2"}, 3, SQRT_MISMATCH, [[{"-3": "2"}, "1"], ["0", "2"]]),
    ({"-4": "1"}, 3, SQRT_MISMATCH, [[{"-1": "2"}, "1"], ["0", "2"]]),
    ({"12": "1/2"}, 3, SQRT_MISMATCH, [[{"3": "1"}, "1"], ["0", "2"]]),
]


class TestIntegerReader:
    """document_from_json parses every entry straight to integers over
    one denominator and keeps the reader's results, errors and exit
    codes entry for entry."""

    @pytest.mark.parametrize("entry, code, error, entries", READER_TABLE)
    def test_edge_entries(self, entry, code, error, entries):
        doc = {"entries": [[entry, "1"], ["0", "2"]]}
        got_code, out, err = run_cli(["sn"], json.dumps(doc))
        assert got_code == code
        if error is None:
            assert err == ""
        else:
            assert json.loads(err) == {"error": error[0], "message": error[1]}
        if entries is None:
            with pytest.raises(FormatError) as info:
                document_from_json(doc)
            assert str(info.value) == error[1]
        else:
            assert matrix_to_json(document_from_json(doc).matrix)["entries"] == entries

    def test_entries_become_integer_parts_with_no_fraction(self, monkeypatch):
        from mindec import matrix, scalar, serialize

        def no_fraction(*args):
            raise AssertionError("a document entry built a Fraction")

        doc = {"entries": [["1/2", {"2": "1/3", "8": "1"}], [" -4/6 ", {"1": "5"}]]}
        for module in (matrix, scalar, serialize):
            monkeypatch.setattr(module, "Fraction", no_fraction)
        M = document_from_json(doc).matrix
        monkeypatch.undo()
        surd = MultiQuad({2: Fraction(7, 3)})  # 1/3 * sqrt(2) + sqrt(8)
        assert M == DenseMatrix([[Fraction(1, 2), surd], [Fraction(-2, 3), 5]])

    def test_each_distinct_label_is_split_once_per_document(self, monkeypatch):
        from mindec import scalar

        calls = []
        real = scalar.square_split
        monkeypatch.setattr(scalar, "square_split", lambda n: calls.append(n) or real(n))
        label = "100000000000000000039"  # a prime: trial division runs to its bound
        doc = {"entries": [[{label: "1"}] * 8 for _ in range(8)]}
        code, out, err = run_cli(["sn"], json.dumps(doc))
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": SQRT_MISMATCH[0], "message": SQRT_MISMATCH[1]}
        assert calls == [int(label)]
        calls.clear()
        doc = {"entries": [[{"12": "1", "3": "-1/2"}, {"12": "2"}], [{"8": "1"}, {"-3": "1"}]]}
        document_from_json(doc)
        assert sorted(calls) == [-3, 3, 8, 12]
        document_from_json(doc)
        assert len(calls) == 8


#: (min_poly value v, exit code of ``sn`` on a document that carries v,
#: its (error, message) or None, the polynomial read back as JSON or
#: None), pinned so that the polynomial readers keep them
MIN_POLY_TABLE = [
    ([{"2": "1"}], 0, None, [{"2": "1"}]),
    ([{"4": "1"}, "1"], 0, None, ["2", "1"]),
    (["-4/6", "0", "3/9"], 0, None, ["-2/3", "0", "1/3"]),
    (["0", "0"], 0, None, []),
    (["1/0"], 2, ("FormatError", "zero denominator: '1/0'"), None),
    ([{"0": "1"}], 2, ("FormatError", "bad radicand label: 0"), None),
    ([["1"]], 2, ("FormatError", "scalar must be a string or object, got list"), None),
    ("X", 2, ("FormatError", "polynomial must be a list of coefficients"), None),
    pytest.param(
        [LONG_LITERAL],
        *(
            (2, ("FormatError", f"integer literal of 5000 digits is {TOO_LONG}"), None)
            if STR_LIMIT
            else (0, None, [LONG_LITERAL])
        ),
        id="5000-digit literal",
    ),
]

#: (--poly coefficient list, exit code of ``apply`` with it, its (error,
#: message) or None, the polynomial as JSON or None), recorded as above
POLY_LIST_TABLE = [
    ("4/6,0/5,1", 0, None, ["2/3", "0", "1"]),
    ("1/0,1", 2, ("PolyParseError", "zero denominator: '1/0'"), None),
    ("0,0", 0, None, []),
]


class TestIntegerPolynomialReader:
    """The --poly coefficient lists and rational literals read straight
    to integers over one denominator; the text and JSON polynomial
    readers keep their results, errors and exit codes."""

    @pytest.mark.parametrize("min_poly, code, error, coeffs", MIN_POLY_TABLE)
    def test_edge_min_polys(self, min_poly, code, error, coeffs):
        doc = {"entries": [["1", "1"], ["0", "2"]], "min_poly": min_poly}
        got_code, out, err = run_cli(["sn"], json.dumps(doc))
        assert got_code == code
        if error is None:
            assert err == ""
            assert poly_to_json(document_from_json(doc).min_poly) == coeffs
        else:
            assert json.loads(err) == {"error": error[0], "message": error[1]}
            with pytest.raises(FormatError) as info:
                document_from_json(doc)
            assert str(info.value) == error[1]

    @pytest.mark.parametrize("text, code, error, coeffs", POLY_LIST_TABLE)
    def test_edge_coefficient_lists(self, text, code, error, coeffs):
        doc = '{"entries": [["1", "1"], ["0", "2"]]}'
        got_code, out, err = run_cli(["apply", "--poly", text], doc)
        assert got_code == code
        if error is None:
            assert err == ""
            assert poly_to_json(parse_poly_expression(text)) == coeffs
        else:
            assert json.loads(err) == {"error": error[0], "message": error[1]}
            with pytest.raises(PolyParseError) as info:
                parse_poly_expression(text)
            assert str(info.value) == error[1]

    def test_a_rational_coefficient_list_keeps_no_fraction(self, monkeypatch):
        from mindec import poly, scalar, serialize

        def no_fraction(*args):
            raise AssertionError("a rational coefficient built a Fraction")

        for module in (poly, scalar, serialize):
            monkeypatch.setattr(module, "Fraction", no_fraction)
        read = [parse_poly_expression("-4/6, 0/5, 1/3"), parse_poly_expression("2/4")]
        assert all(p._coeffs is None for p in read)
        monkeypatch.undo()
        assert read == [
            Polynomial((Fraction(-2, 3), 0, Fraction(1, 3))),
            Polynomial((Fraction(1, 2),)),
        ]


def _entrywise_json(M):
    # the entry-by-entry form that matrix_to_json must reproduce
    return [[scalar_to_json(e) for e in row] for row in M.rows]


def _unread(rows):
    """The matrix of rows as the commands produce their outputs: the
    result of arithmetic, whose entries were never read."""
    return DenseMatrix(rows) @ DenseMatrix.identity(len(rows))


class TestMatrixJsonFromParts:
    """matrix_to_json writes the integer parts over the one denominator
    and equals the entry-by-entry serialization, building no entry."""

    def _assert_entrywise(self, rows):
        M = _unread(rows)
        data = matrix_to_json(M)
        assert M._rows is None
        # the same JSON text, key order included
        assert json.dumps(data) == json.dumps({"n": M.n, "entries": _entrywise_json(M)})
        return data

    def test_fixed_cases(self):
        big = 2**_STR_BITS + 12345
        cases = [
            [[0, 0], [0, 0]],
            [[-3, 4], [7, -1]],
            [[Fraction(-6, 4), Fraction(1, 3)], [0, Fraction(5, 6)]],
            [[Fraction(-big, 3), 1], [Fraction(2, big), 0]],
            [[MultiQuad({2: Fraction(-1, 2), 1: 3}), Fraction(7, 3)], [0, MultiQuad({-1: 1})]],
            [[MultiQuad({2: 1}), MultiQuad({3: big, 1: -big})], [MultiQuad(5), Fraction(-1, 4)]],
        ]
        for rows in cases:
            self._assert_entrywise(rows)
        data = self._assert_entrywise(cases[-2])
        assert data["entries"] == [[{"1": "3", "2": "-1/2"}, "7/3"], ["0", {"-1": "1"}]]

    def test_property_against_entrywise(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        big = st.integers(2**_STR_BITS, 2**_STR_BITS + 2**20)
        integer = st.integers(-(10**6), 10**6) | big | big.map(lambda x: -x)
        coeff = st.builds(Fraction, integer, st.integers(1, 60) | big)
        labels = st.sampled_from((1, 2, 3, 6, -1, 5))
        entry = (
            st.just(Fraction(0))
            | coeff
            | st.dictionaries(labels, coeff, max_size=3).map(MultiQuad)
        )

        @st.composite
        def rows(draw):
            n = draw(st.integers(1, 4))
            cell = entry if draw(st.booleans()) else (st.just(Fraction(0)) | coeff)
            return [[draw(cell) for _ in range(n)] for _ in range(n)]

        @hypothesis.settings(max_examples=80, derandomize=True, deadline=None, database=None)
        @hypothesis.given(rows())
        def check(rs):
            self._assert_entrywise(rs)

        check()


class TestPinnedOutputs:
    """The stdout of each command that writes matrices, byte for byte.
    Digests of parsed JSON with sorted keys could not see a change in
    the order of an object's keys; these hash the raw text."""

    BLOCKS = (
        '{"entries": [["2", "1", "-1", "0", "0"], ["-1", "0", "0", "0", "-1"], '
        '["0", "0", "0", "0", "-1"], ["0", "0", "0", "-1", "0"], ["0", "0", "-2", "0", "0"]]}'
    )
    # cmjc's delta has an entry 2 - 2*sqrt(3), an object with key "1"
    QUADRATIC = '{"entries": [["1", "-2", "2"], ["0", "0", "3"], ["0", "1", "0"]]}'
    GRAM = '{"entries": [["-2", "-2", "-3/2"], ["2", "2", "-3/2"], ["-3/2", "3/2", "0"]]}'

    @pytest.mark.parametrize(
        "argv, doc, digest",
        [
            (["sn", "--check"], BLOCKS, "4f1c0ca1f967b453c5fd6ca07e5d0164639f66b27b5aeed675370742b6b8b109"),
            (["fine", "--check"], BLOCKS, "0d3629d30d5a824012d9e6fc0ac311260ee093e838e57f93eca420027a0e729f"),
            (
                ["apply", "--poly", "X^2", "--check"],
                BLOCKS,
                "d6ddbb8f4754a88b95d6533923533cba047d8be7b72cf5a3aab80646ba2ee46b",
            ),
            (["cmjc", "--check"], QUADRATIC, "6fb5c3155c2649f0bbf10190e5b50d7893b418458aad56fe3d07d624e4d7d13b"),
            (["svd", "--check"], GRAM, "6c32b3aabab127dca7d0f2037f2d7c43fb8775f5102fb1c1e8218d442ad52e56"),
        ],
    )
    def test_stdout_digest(self, argv, doc, digest):
        code, out, err = run_cli(argv, doc)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPolyJson:
    def test_coefficient_lists_round_trip(self):
        p = Polynomial((Fraction(1, 3), 0, -2, 1))
        data = poly_to_json(p)
        assert data == ["1/3", "0", "-2", "1"]
        assert poly_from_json(data) == p

    def test_zero_is_the_empty_list(self):
        assert poly_to_json(Polynomial()) == []
        assert poly_from_json([]).is_zero

    def test_surd_coefficients_supported(self):
        p = Polynomial((SQRT2, MultiQuad(1)))
        assert poly_from_json(poly_to_json(p)) == p

    def test_non_list_rejected(self):
        with pytest.raises(FormatError):
            poly_from_json("X^2")


class TestPolyText:
    def test_rendering(self):
        assert poly_to_text(Polynomial()) == "0"
        assert poly_to_text(Polynomial((2, -1, Fraction(3, 2)))) == "2 - X + 3/2*X^2"
        assert poly_to_text(X ** 3 - X) == "-X + X^3"

    def test_render_parse_round_trip(self):
        import random

        rng = random.Random("poly-text")
        for _ in range(50):
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))
            ]
            p = Polynomial(tuple(coeffs))
            assert parse_poly_expression(poly_to_text(p)) == p

    def test_surd_coefficients_have_no_text_form(self):
        with pytest.raises(FormatError):
            poly_to_text(Polynomial((SQRT2,)))

    def test_str_is_the_text_form(self):
        assert str(X**2 - 30 * X + 4) == "4 - 30*X + X^2"
        assert str(Polynomial((0, Fraction(-3, 2)))) == "-3/2*X"
        # other coefficients keep the "c*X^k" form
        assert str(Polynomial((SQRT2, 0, MultiQuad(-1)))) == "1*sqrt(2) + -1*X^2"

    def test_str_parse_round_trip_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.just(Fraction(0)) | st.fractions(max_denominator=10**9) | st.integers(
            -(2**70), 2**70
        ).map(Fraction)

        @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
        @hypothesis.given(st.lists(coeff, max_size=12))
        def check(coeffs):
            p = Polynomial(coeffs)
            assert parse_poly_expression(str(p)) == p
            assert poly_to_text(p) == str(p)

        check()


class TestPolyGrammar:
    def test_juxtaposition_multiplies(self):
        assert parse_poly_expression("(X^2-2)(X-1)^2") == (X ** 2 - 2) * (X - 1) ** 2
        assert parse_poly_expression("2X") == 2 * X
        assert parse_poly_expression("2(X+1)") == 2 * (X + 1)

    def test_explicit_star_and_powers(self):
        assert parse_poly_expression("3*X^2 - 1/2*X + 5") == 3 * X ** 2 - Fraction(1, 2) * X + 5
        # '^' binds tighter than juxtaposition: 2X^3 is 2*(X^3)
        assert parse_poly_expression("2X^3") == 2 * X ** 3

    def test_leading_sign_and_nesting(self):
        assert parse_poly_expression("-X + 1") == -X + 1
        assert parse_poly_expression("((X-1)^2 + 1)^2") == ((X - 1) ** 2 + 1) ** 2

    def test_fractions_are_exact(self):
        p = parse_poly_expression("1/3 + 1/3 + 1/3")
        assert p == Polynomial((1,))

    def test_a_comma_makes_a_coefficient_list(self):
        assert parse_poly_expression("1, -1,0 ,2") == 1 - X + 2 * X**3
        assert parse_poly_expression("-5/2,+3") == Polynomial((Fraction(-5, 2), 3))
        assert parse_poly_expression("1,0,0") == Polynomial((1,))
        # no comma: a lone rational, and products of constants, are
        # expressions
        assert parse_poly_expression(" -5/2 ") == Polynomial((Fraction(-5, 2),))
        assert parse_poly_expression("2*3") == Polynomial((6,))

    def test_coefficient_list_bounds_are_inclusive(self):
        p = parse_poly_expression("0," * MAX_POLY_DEGREE + "1")
        assert p == X**MAX_POLY_DEGREE
        with pytest.raises(PolyParseError, match="degree"):
            parse_poly_expression("0," * (MAX_POLY_DEGREE + 1) + "1")
        # the bound counts the bits of the numerators' sum less one, as
        # for a product
        assert parse_poly_expression(f"0,{2**MAX_POLY_BITS}") == 2**MAX_POLY_BITS * X
        with pytest.raises(PolyParseError, match="bits"):
            parse_poly_expression(f"1,{2**MAX_POLY_BITS}")
        q = parse_poly_expression(f"1/{2**MAX_POLY_BITS - 1},0").coefficient(0)
        assert q.denominator.bit_length() == MAX_POLY_BITS
        with pytest.raises(PolyParseError, match="bits"):
            parse_poly_expression(f"0,1/{2**MAX_POLY_BITS}")

    def test_whitespace_is_free(self):
        a = parse_poly_expression("( X ^ 2 - 2 ) ( X - 1 )")
        b = parse_poly_expression("(X^2-2)(X-1)")
        assert a == b

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "X +",
            "(X-1",
            "X-1)",
            "1/0",
            "X^",
            "X^y",
            "X$2",
            "X..",
            "X^\u0663",
            "\u0661",
            "X-\u0661/2",
            "1,X",
            "1,,2",
            "1,\u0662",
        ],
    )
    def test_malformed_expressions(self, text):
        with pytest.raises(PolyParseError):
            parse_poly_expression(text)

    def test_error_messages_carry_positions(self):
        with pytest.raises(PolyParseError, match="position"):
            parse_poly_expression("X-1)")
        with pytest.raises(PolyParseError, match="at 2"):
            parse_poly_expression("X µ 1")

    def test_degree_bound_is_inclusive_and_fast(self):
        t0 = time.perf_counter()
        p = parse_poly_expression(f"(X+1)^{MAX_POLY_DEGREE}")
        assert time.perf_counter() - t0 < 2.0
        assert p.degree == MAX_POLY_DEGREE
        half = MAX_POLY_DEGREE // 2
        assert p.coefficient(half) == comb(MAX_POLY_DEGREE, half)
        product = parse_poly_expression(f"(X^{half})(X^{MAX_POLY_DEGREE - half})")
        assert product.degree == MAX_POLY_DEGREE
        depth = MAX_POLY_NESTING
        assert parse_poly_expression("(" * depth + "X" + ")" * depth) == X

    def test_bit_bound_is_inclusive(self):
        # 2^k counts k bits, and a power or product adds the bounds up
        half = MAX_POLY_BITS // 2
        p = parse_poly_expression(f"(2^1000*2^{half - 1000})^2")
        assert p == Polynomial((2**MAX_POLY_BITS,))
        with pytest.raises(PolyParseError, match="bits"):
            parse_poly_expression(f"(2^1000*2^{half - 999})^2")
        t0 = time.perf_counter()
        p = parse_poly_expression(f"(X+2^1000*2^{half - 1001})^2")
        assert time.perf_counter() - t0 < 2.0
        assert p.coefficient(0) == 2 ** (MAX_POLY_BITS - 2)

    def test_a_literal_and_a_sum_are_bounded_as_a_coefficient_list_is(self):
        # 2^k - 1 takes k bits and 2^k + 1 one more; a denominator
        # counts its own bits
        top = 2**MAX_POLY_BITS
        assert parse_poly_expression(str(top - 1)) == Polynomial((top - 1,))
        assert parse_poly_expression(f"1/{top - 1}") == Polynomial((Fraction(1, top - 1),))
        with pytest.raises(PolyParseError, match="literal at position 0 .* 2049 bits"):
            parse_poly_expression(str(top + 1))
        with pytest.raises(PolyParseError, match="literal at position 2 .* 2049 bits"):
            parse_poly_expression(f"X+1/{top}")
        # each sum is checked as it is formed
        half = str(top // 2)
        assert parse_poly_expression(f"{half} + {half}") == Polynomial((top,))
        with pytest.raises(PolyParseError, match="sum at position"):
            parse_poly_expression(f"{half} + {half} + 1")
        with pytest.raises(PolyParseError, match="sum at position"):
            parse_poly_expression(f"1/{top - 1} - 1/{top - 3}")

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"(X+1)^{MAX_POLY_DEGREE + 1}", "exponent"),
            ("X^200000", "exponent"),
            ("2^100000000000", "exponent"),
            (f"(X^2+1)^{MAX_POLY_DEGREE // 2 + 1}", "power degree"),
            (f"(X^{MAX_POLY_DEGREE})(X+1)", "product degree"),
            (f"X^{MAX_POLY_DEGREE} * X", "product degree"),
            ("(" * (MAX_POLY_NESTING + 1) + "X" + ")" * (MAX_POLY_NESTING + 1), "nested"),
            ("(" * 5000 + "X" + ")" * 5000, "nested"),
            ("-(" * 5000 + "X" + ")" * 5000, "nested"),
            ("(X+2^1000)^200", "bits"),
            ("((2^1000)^1000)^1000", "bits"),
            ("(2^1000)(2^1000)(2^1000)", "bits"),
            ("0," * 200000 + "1", "degree"),
            ("1," + str(7**1000), "bits"),
            (",".join(f"1/{p}" for p in PRIMES_BELOW_3000), "bits"),
        ],
        ids=["exp-bound", "exp-large", "exp-constant", "power", "product", "product-star",
             "nesting-bound", "nesting-5000", "nesting-signed", "bits-power",
             "bits-nested-power", "bits-product", "list-degree", "list-bits",
             "list-denominators"],
    )
    def test_bounds_are_checked_before_expanding(self, text, message):
        t0 = time.perf_counter()
        with pytest.raises(PolyParseError, match=message):
            parse_poly_expression(text)
        assert time.perf_counter() - t0 < 2.0
