"""End-to-end command line checks, run in-process via selftest.run_cli."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_factor import swinnerton_dyer

from mindec import cli
from mindec.generator import _unimodular
from mindec.matrix import DenseMatrix, companion
from mindec.poly import _int_to_string
from mindec.selftest import run_cli
from mindec.serialize import (
    MAX_POLY_BITS,
    MAX_POLY_DEGREE,
    MAX_POLY_NESTING,
    matrix_to_json,
    parse_poly_expression,
)

IDENTITY_2 = json.dumps({"n": 2, "entries": [["1", "0"], ["0", "1"]]})
SINGULAR_2 = json.dumps({"entries": [["1", "0"], ["0", "0"]]})
JORDAN_2 = json.dumps({"entries": [["1", "1"], ["0", "1"]]})


def gen(seed, *extra):
    code, out, err = run_cli(["gen", "--seed", seed, *extra])
    assert code == 0, err
    return out


class TestExitCodes:
    def test_success_is_zero(self):
        code, out, err = run_cli(["sn"], input_text=IDENTITY_2)
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["nilpotent"]["entries"] == [["0", "0"], ["0", "0"]]

    def test_malformed_json_is_two(self):
        code, out, err = run_cli(["sn"], input_text="{not json")
        assert code == 2
        assert json.loads(err)["error"] == "FormatError"

    @pytest.mark.parametrize(
        "text", ["[" * 200_000, '{"entries": [[' + '{"2": ' * 5000], ids=["arrays", "objects"]
    )
    def test_deeply_nested_json_is_a_format_error(self, text):
        t0 = time.perf_counter()
        code, out, err = run_cli(["sn"], input_text=text)
        assert time.perf_counter() - t0 < 2.0
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "FormatError"

    def test_unexpected_exception_is_one_json_object(self, monkeypatch):
        def broken(M):
            raise KeyError("planted")

        monkeypatch.setattr(cli, "sn_decompose", broken)
        code, out, err = run_cli(["sn"], input_text=IDENTITY_2)
        assert (code, out) == (4, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "KeyError", "message": "'planted'"}

    def test_internal_invariant_exits_four(self, monkeypatch):
        # a Gram matrix that is not semisimple breaks svd's invariant
        import mindec.realclosed as realclosed_mod
        from mindec.decompose import system_of
        from mindec.errors import InvariantViolation, MindecError
        from mindec.matrix import DenseMatrix

        monkeypatch.setattr(
            realclosed_mod, "system_of", lambda gram: system_of(DenseMatrix([[1, 1], [0, 1]]))
        )
        code, out, err = run_cli(["svd"], input_text=IDENTITY_2)
        assert (code, out) == (4, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "InvariantViolation",
            "message": "Gram matrix of a rational matrix must be semisimple",
        }
        assert issubclass(InvariantViolation, RuntimeError)
        assert not issubclass(InvariantViolation, MindecError)

    def test_malformed_document_is_two(self):
        code, _, err = run_cli(["fine"], input_text='{"entries": [["1","2"],["3"]]}')
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("entry", ['"1/0"', '"-3/00"', '{"2": "1/0"}'])
    def test_zero_denominator_entry_is_two(self, entry):
        code, out, err = run_cli(["sn"], input_text='{"entries": [[%s]]}' % entry)
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    def test_zero_denominator_poly_is_two(self):
        code, out, err = run_cli(["apply", "--poly=1/0,1"], input_text=IDENTITY_2)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "PolyParseError"

    def test_precondition_failure_is_three(self):
        code, _, err = run_cli(["mjc"], input_text=SINGULAR_2)
        assert code == 3
        assert json.loads(err)["error"] == "SingularMatrix"

    def test_irrational_singular_values_is_three(self):
        code, _, err = run_cli(["svd"], input_text=JORDAN_2)
        assert code == 3
        assert json.loads(err)["error"] == "SingularValuesNotRational"

    @pytest.mark.parametrize(
        "document,error",
        [
            ('{"entries": [["0", "0"], ["0", "0"]]}', "ZeroMatrix"),
            (JORDAN_2, "NotSemisimple"),
        ],
    )
    def test_unbreakable_refusal_is_three(self, document, error):
        code, out, err = run_cli(["unbreakable"], input_text=document)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("entry", ['"\u0661"', '"\u00b2"', '"1/\u0663"', '{"2": "\u0661"}'])
    def test_non_ascii_digit_entry_is_two(self, entry):
        # Arabic-Indic and superscript digits are not rationals
        code, out, err = run_cli(["sn"], input_text='{"entries": [[%s]]}' % entry)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] in ("FormatError", "PolyParseError")

    @pytest.mark.parametrize("entry", ['"\u0661"', '{"2": "\u0661"}', '{"1": "1/x"}'])
    def test_bad_rational_entry_is_a_format_error(self, entry):
        # a plain entry and a MultiQuad coordinate report the same class
        code, out, err = run_cli(["sn"], input_text='{"entries": [[%s]]}' % entry)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "FormatError"

    def test_non_ascii_digit_poly_is_two(self):
        code, out, err = run_cli(["apply", "--poly=\u0661,1"], input_text=IDENTITY_2)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "PolyParseError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["apply", "--poly", "X^\u0663"],
            ["apply", "--poly=\u0661"],
            ["gen", "--seed", "s", "--minpoly", "X-\u0661"],
            ["gen", "--seed", "s", "--blocks", "X-1;X^2-\u0662"],
        ],
        ids=["apply-exponent", "apply-constant", "gen-minpoly", "gen-blocks"],
    )
    def test_non_ascii_digit_expression_is_two(self, argv):
        # an expression reads ASCII digits only, as a coefficient list does
        code, out, err = run_cli(argv, input_text=IDENTITY_2)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "PolyParseError"

    def test_coefficient_list_and_expression_give_one_output(self):
        outs = []
        for poly in ("--poly=1,-1,0,2", "--poly=1 - X + 2*X^3"):
            code, out, err = run_cli(["apply", poly, "--check"], input_text=JORDAN_2)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_factor_in_a_message_is_written_as_text(self):
        code, out, err = run_cli(["svd"], input_text='{"entries": [["1", "2"], ["3", "4"]]}')
        assert (code, out) == (3, "")
        assert "factor 4 - 30*X + X^2" in json.loads(err)["message"]

    def test_unknown_flag_is_two(self):
        code, _, _ = run_cli(["sn", "--frobnicate"], input_text=IDENTITY_2)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["apply", "--poly", "-1,2"], ["apply"], ["gen", "--seed", "s", "--size", "x"]],
    )
    def test_argument_error_is_one_json_object(self, argv):
        code, out, err = run_cli(argv, input_text=IDENTITY_2)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "UsageError"

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": "2", "entries": [["1","0"],["0","1"]]}',
            '{"n": true, "entries": [["1"]]}',
            '{"n": 2.0, "entries": [["1","0"],["0","1"]]}',
            '{"n": null, "entries": [["1"]]}',
        ],
        ids=["string", "bool", "float", "null"],
    )
    def test_non_integer_n_is_two(self, text):
        code, out, err = run_cli(["sn"], input_text=text)
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "FormatError"
        assert error["message"].startswith('"n" must be an integer, got ')
        assert "entries form" not in error["message"]

    def test_help_is_zero(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0
        assert "selftest" in out

    def test_main_calls_share_one_parser_and_help_follows_the_redirect(self):
        cli._build_parser.cache_clear()
        first = run_cli(["--help"])
        second = run_cli(["sn", "--help"])
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first[0] == second[0] == 0
        assert "selftest" in first[1]
        assert "--check" in second[1]
        assert first[2] == second[2] == ""


# radicands whose square part took unbounded trial division: each
# request ends in time, with a result or one JSON error object
LARGE_RADICANDS = [
    # parsed now; sn then rejects the irrational entry
    (["sn"], [[{"1000000000000000003": "1"}]], "FieldMismatch"),
    (["svd"], [["100000000000000003", "0"], ["0", "1"]], None),
    # the discriminant's cofactor 399999999999639999999999689 is prime
    # but beyond deterministic primality testing
    (["cmjc"], [["9999999999999/7", "-1"], ["1/2", "1/2"]], "RadicandTooLarge"),
]


@pytest.mark.parametrize(
    "argv, entries, error", LARGE_RADICANDS, ids=[case[0][0] for case in LARGE_RADICANDS]
)
def test_large_radicand_is_bounded(argv, entries, error):
    t0 = time.perf_counter()
    code, out, err = run_cli(argv, input_text=json.dumps({"entries": entries}))
    assert time.perf_counter() - t0 < 2.0
    if error is None:
        assert code == 0, err
        return
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == error


def _zeros_document(n):
    row = "[" + ",".join(['"0"'] * n) + "]"
    return '{"entries": [' + ",".join([row] * n) + "]}"


@pytest.mark.parametrize("n", [cli.MAX_ORDER + 1, 2000])
def test_matrix_order_is_bounded(n):
    document = _zeros_document(n)
    t0 = time.perf_counter()
    code, out, err = run_cli(["sn", "--check"], input_text=document)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (3, "")
    error = json.loads(err)
    assert error["error"] == "OrderTooLarge"
    assert f"limited to {cli.MAX_ORDER}; the document has {n} rows" in error["message"]


def test_a_long_row_is_refused_before_its_entries_are_parsed():
    entries = [["0"] * 3, ["0"] * 3, ["not a number"] * (cli.MAX_ORDER + 1)]
    code, out, err = run_cli(["sn"], input_text=json.dumps({"entries": entries}))
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "OrderTooLarge"


def test_order_64_is_accepted():
    # the companion matrix of the degree-64 Swinnerton-Dyer polynomial
    # parses; sn then stops at the recombination budget, not the order
    sd64 = companion(swinnerton_dyer([2, 3, 5, 7, 11, 13]))
    assert sd64.n == cli.MAX_ORDER
    code, out, err = run_cli(["sn"], input_text=json.dumps(matrix_to_json(sd64)))
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "RecombinationBudgetExceeded"
    code, out, err = run_cli(["sn", "--check"], input_text=_zeros_document(cli.MAX_ORDER))
    assert code == 0, err
    assert json.loads(out)["report"]["pass"] is True


#: a matrix over Q(sqrt(2), sqrt(3)); the matrix commands work over Q
SURD_2 = json.dumps({"entries": [[{"2": "1"}, "1"], ["0", {"3": "1"}]]})
MATRIX_COMMANDS = ("sn", "fine", "covariants", "unbreakable", "mjc", "cmjc", "svd")


def test_multiquad_input_is_a_field_mismatch_for_every_command():
    for command in MATRIX_COMMANDS:
        code, out, err = run_cli([command, "--check"], input_text=SURD_2)
        assert (code, out) == (3, ""), command
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "FieldMismatch", command


#: a rational matrix written with MultiQuad entries of rational value,
#: 2 = sqrt(4), 3 and 1 = (1/3) sqrt(9), and its Fraction twin; it is
#: symmetric and nonsingular with eigenvalues 5, 1, 1, so every command
#: succeeds on it
RATIONAL_MQ_3 = json.dumps(
    {
        "entries": [
            [{"1": "3"}, {"4": "1"}, "0"],
            [{"4": "1"}, {"1": "3"}, "0"],
            ["0", "0", {"9": "1/3"}],
        ]
    }
)
RATIONAL_3 = json.dumps({"entries": [["3", "2", "0"], ["2", "3", "0"], ["0", "0", "1"]]})


@pytest.mark.parametrize(
    "argv", [[c] for c in MATRIX_COMMANDS] + [["apply", "--poly", "X^2-1"]], ids="-".join
)
def test_rational_valued_multiquad_input_matches_its_fraction_twin(argv):
    # the field of a matrix is the field of its values, not of its syntax
    code, out, err = run_cli([*argv, "--check"], input_text=RATIONAL_MQ_3)
    assert (code, err) == (0, "")
    assert (code, out) == run_cli([*argv, "--check"], input_text=RATIONAL_3)[:2]


#: atoms the document format refuses: zero denominators, non-strings,
#: bad labels, non-ASCII digits
MALFORMED_ATOMS = (
    "1/0", "x", "", "1.5", "\u0663", None, 3, 1.5, True, [], {}, {"0": "1"}, {"a": "1"},
    {"2": 1}, {"2": "1/0"},
)
#: document kinds, rational ones weighted up so most requests reach a command
KINDS = ("rational", "multiquad", "bad-atom", "rational", "not-square", "rational", "bad-n")
POLYS = ("X^2-1", "1,0,-2", "(X-1)^2", "X", "0", "3", "X^3-2X", "X^^2", "1,,2", "")


def test_fuzzed_requests_keep_the_cli_contract():
    # every request ends in time with exit code 0, 2, 3 or 4; a failure
    # writes nothing to stdout and one JSON error object to stderr
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rational = st.builds(
        "{}/{}".format, st.integers(-12, 12), st.integers(1, 6)
    ) | st.integers(-9, 9).map(str)
    multiquad = st.dictionaries(
        st.sampled_from(("1", "2", "3", "6", "-1", "-2", "8")), rational, min_size=1, max_size=2
    )

    @st.composite
    def requests(draw):
        n = draw(st.integers(1, 4))
        kind = draw(st.sampled_from(KINDS))
        atom = rational | multiquad if kind == "multiquad" else rational
        entries = [[draw(atom) for _ in range(n)] for _ in range(n)]
        doc = {"entries": entries}
        if kind == "bad-atom":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            entries[i][j] = draw(st.sampled_from(MALFORMED_ATOMS))
        elif kind == "not-square":
            entries[draw(st.integers(0, n - 1))].pop()
        elif kind == "bad-n":
            doc["n"] = draw(st.sampled_from((0, n + 1, "2", None)))
        command = draw(st.sampled_from(MATRIX_COMMANDS + ("apply",)))
        argv = [command]
        if command == "apply":
            argv += ["--poly", draw(st.sampled_from(POLYS))]
        if draw(st.booleans()):
            argv.append("--check")
        return argv, json.dumps(doc)

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(requests())
    def check(request):
        _assert_cli_contract(*request)

    check()


def _assert_cli_contract(argv, text):
    # the request ends within 5 s with exit code 0, 2, 3 or 4; a failure
    # writes nothing to stdout and one JSON error object to stderr, and
    # names an error of the library, never a bare ValueError
    t0 = time.perf_counter()
    code, out, err = run_cli(argv, input_text=text)
    assert time.perf_counter() - t0 < 5.0
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert payload["error"] != "ValueError"


def _digits(rng, k):
    """A k-digit decimal string with a nonzero first digit."""
    return str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=k - 1))


def _limit_requests(st, limit):
    """The strategy of limit-aimed requests (argv, document text) of one
    kind: each kind puts its inputs on both sides of one limit."""
    check = st.sampled_from(((), ("--check",)))
    small = st.sampled_from((UPPER_2, JORDAN_2, SINGULAR_2, IDENTITY_2))

    def apply(poly):
        # --poly=text, as a text may start with "-"
        return st.tuples(check, small).map(lambda a: (["apply", f"--poly={poly}", *a[0]], a[1]))

    if limit == "fraction-sum":
        # count terms over distinct odd denominators of at least bits bits

        def sum_text(args):
            count, bits, signs, degree = args
            terms = (
                f"{signs[k % 2]}1/{2 ** (bits - 1) + 2 * k + 1}*X^{k % degree}"
                for k in range(count)
            )
            return "".join(terms).lstrip("+")

        texts = st.tuples(
            st.integers(1, 400),
            st.sampled_from((2, 64, MAX_POLY_BITS - 1, MAX_POLY_BITS, MAX_POLY_BITS + 1)),
            st.sampled_from(("++", "+-", "--")),
            st.integers(1, 3),
        ).map(sum_text)
        return texts.flatmap(apply)
    if limit == "nesting":
        def nested(args):
            depth, inner, power = args
            return "(" * depth + inner + ")" * depth + power

        texts = st.tuples(
            st.integers(MAX_POLY_NESTING - 1, MAX_POLY_NESTING + 1),
            st.sampled_from(("X", "X-1", "-X", "2/3", "(X+1)(X-1)")),
            st.sampled_from(("", "^2", "(X-2)")),
        ).map(nested)
        gens = texts.map(lambda t: (["gen", "--seed", "s", f"--minpoly={t}"], ""))
        return texts.flatmap(apply) | gens
    if limit == "exponent":
        def powered(args):
            base, offset = args
            degree = parse_poly_expression(base).degree
            return f"({base})^{MAX_POLY_DEGREE // max(degree, 1) + offset}"

        texts = st.tuples(
            st.sampled_from(("X", "X+1", "X-3", "X+7", "2", "X^2+1", "X^3-X", "1/2*X+1/3")),
            st.integers(-2, 2),
        ).map(powered)
        return texts.flatmap(apply)
    # entries of 1 or of 4,295 to 4,305 digits, either side of the limit
    # of one str() conversion, in triangular matrices of rational
    # eigenvalues, so that no radicand needs trial division
    commands = st.sampled_from(MATRIX_COMMANDS + ("apply",))

    @st.composite
    def long_entries(draw):
        rng = random.Random(draw(st.integers(0, 2**32)))
        n = draw(st.integers(1, 2))

        def entry():
            k = draw(st.sampled_from((1, 4295, 4299, 4300, 4301, 4305)))
            text = _digits(rng, k)
            return text if draw(st.booleans()) else f"-1/{text}"

        entries = [[entry() if j >= i else "0" for j in range(n)] for i in range(n)]
        command = draw(commands)
        argv = [command, "--poly", "X^2+1"] if command == "apply" else [command]
        return [*argv, *draw(check)], json.dumps({"entries": entries})

    # matrices whose minimal-polynomial factor or radicand has more than
    # 4,300 digits: the Gram factor of 10^e A for svd, the radicand
    # b^2 - 4 of X^2 - b X + 1 for cmjc
    @st.composite
    def long_factors(draw):
        if draw(st.booleans()):
            e = draw(st.integers(1080, 1300))
            A = draw(st.sampled_from(([[1, 2], [3, 4]], [[2, 1], [1, 1]], [[1, 1], [0, 3]])))
            rows = [[x * 10**e for x in r] for r in A]
            argv = ["svd"]
        else:
            b = 10 ** draw(st.integers(2151, 2200)) + draw(st.integers(1, 9))
            rows = [[0, -1], [1, b]]
            argv = ["cmjc"]
        return [*argv, *draw(check)], _document(rows)

    return long_entries() if limit == "long-entries" else long_factors()


@pytest.mark.parametrize(
    "limit, examples",
    [("fraction-sum", 40), ("nesting", 30), ("exponent", 30), ("long-entries", 30),
     ("long-factors", 8)],
)
def test_limit_aimed_requests_keep_the_cli_contract(limit, examples):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_limit_requests(hypothesis.strategies, limit))
    def check(request):
        _assert_cli_contract(*request)

    check()


UPPER_2 = json.dumps({"entries": [["1", "1"], ["0", "2"]]})
DEEP = "(" * 5000 + "X" + ")" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--poly", DEEP],
        ["gen", "--seed", "s", "--minpoly", DEEP],
        ["apply", "--poly", "X^200000"],
        ["apply", "--poly", "(X^2+1)^600"],
        ["gen", "--seed", "s", "--blocks", "X-1;(X^600)(X^401)"],
        ["apply", "--poly", "(X+2^1000)^200"],
        ["apply", "--poly", "0," * 200000 + "1"],
        ["apply", "--poly", "1," + str(7**1000)],
    ],
    ids=["apply-deep", "gen-deep", "apply-power", "apply-power-degree", "gen-product",
         "apply-power-bits", "apply-list-degree", "apply-list-bits"],
)
def test_polynomial_argument_is_bounded(argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(argv, input_text=UPPER_2)
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "PolyParseError"


#: the interpreter's limit on integer string conversion (0: none)
STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG_LITERAL = "1" * (STR_DIGITS + 700)


@pytest.mark.skipif(not STR_DIGITS, reason="this interpreter converts integers of any length")
@pytest.mark.parametrize(
    "argv, text, error",
    [
        (["sn"], json.dumps({"entries": [[LONG_LITERAL]]}), "FormatError"),
        (["sn"], json.dumps({"entries": [[{"2": LONG_LITERAL}]]}), "FormatError"),
        (["sn"], '{"entries": [[%s]]}' % LONG_LITERAL, "FormatError"),
        (["apply", "--poly", f"(X+{LONG_LITERAL})"], UPPER_2, "PolyParseError"),
        (["apply", "--poly", f"{LONG_LITERAL},1"], UPPER_2, "PolyParseError"),
    ],
    ids=["entry", "coordinate", "json-number", "poly-expression", "poly-coefficients"],
)
def test_integer_literal_past_the_str_digit_limit_is_two(argv, text, error):
    t0 = time.perf_counter()
    code, out, err = run_cli(argv, input_text=text)
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == error


def test_result_past_the_str_digit_limit_is_written_in_full():
    entries = [["10000000000", "0"], ["0", "1"]]
    code, out, err = run_cli(
        ["apply", "--poly", "X^500"], input_text=json.dumps({"entries": entries})
    )
    assert code == 0, err
    value = json.loads(out)["value"]["entries"]
    assert value == [["1" + "0" * 5000, "0"], ["0", "1"]]


def _document(rows):
    return json.dumps({"entries": [[_int_to_string(x) for x in row] for row in rows]})


def test_an_error_message_writes_integers_past_the_str_digit_limit_in_full():
    # the Gram matrix is 10^2400 [[10, 14], [14, 20]], whose irreducible
    # minimal polynomial has a constant term of 4,801 digits
    b = 10**1200
    code, out, err = run_cli(["svd"], input_text=_document([[b, 2 * b], [3 * b, 4 * b]]))
    assert (code, out) == (3, "")
    factor = "4" + "0" * 4800 + " - 3" + "0" * 2401 + "*X + X^2"
    assert json.loads(err) == {
        "error": "SingularValuesNotRational",
        "message": f"Gram matrix has irrational eigenvalues (factor {factor})",
    }


def test_a_radicand_message_writes_integers_past_the_str_digit_limit_in_full():
    # the eigenvalues of [[0, -1], [1, b]] ask for sqrt(b^2 - 4), a
    # 4,400-digit radicand with two prime factors of over 4,000 digits
    code, out, err = run_cli(["cmjc"], input_text=_document([[0, -1], [1, 10**2200]]))
    assert (code, out) == (3, "")
    error = json.loads(err)
    assert error["error"] == "RadicandTooLarge"
    assert error["message"].startswith(f"cannot certify the square part of {'9' * 4399}6: ")


@pytest.mark.parametrize("n", [100, 400])
def test_a_sum_of_large_fractions_is_refused_at_once(n):
    # the common denominator of two 2,048-bit denominators is past the
    # bound at the first sum; the whole sum used to take seconds
    text = "+".join(f"1/{2**2047 + 2 * k + 1}" for k in range(n))
    t0 = time.perf_counter()
    code, out, err = run_cli(["apply", "--poly", text], input_text=UPPER_2)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "PolyParseError"


class TestGen:
    @pytest.mark.parametrize("size", ["0", "-3", "1", str(cli.MAX_ORDER + 1)])
    @pytest.mark.parametrize("family", ["general", "gram"])
    def test_size_out_of_range_is_a_usage_error(self, size, family):
        code, out, err = run_cli(["gen", "--seed", "s", "--family", family, "--size", size])
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "UsageError"
        assert f"between 2 and {cli.MAX_ORDER}" in error["message"]

    @pytest.mark.parametrize("size", [2, cli.MAX_ORDER])
    def test_size_bounds_are_accepted(self, size):
        doc = json.loads(gen("edge", "--size", str(size)))
        assert 1 <= doc["n"] <= size

    def test_same_seed_same_document(self):
        assert gen("alpha") == gen("alpha")
        assert gen("alpha") != gen("beta")

    def test_minpoly_is_honored(self):
        out = gen("g1", "--minpoly", "(X^2-2)(X-1)^2")
        doc = json.loads(out)
        assert doc["seed"] == "g1"
        # confirm by asking the covariant command for the minimal polynomial
        code, cov_out, err = run_cli(["covariants", "--check"], input_text=out)
        assert code == 0, err
        min_poly = json.loads(cov_out)["min_poly"]
        assert min_poly == ["-2", "4", "-1", "-2", "1"]  # (X^2-2)(X-1)^2 ascending

    def test_minpoly_degree_is_bounded(self):
        t0 = time.perf_counter()
        code, out, err = run_cli(["gen", "--seed", "s", "--minpoly", "X^1000+X+1"])
        assert time.perf_counter() - t0 < 2.0
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "UsageError"
        assert f"at most {cli.MAX_ORDER}, got 1000" in error["message"]

    @pytest.mark.parametrize("blocks, order", [("X^65-2", 65), ("X^30-2;X^30-3;X^30-5", 90)])
    def test_blocks_total_degree_is_bounded(self, blocks, order):
        code, out, err = run_cli(["gen", "--seed", "s", "--blocks", blocks])
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "UsageError"
        assert f"at most {cli.MAX_ORDER}, got {order}" in error["message"]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--blocks", "", "--blocks needs at least one polynomial"),
            ("--blocks", " ; ", "--blocks needs at least one polynomial"),
            ("--minpoly", "", "--minpoly must be a nonzero polynomial"),
            ("--minpoly", "0", "--minpoly must be a nonzero polynomial"),
            ("--minpoly", "1", "--minpoly must have degree at least 1, got 0"),
            ("--blocks", "0", "--blocks polynomials must be monic of degree >= 1, got 0"),
            ("--blocks", "1", "--blocks polynomials must be monic of degree >= 1, got 1"),
            ("--blocks", "2X-1", "--blocks polynomials must be monic of degree >= 1, got 2X-1"),
            ("--blocks", "X-1; 0", "--blocks polynomials must be monic of degree >= 1, got 0"),
        ],
        ids=["empty-blocks", "blank-blocks", "empty-minpoly", "zero-minpoly", "constant-minpoly",
             "zero-blocks", "constant-blocks", "non-monic-blocks", "zero-among-blocks"],
    )
    def test_empty_or_zero_polynomial_flag_is_a_usage_error(self, flag, value, message):
        # an empty flag used to fall through to the default random matrix;
        # a constant or non-monic polynomial used to exit 2 as ValueError
        code, out, err = run_cli(["gen", "--seed", "0", flag, value])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "UsageError", "message": message}

    def test_blocks_at_the_bound_are_accepted(self):
        doc = json.loads(gen("edge", "--blocks", "X^32-2;X^30-3;X^2+1"))
        assert doc["n"] == cli.MAX_ORDER == 64

    def test_blocks_builds_companion_direct_sum(self):
        out = gen("g2", "--blocks", "(X-1)^2;X^2+1")
        doc = json.loads(out)
        assert doc["n"] == 4
        code, _, err = run_cli(["fine", "--check"], input_text=out)
        assert code == 0, err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--minpoly", "X-1", "--blocks", "X-2"],
             "argument --blocks: not allowed with argument --minpoly"),
            (["--blocks", "X-2", "--family", "gram"],
             "argument --family: not allowed with argument --blocks"),
            (["--family", "gram", "--minpoly", "X-1"],
             "argument --minpoly: not allowed with argument --family"),
            (["--minpoly", "X-1", "--size", "4"],
             "--size applies to --family only, not to --minpoly or --blocks"),
            (["--size", "4", "--blocks", "X-2"],
             "--size applies to --family only, not to --minpoly or --blocks"),
        ],
        ids=["minpoly-blocks", "blocks-family", "family-minpoly", "minpoly-size", "blocks-size"],
    )
    def test_one_source_per_document(self, extra, message):
        # each pair used to build from one source and drop the other
        code, out, err = run_cli(["gen", "--seed", "0", *extra])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "UsageError", "message": message}

    def test_no_source_is_the_general_family(self):
        assert gen("plain", "--size", "5") == gen("plain", "--family", "general", "--size", "5")

    @pytest.mark.parametrize("family", ["general", "invertible-quadratic", "gram", "normal"])
    def test_families_produce_valid_documents(self, family):
        out = gen(f"fam-{family}", "--family", family, "--size", "4")
        doc = json.loads(out)
        assert len(doc["entries"]) == doc["n"]


#: the north-star n = 32 ladder matrix: minimal polynomial of degree 32,
#: irreducible factors of degree <= 3
LADDER_32 = "(X^2-2)^3; (X-3)^3; (X^3-X-1)^2; X^2+X+1; (X+2)^4; (X^2+3)^2; (X^3-5)^2; X-7"

#: (irreducible factor, its degree) for derogatory_blocks
BLOCK_FACTORS = [
    ("X-1", 1), ("X+2", 1), ("X-3", 1), ("X^2-2", 2), ("X^2+1", 2), ("X^2+X+1", 2),
    ("X^2-3", 2), ("X^3-2", 3), ("X^3-X-1", 3), ("X^4+1", 4),
]


def derogatory_blocks(seed):
    """Blocks of order <= 32 whose minimal polynomial has degree >= 17
    and below the order: the last block repeats a power of a factor.
    Returns the --blocks text, the degree of the minimal polynomial, the
    order and the number of distinct irreducible factors."""
    rng = random.Random(f"derogatory:{seed}")
    while True:
        chosen = rng.sample(BLOCK_FACTORS, rng.randint(4, len(BLOCK_FACTORS)))
        powers = [(f, d, rng.randint(1, 3)) for f, d in chosen]
        degree = sum(d * e for _, d, e in powers)
        f, d, e = rng.choice(powers)
        k = rng.randint(1, e)
        if 17 <= degree and degree + d * k <= 32:
            blocks = [f"({g})^{j}" for g, _, j in powers] + [f"({f})^{k}"]
            return "; ".join(blocks), degree, degree + d * k, len(powers)


#: SHA-256 of the gen documents of seeds GEN_SEEDS, in that order, for
#: each source; recorded from the generator that built Fraction rows and
#: inverted each conjugator by elimination
GEN_SEEDS = ("0", "1", "2", "7", "demo")
GEN_DIGESTS = [
    (["--family", "general"], "f00183c40c55d9213fdf5be15b24e98afec65e74444079ee9640bce95ce9aedb"),
    (
        ["--family", "invertible-quadratic"],
        "625a6317a33c50f2d2a2dd006660b1129383c002160994a24b5cd8953db05878",
    ),
    (["--family", "gram"], "5d1f3ad796364518e216ab882abdb35ea8e4c65b81bae09c7904192218e470f9"),
    (["--family", "normal"], "b3e168997e84e6274c3251debe4e140ae837a2e050b87454bc750538f55c9778"),
    (
        ["--family", "general", "--size", "12"],
        "66af9c9ffadaed68bd83f048b1bb977c4c0e5b4d6518b160536d34d857771f50",
    ),
    (
        ["--family", "gram", "--size", "8"],
        "91b641467c2a35594e6ac564c914bfb9ca014281dfb2ff625da760ed7c2be3d2",
    ),
    (
        ["--blocks", "(X-1)^2; X^2+1; X^3-2; X+1/3"],
        "e80d07fdfe0aca8037569a883910a0d8ef133d68cff1703b1f50b30317a085bf",
    ),
    (
        ["--minpoly", "(X^2-2)(X-1)^2(X+1/2)"],
        "751bbeb6822b24e46973d2269262ad4ea3394aca4fa83164daacf10fdaf13679",
    ),
]


class TestGeneratedDocuments:
    @pytest.mark.parametrize(
        "source, digest", GEN_DIGESTS, ids=[" ".join(a) for a, _ in GEN_DIGESTS]
    )
    def test_documents_are_pinned(self, source, digest):
        text = "".join(gen(seed, *source) for seed in GEN_SEEDS)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_unimodular_returns_t_and_its_inverse(self, n):
        for k in range(20):
            T, Ti = _unimodular(n, random.Random(f"unimodular:{n}:{k}"))
            I = DenseMatrix.identity(n)
            assert T @ Ti == I and Ti @ T == I
            assert T._den == Ti._den == 1


class TestWriters:
    """Every document the command line prints is json.dumps(..., indent=2)
    of itself, plus a newline."""

    @staticmethod
    def _assert_indent_2(out):
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("family", ["general", "invertible-quadratic", "gram", "normal"])
    def test_gen(self, family):
        self._assert_indent_2(gen("w", "--family", family))

    @pytest.mark.parametrize(
        "argv",
        [
            ["sn"],
            ["fine"],
            ["covariants"],
            ["unbreakable"],
            ["mjc"],
            ["apply", "--poly", "X^2-1/3"],
        ],
    )
    def test_commands(self, argv):
        code, out, err = run_cli(argv + ["--check"], gen("w", "--blocks", "X-1; X^2-2; X+2"))
        assert code == 0, err
        self._assert_indent_2(out)

    @pytest.mark.parametrize(
        "argv, family", [(["cmjc"], "invertible-quadratic"), (["svd"], "gram")]
    )
    def test_realclosed_commands(self, argv, family):
        code, out, err = run_cli(argv + ["--check"], gen("w", "--family", family))
        assert code == 0, err
        self._assert_indent_2(out)


#: J_2(2) + [2] (derogatory: order 3, minimal polynomial of degree 2), a
#: singular matrix and [[0, 2], [1, 0]] (semisimple, minimal polynomial
#: X^2 - 2, singular values 2 and 1)
CHECK_DOCUMENTS = {
    "derogatory": json.dumps({"entries": [["2", "1", "0"], ["0", "2", "0"], ["0", "0", "2"]]}),
    "singular": SINGULAR_2,
    "semisimple": json.dumps({"entries": [["0", "2"], ["1", "0"]]}),
}
EVERY_MATRIX_COMMAND = [[c] for c in MATRIX_COMMANDS] + [["apply", "--poly", "X^2-1/3"]]


class TestCheckOnlyAddsTheReport:
    """One function serves every matrix command; --check adds the
    report and changes nothing else."""

    @pytest.mark.parametrize("doc", CHECK_DOCUMENTS)
    @pytest.mark.parametrize("argv", EVERY_MATRIX_COMMAND, ids=lambda argv: argv[0])
    def test_same_exit_stderr_and_stdout_but_the_report(self, argv, doc):
        text = CHECK_DOCUMENTS[doc]
        code, out, err = run_cli(argv, text)
        checked_code, checked_out, checked_err = run_cli(argv + ["--check"], text)
        assert (checked_code, checked_err) == (code, err)
        # every command succeeds on the semisimple document
        assert code == 0 or doc != "semisimple"
        if code == 0:
            payload = json.loads(checked_out)
            assert payload.pop("report")["pass"] is True
            assert "report" not in json.loads(out)
            assert out == json.dumps(payload, indent=2) + "\n"
        else:
            assert out == checked_out == ""

    @pytest.mark.parametrize(
        "argv, verifier",
        [
            (["sn"], "verify_sn"),
            (["fine"], "verify_fine"),
            (["covariants"], "verify_system"),
            (["unbreakable"], "verify_unbreakable"),
            (["apply", "--poly", "X^2-1/3"], "verify_matfun"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else v,
    )
    def test_no_report_is_made_without_check(self, monkeypatch, argv, verifier):
        def refuse(*args):
            raise AssertionError(f"{verifier} ran without --check")

        monkeypatch.setattr(cli, verifier, refuse)
        code, out, err = run_cli(argv, CHECK_DOCUMENTS["semisimple"])
        assert (code, err) == (0, "")
        code, out, err = run_cli(argv + ["--check"], CHECK_DOCUMENTS["semisimple"])
        assert code == 4
        assert "ran without --check" in json.loads(err)["message"]

    def test_a_bad_poly_fails_before_the_document_is_read(self):
        code, out, err = run_cli(["apply", "--poly", "X^"], "{not json")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "PolyParseError"


class TestDefaultSettingsAboveDegree16:
    @pytest.fixture(scope="class")
    def ladder(self):
        return gen("0", "--blocks", LADDER_32)

    @pytest.mark.parametrize(
        "argv",
        [["sn"], ["fine"], ["covariants"], ["apply", "--poly", "X^5+X"], ["mjc"]],
        ids=["sn", "fine", "covariants", "apply", "mjc"],
    )
    def test_ladder_32_passes_check(self, ladder, argv):
        code, out, err = run_cli([*argv, "--check"], input_text=ladder)
        assert code == 0, err
        assert json.loads(out)["report"]["pass"] is True

    def test_ladder_32_cubic_factors_refuse_cmjc(self, ladder):
        code, out, err = run_cli(["cmjc"], input_text=ladder)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "FactorDegreeTooHigh"

    def test_dense_32_sn_check(self):
        rng = random.Random(1)
        entries = [[str(rng.randint(-9, 9)) for _ in range(32)] for _ in range(32)]
        code, out, err = run_cli(["sn", "--check"], input_text=json.dumps({"entries": entries}))
        assert code == 0, err
        payload = json.loads(out)
        assert len(payload["min_poly"]) == 33
        assert payload["report"]["pass"] is True

    @pytest.mark.parametrize("seed", range(5))
    def test_derogatory_blocks_pass_check(self, seed):
        blocks, degree, order, factors = derogatory_blocks(seed)
        doc = gen(f"derogatory-{seed}", "--blocks", blocks)
        assert json.loads(doc)["n"] == order
        code, out, err = run_cli(["sn", "--check"], input_text=doc)
        assert code == 0, err
        sn = json.loads(out)
        assert len(sn["min_poly"]) == degree + 1
        code, out, err = run_cli(["fine", "--check"], input_text=doc)
        assert code == 0, err
        fine = json.loads(out)
        assert len(fine["components"]) == factors
        assert sn["report"]["pass"] is fine["report"]["pass"] is True


class TestPipelines:
    def test_gen_then_fine_check(self):
        out = gen("7", "--minpoly", "(X^2-2)(X-1)^2")
        code, fine_out, err = run_cli(["fine", "--check"], input_text=out)
        assert code == 0, err
        payload = json.loads(fine_out)
        assert payload["report"]["pass"] is True
        assert len(payload["components"]) == 2

    def test_apply_with_check(self):
        out = gen("8", "--minpoly", "(X-2)^2")
        code, apply_out, err = run_cli(
            ["apply", "--poly", "X^2-X", "--check"], input_text=out
        )
        assert code == 0, err
        payload = json.loads(apply_out)
        assert payload["report"]["pass"] is True
        assert payload["classes"]

    def test_apply_accepts_coefficient_lists(self):
        code, out, _ = run_cli(["apply", "--poly", "0,0,1"], input_text=JORDAN_2)
        assert code == 0
        assert json.loads(out)["value"]["entries"] == [["1", "2"], ["0", "1"]]

    def test_sn_check_on_surd_spectrum(self):
        out = gen("9", "--minpoly", "(X^2-2)^2")
        code, sn_out, err = run_cli(["sn", "--check"], input_text=out)
        assert code == 0, err
        payload = json.loads(sn_out)
        assert payload["report"]["pass"] is True
        assert payload["min_poly"] == ["4", "0", "-4", "0", "1"]

    def test_cmjc_radicands_come_from_the_spectrum_not_the_entries(self):
        # 2 +- sqrt(3) are both positive, so Delta and Sigma keep the
        # rational E_i and S_i of their class, yet sqrt(3) is adjoined
        doc = gen("3", "--blocks", "X^2-4*X+1; X+3")
        code, out, err = run_cli(["cmjc", "--check"], input_text=doc)
        assert code == 0, err
        payload = json.loads(out)
        rows = payload["delta"]["entries"] + payload["sigma"]["entries"]
        assert all(isinstance(entry, str) for row in rows for entry in row)
        assert payload["radicands"] == [3]

    def test_cmjc_and_svd_report_radicands(self):
        code, out, err = run_cli(
            ["cmjc", "--check"], input_text=json.dumps({"entries": [["0", "2"], ["1", "0"]]})
        )
        assert code == 0, err
        assert json.loads(out)["radicands"] == [2]
        code, out, err = run_cli(
            ["svd", "--check"], input_text=json.dumps({"entries": [["1", "1"], ["1", "1"]]})
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["terms"][0]["sigma"] == "2"

    def test_check_failure_exits_four(self, monkeypatch):
        # force a dishonest verifier so the report path to exit code 4 runs
        import mindec.cli as cli_mod
        from mindec.report import VerificationReport

        def dishonest(M, sn):
            report = VerificationReport(subject="sn")
            report.add("planted", "always fails", False)
            return report

        monkeypatch.setattr(cli_mod, "verify_sn", dishonest)
        code, out, _ = run_cli(["sn", "--check"], input_text=IDENTITY_2)
        assert code == 4
        assert json.loads(out)["report"]["pass"] is False


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: writing, or only flushing, fails."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.fail_on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A reader that closes stdout early ends a good request with exit 0
    and no error object; input errors stay exit 2."""

    @pytest.mark.parametrize("fail_on", ["write", "flush"])
    @pytest.mark.parametrize(
        "argv, text",
        [(["gen", "--seed", "s", "--blocks", "X^32-2;X^32-3"], ""), (["sn", "--check"], JORDAN_2)],
        ids=["gen", "sn"],
    )
    def test_broken_pipe_is_success(self, monkeypatch, fail_on, argv, text):
        err = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fail_on))
        monkeypatch.setattr(sys, "stderr", err)
        assert cli.main(argv) == 0
        assert err.getvalue() == ""

    def test_a_failed_check_keeps_its_code_when_only_the_flush_fails(self, monkeypatch):
        from mindec.report import VerificationReport

        def dishonest(M, sn):
            report = VerificationReport(subject="sn")
            report.add("planted", "always fails", False)
            return report

        monkeypatch.setattr(cli, "verify_sn", dishonest)
        monkeypatch.setattr(sys, "stdin", io.StringIO(IDENTITY_2))
        monkeypatch.setattr(sys, "stdout", _ClosedPipe("flush"))
        assert cli.main(["sn", "--check"]) == 4

    def test_input_errors_stay_two(self, tmp_path):
        code, out, err = run_cli(["sn", "--input", str(tmp_path / "missing.json")])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_stdout_is_pointed_at_devnull(self, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as closed:
            monkeypatch.setattr(sys, "stdin", io.StringIO(JORDAN_2))
            monkeypatch.setattr(sys, "stdout", closed)
            assert cli.main(["sn", "--check"]) == 0
            now, devnull = os.fstat(write_end), os.stat(os.devnull)
            assert (now.st_dev, now.st_ino, now.st_rdev) == (devnull.st_dev, devnull.st_ino, devnull.st_rdev)

    def test_a_real_pipe_closed_before_the_output(self):
        # no reader from the start: the write fails with EPIPE, and the
        # output left in the buffer must not fail again at exit
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mindec.cli", "sn", "--check"],
                input=JORDAN_2.encode(),
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")


class TestSelftestCommand:
    def test_quick_is_fast_and_green(self):
        t0 = time.monotonic()
        code, out, err = run_cli(["selftest", "--quick"])
        elapsed = time.monotonic() - t0
        assert code == 0, err
        assert elapsed < 10.0, f"quick selftest took {elapsed:.1f}s"
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        assert payload["pass"] is True
        assert len(payload["criteria"]) == 8
        # one human-readable line per criterion on stderr
        lines = [l for l in err.splitlines() if l.startswith("[")]
        assert len(lines) == 8
        assert all(l.startswith("[PASS]") for l in lines)
