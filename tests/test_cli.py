"""End-to-end command line checks, run in-process via selftest.run_cli."""

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
from mindec.matrix import companion
from mindec.selftest import run_cli
from mindec.serialize import matrix_to_json

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
        argv, text = request
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
    ],
    ids=["apply-deep", "gen-deep", "apply-power", "apply-power-degree", "gen-product",
         "apply-power-bits"],
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
        assert payload["pass"] is True
        assert len(payload["criteria"]) == 8
        # one human-readable line per criterion on stderr
        lines = [l for l in err.splitlines() if l.startswith("[")]
        assert len(lines) == 8
        assert all(l.startswith("[PASS]") for l in lines)
