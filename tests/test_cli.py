"""End-to-end command line checks, run in-process via selftest.run_cli."""

import json
import sys
import time

import pytest

from mindec import cli
from mindec.selftest import run_cli

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

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_bad_degree_cap_is_a_configuration_error(self, monkeypatch, value):
        monkeypatch.setenv("MINDEC_DEGREE_CAP", value)
        code, out, err = run_cli(["sn"], input_text=IDENTITY_2)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert "MINDEC_DEGREE_CAP" in error["message"]
        assert repr(value) in error["message"]

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


#: a matrix over Q(sqrt(2), sqrt(3)); the matrix commands work over Q
SURD_2 = json.dumps({"entries": [[{"2": "1"}, "1"], ["0", {"3": "1"}]]})
MATRIX_COMMANDS = ("sn", "fine", "covariants", "unbreakable", "mjc", "cmjc", "svd")


def test_multiquad_input_is_a_field_mismatch_for_every_command():
    for command in MATRIX_COMMANDS:
        code, out, err = run_cli([command, "--check"], input_text=SURD_2)
        assert (code, out) == (3, ""), command
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "FieldMismatch", command


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
    @pytest.mark.parametrize("size", ["0", "-3", "1", str(cli.MAX_GEN_SIZE + 1)])
    @pytest.mark.parametrize("family", ["general", "gram"])
    def test_size_out_of_range_is_a_usage_error(self, size, family):
        code, out, err = run_cli(["gen", "--seed", "s", "--family", family, "--size", size])
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "UsageError"
        assert f"between 2 and {cli.MAX_GEN_SIZE}" in error["message"]

    @pytest.mark.parametrize("size", [2, cli.MAX_GEN_SIZE])
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
