"""Per-matrix analysis reuse: each request computes the minimal
polynomial, covariant system, S + N and projectors of its matrix once,
and every verifier still checks the decomposition it is handed.  The
covariant system, a function of the minimal polynomial alone, is also
shared with the next matrix of the same minimal polynomial.  The
constructors that promise a verified result run their verifier once
and carry its report."""

import json
import sys
from collections import Counter
from dataclasses import replace

import pytest

import mindec.cli as cli_mod
import mindec.covariant as covariant_mod
import mindec.decompose as decompose_mod
import mindec.factor as factor_mod
import mindec.matrix as matrix_mod
import mindec.realclosed as realclosed_mod
from mindec.covariant import materialize_projectors, verify_system
from mindec.decompose import (
    FineDecomposition,
    fine_decompose,
    multiplicative_jc,
    sn_decompose,
    system_of,
    verify_fine,
    verify_sn,
)
from mindec.errors import SystemMatrixMismatch
from mindec.generator import blocks_matrix, matrix_from_min_poly
from mindec.matfun import schwerdtfeger_eval, verify_matfun
from mindec.matrix import DenseMatrix, companion
from mindec.poly import Polynomial, X
from mindec.realclosed import complete_mjc, svd, symmetric_spectral_check
from mindec.report import VerificationReport
from mindec.selftest import run_cli
from mindec.serialize import matrix_to_json

ONE = Polynomial((1,))
# not semisimple, so S differs from M and the minimal polynomial of S
# computed by verify_sn is not a call on M
MIN_POLY = ((X - ONE) ** 2 * (X * X - Polynomial((2,)))).monic()


def _matrix():
    return matrix_from_min_poly(MIN_POLY, "analysis").matrix


def _document(M):
    return json.dumps(matrix_to_json(M))


def _record_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


class TestWorkPerRequest:
    def test_sn_check_computes_the_minimal_polynomial_once(self, monkeypatch):
        M = _matrix()
        calls = _record_calls(monkeypatch, decompose_mod, "minimal_polynomial")
        code, out, err = run_cli(["sn", "--check"], input_text=_document(M))
        assert code == 0, err
        assert json.loads(out)["report"]["pass"] is True
        assert sum(1 for (A,) in calls if A == M) == 1

    def test_apply_check_builds_one_covariant_system(self, monkeypatch):
        M = _matrix()
        calls = _record_calls(monkeypatch, decompose_mod, "build_covariant_system")
        code, out, err = run_cli(
            ["apply", "--poly", "X^2-X", "--check"], input_text=_document(M)
        )
        assert code == 0, err
        assert json.loads(out)["report"]["pass"] is True
        # M's own; verify_matfun certifies the parts of f(M) without one
        assert len(calls) == 1

    def test_covariants_check_evaluates_each_projector_once(self, monkeypatch):
        M = _matrix()
        system = system_of(_matrix())
        calls = _record_calls(monkeypatch, covariant_mod, "horner_eval")
        code, out, err = run_cli(["covariants", "--check"], input_text=_document(M))
        assert code == 0, err
        assert json.loads(out)["report"]["pass"] is True
        at_m = Counter(f.coeffs for f, A in calls if A == M)
        for e in system.e_polys:
            assert at_m[e.coeffs] == 1
        assert at_m[system.min_poly.coeffs] == 1

    def test_unbreakable_check_computes_and_factors_only_the_minimal_polynomial_of_m(
        self, monkeypatch
    ):
        M = blocks_matrix([X * X - 2 * ONE, X - 3 * ONE, X * X + ONE, X], "work").matrix
        decompose_mod._system_of_min_poly.cache_clear()
        minpolys = _record_calls(monkeypatch, decompose_mod, "minimal_polynomial")
        factors = _record_calls(monkeypatch, decompose_mod, "factor_rational")
        code, out, err = run_cli(["unbreakable", "--check"], input_text=_document(M))
        assert code == 0, err
        assert json.loads(out)["report"]["pass"] is True
        assert minpolys == [(M,)]
        assert factors == [(system_of(M).min_poly,)]

    def test_spectral_check_computes_the_minimal_polynomial_once(self, monkeypatch):
        A = DenseMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 3]])
        calls = _record_calls(monkeypatch, decompose_mod, "minimal_polynomial")
        report = symmetric_spectral_check(A)
        assert report.passed
        assert "projectors-symmetric" in {c.name for c in report.checks}
        # realclosed computes no minimal polynomial of its own
        assert not hasattr(realclosed_mod, "minimal_polynomial")
        assert sum(1 for (B,) in calls if B is A) == 1


BUILDS = ("factor_rational", "build_covariant_system")


def _record_builds(monkeypatch):
    return [_record_calls(monkeypatch, decompose_mod, name) for name in BUILDS]


def _cold(argv, document):
    decompose_mod._system_of_min_poly.cache_clear()
    return run_cli(argv, input_text=document)


CHECKED_REQUESTS = (["fine", "--check"], ["apply", "--poly", "X^3-2*X+1", "--check"])


class TestCovariantMemo:
    """The last covariant system built is shared by the next matrix
    with the same minimal polynomial, and by nothing else."""

    @pytest.mark.parametrize("argv", CHECKED_REQUESTS, ids=lambda argv: argv[0])
    def test_second_request_on_the_same_document_builds_nothing(self, monkeypatch, argv):
        doc = _document(_matrix())
        cold = _cold(argv, doc)
        assert cold[0] == 0, cold[2]
        assert json.loads(cold[1])["report"]["pass"] is True
        factors, builds = _record_builds(monkeypatch)
        assert run_cli(argv, input_text=doc) == cold
        assert factors == [] and builds == []

    @pytest.mark.parametrize("argv", CHECKED_REQUESTS, ids=lambda argv: argv[0])
    def test_a_conjugate_with_the_same_minimal_polynomial_builds_nothing(
        self, monkeypatch, argv
    ):
        blocks = [(X - ONE) ** 2, X - ONE, X * X - 2 * ONE]
        first = blocks_matrix(blocks, "memo-a").matrix
        second = blocks_matrix(blocks, "memo-b").matrix
        assert first != second
        cold = _cold(argv, _document(second))
        assert cold[0] == 0, cold[2]
        assert run_cli(argv, input_text=_document(first))[0] == 0
        factors, builds = _record_builds(monkeypatch)
        assert run_cli(argv, input_text=_document(second)) == cold
        assert factors == [] and builds == []

    def test_a_different_minimal_polynomial_evicts_and_builds_once(self, monkeypatch):
        M = _matrix()
        first = system_of(M)
        other = companion(((X - 3 * ONE) ** 2 * (X * X + ONE)).monic())
        factors, builds = _record_builds(monkeypatch)
        assert system_of(other).min_poly != first.min_poly
        assert (len(factors), len(builds)) == (1, 1)
        assert decompose_mod._system_of_min_poly.cache_info().currsize == 1
        # the entry for M's polynomial is gone: a copy of M builds again
        again = system_of(DenseMatrix(M.rows))
        assert again is not first and again == first
        assert (len(factors), len(builds)) == (2, 2)

    def test_a_refused_factorization_leaves_nothing_cached(self, monkeypatch):
        # X^4 + 1 is irreducible but splits modulo every prime, so proving
        # it irreducible takes one subset trial
        doc = _document(companion(X**4 + ONE))
        monkeypatch.setattr(factor_mod, "RECOMBINATION_BUDGET", 0)
        code, out, err = run_cli(["fine"], input_text=doc)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "RecombinationBudgetExceeded"
        assert decompose_mod._system_of_min_poly.cache_info().currsize == 0
        monkeypatch.setattr(factor_mod, "RECOMBINATION_BUDGET", 1)
        factors, builds = _record_builds(monkeypatch)
        code, out, err = run_cli(["fine", "--check"], input_text=doc)
        assert code == 0, err
        assert (len(factors), len(builds)) == (1, 1)


class TestGenericCovariantsOffTheHotPath:
    """The rational witnesses serve every request; no command builds a
    generic covariant, not even cmjc for a real quadratic pair."""

    @pytest.mark.parametrize(
        "argv",
        [["sn"], ["fine"], ["covariants"], ["apply", "--poly", "X^3-2*X+1"]],
        ids=lambda argv: argv[0],
    )
    def test_none_built(self, monkeypatch, argv):
        calls = _record_calls(monkeypatch, covariant_mod, "build_generic_covariant")
        code, out, err = run_cli(argv + ["--check"], input_text=_document(_matrix()))
        assert code == 0, err
        assert json.loads(out)["report"]["pass"] is True
        assert calls == []

    def test_cmjc_builds_none(self, monkeypatch):
        # factors X - 2, X^2 - 2 (real roots, split) and X^2 + 1 (not split)
        M = companion(((X - 2 * ONE) * (X * X - 2 * ONE) * (X * X + ONE)).monic())
        calls = _record_calls(monkeypatch, covariant_mod, "build_generic_covariant")
        code, out, err = run_cli(["cmjc", "--check"], input_text=_document(M))
        assert code == 0, err
        assert json.loads(out)["report"]["pass"] is True
        assert json.loads(out)["radicands"] == [2]
        assert calls == []


class TestChecksAfterCaching:
    """Corruptions made after M's analysis is cached are still caught."""

    def test_verify_sn_rejects_shifted_parts(self):
        M = _matrix()
        sn = sn_decompose(M)
        assert verify_sn(M, sn).passed
        ident = DenseMatrix.identity(M.n)
        bad = replace(sn, semisimple=sn.semisimple + ident, nilpotent=sn.nilpotent - ident)
        report = verify_sn(M, bad)
        assert not report.passed
        assert "newton-agreement" in {c.name for c in report.failed_checks()}
        report = verify_sn(M, replace(sn, nilpotent=sn.nilpotent + ident))
        assert "reassembly" in {c.name for c in report.failed_checks()}
        assert sn_decompose(M).semisimple == sn.semisimple

    def test_verify_fine_rejects_swapped_nilpotents(self):
        M = companion(((X - ONE) ** 2 * (X + ONE) ** 2).monic())
        sn_decompose(M)
        fd = fine_decompose(M)
        assert verify_fine(M, fd).passed
        c0, c1 = fd.components
        swapped = FineDecomposition(
            (replace(c0, nilpotent=c1.nilpotent), replace(c1, nilpotent=c0.nilpotent)),
        )
        assert not verify_fine(M, swapped).passed

    def test_verify_matfun_rejects_transplanted_parts(self):
        M = _matrix()
        f = X * X - X
        result = schwerdtfeger_eval(f, M)
        sn_decompose(M)
        assert verify_matfun(f, M, result).passed
        ident = DenseMatrix.identity(M.n)
        bad = replace(
            result,
            semisimple_part=result.semisimple_part + ident,
            nilpotent_part=result.nilpotent_part - ident,
        )
        assert not verify_matfun(f, M, bad).passed
        assert not verify_matfun(f, M, replace(result, value=result.value + ident)).passed

    def test_foreign_system_is_not_served_from_the_cache(self):
        M = _matrix()
        materialize_projectors(system_of(M), M)
        other = system_of(companion((X - ONE) ** 2))
        with pytest.raises(SystemMatrixMismatch):
            verify_system(other, M)


# (command, module of the verifier, verifier, constructor, input matrix)
VERIFIED_CONSTRUCTORS = (
    ("svd", realclosed_mod, "verify_svd_system", svd, DenseMatrix([[1, 2], [2, 4]])),
    (
        "cmjc",
        realclosed_mod,
        "verify_cmjc",
        complete_mjc,
        companion(((X * X + ONE) * (X - 2 * ONE)).monic()),
    ),
    ("mjc", decompose_mod, "verify_mjc", multiplicative_jc, DenseMatrix([[2, 2], [0, 2]])),
)


@pytest.mark.parametrize(
    "command, module, verifier, construct, M",
    VERIFIED_CONSTRUCTORS,
    ids=[case[0] for case in VERIFIED_CONSTRUCTORS],
)
class TestVerifiedOnce:
    def test_check_runs_the_verifier_once(
        self, monkeypatch, command, module, verifier, construct, M
    ):
        calls = _record_calls(monkeypatch, module, verifier)
        # also count a call the CLI would make through its own binding
        monkeypatch.setattr(cli_mod, verifier, getattr(module, verifier), raising=False)
        code, out, err = run_cli([command, "--check"], input_text=_document(M))
        assert code == 0, err
        assert json.loads(out)["report"]["pass"] is True
        assert len(calls) == 1

    def test_result_carries_the_report(self, command, module, verifier, construct, M):
        result = construct(M)
        assert result.report.passed
        expected = getattr(module, verifier)(M, result)
        assert result.report.to_json() == expected.to_json()
        copy = replace(result)
        assert copy == result
        assert copy.report is None

    def test_failed_verification_raises(
        self, monkeypatch, command, module, verifier, construct, M
    ):
        def failing(matrix, candidate):
            report = VerificationReport("planted")
            report.add("planted", "always fails", False)
            return report

        monkeypatch.setattr(module, verifier, failing)
        with pytest.raises(RuntimeError, match="planted"):
            construct(M)
        for argv in ([command], [command, "--check"]):
            code, out, err = run_cli(argv, input_text=_document(M))
            assert code == 4
            assert out == ""
            assert err.count("\n") == 1
            assert json.loads(err)["error"] == "InvariantViolation"


@pytest.mark.parametrize(
    "command, construct, M, products",
    [
        ("cmjc", complete_mjc, companion(((X - 2 * ONE) ** 2 * (X * X + ONE)).monic()), 1),
        ("mjc", multiplicative_jc, DenseMatrix([[2, 2], [0, 2]]), 2),
    ],
    ids=["cmjc", "mjc"],
)
def test_only_the_verifier_reassembles(monkeypatch, command, construct, M, products):
    # the factors are multiplied back to M by the verifier alone:
    # (Delta Sigma) U once for cmjc, S U and U S for mjc
    result = construct(M)
    last_factors = [result.unipotent] + ([result.semisimple] if command == "mjc" else [])
    real = DenseMatrix.__matmul__
    reassembled = []

    def recording(A, B):
        out = real(A, B)
        if out == M and any(B == F for F in last_factors):
            reassembled.append((A, B))
        return out

    monkeypatch.setattr(DenseMatrix, "__matmul__", recording)
    code, out, err = run_cli([command, "--check"], input_text=_document(M))
    assert code == 0, err
    assert len(reassembled) == products


#: the seed-0 n = 17 ladder rung (minimal polynomial of degree 14)
LADDER_17 = "(X^2-2)^3;(X-3)^3;X^3-2;X^2+X+1;X^3-2"


def _ladder_17(command):
    from mindec.serialize import parse_poly_expression

    polys = [parse_poly_expression(b) for b in LADDER_17.split(";")]
    return blocks_matrix(polys, f"ladder:0:0:{command}").matrix


class TestOnePowerTable:
    """Every polynomial at an analyzed M is one combination on M's kept
    power table; the Newton oracle runs in Q[X]/(m) and evaluates once."""

    def test_newton_oracle_runs_no_elimination(self, monkeypatch):
        import mindec._kernel as kernel

        M = _ladder_17("sn")
        assert M.n == 17
        sn = sn_decompose(M)
        rrefs = _record_calls(monkeypatch, kernel, "rref")
        products = _record_calls(monkeypatch, kernel, "mat_mul")
        assert decompose_mod.sn_newton_oracle(M) == sn.semisimple
        # z has the degree of s_poly, whose evaluation built the table
        assert rrefs == [] and products == []

    def test_projectors_take_no_giant_step(self, monkeypatch):
        M = _ladder_17("fine")
        system = system_of(M)
        degree = system.min_poly.degree
        assert degree == 14
        products = _record_calls(monkeypatch, DenseMatrix, "__matmul__")
        projectors = materialize_projectors(system, M)
        # m(M) first: the table M^2 ... M^14, each step one product by M
        assert len(products) == degree - 1 and all(B is M for _, B in products)
        assert len(M.analysis.powers) == degree - 1
        # once the table is built, no evaluation at M makes a product
        products.clear()
        M.analysis.projectors = None
        assert materialize_projectors(system, M) == projectors
        assert products == []


class TestOneProjectorConstruction:
    """Every class projector E_i(A) comes from materialize_projectors,
    which checks m(A) = 0 first and keeps the projectors of A's own
    system on A's analysis."""

    def test_no_partition_polynomial_meets_a_matrix_elsewhere(self, monkeypatch):
        systems = []
        honest_build = decompose_mod.build_covariant_system

        def recording_build(factored):
            systems.append(honest_build(factored))
            return systems[-1]

        depth = [0]
        honest_materialize = covariant_mod.materialize_projectors

        def materialize(system, A):
            depth[0] += 1
            try:
                return honest_materialize(system, A)
            finally:
                depth[0] -= 1

        inside, outside = [], []
        honest_eval = matrix_mod.horner_eval

        def counting_eval(f, A):
            if any(f is e for system in systems for e in system.e_polys):
                (inside if depth[0] else outside).append(f)
            return honest_eval(f, A)

        monkeypatch.setattr(decompose_mod, "build_covariant_system", recording_build)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "mindec":
                continue
            if getattr(module, "horner_eval", None) is honest_eval:
                monkeypatch.setattr(module, "horner_eval", counting_eval)
            if getattr(module, "materialize_projectors", None) is honest_materialize:
                monkeypatch.setattr(module, "materialize_projectors", materialize)
        requests = (
            (["cmjc"], companion(((X - 2 * ONE) * (X * X - 2 * ONE) * (X * X + ONE)).monic())),
            (["svd"], DenseMatrix([[1, 1, 0], [1, -1, 0], [0, 0, 3]])),
            (["unbreakable"], blocks_matrix([X * X - 2 * ONE, X - 3 * ONE, X * X + ONE, X]).matrix),
            (["fine"], _matrix()),
            (["covariants"], _matrix()),
            (["apply", "--poly", "X^3-2*X+1"], _matrix()),
        )
        for argv, M in requests:
            code, out, err = run_cli(argv + ["--check"], input_text=_document(M))
            assert code == 0, (argv, err)
            assert json.loads(out)["report"]["pass"] is True
            assert outside == [], argv[0]
        report = symmetric_spectral_check(DenseMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 3]]))
        assert "projectors-symmetric" in {c.name for c in report.checks}
        assert outside == []
        assert len(systems) >= 5 and len(inside) > 0

    def test_cmjc_keeps_its_projectors_on_the_analysis(self, monkeypatch):
        import mindec._kernel as kernel

        M = companion(((X - 2 * ONE) * (X * X - 2 * ONE) * (X * X + ONE)).monic())
        complete_mjc(M)
        assert M.analysis.projectors is not None
        products = _record_calls(monkeypatch, kernel, "mat_mul")
        assert materialize_projectors(system_of(M), M) == list(M.analysis.projectors)
        assert products == []
