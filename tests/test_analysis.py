"""Per-matrix analysis reuse: each request computes the minimal
polynomial, covariant system, S + N and projectors of its matrix once,
and every verifier still checks the decomposition it is handed.  The
constructors that promise a verified result run their verifier once
and carry its report."""

import json
from collections import Counter
from dataclasses import replace

import pytest

import mindec.cli as cli_mod
import mindec.covariant as covariant_mod
import mindec.decompose as decompose_mod
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
from mindec.generator import matrix_from_min_poly
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

    def test_apply_check_builds_two_covariant_systems(self, monkeypatch):
        M = _matrix()
        calls = _record_calls(monkeypatch, decompose_mod, "build_covariant_system")
        code, out, err = run_cli(
            ["apply", "--poly", "X^2-X", "--check"], input_text=_document(M)
        )
        assert code == 0, err
        assert json.loads(out)["report"]["pass"] is True
        # one for M, one for f(M) in verify_matfun
        assert len(calls) == 2

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


    def test_spectral_check_computes_the_minimal_polynomial_once(self, monkeypatch):
        A = DenseMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 3]])
        calls = _record_calls(monkeypatch, decompose_mod, "minimal_polynomial")
        report = symmetric_spectral_check(A)
        assert report.passed
        assert "projectors-symmetric" in {c.name for c in report.checks}
        # realclosed computes no minimal polynomial of its own
        assert not hasattr(realclosed_mod, "minimal_polynomial")
        assert sum(1 for (B,) in calls if B is A) == 1


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
            fd.zero_index,
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
