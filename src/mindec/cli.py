"""Command line driver.

Matrices travel as JSON documents (see the serialize module) on
standard input or via --input; results are JSON on standard output.
One function, _serve, serves every matrix command: it reads the
document, has the command's own function compute the payload of M, and
writes it.  --check only adds that function's verification report of
exact identities, under the key "report", and exits with status 4 if
any check fails; the rest of the output is the same.  Exit codes:
0 success, 2 malformed input or arguments (JSON nested too deeply
included), 3 violated precondition (singular matrix, irrational
singular values, a minimal polynomial whose factorization needs more
than the recombination budget, a matrix document of order above
serialize.MAX_ORDER = 64, ...), 4 failed verification, a failed
internal invariant (InvariantViolation, a RuntimeError: a constructor's
own result failed its verifier, or an iteration or spectrum broke a
property every valid input has) or any other unexpected exception.
Every error is one JSON object on standard error,
{"error": <exception class>, "message": <text>}, never a traceback.
A reader that closes standard output early (``mindec gen ... | head``)
is no error: the rest of the output is dropped, with no error object.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from mindec.decompose import (
    fine_decompose,
    multiplicative_jc,
    sn_decompose,
    system_of,
    unbreakable_components,
    verify_fine,
    verify_sn,
    verify_unbreakable,
)
from mindec.covariant import materialize_projectors, verify_system
from mindec.errors import FormatError, MindecError, UsageError
from mindec.generator import (
    blocks_matrix,
    matrix_from_min_poly,
    random_gram_friendly,
    random_invertible_quadratic,
    random_matrix,
    random_normal_matrix,
)
from mindec.matfun import schwerdtfeger_eval, verify_matfun
from mindec.realclosed import complete_mjc, svd
from mindec.serialize import (
    MAX_ORDER,
    MatrixDocument,
    document_to_json,
    json_text,
    matrix_from_json,
    matrix_to_json,
    parse_poly_expression,
    poly_to_json,
    scalar_to_json,
)


def _load_matrix(args):
    if args.input:
        text = Path(args.input).read_text(encoding="utf-8")
    else:
        text = sys.stdin.read()
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and a number literal longer
        # than the interpreter converts
        raise FormatError(f"input is not valid JSON: {exc}") from None
    return matrix_from_json(data)


def _finish(payload, report) -> int:
    if report is not None:
        payload["report"] = report.to_json()
    sys.stdout.write(json_text(payload) + "\n")
    if report is not None and not report.passed:
        return 4
    return 0


def _serve(args, build) -> int:
    """The one handler of every matrix command: read the document, build
    the payload of M and write it; the report is made only under
    --check."""
    payload, report = build(_load_matrix(args))
    return _finish(payload, report() if args.check else None)


def _sn(M):
    sn = sn_decompose(M)
    return {
        "semisimple": matrix_to_json(sn.semisimple),
        "nilpotent": matrix_to_json(sn.nilpotent),
        "s_poly": poly_to_json(sn.s_poly),
        "n_poly": poly_to_json(sn.n_poly),
        "min_poly": poly_to_json(sn.system.min_poly),
    }, lambda: verify_sn(M, sn)


def _fine(M):
    fd = fine_decompose(M)
    return {
        "components": [
            {
                "factor": poly_to_json(c.factor),
                "multiplicity": c.multiplicity,
                "semisimple": matrix_to_json(c.semisimple),
                "nilpotent": matrix_to_json(c.nilpotent),
            }
            for c in fd.components
        ],
        "zero_index": fd.zero_index,
    }, lambda: verify_fine(M, fd)


def _covariants(M):
    system = system_of(M)
    projectors = materialize_projectors(system, M)
    return {
        "min_poly": poly_to_json(system.min_poly),
        "factors": [
            {
                "factor": poly_to_json(factor),
                "multiplicity": mult,
                "e_poly": poly_to_json(system.e_polys[i]),
                "s_poly": poly_to_json(system.s_polys[i]),
                "n_poly": poly_to_json(n_i),
                "projector": matrix_to_json(projectors[i]),
            }
            for i, ((factor, mult), n_i) in enumerate(zip(system.factored.factors, system.n_polys))
        ],
    }, lambda: verify_system(system, M)


def _unbreakable(M):
    components = unbreakable_components(M)
    payload = {"components": [matrix_to_json(c) for c in components]}
    return payload, lambda: verify_unbreakable(M, components)


def _mjc(M):
    jc = multiplicative_jc(M)
    return {
        "semisimple": matrix_to_json(jc.semisimple),
        "unipotent": matrix_to_json(jc.unipotent),
    }, lambda: jc.report


def _cmjc(M):
    dsu = complete_mjc(M)
    return {
        "delta": matrix_to_json(dsu.delta),
        "sigma": matrix_to_json(dsu.sigma),
        "unipotent": matrix_to_json(dsu.unipotent),
        "radicands": list(dsu.radicands),
    }, lambda: dsu.report


def _svd(A):
    result = svd(A)
    return {
        "terms": [
            {"sigma": scalar_to_json(t.sigma), "matrix": matrix_to_json(t.matrix)}
            for t in result.terms
        ],
        "radicands": list(result.radicands),
    }, lambda: result.report


def _apply(M, f):
    result = schwerdtfeger_eval(f, M)
    return {
        "value": matrix_to_json(result.value),
        "semisimple": matrix_to_json(result.semisimple_part),
        "nilpotent": matrix_to_json(result.nilpotent_part),
        "classes": [
            {"image": poly_to_json(c.image), "indices": list(c.indices)}
            for c in result.classes
        ],
    }, lambda: verify_matfun(f, M, result)


def _cmd_apply(args) -> int:
    # a bad --poly fails before the document is read
    f = parse_poly_expression(args.poly)
    return _serve(args, lambda M: _apply(M, f))


def _cmd_gen(args) -> int:
    seed = args.seed
    if args.size is not None and (args.minpoly is not None or args.blocks is not None):
        raise UsageError("--size applies to --family only, not to --minpoly or --blocks")
    if args.size is not None and not 2 <= args.size <= MAX_ORDER:
        raise UsageError(f"--size must be between 2 and {MAX_ORDER}, got {args.size}")
    if args.minpoly is not None:
        min_poly = parse_poly_expression(args.minpoly) if args.minpoly.strip() else None
        if not min_poly:
            raise UsageError("--minpoly must be a nonzero polynomial")
        if min_poly.degree < 1:
            raise UsageError("--minpoly must have degree at least 1, got 0")
        if min_poly.degree > MAX_ORDER:
            raise UsageError(
                f"--minpoly degree must be at most {MAX_ORDER}, got {min_poly.degree}"
            )
        doc = matrix_from_min_poly(min_poly, seed)
    elif args.blocks is not None:
        texts = [s.strip() for s in args.blocks.split(";") if s.strip()]
        if not texts:
            raise UsageError("--blocks needs at least one polynomial")
        polys = [parse_poly_expression(s) for s in texts]
        for text, p in zip(texts, polys):
            if p.degree < 1 or p.lc != 1:
                raise UsageError(f"--blocks polynomials must be monic of degree >= 1, got {text}")
        order = sum(p.degree for p in polys)
        if order > MAX_ORDER:
            raise UsageError(
                f"--blocks total degree must be at most {MAX_ORDER}, got {order}"
            )
        doc = blocks_matrix(polys, seed)
    elif args.family == "invertible-quadratic":
        doc = random_invertible_quadratic(seed, args.size or 5)
    elif args.family == "gram":
        doc = random_gram_friendly(seed, args.size or 4)
    elif args.family == "normal":
        case = random_normal_matrix(seed, args.size or 5)
        doc = MatrixDocument(matrix=case.matrix, label=case.label, seed=seed)
    else:
        doc = random_matrix(seed, args.size or 6)
    return _finish(document_to_json(doc), None)


def _cmd_selftest(args) -> int:
    from mindec.selftest import run_all

    results = run_all(quick=args.quick)
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] criterion {r.index}: {r.name} ({r.detail})", file=sys.stderr)
    payload = {
        "subject": "selftest",
        "pass": all(r.passed for r in results),
        "criteria": [
            {
                "index": r.index,
                "name": r.name,
                "pass": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
    }
    sys.stdout.write(json_text(payload) + "\n")
    return 0 if payload["pass"] else 4


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on a bad argument instead of printing usage
    text and exiting, so that main reports it as one JSON object.
    Subcommand parsers inherit this class."""

    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused:
    parsing leaves it unchanged, and --help finds sys.stdout only when
    it prints."""
    parser = _Parser(
        prog="mindec",
        description="Exact matrix decompositions through minimal-polynomial covariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    matrix_in = argparse.ArgumentParser(add_help=False)
    matrix_in.add_argument("--input", help="matrix JSON file (default: standard input)")
    matrix_in.add_argument(
        "--check", action="store_true", help="append a verification report"
    )

    for name, build, desc in (
        ("sn", _sn, "additive decomposition M = S + N"),
        ("fine", _fine, "fine decomposition, one pair per irreducible factor"),
        ("covariants", _covariants, "covariant system of the minimal polynomial"),
        ("unbreakable", _unbreakable, "unbreakable semisimple components"),
        ("mjc", _mjc, "multiplicative decomposition M = S U"),
        ("cmjc", _cmjc, "complete multiplicative decomposition M = Delta Sigma U"),
        ("svd", _svd, "exact singular value system"),
    ):
        p = sub.add_parser(name, parents=[matrix_in], help=desc)
        p.set_defaults(handler=functools.partial(_serve, build=build))

    p = sub.add_parser(
        "apply", parents=[matrix_in], help="evaluate a polynomial at the matrix"
    )
    p.add_argument(
        "--poly",
        required=True,
        help='polynomial: expression like "(X-1)^2", or with a comma the ascending '
        'coefficients "1,0,-2"',
    )
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("gen", help="emit a seeded test matrix document")
    p.add_argument("--seed", required=True, help="seed string; same seed, same matrix")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--minpoly", help="build a matrix with exactly this minimal polynomial")
    source.add_argument(
        "--blocks", help='semicolon-separated companion block polynomials, e.g. "(X-1)^2;X^2+1"'
    )
    source.add_argument(
        "--family",
        choices=("general", "invertible-quadratic", "gram", "normal"),
        help="random family (general when no source is given)",
    )
    p.add_argument("--size", type=int, help="upper bound on the size of a --family matrix")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("selftest", help="run the full verification suite")
    p.add_argument("--quick", action="store_true", help="reduced case counts, < 10 s")
    p.set_defaults(handler=_cmd_selftest)
    return parser


def _fail(exc: BaseException, code: int) -> int:
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _stdout_to_devnull() -> None:
    """Point the descriptor behind stdout at os.devnull, so that the
    output still buffered there, flushed at exit, cannot raise again.
    A stdout with no descriptor (an in-process capture) is left as it
    is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        return _fail(exc, 2)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2
    code = 0
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; that is no error of the request
        _stdout_to_devnull()
    except FormatError as exc:
        return _fail(exc, 2)
    except MindecError as exc:
        return _fail(exc, 3)
    except (ValueError, OSError) as exc:
        return _fail(exc, 2)
    except Exception as exc:  # InvariantViolation, or a bug
        return _fail(exc, 4)
    return code


if __name__ == "__main__":
    sys.exit(main())
