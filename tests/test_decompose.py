"""Additive and multiplicative decompositions and their verifiers."""

from dataclasses import replace
from fractions import Fraction

import pytest
from oracles import fraction_minimal_polynomial

import mindec.decompose as decompose_mod
from mindec.decompose import (
    FineComponent,
    FineDecomposition,
    fine_decompose,
    multiplicative_jc,
    sn_decompose,
    sn_newton_oracle,
    system_of,
    unbreakable_components,
    verify_fine,
    verify_frobenius_system,
    verify_mjc,
    verify_sn,
    verify_unbreakable,
)
from mindec.errors import InvariantViolation, SingularMatrix
from mindec.generator import block_diag, blocks_matrix, random_matrix
from mindec.matrix import (
    DenseMatrix,
    commute,
    companion,
    horner_eval,
    minimal_polynomial,
)
from mindec.poly import Polynomial, X, poly_gcd
from mindec.serialize import parse_poly_expression


class TestAdditiveSplit:
    def test_repeated_quadratic_companion_against_newton(self):
        # 4x4 block with minimal polynomial (X^2-2)^2: the two routes
        # (covariant traces vs Newton refinement) must agree bit for bit
        M = companion((Polynomial((-2, 0, 1)) ** 2).monic())
        sn = sn_decompose(M)
        assert minimal_polynomial(sn.semisimple) == Polynomial((-2, 0, 1))
        assert not sn.nilpotent.is_zero
        assert (sn.nilpotent @ sn.nilpotent).is_zero
        assert sn.semisimple == sn_newton_oracle(M)
        assert sn.semisimple + sn.nilpotent == M
        assert commute(sn.semisimple, sn.nilpotent)

    def test_newton_agreement_on_random_matrices(self):
        for k in range(25):
            M = random_matrix(f"newton-cross-{k}").matrix
            sn = sn_decompose(M)
            assert sn.semisimple == sn_newton_oracle(M)

    def test_newton_needs_its_whole_evaluation_bound(self, monkeypatch):
        # (X^2-2)^16: g(z_k) lies in (g^(2^k)) in Q[X]/(m), so g(z_k) = 0
        # first at k = 4, on the fifth evaluation of g, which is the bound
        # ceil(log2 16) + 1; the evaluations of g are read off the table
        # of z's powers inside the iteration
        g = Polynomial((-2, 0, 1))
        M = blocks_matrix([g**16], "newton-bound").matrix
        assert M.n == 32
        calls = []
        on_powers = decompose_mod.on_powers

        def counting(f, table):
            calls.append(f == g)
            return on_powers(f, table)

        monkeypatch.setattr(decompose_mod, "on_powers", counting)
        S = sn_newton_oracle(M)
        assert sum(calls) == 5
        assert horner_eval(g, S).is_zero and S == sn_decompose(M).semisimple
        assert not ((M - S) ** 8).is_zero and ((M - S) ** 16).is_zero
        # a bound one evaluation short (mu read as 8) raises
        monkeypatch.setattr(decompose_mod, "squarefree_part", lambda p: (g, [(g, 8)]))
        with pytest.raises(InvariantViolation):
            sn_newton_oracle(M)

    def test_newton_without_the_schulz_update_fails(self, monkeypatch):
        # w stuck at g'^-1 mod g leaves only linear convergence: g(z_k)
        # in (g^(k+1)), short of (g^16) after the five evaluations
        M = blocks_matrix([Polynomial((-2, 0, 1)) ** 16], "newton-bound").matrix
        monkeypatch.setattr(decompose_mod, "_schulz", lambda w, a, m: w)
        with pytest.raises(InvariantViolation):
            sn_newton_oracle(M)

    def test_squarefree_minimal_polynomial_needs_no_extended_gcd(self, monkeypatch):
        calls = []
        real = decompose_mod.ext_gcd

        def counting(a, b):
            calls.append(b)
            return real(a, b)

        monkeypatch.setattr(decompose_mod, "ext_gcd", counting)
        dense = DenseMatrix([[(7 * i * i + 3 * j + i * j) % 19 - 9 for j in range(8)] for i in range(8)])
        m = minimal_polynomial(dense)
        assert m.degree == 8 and poly_gcd(m, m.derivative()).degree == 0
        assert sn_newton_oracle(dense) == dense
        assert calls == []
        # one extended gcd, at the squarefree part, when m is not squarefree
        M = companion(((X - Polynomial((1,))) ** 3 * (X + Polynomial((2,)))).monic())
        assert sn_newton_oracle(M) == sn_decompose(M).semisimple
        assert calls == [((X - Polynomial((1,))) * (X + Polynomial((2,)))).monic()]

    def test_newton_polynomial_is_the_witness_polynomial(self):
        # the oracle's z, from the oracle's own minimal polynomial, is
        # s_poly: both are the semisimple part of X reduced mod m
        def check(M):
            rows = [list(r) for r in M.rows]
            m = Polynomial(fraction_minimal_polynomial(rows))
            assert decompose_mod._newton_poly(m) == sn_decompose(M).s_poly

        big = Fraction(10**30 + 57, 2**61 - 1)
        quad, lin = Polynomial((-2, 0, 1)), Polynomial((-3, 1))
        derogatory = blocks_matrix([quad**2, quad**2, lin**3, lin], "newton-derogatory").matrix
        check(derogatory)
        check(derogatory * big + DenseMatrix.scaled_identity(derogatory.n, Fraction(1, 3**40)))
        check(DenseMatrix([[big, 1, 0], [0, big, 0], [0, 0, -big]]))

        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        small = st.integers(-3, 3)
        entries = st.sampled_from((0, 0, 1, -1, 2))

        @st.composite
        def blocks(draw):
            # 1 to 3 companion blocks (X + a)^k or (X^2 + bX + c)^k, k <= 3
            out = []
            for _ in range(draw(st.integers(1, 3))):
                base = [draw(small) for _ in range(draw(st.integers(1, 2)))] + [1]
                out.append(Polynomial(base) ** draw(st.integers(1, 3)))
            return out

        @st.composite
        def small_matrices(draw):
            n = draw(st.integers(1, 4))
            return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]

        @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
        @hypothesis.given(blocks(), st.integers(0, 10**6), st.fractions(max_denominator=10**9))
        def check_drawn(polys, key, scale):
            M = blocks_matrix(polys, f"newton-{key}").matrix
            check(M * scale if scale else M)

        @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
        @hypothesis.given(small_matrices())
        def check_entries(rows):
            check(DenseMatrix(rows))

        check_drawn()
        check_entries()

    def test_witness_polynomials_evaluate_to_parts(self):
        M = companion(((X - Polynomial((1,))) ** 2 * (X + Polynomial((1,)))).monic())
        sn = sn_decompose(M)
        assert horner_eval(sn.s_poly, M) == sn.semisimple
        assert horner_eval(sn.n_poly, M) == sn.nilpotent

    def test_verify_sn_detects_shifted_semisimple(self):
        M = DenseMatrix([[1, 1], [0, 1]])
        sn = sn_decompose(M)
        bad = replace(
            sn,
            semisimple=sn.semisimple + DenseMatrix.identity(2),
            nilpotent=sn.nilpotent - DenseMatrix.identity(2),
        )
        report = verify_sn(M, bad)
        assert not report.passed

    def test_verify_sn_rejects_a_wrong_s_poly_beside_the_true_parts(self):
        # S and N stay true; only the printed s_poly, and the n_poly
        # derived from it, are wrong, and the Newton polynomial tells
        M = DenseMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 0]])
        sn = sn_decompose(M)
        bad = replace(sn, s_poly=sn.s_poly + X)
        assert bad.n_poly == sn.n_poly - X
        assert {c.name for c in verify_sn(M, bad).failed_checks()} == {"newton-agreement"}


class TestFineSplit:
    @pytest.mark.parametrize(
        "M",
        [
            DenseMatrix([[0, 1], [0, 0]]),
            companion((X * X * (X - Polynomial((1,)))).monic()),
        ],
        ids=["nilpotent", "singular"],
    )
    def test_kernel_equality_catches_a_short_zero_class(self, M):
        # with the zero class's multiplicity cut from 2 to 1, Ker(M^e)
        # loses a dimension that Ker(sum S_i) keeps; the other checks
        # cannot see it
        fd = fine_decompose(M)
        assert verify_fine(M, fd).passed
        comps = list(fd.components)
        comps[fd.zero_index] = replace(comps[fd.zero_index], multiplicity=1)
        report = verify_fine(M, replace(fd, components=tuple(comps)))
        assert {c.name for c in report.failed_checks()} == {"kernel-equality"}

    def test_mixed_minimal_polynomial_payload_count(self):
        # (X^2-2)(X-1)^2: nonzero payloads are the quadratic semisimple
        # part, the eigenvalue-1 projector part, and one nilpotent
        m = (Polynomial((-2, 0, 1)) * (X - Polynomial((1,))) ** 2).monic()
        M = companion(m)
        fd = fine_decompose(M)
        assert verify_fine(M, fd).passed
        payloads = [c.semisimple for c in fd.components] + [
            c.nilpotent for c in fd.components
        ]
        assert sum(1 for p in payloads if not p.is_zero) == 3
        total = fd.total_semisimple() + fd.total_nilpotent()
        assert total == M

    def test_components_recombine_to_sn(self):
        for k in range(15):
            M = random_matrix(f"fine-sn-{k}").matrix
            fd = fine_decompose(M)
            sn = sn_decompose(M)
            assert fd.total_semisimple() == sn.semisimple
            assert fd.total_nilpotent() == sn.nilpotent

    def test_component_minimal_polynomials(self):
        m = (Polynomial((-2, 0, 1)) * (X - Polynomial((1,))) ** 2).monic()
        M = companion(m)
        for comp in fine_decompose(M).components:
            if comp.semisimple.is_zero:
                continue
            expected = (X * comp.factor).monic()
            assert minimal_polynomial(comp.semisimple) == expected

    def test_components_are_their_witness_polynomials_at_m(self):
        # S_i = E_i(M) S and N_i = E_i(M) N equal s_i(M) and n_i(M)
        for k in range(15):
            M = random_matrix(f"fine-witness-{k}").matrix
            system = system_of(M)
            for i, c in enumerate(fine_decompose(M).components):
                assert c.semisimple == horner_eval(system.s_polys[i], M)
                assert c.nilpotent == horner_eval(system.n_polys[i], M)

    def test_n32_ladder_matrix_takes_few_integer_products(self, monkeypatch):
        # the minimal polynomial has degree 32: one power table of M^2 ... M^6,
        # five giant steps for m and for each of the 8 projectors and s,
        # then two products per component
        from mindec import _kernel

        blocks = "(X^2-2)^3; (X-3)^3; (X^3-X-1)^2; X^2+X+1; (X+2)^4; (X^2+3)^2; (X^3-5)^2; X-7"
        M = blocks_matrix([parse_poly_expression(b) for b in blocks.split(";")], "0").matrix
        assert M.n == 32
        real, calls = _kernel.mat_mul, []

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(_kernel, "mat_mul", counting)
        fd = fine_decompose(M)
        assert len(calls) <= 150
        monkeypatch.setattr(_kernel, "mat_mul", real)
        assert verify_fine(M, fd).passed

    def test_only_the_kernel_products_see_a_moved_zero_class_nilpotent(self):
        # the zero class's nilpotent moved onto the class of X - 1 keeps
        # every sum and cross product, but no longer kills Ker(M^2)
        M = companion((X * X * (X - 1)).monic())
        fd = fine_decompose(M)
        h, z = 0, fd.zero_index
        comps = list(fd.components)
        moved = comps[z].nilpotent
        assert z == 1 and not moved.is_zero
        comps[h] = replace(comps[h], nilpotent=comps[h].nilpotent + moved)
        comps[z] = replace(comps[z], nilpotent=comps[z].nilpotent - moved)
        report = verify_fine(M, replace(fd, components=tuple(comps)))
        assert {c.name for c in report.failed_checks()} == {"kernel-containment"}

    def test_cross_annihilation_names_a_nilpotent_product(self):
        # the zero class's nilpotent added to class 0's: N_0 N_1 = N_1^2,
        # which X^3 keeps nonzero
        M = blocks_matrix([(X - 1) ** 2, X**3]).matrix
        fd = fine_decompose(M)
        z = fd.zero_index
        comps = list(fd.components)
        assert z == 1
        comps[0] = replace(comps[0], nilpotent=comps[0].nilpotent + comps[z].nilpotent)
        report = verify_fine(M, replace(fd, components=tuple(comps)))
        cross = [c for c in report.failed_checks() if c.name == "cross-annihilation"]
        assert [c.witness for c in cross] == ["N_0 * N_1 != 0"]

    def test_kernel_equality_multiplies_as_well_as_counts(self):
        # S_0 + S_1 keeps the rank of the true sum, but its kernel is
        # not Ker(M): only the product (sum S_i) K tells them apart
        M = companion((X * (X - 1)).monic())
        fd = fine_decompose(M)
        shift = DenseMatrix([[0, 0], [0, -1]])
        comps = list(fd.components)
        comps[0] = replace(comps[0], semisimple=comps[0].semisimple + shift)
        comps[1] = replace(comps[1], nilpotent=comps[1].nilpotent - shift)
        bad = replace(fd, components=tuple(comps))
        assert bad.total_semisimple() + bad.total_nilpotent() == M
        report = verify_fine(M, bad)
        assert "kernel-equality" in {c.name for c in report.failed_checks()}

    def test_swapped_nilpotents_fire_annihilation_or_kernel_check(self):
        # corrupting a decomposition by exchanging nilpotent payloads
        # between distinct factors must be caught by the product or the
        # kernel-containment condition
        m = ((X - Polynomial((1,))) ** 2 * (X + Polynomial((1,))) ** 2).monic()
        M = companion(m)
        fd = fine_decompose(M)
        comps = list(fd.components)
        assert comps[0].nilpotent != comps[1].nilpotent
        swapped = FineDecomposition(
            (
                replace(comps[0], nilpotent=comps[1].nilpotent),
                replace(comps[1], nilpotent=comps[0].nilpotent),
            ),
        )
        report = verify_fine(M, swapped)
        assert not report.passed
        fired = {c.name for c in report.failed_checks()}
        assert fired & {"cross-annihilation", "kernel-containment"}, fired

    @pytest.mark.parametrize(
        "semisimple, factor",
        [
            # minimal polynomial X - 1: (X m_i)(S_i) = 0 and S_i != 0, but m_i(S_i) = 0
            (DenseMatrix.identity(3), X - 1),
            # minimal polynomial (X-1)(X-2): m_i(S_i) != 0, but (X m_i)(S_i) != 0
            (DenseMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 0]]), X - 1),
            # minimal polynomial X(X-1), but the claimed m_i = (X-1)(X-3) is
            # reducible: (X m_i)(S_i) = 0 and m_i(S_i) != 0 all the same
            (DenseMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), (X - 1) * (X - 3)),
        ],
        ids=["minpoly-m_i", "minpoly-too-large", "reducible-m_i"],
    )
    def test_component_min_poly_rejects_a_wrong_minimal_polynomial(self, semisimple, factor):
        M = DenseMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
        fd = fine_decompose(M)
        assert verify_fine(M, fd).passed
        comps = list(fd.components)
        i = [c.factor for c in comps].index(X - 1)
        comps[i] = replace(comps[i], semisimple=semisimple, factor=factor)
        report = verify_fine(M, replace(fd, components=tuple(comps)))
        assert "component-min-poly" in {c.name for c in report.failed_checks()}

    @pytest.mark.parametrize(
        "diagonal, parts",
        [
            # one component merges the classes of 1 and 2 under (X-1)(X-2)
            ((1, 2, 0), [((X - 1) * (X - 2), (1, 2, 0))]),
            # two components split the class of 1, each under X - 1
            ((1, 1, 0), [(X - 1, (1, 0, 0)), (X - 1, (0, 1, 0))]),
            # one component, no zero class: r = 2 is M's factor count
            ((1, 2), [((X - 1) * (X - 2), (1, 2))]),
            # two components split the only class of M = I, r = 1
            ((1, 1), [(X - 1, (1, 0)), (X - 1, (0, 1))]),
        ],
        ids=["merged-classes", "split-class", "one-component", "split-only-class"],
    )
    def test_component_min_poly_takes_each_factor_of_m_once(self, diagonal, parts):
        # the candidate sums to M, its parts annihilate one another and
        # its kernels are right; only the one-component-per-factor rule
        # of the fine decomposition tells it from the true one
        n = len(diagonal)

        def diag(d):
            return DenseMatrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])

        M, zero = diag(diagonal), DenseMatrix.zeros(n)
        comps = [FineComponent(m, 1, diag(s), zero) for m, s in parts]
        if 0 in diagonal:
            comps.append(FineComponent(X, 1, zero, zero))
        candidate = FineDecomposition(tuple(comps))
        assert verify_fine(M, fine_decompose(M)).passed
        report = verify_fine(M, candidate)
        assert {c.name for c in report.failed_checks()} == {"component-min-poly"}

    #: minimal polynomial (X - 2)^2 X: the class of X - 2 is component 0,
    #: of multiplicity 2, and the zero class component 1, of multiplicity 1
    SINGULAR = DenseMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 0]])

    def _failed(self, i, **change):
        fd = fine_decompose(self.SINGULAR)
        assert verify_fine(self.SINGULAR, fd).passed
        comps = list(fd.components)
        comps[i] = replace(comps[i], **change)
        report = verify_fine(self.SINGULAR, FineDecomposition(tuple(comps)))
        return {c.name for c in report.failed_checks()}

    def test_the_zero_class_is_the_component_whose_factor_is_x(self):
        # relabelled X - 7, the zero class is no longer read as one, so
        # Ker(M) is no longer accounted for
        assert fine_decompose(self.SINGULAR).zero_index == 1
        assert self._failed(1, factor=X - 7) == {"kernel-equality"}

    @pytest.mark.parametrize(
        "i, multiplicity, check",
        [(0, 5, "component-min-poly"), (1, 3, "kernel-equality")],
        ids=["nonzero-class", "zero-class"],
    )
    def test_each_multiplicity_is_that_of_m(self, i, multiplicity, check):
        assert self._failed(i, multiplicity=multiplicity) == {check}

    @pytest.mark.parametrize(
        "change",
        [{"multiplicity": 5}, {"factor": X - 3}, {"factor": X}],
        ids=["multiplicity", "factor", "zero"],
    )
    def test_the_only_nonzero_class_raises_when_it_is_not_m_s(self, change):
        # J_2(1): r = 1 and one component, so no check reads its label
        M = DenseMatrix([[1, 1], [0, 1]])
        fd = fine_decompose(M)
        assert verify_fine(M, fd).passed
        bad = FineDecomposition((replace(fd.components[0], **change),))
        with pytest.raises(InvariantViolation, match="component 0"):
            verify_fine(M, bad)

    def test_component_min_poly_refuses_a_zero_class_m_lacks(self):
        # M = I is nonsingular: its one class part is M, whose minimal
        # polynomial is X - 1, not X (X - 1)
        M, zero = DenseMatrix.identity(2), DenseMatrix.zeros(2)
        comps = (FineComponent(X - 1, 1, M, zero), FineComponent(X, 1, zero, zero))
        report = verify_fine(M, FineDecomposition(comps))
        assert {c.name for c in report.failed_checks()} == {"component-min-poly"}


class TestNilpotencyCertificates:
    """verify_sn checks N^mu = 0 and verify_mjc (U - I)^mu = 0, mu the
    largest multiplicity of M's own minimal polynomial: (X-3)^3 (X^2-2)
    gives mu = 3 at n = 5."""

    @staticmethod
    def _matrix():
        M = blocks_matrix([Polynomial((-3, 1)) ** 3, Polynomial((-2, 0, 1))], "nilpotency").matrix
        assert M.n == 5
        return M

    def test_exponent_is_the_nilpotency_index(self):
        M = self._matrix()
        sn, jc = sn_decompose(M), multiplicative_jc(M)
        assert decompose_mod._nilpotency_index(M) == 3
        assert not (sn.nilpotent**2).is_zero and (sn.nilpotent**3).is_zero
        assert verify_sn(M, sn).passed and verify_mjc(M, jc).passed

    def test_one_less_fails(self, monkeypatch):
        M = self._matrix()
        sn, jc = sn_decompose(M), multiplicative_jc(M)
        index = decompose_mod._nilpotency_index
        monkeypatch.setattr(decompose_mod, "_nilpotency_index", lambda A: index(A) - 1)
        assert {c.name for c in verify_sn(M, sn).failed_checks()} == {"nilpotent"}
        assert {c.name for c in verify_mjc(M, jc).failed_checks()} == {"unipotent"}

    def test_the_candidate_does_not_choose_the_exponent(self):
        # the correct parts carrying the system of a squarefree matrix
        # (largest multiplicity 1) still pass: N is raised to M's own 3
        M = self._matrix()
        sn = sn_decompose(M)
        other = sn_decompose(companion(Polynomial((-2, 0, 1)))).system
        assert verify_sn(M, replace(sn, system=other)).passed


class TestUnbreakable:
    def test_sum_skips_kernel_and_verifies(self):
        M = DenseMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
        comps = unbreakable_components(M)
        report = verify_unbreakable(M, comps)
        assert report.passed, str(report)
        # in any order
        assert verify_unbreakable(M, comps[::-1]).passed

    def test_verifier_rejects_merged_components(self):
        M = DenseMatrix([[1, 0], [0, -1]])
        report = verify_unbreakable(M, [M])
        assert not report.passed

    def test_a_scaled_component_fails_single_class(self):
        # 2 U_0 still has one nonzero class, that of 2, which is not M's
        M = DenseMatrix([[1, 0], [0, -1]])
        comps = unbreakable_components(M)
        comps[0] = comps[0] * 2
        assert "single-class" in {c.name for c in verify_unbreakable(M, comps).failed_checks()}

    def test_random_components_pairwise_annihilate(self):
        for k in range(10):
            S = sn_decompose(random_matrix(f"unbreak-{k}").matrix).semisimple
            if S.is_zero:  # nilpotent draw: no components by contract
                continue
            comps = unbreakable_components(S)
            for i, A in enumerate(comps):
                for j, B in enumerate(comps):
                    if i != j:
                        assert (A @ B).is_zero

    def test_components_are_the_fine_semisimple_parts(self):
        # ladder-like: conjugated squarefree blocks, the factor X among
        # them; session-like: the semisimple part of a random n <= 6 draw
        inputs = [
            blocks_matrix([parse_poly_expression(b) for b in spec.split(";")], spec).matrix
            for spec in ("X^2-2;X-3;X^2+1;X", "X^3-2;X^2+X+1;X-3;X-3;X^2-2", "X^2-2;X^2-2")
        ]
        for k in range(10):
            S = sn_decompose(random_matrix(f"session:unbreak:{k}", 6).matrix).semisimple
            if not S.is_zero:
                inputs.append(S)
        for S in inputs:
            fd = fine_decompose(S)
            want = [c.semisimple for i, c in enumerate(fd.components) if i != fd.zero_index]
            assert unbreakable_components(S) == want


class TestFrobeniusSystem:
    def test_a_matrix_without_a_coefficient_fails_only_the_shape_check(self):
        report = verify_frobenius_system([DenseMatrix.identity(2)], [])
        assert [(c.name, c.passed) for c in report.checks] == [("shape", False)]


class TestMultiplicativeSplit:
    def test_companion_reassembly(self):
        m = ((X - Polynomial((1,))) ** 2 * (X - Polynomial((2,)))).monic()
        M = companion(m)
        jc = multiplicative_jc(M)
        assert jc.semisimple @ jc.unipotent == M
        assert jc.unipotent @ jc.semisimple == M
        U_minus_I = jc.unipotent - DenseMatrix.identity(3)
        assert horner_eval(X**3, U_minus_I).is_zero
        assert poly_gcd(
            minimal_polynomial(jc.semisimple),
            minimal_polynomial(jc.semisimple).derivative(),
        ).degree == 0
        assert verify_mjc(M, jc).passed

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            multiplicative_jc(DenseMatrix([[0, 1], [0, 0]]))

    def test_verifier_rejects_swapped_order(self):
        M = DenseMatrix([[2, 2], [0, 2]])
        jc = multiplicative_jc(M)
        bad = replace(jc, unipotent=jc.unipotent + DenseMatrix.identity(2))
        assert not verify_mjc(M, bad).passed


class TestBlockStructure:
    def test_block_diagonal_coprime_blocks_decompose_blockwise(self):
        C = companion(Polynomial((-2, 0, 1)))
        J = DenseMatrix([[3, 1], [0, 3]])
        M = block_diag([C, J])
        fd = fine_decompose(M)
        assert len(fd.components) == 2
        zero2 = DenseMatrix.zeros(2)
        by_factor = {c.factor: c for c in fd.components}
        quad = by_factor[Polynomial((-2, 0, 1))]
        assert quad.semisimple == block_diag([C, zero2])
        lin = by_factor[X - Polynomial((3,))]
        assert lin.semisimple == block_diag([zero2, DenseMatrix.scaled_identity(2, Fraction(3))])
        assert lin.nilpotent == block_diag([zero2, DenseMatrix([[0, 1], [0, 0]])])
