"""Exact minimal-polynomial decompositions for rational matrices.

Everything is computed over Q or explicit algebraic extensions of Q;
no floating point anywhere.  Each name lives in one module and is
imported from there (``from mindec.decompose import sn_decompose``);
the package root exports nothing but ``__version__``.  The main entry
points:

- mindec.matrix: DenseMatrix, the exact matrix type, with
  minimal_polynomial, horner_eval, inverse, rank and kernel_basis.
- mindec.decompose: sn_decompose / fine_decompose, the additive
  semisimple + nilpotent splits, coarse and per irreducible factor;
  multiplicative_jc; unbreakable_components; system_of, the covariant
  system of a matrix; verify_sn, verify_fine, verify_mjc and
  verify_unbreakable.
- mindec.realclosed: complete_mjc, the refinement of the multiplicative
  split into positive * norm-one * unipotent commuting parts, and svd,
  the exact singular value decomposition in outer-product form for
  matrices whose squared singular values are rational; verify_cmjc and
  verify_svd_system.
- mindec.matfun: schwerdtfeger_eval, polynomial functions of a matrix
  through its covariant system, and verify_matfun.
- mindec.covariant: build_covariant_system, materialize_projectors and
  verify_system.
- mindec.poly and mindec.factor: Polynomial and factor_rational.
- mindec.scalar: MultiQuad, the multi-quadratic scalars.
- mindec.oracles: the independent oracles that selftest and the tests
  compare against, which no command imports: the number field
  Q[Y]/(m), the generic-root covariant and fine_of_image.
- mindec.serialize: the JSON documents; mindec.cli: the command line.
- mindec.report: VerificationReport, the itemized result of every
  verify_*; mindec.errors: MindecError and its subclasses.

svd, multiplicative_jc and complete_mjc run their verifier once and
keep the report on the result as ``report``.

Pure Python throughout.  A rational matrix is stored as integer rows
over one common denominator; its products and its fraction-free
elimination, and the rational polynomial products and divisions, run
in the one interpreter kernel, mindec._kernel.
"""

__version__ = "0.1.0"
