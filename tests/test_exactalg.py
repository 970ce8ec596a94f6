import random
from fractions import Fraction

import pytest

from kummer.exactalg import (
    IntPolynomial,
    char_poly,
    det_one_plus_t,
    hermite_normal_form,
    identity_matrix,
    kernel_basis,
    mat_det,
    mat_mul,
    mat_sub,
    smith_normal_form,
)
from kummer.catalog import standard_rep_matrix
from kummer.groupcore import generate_group
from kummer.symcheck import AnalyticEigenData
from trace_reference import trace_exponents
import kernel_reference


Z6_GEN = ((0, -1), (1, 1))
FOUR_CYCLE_STD = standard_rep_matrix((1, 2, 3, 0), 4)


class TestIntPolynomial:
    def test_arithmetic(self):
        p = IntPolynomial([1, 2]) * IntPolynomial([1, -2]) + 4
        assert p == IntPolynomial([5, 0, -4])
        assert p(2) == -11
        assert (IntPolynomial([0, 1]) ** 5).degree == 5

    def test_palindromic(self):
        p, q = IntPolynomial([1, 0, 22, 0, 1]), IntPolynomial([1, 0, 1, 1])
        assert p == p.reciprocal(p.degree)
        assert q != q.reciprocal(q.degree)
        assert IntPolynomial([0, 1, 1]).reciprocal(2) == IntPolynomial([1, 1])

    def test_exact_division(self):
        assert IntPolynomial([2, 4]).divide_exact(2) == IntPolynomial([1, 2])
        with pytest.raises(ValueError):
            IntPolynomial([1, 2]).divide_exact(2)


class TestPolynomialNormalForm:
    """Arithmetic builds its results without the constructor's checks, so
    each must still be in normal form: no trailing zero, int coefficients,
    equal and hash-equal to the checked polynomial of the same list."""

    POLYS = [IntPolynomial(c) for c in (
        [], [3], [-1], [1, 2, 3], [0, 0, 5], [2, -1, 0, 4], [-2, 1, 0, -4],
        [1, 0, -1], [0, 0, -3])]
    SCALARS = (-2, 0, 1, 3)

    @staticmethod
    def assert_normal(p):
        assert not p.coeffs or p.coeffs[-1] != 0
        assert all(type(c) is int for c in p.coeffs)
        checked = IntPolynomial(list(p.coeffs))
        assert p == checked and hash(p) == hash(checked)

    def test_every_result_is_normal_and_right(self):
        for p in self.POLYS:
            self.assert_normal(-p)
            assert (-p)(2) == -p(2)
            for n in self.SCALARS:
                for value, expected in ((p * n, p(2) * n), (n * p, n * p(2)),
                                        (p + n, p(2) + n), (n + p, n + p(2)),
                                        (p - n, p(2) - n), (n - p, n - p(2))):
                    self.assert_normal(value)
                    assert value(2) == expected
                if n:
                    quotient = (p * (6 * n)).divide_exact(3 * n)
                    self.assert_normal(quotient)
                    assert quotient == p * 2
            for q in self.POLYS:
                for value, expected in ((p + q, p(3) + q(3)), (p - q, p(3) - q(3)),
                                        (p * q, p(3) * q(3))):
                    self.assert_normal(value)
                    assert value(3) == expected

    def test_cancellations(self):
        for p in self.POLYS:
            assert (p - p).coeffs == () and (p - p).degree == -1
            assert (p * 0).coeffs == () and (0 * p).degree == -1
            assert (p + (-p)) == IntPolynomial.zero()
        assert IntPolynomial([2, -1, 0, 4]) + IntPolynomial([-2, 1, 0, -4]) == 0
        diff = IntPolynomial([1, 2, 3]) - IntPolynomial([0, 0, 3])
        assert diff.coeffs == (1, 2) and diff.degree == 1

    def test_constructor_still_checks(self):
        for bad in (Fraction(1, 2), 0.5):
            with pytest.raises(TypeError):
                IntPolynomial([1, bad])
        assert IntPolynomial([Fraction(4, 2), 0]).coeffs == (2,)


class TestCharPoly:
    def test_order_six_generator(self):
        assert char_poly(Z6_GEN) == IntPolynomial([1, -1, 1])

    def test_identity(self):
        assert char_poly(identity_matrix(4)) == IntPolynomial([-1, 1]) ** 4

    def test_four_cycle_standard(self):
        # x^3 + x^2 + x + 1
        assert char_poly(FOUR_CYCLE_STD) == IntPolynomial([1, 1, 1, 1])

    def test_det_one_plus_t_matches_eigenvalues(self):
        assert det_one_plus_t(Z6_GEN) == IntPolynomial([1, 1, 1])
        assert det_one_plus_t(identity_matrix(2), 2) == IntPolynomial([1, 2, 1]) ** 2

    @pytest.mark.parametrize("coeffs", [
        (1, 0, 0, 0, 1),             # Phi_8
        (-3, 5, 0, -7, 1),           # roots that are not roots of unity
        (2, -1, 4, 0, -9, 1),
        (0, 0, 6, -11, 6, -6, 1),    # zero roots and large coefficients
    ])
    def test_companion_matrices(self, coeffs):
        p = IntPolynomial(coeffs)
        n = p.degree
        companion = tuple(
            tuple((1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i]
                  for j in range(n))
            for i in range(n)
        )
        assert char_poly(companion) == p


def rank_exponents(m, d=1):
    """The exponents ``AnalyticEigenData.from_integral`` reads off the
    Hermite ranks for m's class in the cyclic group m generates, ``d``
    copies of each, after checking them against the trace reference."""
    group = generate_group([m], d=d)
    exponents = AnalyticEigenData.from_integral(group).exponents[group.class_index(m)]
    assert exponents == trace_exponents(m, d)
    return exponents


class TestExponentsAndAge:
    """Pinned exponents and ages: the age of g on d copies is the sum of
    its exponents."""

    def test_z6_exponents(self):
        assert rank_exponents(Z6_GEN) == (Fraction(1, 6), Fraction(5, 6))

    def test_factorization_examples(self):
        # characteristic polynomials Phi_2 Phi_4 = 1 + t + t^2 + t^3 and
        # Phi_8 = 1 + t^4 (companion matrix)
        assert rank_exponents(FOUR_CYCLE_STD) == (
            Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        phi8 = ((0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        assert char_poly(phi8) == IntPolynomial([1, 0, 0, 0, 1])
        assert rank_exponents(phi8) == tuple(Fraction(a, 8) for a in (1, 3, 5, 7))

    def test_identity_and_diag(self):
        assert rank_exponents(identity_matrix(3)) == (0, 0, 0)
        diag = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
        assert rank_exponents(diag) == (0, Fraction(1, 2), Fraction(1, 2))

    def test_age_examples(self):
        assert sum(rank_exponents(identity_matrix(5), 3)) == 0
        diag = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
        assert sum(rank_exponents(diag, 1)) == 1
        transposition = standard_rep_matrix((1, 0, 2, 3), 4)
        assert sum(rank_exponents(transposition, 2)) == 1
        assert sum(rank_exponents(FOUR_CYCLE_STD, 2)) == 3

    def test_age_pairs_with_inverse(self):
        # exponents pair a <-> 1-a between a matrix and its inverse
        for m in [Z6_GEN, FOUR_CYCLE_STD]:
            # U m V = I for unimodular m, so m^-1 = V U
            snf = smith_normal_form(m)
            assert snf.d == identity_matrix(len(m))
            inverse = mat_mul(snf.v, snf.u)
            assert mat_mul(m, inverse) == identity_matrix(len(m))
            e, ei = rank_exponents(m, 2), rank_exponents(inverse, 2)
            nonzero = sum(1 for x in e if x != 0)  # on both copies
            assert sum(e) + sum(ei) == nonzero
            assert ei == tuple(sorted((1 - x) % 1 for x in e))


class TestNormalForms:
    def test_spec_examples(self):
        assert smith_normal_form(((2, 0, 0), (0, 2, 0), (0, 0, 0))).divisors == (2, 2)
        three_cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
        m = mat_sub(identity_matrix(3), three_cycle)
        assert smith_normal_form(m).divisors == (1, 1)
        order3 = ((-1, -1), (1, 0))
        m = mat_sub(identity_matrix(2), order3)
        assert smith_normal_form(m).divisors == (1, 3)

    def test_determinant_is_product_of_divisors(self):
        random.seed(7)
        for _ in range(200)        :
            n = random.randint(1, 4)
            m = tuple(tuple(random.randint(-5, 5) for _ in range(n)) for _ in range(n))
            det = mat_det(m)
            snf = smith_normal_form(m)
            if det != 0:
                prod = 1
                for d in snf.divisors:
                    prod *= d
                assert prod == abs(det)

    def test_transforms_unimodular(self):
        random.seed(11)
        for _ in range(100):
            rows = random.randint(1, 3)
            cols = random.randint(1, 4)
            m = tuple(tuple(random.randint(-6, 6) for _ in range(cols))
                      for _ in range(rows))
            snf = smith_normal_form(m)
            assert mat_det(snf.u) in (1, -1)
            assert mat_det(snf.v) in (1, -1)
            assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d

    def test_smith_keeps_the_inverse_of_v(self):
        # square, rank-deficient (a row that is a sum of others) and k x r
        # row lattices: V^-1 kept through the column operations inverts V
        rng = random.Random(17)
        shapes = []
        for _ in range(300):
            n = rng.randint(1, 5)
            shapes.append((n, n, False))
            shapes.append((n, n, True))
            shapes.append((rng.randint(1, n), n, False))
        for rows, cols, deficient in shapes:
            m = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]
            if deficient:
                m[-1] = [sum(col[:-1]) for col in zip(*m)]
            m = tuple(map(tuple, m))
            snf = smith_normal_form(m)
            assert mat_mul(snf.v, snf.v_inv) == identity_matrix(cols)
            assert mat_mul(snf.v_inv, snf.v) == identity_matrix(cols)
            assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d
            if deficient:
                assert snf.rank < rows

    def test_hermite_is_canonical(self):
        rng = random.Random(3)
        for _ in range(2000):
            n, width = rng.randint(1, 3), rng.randint(1, 4)
            rows = tuple(tuple(rng.randint(-4, 4) for _ in range(width))
                         for _ in range(n))
            h = hermite_normal_form(rows, width)
            assert hermite_normal_form(h, width) == h
            # a random unimodular row change spans the same lattice
            u = identity_matrix(n)
            for _ in range(3):
                if n > 1:
                    i, j = rng.sample(range(n), 2)
                    t = [list(r) for r in identity_matrix(n)]
                    t[i][j] = rng.randint(-3, 3)
                    t[i][i] = rng.choice((1, -1))
                    u = mat_mul(tuple(map(tuple, t)), u)
            assert hermite_normal_form(mat_mul(u, rows), width) == h
            pivots = [next(k for k, x in enumerate(row) if x) for row in h]
            assert pivots == sorted(set(pivots))
            for i, (row, j) in enumerate(zip(h, pivots)):
                assert row[j] > 0
                assert all(0 <= h[above][j] < row[j] for above in range(i))

    def test_hermite_and_kernel(self):
        assert hermite_normal_form(((2, 4), (1, 1))) == ((1, 1), (0, 2))
        kb = kernel_basis(((1, 1, 1),))
        assert kb == ((1, 0, -1), (0, 1, -1))
        # kernel vectors are killed
        for row in kb:
            assert sum(row) == 0


class TestAgainstTheEntryKernels:
    """The kernels work on whole rows but take the same elementary operations
    in the same order as the entry-by-entry ones kept in ``kernel_reference``:
    every transform and result is equal to the reference's, not merely valid
    (Smith frames V are what fixed-locus traces are written in)."""

    @staticmethod
    def assert_same(m, width=None):
        snf, old = smith_normal_form(m), kernel_reference.smith_normal_form(m)
        assert (snf.u, snf.d, snf.v, snf.v_inv, snf.rows, snf.cols) == (
            old.u, old.d, old.v, old.v_inv, old.rows, old.cols), m
        for w in {width, len(m[0]) if m else 0}:
            assert hermite_normal_form(m, w) == kernel_reference.hermite_normal_form(m, w), m
        if len(m) == (len(m[0]) if m else 0):
            assert char_poly.__wrapped__(m).coeffs == kernel_reference.char_poly(m).coeffs, m

    def test_random_matrices(self):
        rng = random.Random(2028)
        for _ in range(3000):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            m = tuple(tuple(rng.randint(-9, 9) if rng.random() < 0.7 else 0
                            for _ in range(cols)) for _ in range(rows))
            self.assert_same(m, cols)
            other = tuple(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 5)))
                          for _ in range(cols))
            if len(set(map(len, other))) <= 1:
                assert mat_mul(m, other) == kernel_reference.mat_mul(m, other), (m, other)

    def test_random_polynomials(self):
        rng = random.Random(2029)
        for _ in range(3000):
            a, b = ([rng.randint(-9, 9) for _ in range(rng.randint(0, 7))] for _ in "ab")
            k = rng.randint(-9, 9)
            new = IntPolynomial(a), IntPolynomial(b)
            old = (kernel_reference.IntPolynomial._of(list(new[0].coeffs)),
                   kernel_reference.IntPolynomial._of(list(new[1].coeffs)))
            for op in ("__add__", "__sub__", "__mul__"):
                assert getattr(new[0], op)(new[1]).coeffs == getattr(old[0], op)(old[1]).coeffs
                assert getattr(new[0], op)(k).coeffs == getattr(old[0], op)(k).coeffs

    def test_every_matrix_of_the_integral_catalog(self, monkeypatch):
        # the Smith forms of _frame, the products, Hermite forms and Lefschetz
        # matrices of _fixed_trace, and the row lattices of orbifold_euler
        from kummer import groupcore, strata
        from kummer.mckay import NonIntegerAge
        from kummer.toruslat import orbifold_euler
        from action_reference import integral_catalog_actions

        seen = {"frame": [], "hermite": [], "lefschetz": [], "products": []}

        def spy(module, name, kind):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: seen[kind].append(args)
                                or real(*args))

        spy(strata, "_frame", "frame")  # cached: the spy sees every call
        spy(strata, "hermite_normal_form", "hermite")
        spy(groupcore, "hermite_normal_form", "hermite")
        spy(strata, "det_one_plus_t", "lefschetz")
        spy(strata, "mat_mul", "products")
        for action in integral_catalog_actions():
            orbifold_euler(action)
            try:
                strata.stratify(action)
            except NonIntegerAge:
                pass
        assert all(len(calls) > 20 for calls in seen.values())
        for m, _ in seen["frame"]:
            self.assert_same(m)
        for m, width in seen["hermite"]:
            self.assert_same(tuple(map(tuple, m)), width)
        for m, _ in seen["lefschetz"]:
            self.assert_same(m)
        for a, b in seen["products"]:
            assert mat_mul(a, b) == kernel_reference.mat_mul(a, b)
