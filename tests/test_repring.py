import pytest

from kummer.catalog import catalog
from kummer.exactalg import IntPolynomial, det_one_plus_t
from kummer.repring import quotient_poincare
from action_reference import has_nonzero_fixed_vector, integral_catalog_actions


@pytest.fixture(scope="module")
def octa():
    return catalog("octahedral_s4_sl3")


class TestQuotientPoincare:
    def test_octahedral(self, octa):
        assert quotient_poincare(octa) == IntPolynomial([1, 0, 1, 4, 1, 0, 1])

    def test_generalized_kummer(self):
        expected = IntPolynomial([1, 0, 6, 4, 22, 24, 62, 24, 22, 4, 6, 0, 1])
        assert quotient_poincare(catalog("s4_standard_d2")) == expected

    def test_d8(self):
        expected = IntPolynomial([1, 0, 6, 0, 22, 0, 6, 0, 1])
        assert quotient_poincare(catalog("d8_b2")) == expected

    def test_palindromic_and_no_first_cohomology(self):
        for name in ["z2_sl2", "z3_sl2", "z4_sl2", "z6_sl2",
                     "octahedral_s4_sl3", "s3_standard_d2", "s4_standard_d2",
                     "d8_b2", "d4_sl3"]:
            action = catalog(name)
            q = quotient_poincare(action)
            assert q == q.reciprocal(q.degree)
            assert q[0] == 1
            assert q.degree == 2 * action.r * action.d
            if not has_nonzero_fixed_vector(action):
                assert q[1] == 0

    def test_coefficientwise_divisibility(self, perfbench_actions):
        # the class-weighted average against a sum over every element,
        # which uses no conjugacy classes
        for action in integral_catalog_actions() + tuple(perfbench_actions(7)):
            total = IntPolynomial.zero()
            for g in action.elements:
                total = total + det_one_plus_t(g, 2 * action.d)
            assert all(c % action.order == 0 for c in total.coeffs), action
            assert total.divide_exact(action.order) == quotient_poincare(action)
