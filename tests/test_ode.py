import numpy as np
import pytest
from numpy.testing import assert_array_equal

from ltivp.ode import LinearODE, relative_degree, transfer_function
from ltivp.poly import Polynomial, RationalFunction

from conftest import cross_error, ic_vectors


class TestConstruction:
    def test_basic(self):
        ode = LinearODE([6.0, 5.0], [0.0, 1.0, 1.0])
        assert ode.n == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LinearODE([6.0, 5.0], [1.0, 1.0])

    def test_all_zero_b_rejected(self):
        with pytest.raises(ValueError):
            LinearODE([1.0], [0.0, 0.0])

    def test_empty_a_rejected(self):
        with pytest.raises(ValueError):
            LinearODE([], [1.0])

    def test_str(self):
        assert str(LinearODE([6, 5], [0, 1, 1])) == "y'' + 6*y' + 5*y = u' + u"
        assert str(LinearODE([2], [0, 3])) == "y' + 2*y = 3*u"


class TestRelativeDegree:
    def test_intro_example(self):
        assert relative_degree(LinearODE([5, 6], [0, 1, 1])) == (1, 1)

    def test_zero_relative_degree(self):
        assert relative_degree(LinearODE([6, 5], [1, 3, 2])) == (0, 2)

    def test_full_relative_degree(self):
        assert relative_degree(LinearODE([1], [0, 1])) == (1, 0)


class TestTransferFunction:
    def test_uncancelled_common_factor(self):
        # numerator (s+1) survives even though the denominator shares the root
        g = transfer_function(LinearODE([6, 5], [0, 1, 1]))
        assert g.num.coeffs == (1.0, 1.0)
        assert g.den.coeffs == (5.0, 6.0, 1.0)

    def test_biproper(self):
        g = transfer_function(LinearODE([6, 5], [1, 3, 2]))
        assert g.num.coeffs == (2.0, 3.0, 1.0)

    def test_integrator(self):
        g = transfer_function(LinearODE([0.0], [0.0, 1.0]))
        assert cross_error(g, RationalFunction(Polynomial.one(), Polynomial([0.0, 1.0]))) == 0.0

    def test_degrees(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            b = rng.uniform(-4, 4, n + 1)
            r = int(rng.integers(0, n + 1))
            b[:r] = 0.0
            if not np.any(b):
                b[-1] = 1.0
            ode = LinearODE(rng.uniform(-4, 4, n), b)
            g = transfer_function(ode)
            r_actual, _ = relative_degree(ode)
            assert g.den.degree == n
            assert g.num.degree == n - r_actual


class TestICVectors:
    """Column j of V_y / V_u holds the weight of stack entry j, lowest degree first."""

    def test_biproper_second_order(self):
        V_y, V_u = ic_vectors(LinearODE([6, 5], [1, 3, 2]))
        assert_array_equal(V_y, [[1.0, 6.0], [0.0, 1.0]])
        assert_array_equal(V_u, [[1.0, 3.0], [0.0, 1.0]])

    def test_first_order(self):
        V_y, V_u = ic_vectors(LinearODE([4.0], [2.0, 7.0]))
        assert_array_equal(V_y, [[1.0]])
        assert_array_equal(V_u, [[2.0]])

    def test_strictly_proper_masks_u_terms(self):
        V_y, V_u = ic_vectors(LinearODE([5, 6], [0, 1, 1]))
        assert_array_equal(V_y, [[1.0, 5.0], [0.0, 1.0]])
        assert_array_equal(V_u, [[0.0, 1.0], [0.0, 0.0]])

    def test_entry_degrees(self):
        """Column idx of V_y has degree idx exactly (leading coefficient 1)."""
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            ode = LinearODE(rng.uniform(-4, 4, n), rng.uniform(0.5, 4, n + 1))
            V_y, _ = ic_vectors(ode)
            for idx in range(n):
                assert V_y[idx, idx] == 1.0
                assert not np.any(V_y[idx + 1 :, idx])

    def test_shift_recurrence(self):
        # multiplying by s and adding the next a-coefficient climbs the stack
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = rng.uniform(-4, 4, n)
            ode = LinearODE(a, rng.uniform(0.5, 4, n + 1))
            V_y, _ = ic_vectors(ode)
            for idx in range(1, n):
                assert_array_equal(V_y[1:, idx], V_y[:-1, idx - 1])
                assert V_y[0, idx] == a[idx - 1]
