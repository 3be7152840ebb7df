import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ltivp.ode import LinearODE
from ltivp.realization import (
    _RANK_PRIME,
    TRANSFER_TOL,
    StateSpace,
    _observability_rows,
    _rank_bareiss,
    _rank_mod_p,
    check_equivalence,
    markov_matrix,
    markov_parameters,
    observability_matrix,
    observability_rank,
    observable_canonical,
    ss_markov_parameters,
)

from conftest import decoupled_realization, ic_vectors, random_ode

EX1 = LinearODE([6.0, 5.0], [0.0, 1.0, 1.0])       # y'' + 6y' + 5y = u' + u
EX2 = LinearODE([6.0, 5.0], [1.0, 3.0, 2.0])       # same poles, biproper
PZ = LinearODE([6.0, 11.0, 6.0], [0.0, 0.0, 1.0, 2.0])  # B = s + 2 divides A


class TestMarkovParameters:
    def test_biproper_example(self):
        assert_allclose(markov_parameters(EX2, 2), [1.0, -3.0])

    def test_matches_realization(self):
        # h_0..h_2 against D, CB, CAB of the canonical realization
        ss = observable_canonical(EX1)
        assert_allclose(markov_parameters(EX1, 3), ss_markov_parameters(ss, 3))
        assert_allclose(markov_parameters(EX1, 3), [0.0, 1.0, -5.0])

    def test_leading_zeros_match_relative_degree(self):
        ode = LinearODE([1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 4.0])
        h = markov_parameters(ode, 4)
        assert_array_equal(h[:3], [0.0, 0.0, 0.0])
        assert h[3] == 4.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            markov_parameters(EX1, 0)

    def test_recursion_vs_matrices_random(self):
        """Recursion h_j = b_j - sum a_i h_{j-i} equals D, CB, CAB, ..."""
        rng = np.random.default_rng(808)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 7))
            ode = LinearODE(rng.uniform(-5, 5, n), rng.uniform(-5, 5, n + 1))
            ss = observable_canonical(ode)
            gap = np.max(
                np.abs(markov_parameters(ode, n + 1) - ss_markov_parameters(ss, n + 1))
            )
            worst = max(worst, gap)
        assert worst <= 1e-9

    def test_bit_identical_to_numpy_scalar_loop(self):
        # the recursion on Python floats rounds exactly as the same loop on
        # numpy float64 scalars, the reference kept here
        def reference(ode, count):
            n = ode.n
            h = np.zeros(count)
            for j in range(count):
                acc = ode.b[j] if j <= n else 0.0
                for i in range(1, min(j, n) + 1):
                    acc -= ode.a[i - 1] * h[j - i]
                h[j] = acc
            return h

        rng = np.random.default_rng(811)
        for _ in range(300):
            n = int(rng.integers(1, 17))
            a = rng.uniform(-5, 5, n) * 10.0 ** rng.uniform(-3, 3, n)
            b = rng.uniform(-5, 5, n + 1) * 10.0 ** rng.uniform(-3, 3, n + 1)
            b[: int(rng.integers(0, n + 1))] = 0.0
            ode = LinearODE(a, b)
            count = int(rng.integers(1, n + 4))
            got = markov_parameters(ode, count)
            assert got.dtype == np.float64 and got.shape == (count,)
            assert_array_equal(got, reference(ode, count))


class TestObservableCanonical:
    def test_example_matrices_exact(self):
        ss = observable_canonical(EX1)
        assert_array_equal(ss.A, [[0.0, -5.0], [1.0, -6.0]])
        assert_array_equal(ss.B, [1.0, 1.0])
        assert_array_equal(ss.C, [0.0, 1.0])
        assert ss.D == 0.0

    def test_first_order(self):
        ss = observable_canonical(LinearODE([3.0], [0.0, 2.0]))
        assert_array_equal(ss.A, [[-3.0]])
        assert_array_equal(ss.B, [2.0])
        assert_array_equal(ss.C, [1.0])
        assert ss.D == 0.0

    def test_biproper_feedthrough(self):
        ss = observable_canonical(EX2)
        assert ss.D == 1.0
        assert_allclose(ss.C @ ss.B, -3.0)
        assert check_equivalence(EX2, ss).transfer_error < 1e-12

    def test_overflowing_b_raises_naming_the_ode(self):
        ode = LinearODE([3.0, 2.0], [1e308, 1e308, 1e308])
        with pytest.raises(ValueError, match=r"^ode: realization overflows: b_k - b_0 a_k is not finite$"):
            observable_canonical(ode)

    def test_b_bits_and_layout(self):
        # B is b_k - b_0 a_k rounded as numpy rounds it, stored as a reversed
        # view: matrix-vector products with B round by its layout
        rng = np.random.default_rng(810)
        for _ in range(50):
            ode = random_ode(rng, nmax=6)
            want = (ode.b[1:] - ode.b[0] * ode.a)[::-1]
            ss = observable_canonical(ode)
            assert_array_equal(ss.B, want)
            assert ss.B.strides == StateSpace(ss.A, want, ss.C, ss.D).B.strides

    def test_transfer_round_trip_random(self):
        rng = np.random.default_rng(809)
        worst = 0.0
        for _ in range(100):
            ode = random_ode(rng, nmax=6)
            err = check_equivalence(ode, observable_canonical(ode)).transfer_error
            worst = max(worst, err)
        assert worst <= 1e-9


class TestSSTransferFunction:
    """C (sI - A)^(-1) B + D against B(s)/A(s), sampled by check_equivalence."""

    def test_example(self):
        # (s + 1) / (s^2 + 6 s + 5)
        assert check_equivalence(EX1, observable_canonical(EX1)).transfer_error < 1e-12

    def test_scalar_system(self):
        report = check_equivalence(LinearODE([1.0], [0.0, 1.0]), StateSpace([[-1.0]], [1.0], [1.0], 0.0))
        assert report.transfer_error < 1e-12

    def test_zero_b_leaves_feedthrough(self):
        # G = 3, written over A(s) = (s + 1)(s + 2) on the ODE side
        ss = StateSpace([[-1.0, 0.0], [0.0, -2.0]], [0.0, 0.0], [1.0, 1.0], 3.0)
        report = check_equivalence(LinearODE([3.0, 2.0], [3.0, 9.0, 6.0]), ss)
        assert report.transfer_match and report.transfer_error < 1e-12


class TestObservabilityMatrix:
    def test_example(self):
        O = observability_matrix(observable_canonical(EX1))
        assert_array_equal(O, [[1.0, -6.0], [0.0, 1.0]])

    def test_single_state(self):
        assert_array_equal(
            observability_matrix(StateSpace([[-2.0]], [1.0], [3.0], 0.0)), [[3.0]]
        )

    def test_row_recurrence(self):
        ss = observable_canonical(LinearODE([1.0, -2.0, 0.5], [0.0, 1.0, 0.0, 2.0]))
        O = observability_matrix(ss)
        for i in range(ss.n - 1):
            assert_allclose(O[i], O[i + 1] @ ss.A)

    def test_canonical_always_invertible(self):
        rng = np.random.default_rng(810)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            ode = LinearODE(rng.uniform(-5, 5, n), rng.uniform(-5, 5, n + 1))
            O = observability_matrix(observable_canonical(ode))
            assert abs(np.linalg.det(O)) > 1e-9

    def test_overflow_raises_naming_the_field(self):
        # C A^2 holds 1e400; a RuntimeWarning on the way would fail the test
        ss = observable_canonical(LinearODE([1e200, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match=r"^ssr: observability matrix overflows"):
            observability_matrix(ss)
        with pytest.raises(ValueError, match=r"^ode: observability matrix overflows"):
            observability_matrix(ss, "ode")


class TestMarkovMatrix:
    def test_biproper_example(self):
        assert_array_equal(markov_matrix(EX2), [[1.0, -3.0], [0.0, 1.0]])

    def test_intro_example(self):
        assert_array_equal(markov_matrix(LinearODE([5, 6], [0, 1, 1])), [[0.0, 1.0], [0.0, 0.0]])

    def test_first_order(self):
        assert_array_equal(markov_matrix(LinearODE([4.0], [2.0, 1.0])), [[2.0]])

    def test_toeplitz_structure(self):
        ode = LinearODE([1.0, 2.0, 3.0], [0.5, -1.0, 2.0, 0.0])
        M = markov_matrix(ode)
        h = markov_parameters(ode, 3)
        for i in range(3):
            for j in range(3):
                assert M[i, j] == (h[j - i] if j >= i else 0.0)


class TestEquivalence:
    def test_canonical_realization_equivalent(self):
        report = check_equivalence(EX1, observable_canonical(EX1))
        assert report.same_order and report.transfer_match and report.observable
        assert report.equivalent

    def test_order_mismatch(self):
        # order-3 realization of the same transfer function (extra pole/zero at -2)
        ode3 = LinearODE([8.0, 17.0, 10.0], [0.0, 1.0, 3.0, 2.0])
        report = check_equivalence(EX1, observable_canonical(ode3))
        assert not report.same_order
        assert report.transfer_match  # same G after cancellation
        assert not report.equivalent

    def test_unobservable_output(self):
        ss = observable_canonical(EX1)
        broken = StateSpace(ss.A, ss.B, [0.0, 0.0], ss.D)
        report = check_equivalence(EX1, broken)
        assert report.rank == 0 and not report.observable
        assert not report.equivalent

    def test_wrong_transfer_function(self):
        other = observable_canonical(LinearODE([6.0, 5.0], [0.0, 1.0, 2.0]))
        report = check_equivalence(EX1, other)
        assert report.same_order
        assert not report.transfer_match

    def test_overflowing_gap_raises_naming_the_side(self):
        # B(s)/A(s) overflows on the outer circle, |s| ~ 1.5e200; with it
        # finite, B = [1e308, 0] makes the state-space side overflow
        big = LinearODE([1e200, 1.0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"^ode: transfer function overflows"):
            check_equivalence(big, observable_canonical(big))
        ode = LinearODE([3.0, 2.0], [0.0, 0.0, 1e308])
        for field in ("ssr", "ode"):
            with pytest.raises(ValueError, match=rf"^{field}: transfer function overflows"):
                check_equivalence(ode, observable_canonical(ode), field)

    @pytest.mark.parametrize("scale, match", [(1e-12, True), (1e-6, False)])
    def test_transfer_verdict_reads_the_gap(self, scale, match):
        # B scaled by 1 + scale moves the sampled gap by about scale
        ss = observable_canonical(EX1)
        report = check_equivalence(EX1, StateSpace(ss.A, ss.B * (1.0 + scale), ss.C, ss.D))
        assert report.transfer_match is match
        assert (report.transfer_error <= TRANSFER_TOL) is match

    def test_pole_zero_cancellation_canonical_is_observable(self):
        # B = s + 2 divides A = (s + 1)(s + 2)(s + 3), yet the observable-
        # canonical realization stays observable: condition 3 is not
        # "A and B are coprime"
        report = check_equivalence(PZ, observable_canonical(PZ))
        assert report.sigma_ratio > 1e-3
        assert report.equivalent

    def test_pole_zero_cancellation_controllable_is_unobservable(self):
        # the controllable-canonical realization of the same B/A hides the
        # mode at -2 from y: same transfer function, not observable
        A = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]]
        report = check_equivalence(PZ, StateSpace(A, [0.0, 0.0, 1.0], [2.0, 1.0, 0.0], 0.0))
        assert report.same_order and report.transfer_match
        assert report.sigma_ratio < 1e-12
        assert report.rank == 2
        assert not report.observable and not report.equivalent

    def test_verdict_is_about_the_data_as_given(self):
        # C[0] one ulp above 2 no longer cancels the mode at -2: O has exact
        # rank 3, though its sigma ratio is rounding-sized
        A = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]]
        C = [np.nextafter(2.0, 3.0), 1.0, 0.0]
        report = check_equivalence(PZ, StateSpace(A, [0.0, 0.0, 1.0], C, 0.0))
        assert report.rank == 3 and report.sigma_ratio < 1e-17
        assert report.observable and report.equivalent

    def test_modular_collision_takes_the_exact_path(self):
        # det O = 2^31 * 2^30 - 1 = _RANK_PRIME: rank 1 modulo the prime, 2 exactly
        assert _RANK_PRIME == 2**61 - 1
        ss = StateSpace([[2.0**31, 1.0], [0.0, 0.0]], [1.0, 0.0], [1.0, 2.0**30], 0.0)
        assert _rank_mod_p([[2**31, 1], [1, 2**30]]) == 1
        assert observability_rank(ss) == 2

    def test_extreme_entries_decided_quickly(self):
        # entries from 1e-300 to 1e300 make integers of thousands of digits;
        # the modular step settles full rank without forming them
        rng = np.random.default_rng(16)

        def extreme(*shape):
            sign = rng.choice([-1.0, 1.0], shape)
            return sign * rng.uniform(1.0, 1.79, shape) * 10.0 ** rng.integers(-300, 301, shape)

        ss = StateSpace(extreme(16, 16), extreme(16), extreme(16), 0.0)
        start = time.perf_counter()
        assert observability_rank(ss) == 16
        assert time.perf_counter() - start < 0.05

    def test_exact_ranks_agree_on_integer_matrices(self):
        # products of random small n x r and r x n integer factors, some with
        # a zero column, whose floating-point rank is unambiguous
        rng = np.random.default_rng(61)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(0, n + 1))
            M = rng.integers(-3, 4, (n, r)) @ rng.integers(-3, 4, (r, n))
            if rng.random() < 0.3:
                M[:, rng.integers(n)] = 0
            want = np.linalg.matrix_rank(M)
            rows = M.tolist()
            assert _rank_bareiss(rows) == want and _rank_mod_p(rows) == want

    def test_unseen_state_skips_the_exact_path(self, monkeypatch):
        # one state that C cannot see through A: the rank is taken on the
        # other 15, where the modular step settles it, so no integers of
        # thousands of digits are eliminated
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return _rank_bareiss(rows)

        monkeypatch.setattr("ltivp.realization._rank_bareiss", counting)
        A, B, C = decoupled_realization()
        assert observability_rank(StateSpace(A, B, C, 0.0)) == 15
        assert calls == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="every state is seen by C, so the modular rank below 16 falls back to "
        "Bareiss elimination over integers of thousands of digits (about 1.5 s)",
    )
    def test_copied_state_skips_the_exact_path(self, monkeypatch):
        # state 5 a copy of state 0: column 5 of O equals column 0, so the
        # exact rank is 15, with every state seen by C
        def refuse(rows):
            raise AssertionError("the exact rank reached Bareiss elimination")

        monkeypatch.setattr("ltivp.realization._rank_bareiss", refuse)
        A, B, C = decoupled_realization()
        A[5, :] = A[0, :]
        A[:, 5] = A[:, 0]
        C[5] = C[0]
        assert observability_rank(StateSpace(A, B, C, 0.0)) == 15

    def test_seen_states_keep_the_exact_rank(self):
        # sparse integer realizations, some states unseen by C: the rank on
        # the seen states is the exact rank of the full observability matrix
        rng = np.random.default_rng(57)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            A = rng.integers(-3, 4, (n, n)) * (rng.random((n, n)) < 0.5)
            C = rng.integers(-3, 4, n) * (rng.random(n) < 0.6)
            ss = StateSpace(A.astype(float), np.ones(n), C.astype(float), 0.0)
            want = _rank_bareiss(_observability_rows(C.tolist(), A.tolist()))
            assert observability_rank(ss) == want, (A, C)

    def test_a_state_seen_through_another_counts(self):
        # state 0 drives state 1 (A[1, 0] != 0), which C reads: O = [[1, 0],
        # [0, 1]] has rank 2; driven by state 1 instead, state 0 is unseen
        drives_seen = StateSpace([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0], [0.0, 1.0], 0.0)
        driven_by_seen = StateSpace([[0.0, 1.0], [0.0, 0.0]], [1.0, 0.0], [0.0, 1.0], 0.0)
        assert observability_rank(drives_seen) == 2
        assert observability_rank(driven_by_seen) == 1

    @pytest.mark.parametrize("n", [12, 16])
    @pytest.mark.parametrize("kind", ["even", "conjugate"])
    def test_high_order_similar_realization_matches(self, n, kind):
        ode = _high_order_ode(n, kind)
        report = check_equivalence(ode, _signed_reversal(observable_canonical(ode)))
        assert report.transfer_match, report.transfer_error

    @pytest.mark.parametrize(
        "n, kind",
        [(2, "even"), (2, "conjugate"), (5, "even"), (12, "even"), (12, "conjugate"),
         (16, "even"), (16, "conjugate")],
    )
    @pytest.mark.parametrize("entry", [0, -1])
    def test_high_order_perturbed_realization_mismatches(self, n, kind, entry):
        # after the reversal B[0] is the s^(n-1) numerator coefficient and
        # B[-1] the s^0 one, which shows only near the smallest poles
        ode = _high_order_ode(n, kind)
        ss = _signed_reversal(observable_canonical(ode))
        B = ss.B.copy()
        B[entry] *= 1.0 + 1e-6
        report = check_equivalence(ode, StateSpace(ss.A, B, ss.C, ss.D))
        assert not report.transfer_match, report.transfer_error


def _high_order_ode(n: int, kind: str) -> LinearODE:
    """Poles on [-4, -0.5], evenly spaced or in conjugate pairs; random b."""
    if kind == "even":
        poles = np.linspace(-4.0, -0.5, n)
    else:
        re = np.linspace(-4.0, -0.5, n // 2)
        im = np.linspace(0.5, 3.0, n // 2)
        poles = np.concatenate([re + 1j * im, re - 1j * im])
    b = np.random.default_rng(n).uniform(-5.0, 5.0, n + 1)
    return LinearODE(np.real(np.poly(poles))[1:], b)


def _signed_reversal(ss: StateSpace) -> StateSpace:
    """The realization with its states reversed and every other one negated:
    T^(-1) A T, T^(-1) B, C T for a signed permutation T, exact in floating point."""
    sign = np.where(np.arange(ss.n) % 2 == 0, 1.0, -1.0)
    return StateSpace(
        np.outer(sign, sign) * ss.A[::-1, ::-1], sign * ss.B[::-1], sign * ss.C[::-1], ss.D
    )


class TestStateSpaceType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StateSpace([[1.0, 2.0]], [1.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            StateSpace([[1.0]], [1.0, 2.0], [1.0], 0.0)

    def test_column_vectors_flattened(self):
        ss = StateSpace([[0.0, -5.0], [1.0, -6.0]], [[1.0], [1.0]], [[0.0, 1.0]], 0.0)
        assert ss.B.shape == (2,)
        assert ss.C.shape == (2,)


def test_condition_vector_markov_identity_random():
    """V_y M = V_u for the stack-weight matrices, over random draws."""
    rng = np.random.default_rng(811)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        ode = LinearODE(rng.uniform(-5, 5, n), rng.uniform(-5, 5, n + 1))
        V_y, V_u = ic_vectors(ode)
        worst = max(worst, float(np.max(np.abs(V_y @ markov_matrix(ode) - V_u))))
    assert worst <= 1e-9
