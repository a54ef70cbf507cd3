import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import make_svm_problem, qp_projected_gradient, solve_tight

from newsmkl import _smo
from newsmkl.kernels import GramMatrix, KernelSpec, gram_matrix
from newsmkl.svm import (SvmError, TrainingSet, dual_objective, model_from_dict, model_to_dict,
                         predict_many, primal_dual_gap, project_feasible, recover_bias,
                         solve_dual)


def two_point_problem(shift: float = 0.0, C: float = 10.0):
    pts = [[-1.0 + shift], [1.0 + shift]]
    ts = TrainingSet(labels=[-1.0, 1.0], gram=gram_matrix(KernelSpec(kind="linear"), pts))
    return ts, C


class TestSolveDual:
    def test_two_point_analytic_solution(self):
        ts, C = two_point_problem()
        m = solve_dual(ts, C, tol=1e-10)
        np.testing.assert_allclose(m.alpha, [0.5, 0.5], atol=1e-12)
        assert m.bias == pytest.approx(0.0, abs=1e-12)
        assert m.objective == pytest.approx(0.5, abs=1e-12)

    def test_C_zero_rejected(self):
        ts, _ = two_point_problem()
        with pytest.raises(SvmError):
            solve_dual(ts, C=0.0)

    @pytest.mark.parametrize("C, tol", [(np.nan, 1e-3), (np.inf, 1e-3), (10.0, np.nan), (10.0, np.inf)])
    def test_C_and_tol_must_be_positive_and_finite(self, C, tol):
        ts, _ = make_svm_problem(0)
        with pytest.raises(SvmError, match="must be positive and finite"):
            solve_dual(ts, C, tol=tol, max_iter=1000)  # a tol of nan is never met: stop soon without the check

    def test_single_class_rejected(self):
        g = gram_matrix(KernelSpec(kind="linear"), [[1.0], [2.0]])
        ts = TrainingSet(labels=[1.0, 1.0], gram=g)
        with pytest.raises(SvmError):
            solve_dual(ts, C=1.0)

    def test_labels_must_be_plus_minus_one(self):
        g = gram_matrix(KernelSpec(kind="linear"), [[1.0], [2.0]])
        with pytest.raises(SvmError):
            TrainingSet(labels=[1.0, 0.0], gram=g)
        with pytest.raises(SvmError):
            TrainingSet(labels=[1.0, -1.0, 1.0], gram=g)

    def test_matches_projected_gradient_oracle(self):
        for seed in range(10):
            ts, C = make_svm_problem(seed)
            m = solve_tight(ts, C)
            _, obj_oracle = qp_projected_gradient(ts.gram.values, ts.labels, C)
            rel = abs(m.objective - obj_oracle) / max(1.0, abs(obj_oracle))
            assert rel <= 1e-6, f"seed {seed}: {m.objective} vs {obj_oracle}"

    def test_feasibility_and_kkt_invariants(self):
        for seed in range(8):
            ts, C = make_svm_problem(seed)
            m = solve_dual(ts, C, tol=1e-6)
            assert np.all(m.alpha >= 0.0) and np.all(m.alpha <= C)
            assert abs(float(m.alpha @ ts.labels)) <= 1e-9 * max(1.0, C)
            assert m.kkt_violation <= 1e-6
            assert np.array_equal(m.support_indices, np.flatnonzero(m.alpha > 0))

    def test_warm_start_same_problem_converges_immediately(self):
        ts, C = make_svm_problem(4)
        m1 = solve_dual(ts, C, tol=1e-8)
        m2 = solve_dual(ts, C, tol=1e-8, warm_start=m1.alpha)
        assert m2.n_iter <= 2
        assert m2.objective == pytest.approx(m1.objective, rel=1e-12)

    def test_permutation_invariance_of_predictions(self):
        rng = np.random.default_rng(0)
        ts, C = make_svm_problem(6)
        m = solve_tight(ts, C)
        perm = rng.permutation(ts.size)
        K_perm = ts.gram.values[np.ix_(perm, perm)]
        ts_perm = TrainingSet(labels=ts.labels[perm], gram=GramMatrix(values=K_perm))
        m_perm = solve_tight(ts_perm, C)
        # the same test point: its kernel row permutes along with training order
        row = ts.gram.values[3:4]
        _, d1 = predict_many(m, ts.labels, row)
        _, d2 = predict_many(m_perm, ts_perm.labels, row[:, perm])
        assert d2[0] == pytest.approx(d1[0], rel=1e-8, abs=1e-10)

    def test_objective_dominates_any_feasible_point(self):
        for seed in range(5):
            ts, C = make_svm_problem(seed)
            m = solve_tight(ts, C)
            rng = np.random.default_rng(seed)
            a = project_feasible(rng.uniform(0, C, ts.size), ts.labels, C)
            Q = (ts.labels[:, None] * ts.labels[None, :]) * ts.gram.values
            feas_obj = float(a.sum()) - 0.5 * float(a @ (Q @ a))
            assert m.objective >= feas_obj - 1e-6 * max(1.0, abs(feas_obj))


class TestSmoKkt:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), rank=st.integers(1, 8),
           ridge=st.sampled_from([0.0, 1e-3, 1.0]), C=st.floats(0.05, 20.0),
           tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
    @settings(max_examples=80, deadline=None)
    def test_kkt_on_random_psd_problems(self, seed, n, rank, ridge, C, tol):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, rank))
        K = X @ X.T + ridge * np.eye(n)
        K = 0.5 * (K + K.T)  # PSD, exactly symmetric, singular when ridge = 0 and rank < n
        y = rng.choice([-1.0, 1.0], n)
        y[:2] = (1.0, -1.0)
        alpha, grad = np.zeros(n), -np.ones(n)
        n_iter, violation, converged = _smo.solve(K.__getitem__, np.diagonal(K), y, alpha, grad,
                                                  C, tol, 1_000_000)
        assert converged and violation <= tol
        assert np.all(alpha >= 0.0) and np.all(alpha <= C)
        assert abs(float(y @ alpha)) <= 1e-9
        Q = (y[:, None] * y[None, :]) * K
        np.testing.assert_allclose(grad, Q @ alpha - 1.0, rtol=0.0, atol=1e-8)


class TestBias:
    def test_symmetric_problem_zero_bias(self):
        ts, C = two_point_problem()
        assert solve_dual(ts, C).bias == pytest.approx(0.0, abs=1e-12)

    def test_translated_points_shift_bias(self):
        # both points shifted by +c with a linear kernel: w stays 1, b becomes -c
        for c in (0.5, 2.0, -1.5):
            ts, C = two_point_problem(shift=c)
            m = solve_dual(ts, C, tol=1e-10)
            assert m.bias == pytest.approx(-c, abs=1e-9)

    def test_all_bound_support_vectors_use_interval_midpoint(self):
        # tiny C forces both alphas to the bound; the exact b interval is
        # [max lower, min upper] = [y_i - S_i bounds] computed by hand
        ts, _ = two_point_problem()
        C = 0.1
        m = solve_dual(ts, C, tol=1e-12)
        np.testing.assert_allclose(m.alpha, [C, C], atol=1e-15)
        S = ts.gram.values @ (ts.labels * m.alpha)
        u = ts.labels - S
        # y=+1 at bound C gives an upper limit, y=-1 at bound C a lower limit
        assert m.bias == pytest.approx(0.5 * (u[0] + u[1]), abs=1e-12)

    def test_entries_within_rounding_of_a_bound_count_as_at_the_bound(self):
        C = 10.0
        y = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        alpha = np.array([C, 0.0, C, 0.0, C, C])  # every entry at a bound, y'alpha = 0
        k_alpha = np.random.default_rng(0).standard_normal(6)
        bias = recover_bias(alpha, y, k_alpha, C)
        near_C, near_0 = alpha.copy(), alpha.copy()
        near_C[0] = C - 3.6e-15
        near_0[1] = 3.6e-15
        assert near_C[0] < C and near_0[1] > 0.0
        assert recover_bias(near_C, y, k_alpha, C) == bias
        assert recover_bias(near_0, y, k_alpha, C) == bias
        free = alpha.copy()
        free[0] = C - 1e-6  # well inside the box: a free vector fixes the bias
        assert recover_bias(free, y, k_alpha, C) == y[0] - k_alpha[0]


class TestPrimalDualGap:
    def test_bias_minimizes_the_primal_bound_and_bounds_the_dual_error(self):
        for seed in range(12):
            ts, C = make_svm_problem(seed)
            y, K = ts.labels, ts.gram.values
            alpha, grad = np.zeros(ts.size), -np.ones(ts.size)
            _smo.solve(K.__getitem__, np.diagonal(K), y, alpha, grad, C, 0.3, 10**6)  # loose
            eps = primal_dual_gap(alpha, y, grad, C)
            u = -y * grad  # the bound is piecewise linear in b with breakpoints at u
            brute = min(float(alpha @ grad) + C * float(np.maximum(0.0, y * (u - b)).sum())
                        for b in u)
            assert eps == pytest.approx(brute, rel=1e-12, abs=1e-12)
            gap = solve_tight(ts, C).objective - dual_objective(alpha, grad)
            assert gap > 1e-6  # the loose solve left something to bound
            assert eps >= gap - 1e-9

    def test_zero_at_the_optimum(self):
        ts, C = two_point_problem()
        y, K = ts.labels, ts.gram.values
        alpha, grad = np.zeros(2), -np.ones(2)
        _smo.solve(K.__getitem__, np.diagonal(K), y, alpha, grad, C, 1e-12, 100)
        assert primal_dual_gap(alpha, y, grad, C) == pytest.approx(0.0, abs=1e-12)


class TestPredict:
    def test_decision_value_and_label(self):
        ts, C = two_point_problem()
        m = solve_dual(ts, C, tol=1e-10)
        labels, values = predict_many(m, ts.labels, [[-2.0, 2.0]])
        assert (labels[0], values[0]) == (1, pytest.approx(2.0))

    def test_zero_decision_maps_to_plus_one(self):
        ts, C = two_point_problem()
        m = solve_dual(ts, C, tol=1e-10)
        labels, values = predict_many(m, ts.labels, [[0.0, 0.0]])
        assert values[0] == 0.0 and labels[0] == 1

    def test_training_points_classified_correctly_when_separable(self):
        ts, C = two_point_problem()
        m = solve_dual(ts, C, tol=1e-10)
        labels, _ = predict_many(m, ts.labels, ts.gram.values)
        np.testing.assert_array_equal(labels, ts.labels)

    def test_row_length_mismatch(self):
        ts, C = two_point_problem()
        m = solve_dual(ts, C)
        with pytest.raises(SvmError):
            predict_many(m, ts.labels, [[1.0, 2.0, 3.0]])
        with pytest.raises(SvmError):
            predict_many(m, ts.labels, [1.0, 2.0])  # a bare row, not a (1, l) matrix

    def test_predict_many_rows_match_one_row_calls(self):
        ts, C = make_svm_problem(2)
        m = solve_tight(ts, C)
        rows = ts.gram.values[:, :4].T
        labels, values = predict_many(m, ts.labels, rows)
        for i in range(4):
            l1, v1 = predict_many(m, ts.labels, rows[i:i + 1])
            assert (labels[i], values[i]) == (l1[0], pytest.approx(v1[0]))
            assert v1[0] == pytest.approx(float(rows[i] @ (ts.labels * m.alpha)) + m.bias)


class TestSerialization:
    def test_round_trip(self):
        ts, C = make_svm_problem(1)
        m = solve_tight(ts, C)
        rec = model_to_dict(m, kernels=[{"kind": "linear"}], mkl_weights=[1.0])
        m2 = model_from_dict(rec)
        np.testing.assert_array_equal(m2.alpha, m.alpha)
        assert m2.bias == m.bias and m2.C == m.C
        assert rec["mkl_weights"] == [1.0]
        assert rec["converged"] is True and m2.converged
        stalled = solve_dual(ts, C, max_iter=1)
        assert model_from_dict(model_to_dict(stalled)).converged is False

    def test_unknown_format_rejected(self):
        with pytest.raises(SvmError):
            model_from_dict({"format": "something-else"})
