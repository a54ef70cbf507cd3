import numpy as np
import pytest

from oracles import make_svm_problem, qp_projected_gradient, solve_tight

from newsmkl.kernels import GramMatrix, KernelSpec, gram_matrix
from newsmkl.svm import (SvmError, TrainingSet, model_from_dict, model_to_dict,
                         predict, predict_many, project_feasible, solve_dual)


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

    def test_single_class_rejected(self):
        g = gram_matrix(KernelSpec(kind="linear"), [[1.0], [2.0]])
        ts = TrainingSet(labels=[1.0, 1.0], gram=g)
        with pytest.raises(SvmError):
            solve_dual(ts, C=1.0)

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
        row = ts.gram.values[:, 3]
        _, d1 = predict(m, ts.labels, row)
        _, d2 = predict(m_perm, ts_perm.labels, row[perm])
        assert d2 == pytest.approx(d1, rel=1e-8, abs=1e-10)

    def test_objective_dominates_any_feasible_point(self):
        for seed in range(5):
            ts, C = make_svm_problem(seed)
            m = solve_tight(ts, C)
            rng = np.random.default_rng(seed)
            a = project_feasible(rng.uniform(0, C, ts.size), ts.labels, C)
            Q = (ts.labels[:, None] * ts.labels[None, :]) * ts.gram.values
            feas_obj = float(a.sum()) - 0.5 * float(a @ (Q @ a))
            assert m.objective >= feas_obj - 1e-6 * max(1.0, abs(feas_obj))


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


class TestPredict:
    def test_decision_value_and_label(self):
        ts, C = two_point_problem()
        m = solve_dual(ts, C, tol=1e-10)
        label, value = predict(m, ts.labels, [-2.0, 2.0])
        assert (label, value) == (1, pytest.approx(2.0))

    def test_zero_decision_maps_to_plus_one(self):
        ts, C = two_point_problem()
        m = solve_dual(ts, C, tol=1e-10)
        label, value = predict(m, ts.labels, [0.0, 0.0])
        assert value == 0.0 and label == 1

    def test_training_points_classified_correctly_when_separable(self):
        ts, C = two_point_problem()
        m = solve_dual(ts, C, tol=1e-10)
        for i in range(2):
            label, _ = predict(m, ts.labels, ts.gram.values[:, i])
            assert label == ts.labels[i]

    def test_row_length_mismatch(self):
        ts, C = two_point_problem()
        m = solve_dual(ts, C)
        with pytest.raises(SvmError):
            predict(m, ts.labels, [1.0, 2.0, 3.0])

    def test_predict_many_matches_predict(self):
        ts, C = make_svm_problem(2)
        m = solve_tight(ts, C)
        rows = ts.gram.values[:, :4].T
        labels, values = predict_many(m, ts.labels, rows)
        for i in range(4):
            l1, v1 = predict(m, ts.labels, rows[i])
            assert (labels[i], values[i]) == (l1, pytest.approx(v1))


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
