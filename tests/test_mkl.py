import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (barrier_grid_center, central_difference_directional,
                     grid_mkl_oracle, newton_center_full_loop, simplex_grid)

from newsmkl.bench import make_bench_problem
from newsmkl.kernels import GramMatrix, KernelSpec, gram_matrix
from newsmkl import _smo, mkl, svm
from newsmkl.mkl import (LocalizationSet, MklError, MklProblem, MklState,
                         _evaluate, add_cut, analytic_center,
                         barrier_hessian, cut_relevance, duality_gap,
                         kernel_quad_forms, mix_kernels, mkl_gradient,
                         mkl_objective, prune_cuts, reduced_to_full,
                         solve_accpm, solve_reduced_gradient, uniform_reduced)
from newsmkl.svm import project_feasible, recover_bias, solve_dual


def small_problem(seed: int = 0, n_kernels: int = 2, l: int = 20, C: float = 10.0,
                  gap_tol: float = 0.01) -> MklProblem:
    return make_bench_problem(seed, n_kernels=n_kernels, dim=l, C=C, gap_tol=gap_tol)


class TestObjective:
    def test_single_kernel_equals_plain_svm(self):
        p = small_problem(n_kernels=2)
        single = MklProblem(kernels=[p.kernels[0]], labels=p.labels, C=p.C)
        J, alpha = mkl_objective(single, [1.0])
        m = solve_dual(p.kernels[0], p.labels, p.C, tol=single.inner_tol)
        assert J == pytest.approx(m.objective, rel=1e-12)

    @pytest.mark.parametrize("solver", [solve_accpm, solve_reduced_gradient])
    @pytest.mark.parametrize("C", [1.0, 10.0, 1000.0])
    def test_single_kernel_fit_is_solve_dual_bit_for_bit(self, solver, C):
        # both run SMO cold on the same rows and diagonal to inner_tol and take
        # the bias from K (y * alpha): one computation, not two that agree
        for seed in range(6):
            p = make_bench_problem(seed, n_kernels=2, dim=60, C=C)
            for gram in p.kernels:
                single = MklProblem(kernels=[gram], labels=p.labels, C=p.C)
                model = solver(single).model
                ref = solve_dual(gram, p.labels, p.C, tol=single.inner_tol)
                np.testing.assert_array_equal(model.alpha, ref.alpha)
                assert (model.bias, model.objective) == (ref.bias, ref.objective)

    def test_identical_kernels_objective_constant_in_d(self):
        p = small_problem(n_kernels=2)
        twin = MklProblem(kernels=[p.kernels[0], p.kernels[0]], labels=p.labels, C=p.C)
        values = [mkl_objective(twin, d)[0] for d in ([1, 0], [0.5, 0.5], [0.2, 0.8])]
        assert max(values) - min(values) <= 1e-6 * max(1.0, abs(values[0]))

    def test_matches_premixed_solve(self):
        p = small_problem(seed=2, n_kernels=2)
        d = np.array([0.3, 0.7])
        J, _ = mkl_objective(p, d)
        mixed = GramMatrix(values=0.3 * p.kernels[0].values + 0.7 * p.kernels[1].values)
        m = solve_dual(mixed, p.labels, p.C, tol=p.inner_tol)
        assert J == pytest.approx(m.objective, rel=1e-6)

    def test_state_counts_solves_and_warm_starts(self):
        p = small_problem(seed=1, n_kernels=2)
        state = MklState()
        mkl_objective(p, [0.5, 0.5], state)
        mkl_objective(p, [0.5, 0.5], state)
        assert state.svm_solves == 2
        assert state.alpha is not None


class TestMixtureFree:
    """The row-function objective against SVM solves on the explicit mix_kernels Gram."""

    TOL = 1e-12

    def _problem(self, seed: int = 0) -> MklProblem:
        p = small_problem(seed=seed, n_kernels=3, l=40, C=10.0)
        p.svm_tol = self.TOL
        return p

    def _explicit(self, p: MklProblem, d, warm_start=None):
        return solve_dual(mix_kernels(p, d), p.labels, p.C, tol=self.TOL, warm_start=warm_start)

    def _assert_same(self, point, ref):
        np.testing.assert_allclose(point.alpha, ref.alpha, rtol=0.0, atol=1e-8)
        assert point.J == pytest.approx(ref.objective, rel=0.0, abs=1e-8)

    def _move_off_feasible(self, p: MklProblem, state: MklState) -> np.ndarray:
        """Shift the stored alpha off y'a = 0, with the products following it,
        so the next warm start's projection moves alpha."""
        moved = state.alpha.copy()
        i = int(np.flatnonzero(moved < p.C - 1.0)[0])
        moved[i] += 0.5
        state.alpha = moved
        state.products = mkl._kernel_products(p, p.labels * moved)
        return moved

    def test_cold_solve_matches_explicit_mixture(self):
        for seed in range(3):
            p = self._problem(seed)
            d = np.array([0.2, 0.5, 0.3])
            point = _evaluate(p, d, MklState())
            self._assert_same(point, self._explicit(p, d))
            np.testing.assert_array_equal(point.d, d)
            np.testing.assert_array_equal(point.q, kernel_quad_forms(p, point.alpha))

    def test_zero_weight_kernel_is_skipped(self):
        p = self._problem(1)
        d = np.array([0.0, 0.6, 0.4])
        self._assert_same(_evaluate(p, d, MklState()), self._explicit(p, d))

    def test_vertex_weight_solves_on_the_kernel_itself(self):
        p = self._problem(4)
        d = np.array([0.0, 1.0, 0.0])
        point = _evaluate(p, d, MklState())
        ref = solve_dual(p.kernels[1], p.labels, p.C, tol=self.TOL)
        np.testing.assert_array_equal(point.alpha, ref.alpha)
        self._assert_same(point, ref)
        assert point.smo == (ref.n_iter, ref.kkt_violation, ref.converged)

    def test_warm_start_reuses_stored_products(self):
        p = self._problem(2)
        state = MklState()
        _evaluate(p, [0.2, 0.5, 0.3], state)
        warm = state.alpha.copy()
        v = p.labels * warm
        np.testing.assert_allclose(state.products, [k.values @ v for k in p.kernels], rtol=0, atol=1e-12)
        assert np.array_equal(project_feasible(warm, p.labels, p.C), warm)  # products reused as stored
        d2 = np.array([0.5, 0.1, 0.4])
        self._assert_same(_evaluate(p, d2, state), self._explicit(p, d2, warm_start=warm))
        assert state.svm_solves == 2

    def test_warm_start_recomputes_products_after_projection(self):
        p = self._problem(3)
        state = MklState()
        _evaluate(p, [0.2, 0.5, 0.3], state)
        solved = state.alpha.copy()
        moved = self._move_off_feasible(p, state)
        projected = project_feasible(moved, p.labels, p.C)
        assert not np.array_equal(projected, moved)
        assert np.abs(projected - solved).max() > 1e-3
        d2 = np.array([0.5, 0.1, 0.4])
        self._assert_same(_evaluate(p, d2, state), self._explicit(p, d2, warm_start=moved))

    def _count_full_passes(self, monkeypatch) -> list:
        calls = []
        real = mkl._kernel_products

        def counting(problem, v):
            calls.append(v)
            return real(problem, v)

        monkeypatch.setattr(mkl, "_kernel_products", counting)
        return calls

    def test_delta_products_track_alpha_over_a_chain_of_warm_solves(self, monkeypatch):
        calls = self._count_full_passes(monkeypatch)
        p = self._problem(6)
        state = MklState()
        for d in np.random.default_rng(6).dirichlet(np.ones(3), size=12):
            _evaluate(p, d, state)
        assert len(calls) < state.svm_solves  # most solves updated U by deltas
        full = [k.values @ (p.labels * state.alpha) for k in p.kernels]
        scale = np.abs(full).max()
        np.testing.assert_allclose(state.products, full, rtol=0.0, atol=1e-12 * scale)

    def test_projected_warm_start_gradient_matches_a_full_pass(self, monkeypatch):
        monkeypatch.setattr(mkl, "DELTA_MAX_FRACTION", 1.0)  # the projection's moves go by deltas
        p = self._problem(3)
        state = MklState()
        _evaluate(p, [0.2, 0.5, 0.3], state)
        moved = self._move_off_feasible(p, state)
        starts = []
        real = _smo.solve

        def recording(row, diag, y, alpha, grad, *rest):
            starts.append((alpha.copy(), grad.copy()))
            return real(row, diag, y, alpha, grad, *rest)

        monkeypatch.setattr(_smo, "solve", recording)
        calls = self._count_full_passes(monkeypatch)
        d2 = np.array([0.5, 0.1, 0.4])
        _evaluate(p, d2, state)
        assert calls == []
        [(start, grad)] = starts
        np.testing.assert_array_equal(start, project_feasible(moved, p.labels, p.C))
        full = p.labels * (mix_kernels(p, d2).values @ (p.labels * start)) - 1.0
        np.testing.assert_allclose(grad, full, rtol=0.0, atol=1e-12 * np.abs(full).max())

    def test_cold_solves_and_large_moves_take_a_full_pass(self, monkeypatch):
        calls = self._count_full_passes(monkeypatch)
        p = self._problem(2)
        _evaluate(p, [0.2, 0.5, 0.3], MklState())
        assert len(calls) == 1
        for fraction, passes in ((0.0, 1), (1.0, 0)):
            monkeypatch.setattr(mkl, "DELTA_MAX_FRACTION", fraction)
            state = MklState()
            _evaluate(p, [0.2, 0.5, 0.3], state)  # cold
            calls.clear()
            before = np.array(state.alpha)
            point = _evaluate(p, [0.6, 0.1, 0.3], state)
            assert not np.array_equal(point.alpha, before)  # SMO moved alpha
            assert len(calls) == passes

    def _count_passes_by_phase(self, monkeypatch):
        """Full passes in all, inside `_evaluate`, inside `_sync_products`,
        and at the end of the last `_evaluate`."""
        calls = self._count_full_passes(monkeypatch)
        counts = {"evaluate": 0, "sync": 0, "at_last_evaluate": 0}
        real_sync, real_evaluate = mkl._sync_products, mkl._evaluate

        def sync(*args):
            before = len(calls)
            out = real_sync(*args)
            counts["sync"] += len(calls) - before
            return out

        def evaluate(*args):
            before = len(calls)
            point = real_evaluate(*args)
            counts["evaluate"] += len(calls) - before
            counts["at_last_evaluate"] = len(calls)
            return point

        monkeypatch.setattr(mkl, "_sync_products", sync)
        monkeypatch.setattr(mkl, "_evaluate", evaluate)
        return calls, counts

    @pytest.mark.parametrize("solver", [solve_accpm, solve_reduced_gradient])
    def test_single_kernel_fit_is_one_solve_dual(self, monkeypatch, solver):
        # the one-kernel MKL dual is the SVM dual: no mixture, no product passes
        calls = self._count_full_passes(monkeypatch)
        duals, evaluations = [], []
        real_dual, real_evaluate = mkl.solve_dual, mkl._evaluate
        monkeypatch.setattr(mkl, "solve_dual", lambda *a, **kw: duals.append(1) or real_dual(*a, **kw))
        monkeypatch.setattr(mkl, "_evaluate", lambda *a: evaluations.append(1) or real_evaluate(*a))
        p = small_problem(seed=2, n_kernels=1, l=40, C=10.0)
        sol = solver(p)
        assert (len(duals), len(evaluations), len(calls)) == (1, 0, 0)
        assert sol.svm_solves == 1
        monkeypatch.undo()
        U = mkl._kernel_products(p, p.labels * sol.model.alpha)
        assert sol.model.bias == recover_bias(sol.model.alpha, p.labels, sol.d @ U, p.C)
        assert sol.gap == duality_gap(p, sol.d, sol.model.alpha)

    def test_converged_solve_reuses_its_checking_pass(self, monkeypatch):
        # ends at a vertex, solved at inner_tol: `_finish` does not re-solve
        calls, counts = self._count_passes_by_phase(monkeypatch)
        p = small_problem(seed=0, n_kernels=3, l=30, C=10.0)
        sol = solve_accpm(p)
        assert sol.status == "converged"
        np.testing.assert_array_equal(sol.d, [1.0, 0.0, 0.0])
        assert len(calls) - counts["at_last_evaluate"] == 1  # `_solve`'s stop check, reused by `_finish`
        monkeypatch.undo()
        assert sol.gap == duality_gap(p, sol.d, sol.model.alpha)
        U = mkl._kernel_products(p, p.labels * sol.model.alpha)
        assert sol.model.bias == recover_bias(sol.model.alpha, p.labels, sol.d @ U, p.C)

    def test_evaluate_takes_full_passes_only_to_sync_products(self, monkeypatch):
        _, counts = self._count_passes_by_phase(monkeypatch)
        smo_runs, svm_solves = [], 0
        real_smo = _smo.solve

        def smo(*args):
            smo_runs.append(1)
            return real_smo(*args)

        monkeypatch.setattr(_smo, "solve", smo)
        for seed in range(3):
            sol = solve_accpm(small_problem(seed=seed, n_kernels=3, l=30, C=10.0))
            assert sol.status == "converged"
            svm_solves += sol.svm_solves
        assert len(smo_runs) > svm_solves  # some solves tightened in `_evaluate`'s loop
        assert counts["evaluate"] == counts["sync"] > 0

    def test_converged_gap_and_bias_come_from_a_full_pass(self):
        for solver in (solve_accpm, solve_reduced_gradient):
            p = small_problem(seed=3, n_kernels=3, l=40, C=10.0)
            sol = solver(p)
            assert sol.status == "converged", solver.__name__
            assert sol.gap == duality_gap(p, sol.d, sol.model.alpha)
            U = mkl._kernel_products(p, p.labels * sol.model.alpha)
            assert sol.model.bias == recover_bias(sol.model.alpha, p.labels, sol.d @ U, p.C)

    def test_gap_that_ends_the_solve_comes_from_a_full_pass(self, monkeypatch):
        # drift the delta-updated products far above rounding: the gap that
        # ends the solve must still be the full-pass one
        monkeypatch.setattr(mkl, "DELTA_MAX_FRACTION", 1.0)
        real_sync, real_evaluate = mkl._sync_products, mkl._evaluate

        def drifting(problem, U, alpha_from, alpha_to):
            out = real_sync(problem, U, alpha_from, alpha_to)
            return out * (1.0 + 1e-9) if out is U else out

        solves = []

        def recording(problem, d, state=None):
            point = real_evaluate(problem, d, state)
            solves.append((np.array(d), point.alpha))
            return point

        monkeypatch.setattr(mkl, "_sync_products", drifting)
        monkeypatch.setattr(mkl, "_evaluate", recording)
        p = small_problem(seed=3, n_kernels=3, l=40, C=10.0)
        sol = solve_accpm(p)
        assert sol.status == "converged"
        d, alpha = solves[len(sol.gap_history) - 1]  # one solve per ACCPM iteration
        assert sol.gap_history[-1] == duality_gap(p, d, alpha)

    def test_solution_bias_matches_explicit_mixture(self):
        # instances whose optimum has free support vectors, which fix the bias;
        # with none, any b in an interval meets the KKT conditions
        for seed in range(3):
            p = self._problem(seed)
            for solver in (solve_accpm, solve_reduced_gradient):
                sol = solver(p)
                ref = self._explicit(p, sol.d)
                assert np.any((ref.alpha > 0.0) & (ref.alpha < p.C))
                assert sol.model.bias == pytest.approx(ref.bias, rel=0.0, abs=1e-8), solver.__name__

    def test_bias_recovered_once_per_solution(self, monkeypatch):
        calls = []
        real = svm.recover_bias

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(svm, "recover_bias", counting)
        monkeypatch.setattr(mkl, "recover_bias", counting)
        p = small_problem(seed=3, n_kernels=3, l=40, C=10.0)
        for solver in (solve_accpm, solve_reduced_gradient):
            calls.clear()
            sol = solver(p)
            assert sol.svm_solves > 1
            assert len(calls) == 1, solver.__name__

    def test_reduced_gradient_path(self):
        p = self._problem(4)
        sol = solve_reduced_gradient(p)
        assert sol.svm_solves > 2  # line-search trials warm-start from each other
        ref = self._explicit(p, sol.d)
        assert sol.objective == pytest.approx(ref.objective, rel=0.0, abs=1e-8)
        assert sol.gap == pytest.approx(duality_gap(p, sol.d, sol.model.alpha), rel=0.0, abs=1e-8)

    def test_kernel_quad_forms_explicit(self):
        p = self._problem(5)
        alpha = np.random.default_rng(5).uniform(0.0, p.C, p.labels.shape[0])
        v = p.labels * alpha
        expected = [float(v @ k.values @ v) for k in p.kernels]
        np.testing.assert_allclose(kernel_quad_forms(p, alpha), expected, rtol=1e-12)

    def test_smo_counters(self, monkeypatch):
        runs, solves = [], []
        real_smo, real_evaluate = _smo.solve, mkl._evaluate

        def recording(*args):
            out = real_smo(*args)
            runs.append(out)
            return out

        def evaluating(*args):
            solves.append(args)
            return real_evaluate(*args)

        monkeypatch.setattr(_smo, "solve", recording)
        monkeypatch.setattr(mkl, "_evaluate", evaluating)
        p = small_problem(seed=1, n_kernels=3, l=30, C=10.0)
        for solver in (solve_accpm, solve_reduced_gradient):
            runs.clear()
            solves.clear()
            sol = solver(p)
            assert len(solves) == sol.svm_solves  # one solve per weight vector
            assert sol.smo_iterations == sum(r[0] for r in runs) > 0  # tightening runs too
            assert sol.smo_not_converged == sum(1 for r in runs if not r[2]) == 0
            # ACCPM continues some SMO runs at a tighter tolerance; the baseline does not
            assert (len(runs) > len(solves)) == (solver is solve_accpm), solver.__name__

    def test_smo_counters_count_max_iter_stops(self, monkeypatch):
        monkeypatch.setattr("newsmkl.mkl.DEFAULT_MAX_ITER", 1)
        p = small_problem(seed=1, n_kernels=3, l=30, C=10.0)
        p.max_iters = 3
        sol = solve_accpm(p)
        assert sol.smo_not_converged >= 1
        assert sol.smo_iterations <= sol.svm_solves


class TestInexactOracle:
    """ACCPM's SVM solves start at LOOSE_TOL, tighten on demand within one
    SMO run, and cut with slack eps while they stop above inner_tol."""

    def _record(self, mp, p: MklProblem) -> list:
        """Each _evaluate call as [point, runs], runs as (tol, alpha, grad, result)."""
        solves = []
        real_smo, real_evaluate = _smo.solve, mkl._evaluate

        def recording(row, diag, y, alpha, grad, C, tol, max_iter):
            out = real_smo(row, diag, y, alpha, grad, C, tol, max_iter)
            solves[-1][1].append((tol, alpha, grad, out))
            return out

        def evaluating(*args):
            solves.append([None, []])
            solves[-1][0] = real_evaluate(*args)
            return solves[-1][0]

        mp.setattr(_smo, "solve", recording)
        mp.setattr(mkl, "_evaluate", evaluating)
        return solves

    def test_tolerance_schedule(self, monkeypatch):
        p = small_problem(seed=1, n_kernels=3, l=30, C=10.0)
        solves = self._record(monkeypatch, p)
        sol = solve_accpm(p)
        assert sol.status == "converged"
        tols = [run[0] for _, runs in solves for run in runs]
        assert tols[0] == mkl.LOOSE_TOL > p.inner_tol
        assert all(b <= a for a, b in zip(tols, tols[1:]))  # never loosens
        assert min(tols) == tols[-1] == p.inner_tol  # never below inner_tol
        for point, runs in solves:
            # one SMO run, continued: the same alpha and gradient, each step a tenth tighter
            assert all(r[1] is runs[0][1] and r[2] is runs[0][2] for r in runs)
            assert all(b[0] == max(p.inner_tol, 0.1 * a[0]) for a, b in zip(runs, runs[1:]))
            assert point.smo[0] == sum(r[3][0] for r in runs)
            assert point.smo[1:] == runs[-1][3][1:]
        assert any(len(runs) > 1 for _, runs in solves)

    def test_loose_points_meet_no_tightening_rule(self, monkeypatch):
        for seed in range(3):
            p = small_problem(seed=seed, n_kernels=3, l=40, C=10.0)
            solves = self._record(monkeypatch, p)
            solve_accpm(p)
            best_J, loose = np.inf, 0
            for point, _ in solves:
                if point.smo[1] > p.inner_tol:
                    loose += 1
                    gap = mkl._gap_from_quads(point.d, point.q)
                    assert point.eps <= 0.1 * gap  # (a)
                    assert gap > p.gap_tol  # (b)
                    assert point.J < best_J - point.eps  # (c)
                best_J = min(best_J, point.J)
            assert loose > 0

    def test_cut_slack_is_eps_above_inner_tol(self, monkeypatch):
        p = small_problem(seed=1, n_kernels=3, l=30, C=10.0)
        solves = self._record(monkeypatch, p)
        slacks = []
        real_cut = mkl.add_cut

        def cutting(loc, center_z, full_gradient, slack=0.0):
            slacks.append((solves[-1][0], slack))
            return real_cut(loc, center_z, full_gradient, slack)

        monkeypatch.setattr(mkl, "add_cut", cutting)
        solve_accpm(p)
        loose = [point for point, slack in slacks if point.smo[1] > p.inner_tol]
        assert loose and len(loose) < len(slacks)
        for point, slack in slacks:
            if point.smo[1] > p.inner_tol:
                assert slack == point.eps > 0.0
            else:
                assert slack == point.eps == 0.0

    def test_shallow_cut_offset(self):
        # n=2, center z=0.5, reduced gradient +2: slack 0.2 moves the cut to z <= 0.6
        loc, added = add_cut(LocalizationSet.initial_simplex(2), np.array([0.5]),
                             np.array([-1.0, -3.0]), slack=0.2)
        assert added and loc.b[-1] == pytest.approx(0.6, abs=1e-15)
        assert loc.is_interior(np.array([0.59])) and not loc.is_interior(np.array([0.61]))

    def test_loose_best_point_is_resolved_at_inner_tol(self, monkeypatch):
        p = small_problem(seed=0, n_kernels=3, l=40, C=10.0, gap_tol=1e-12)
        p.max_iters = 2
        solves = self._record(monkeypatch, p)
        sol = solve_accpm(p)
        assert sol.status == "max_iters"
        assert sol.svm_solves == len(solves) == 3  # two iterations and the finishing re-solve
        best = min((point for point, _ in solves[:2]), key=lambda point: point.J)
        assert best.smo[1] > p.inner_tol  # left loose
        resolved = solves[2][0]
        np.testing.assert_array_equal(resolved.d, best.d)  # at its own d
        assert resolved.smo[1] <= p.inner_tol
        np.testing.assert_array_equal(sol.model.alpha, resolved.alpha)
        assert sol.model.converged and sol.model.kkt_violation <= p.inner_tol
        assert sol.gap == duality_gap(p, sol.d, sol.model.alpha)

    def test_stall_rule_lets_a_high_C_instance_converge(self):
        # without rule (c) the loose centers stop moving and this instance
        # ends at max_iters far above gap_tol
        p = make_bench_problem(0, n_kernels=3, dim=500)
        assert p.C == 1000.0
        sol = solve_accpm(p)
        assert sol.status == "converged"
        assert sol.model.kkt_violation <= p.inner_tol
        assert sol.gap == duality_gap(p, sol.d, sol.model.alpha)

    @given(seed=st.integers(0, 2**32 - 1), n_kernels=st.integers(2, 3), l=st.integers(10, 30),
           C=st.sampled_from([1.0, 10.0, 100.0]))
    @settings(max_examples=25, deadline=None)
    def test_shallow_cuts_keep_the_optimum(self, seed, n_kernels, l, C):
        p = small_problem(seed=seed, n_kernels=n_kernels, l=l, C=C)
        p.svm_tol = 1e-10
        ref = small_problem(seed=seed, n_kernels=n_kernels, l=l, C=C, gap_tol=1e-8)
        ref.svm_tol = 1e-12
        ref.max_iters = 1000
        ref_sol = solve_accpm(ref)
        # a tight run can end on a numerically empty localization set
        assume(ref_sol.status in ("converged", "flat_gradient"))
        z_star = ref_sol.d[:-1]
        cuts = []
        with pytest.MonkeyPatch.context() as mp:
            solves = self._record(mp, p)
            real_cut = mkl.add_cut

            def cutting(loc, center_z, full_gradient, slack=0.0):
                out, added = real_cut(loc, center_z, full_gradient, slack)
                if added:
                    cuts.append((solves[-1][0], out.A[-1], out.b[-1]))
                return out, added

            mp.setattr(mkl, "add_cut", cutting)
            solve_accpm(p)
        for point, a, b in cuts:
            assert float(a @ z_star) <= b + 1e-9
            if point.smo[1] > p.inner_tol:
                exact = solve_dual(mix_kernels(p, point.d), p.labels, p.C, tol=1e-12)
                assert point.eps >= exact.objective - point.J - 1e-12 * max(1.0, abs(point.J))


class TestGradient:
    def test_zero_alpha_gives_zero_gradient(self):
        p = small_problem()
        np.testing.assert_array_equal(mkl_gradient(np.zeros(p.kernels[0].size), p), 0.0)

    def test_identical_kernels_equal_components(self):
        p = small_problem()
        twin = MklProblem(kernels=[p.kernels[0], p.kernels[0]], labels=p.labels, C=p.C)
        _, alpha = mkl_objective(twin, [0.5, 0.5])
        g = mkl_gradient(alpha, twin)
        assert g[0] == pytest.approx(g[1], rel=1e-12)

    def test_matches_central_finite_differences(self):
        for seed in range(4):
            p = small_problem(seed=seed, n_kernels=3, l=24, C=1.0)
            p.svm_tol = 1e-11
            d = np.array([0.4, 0.35, 0.25])
            _, alpha = mkl_objective(p, d)
            g = mkl_gradient(alpha, p)
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(3)
            v -= v.mean()  # simplex-tangent direction
            v /= np.linalg.norm(v)
            fd = central_difference_directional(p, d, v, h=1e-5)
            assert fd == pytest.approx(float(g @ v), rel=1e-4, abs=1e-8)


class TestDualityGap:
    def test_single_kernel_gap_zero(self):
        p = small_problem()
        single = MklProblem(kernels=[p.kernels[0]], labels=p.labels, C=p.C)
        _, alpha = mkl_objective(single, [1.0])
        assert duality_gap(single, [1.0], alpha) == pytest.approx(0.0, abs=1e-12)

    def test_identical_kernels_gap_zero(self):
        p = small_problem()
        twin = MklProblem(kernels=[p.kernels[0], p.kernels[0]], labels=p.labels, C=p.C)
        _, alpha = mkl_objective(twin, [0.25, 0.75])
        assert duality_gap(twin, [0.25, 0.75], alpha) == pytest.approx(0.0, abs=1e-12)

    def test_gap_small_at_grid_optimum(self):
        p = small_problem(seed=3, n_kernels=2, l=30, C=1.0)
        p.svm_tol = 1e-9
        _, d_star = grid_mkl_oracle(p, step=0.01)
        _, alpha = mkl_objective(p, d_star)
        assert duality_gap(p, d_star, alpha) <= 1e-3

    def test_stale_alpha_rejected(self):
        p = small_problem(seed=5, n_kernels=2, l=30, C=10.0)
        _, alpha = mkl_objective(p, [1.0, 0.0])
        # alpha optimal for kernel 0 alone is stale at the opposite vertex
        with pytest.raises(MklError):
            gap = duality_gap(p, [0.0, 1.0], alpha)
            # some instances still give a positive gap; force failure only on negatives
            if gap >= 0:
                raise MklError("gap stayed nonnegative (acceptable)")


class TestAnalyticCenter:
    def test_reduced_simplex_n2_center(self):
        z = analytic_center(LocalizationSet.initial_simplex(2), z0=uniform_reduced(2))
        assert z[0] == pytest.approx(0.5, abs=1e-9)

    def test_reduced_simplex_n3_center(self):
        z = analytic_center(LocalizationSet.initial_simplex(3), z0=uniform_reduced(3))
        np.testing.assert_allclose(z, [1 / 3, 1 / 3], atol=1e-9)

    def test_matches_grid_minimizer_with_extra_cut(self):
        # unit box in 2 reduced coordinates plus the cut x + y <= 1
        A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0],
                      [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
        b = np.array([0.0, 0.0, 1.0, 1.0, 1.0 / np.sqrt(2)])
        loc = LocalizationSet(A=A, b=b)
        z = analytic_center(loc, z0=np.array([0.25, 0.25]))
        z_grid = barrier_grid_center(A, b, 0.001, 0.999, n_grid=600)
        np.testing.assert_allclose(z, z_grid, atol=1e-3)

    # an ACCPM localization set (make_bench_problem(0, 3, 60, C=1000)) on
    # which Newton stalls: the decrement stays above NEWTON_TOL while the
    # accepted step no longer moves z
    STALL_A = [["-0x1.0p+0", "-0x0.0p+0"], ["-0x0.0p+0", "-0x1.0p+0"],
               ["0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1"],
               ["0x1.1b0b433c1d0aep-1", "0x1.aaa65cc472f40p-1"],
               ["-0x1.6058c7acced8bp-1", "-0x1.737a4f3d29556p-1"],
               ["0x1.ff820dfae5e10p-1", "-0x1.6708f489ce3ebp-5"],
               ["-0x1.fe378a4f75f9dp-1", "0x1.558a7b6798e8bp-4"],
               ["-0x1.ffa6874f1988fp-1", "0x1.2ea25eb7ec662p-5"],
               ["0x1.fe9e8473afd42p-1", "0x1.2c9d80d1d2131p-4"]]
    STALL_B = ["0x0.0p+0", "0x0.0p+0", "0x1.6a09e667f3bccp-1", "0x1.e238b15c62d65p-3",
               "-0x1.1ecc2eb47bf10p-2", "0x1.8057d54773717p-2", "-0x1.7c56ad6e3be63p-2",
               "-0x1.7fe2efc1c1a2bp-2", "0x1.830c198bdca0cp-2"]
    STALL_Z0 = ["0x1.818bbdfd96d65p-2", "0x1.f5f236dfb7eebp-6"]

    def test_stops_at_float_fixed_point(self, monkeypatch):
        A = np.array([[float.fromhex(v) for v in row] for row in self.STALL_A])
        b = np.array([float.fromhex(v) for v in self.STALL_B])
        z0 = np.array([float.fromhex(v) for v in self.STALL_Z0])
        loc = LocalizationSet(A=A, b=b)
        evaluations = []
        real = mkl.barrier_value
        monkeypatch.setattr(mkl, "barrier_value", lambda l, z: evaluations.append(1) or real(l, z))
        z = analytic_center(loc, z0=z0)
        # the full 200-iteration loop evaluates the barrier about 5,000 times
        assert len(evaluations) <= 500
        monkeypatch.undo()
        assert z.tobytes() == newton_center_full_loop(loc, z0).tobytes()

    def test_empty_interior_detected(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([0.2, -0.3])  # z <= 0.2 and z >= 0.3: empty
        loc = LocalizationSet(A=A, b=b)
        with pytest.raises(MklError):
            analytic_center(loc, z0=np.array([0.25]))


class TestCuts:
    def test_zero_gradient_adds_no_cut(self):
        loc = LocalizationSet.initial_simplex(3)
        loc2, added = add_cut(loc, uniform_reduced(3), np.array([-1.0, -1.0, -1.0]))
        assert not added and loc2.n_rows == loc.n_rows

    def test_cut_keeps_descent_side(self):
        # n=2, center z=0.5, dJ/dz > 0: smaller z keeps J <= J(center)
        loc = LocalizationSet.initial_simplex(2)
        center = np.array([0.5])
        loc2, added = add_cut(loc, center, np.array([-1.0, -3.0]))  # reduced gradient +2
        assert added
        assert loc2.is_interior(np.array([0.3]))
        assert not loc2.is_interior(np.array([0.7]))

    def test_minimizer_satisfies_all_cuts_on_known_quadratic(self):
        # J(d) = (d1 - 0.3)^2 in reduced coordinate; gradient in full coords
        z_star = 0.3
        loc = LocalizationSet.initial_simplex(2)
        z = analytic_center(loc, z0=uniform_reduced(2))
        for _ in range(12):
            grad_reduced = 2.0 * (z[0] - z_star)
            full_grad = np.array([grad_reduced, 0.0])  # reduce() recovers grad_reduced
            loc, added = add_cut(loc, z, full_grad)
            if not added:
                break
            assert loc.is_interior(np.array([z_star])), "minimizer cut away"
            z = analytic_center(loc, z0=np.array([z_star + 0.6 * (z[0] - z_star)]))
        assert z[0] == pytest.approx(z_star, abs=0.02)


class TestPrune:
    CENTER3 = np.array([1 / 3, 1 / 3])

    def _loc_with_cuts(self, n_cuts: int, seed: int = 0):
        # random cut rows with strictly positive slack at the n=3 center
        rng = np.random.default_rng(seed)
        loc = LocalizationSet.initial_simplex(3)
        rows, offs = [loc.A], [loc.b]
        for _ in range(n_cuts):
            a = rng.standard_normal(2)
            a /= np.linalg.norm(a)
            rows.append(a[None, :])
            offs.append(np.array([float(a @ self.CENTER3) + rng.uniform(0.05, 0.4)]))
        return LocalizationSet(A=np.vstack(rows), b=np.concatenate(offs))

    def test_within_budget_is_identity(self):
        loc = self._loc_with_cuts(4)  # 3 faces + 4 cuts = 7 <= 3n = 9
        H = barrier_hessian(loc, self.CENTER3)
        assert prune_cuts(loc, self.CENTER3, H, budget=9) is loc

    def test_retains_top_relevance_cuts(self):
        loc = self._loc_with_cuts(10)
        assert loc.n_rows == 13
        H = barrier_hessian(loc, self.CENTER3)
        pruned = prune_cuts(loc, self.CENTER3, H, budget=9)  # 3 faces + 6 cuts
        assert pruned.n_rows == 9
        # the 3 faces are the first rows, kept
        np.testing.assert_array_equal(pruned.A[:3], loc.A[:3])
        np.testing.assert_array_equal(pruned.b[:3], loc.b[:3])
        # oracle: recompute relevance with an explicit dense inverse
        Hinv = np.linalg.inv(H)
        s = loc.slacks(self.CENTER3)
        rel = np.array([loc.A[j] @ Hinv @ loc.A[j] / s[j] ** 2 for j in range(loc.n_rows)])
        cut_rows = range(3, loc.n_rows)
        expected = sorted(sorted(cut_rows, key=lambda j: -rel[j])[:6])
        kept = [(tuple(r), float(bv)) for r, bv in zip(pruned.A[3:], pruned.b[3:])]
        assert kept == [(tuple(loc.A[j]), float(loc.b[j])) for j in expected]

    def test_duplicate_rows_keep_earliest(self):
        loc = LocalizationSet.initial_simplex(2)
        center = np.array([0.4])
        g = np.array([2.0, 0.0])
        for _ in range(6):
            loc, _ = add_cut(loc, center, g)  # six identical cuts
        H = barrier_hessian(LocalizationSet.initial_simplex(2), center)
        pruned = prune_cuts(loc, center, H, budget=4)
        # 2 faces + first 2 duplicates survive (stable tie ordering)
        np.testing.assert_array_equal(pruned.A, loc.A[:4])
        np.testing.assert_array_equal(pruned.b, loc.b[:4])

    def test_relevance_survives_singular_hessian(self):
        # a cut 1e-10 from the center makes H = sum a a'/s^2 singular in floats
        center = np.array([1 / 3, 1 / 3])
        simplex = LocalizationSet.initial_simplex(3)
        a = np.array([1.0, 1.0]) / np.sqrt(2.0)
        loc = LocalizationSet(A=np.vstack([simplex.A, a, [[1.0, 0.0]]]),
                              b=np.concatenate([simplex.b, [a @ center + 1e-10, 0.9]]))
        H = barrier_hessian(loc, center)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H, loc.A.T)
        rel = cut_relevance(loc, center, H)
        assert np.all(np.isfinite(rel)) and np.all(rel >= 0.0)
        assert int(np.argmax(rel)) == 3  # the near-zero-slack cut
        pruned = prune_cuts(loc, center, H, budget=4)
        np.testing.assert_array_equal(pruned.A, loc.A[:4])  # the 3 faces and the near cut

    def test_relevance_infinite_on_negative_slack(self):
        loc = LocalizationSet.initial_simplex(2)
        center = np.array([0.5])
        H = barrier_hessian(loc, center)
        loc2 = LocalizationSet(A=np.vstack([loc.A, [[1.0]]]),
                               b=np.concatenate([loc.b, [np.nextafter(0.5, 0.0)]]))
        assert loc2.slacks(center)[-1] < 0.0
        assert np.isinf(cut_relevance(loc2, center, H)[-1])

    def test_relevance_infinite_on_zero_slack(self):
        loc = LocalizationSet.initial_simplex(2)
        center = np.array([0.5])
        H = barrier_hessian(loc, center)
        loc2, _ = add_cut(loc, center, np.array([1.0, 0.0]))
        rel = cut_relevance(loc2, center, H)
        assert np.isinf(rel[-1])


class TestSolvers:
    def test_single_kernel_immediate(self):
        p = small_problem()
        single = MklProblem(kernels=[p.kernels[0]], labels=p.labels, C=p.C)
        for solver in (solve_accpm, solve_reduced_gradient):
            sol = solver(single)
            np.testing.assert_array_equal(sol.d, [1.0])
            assert sol.iterations == 1 and sol.gap == 0.0 and sol.svm_solves == 1

    def test_identical_kernels_terminate_immediately(self):
        p = small_problem()
        twin = MklProblem(kernels=[p.kernels[0], p.kernels[0]], labels=p.labels, C=p.C)
        sol = solve_reduced_gradient(twin)
        assert sol.iterations == 1 and sol.gap == pytest.approx(0.0, abs=1e-12)

    def test_informative_kernel_beats_identity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 4))
        w = rng.standard_normal(4)
        y = np.where(X @ w >= 0, 1.0, -1.0)
        informative = gram_matrix(KernelSpec(kind="linear"), X)
        noise = gram_matrix(KernelSpec(kind="identity"), X)
        p = MklProblem(kernels=[informative, noise], labels=y, C=10.0, gap_tol=0.01)
        sol = solve_accpm(p)
        assert sol.d[0] >= 0.9
        # 1-d grid confirms J is minimized near the informative vertex
        J_grid, d_grid = grid_mkl_oracle(p, step=0.05)
        assert d_grid[0] >= 0.9

    @pytest.mark.parametrize("gap_tol", [1e-2, 1e-3, 1e-4])
    def test_vertex_optimum_certified_in_few_solves(self, gap_tol):
        # the instance above: its optimum is the informative vertex, which the
        # analytic centers only approach; one solve at the vertex certifies it
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 4))
        y = np.where(X @ rng.standard_normal(4) >= 0, 1.0, -1.0)
        informative = gram_matrix(KernelSpec(kind="linear"), X)
        noise = gram_matrix(KernelSpec(kind="identity"), X)
        sol = solve_accpm(MklProblem(kernels=[informative, noise], labels=y, C=10.0,
                                     gap_tol=gap_tol))
        assert sol.status == "converged"
        np.testing.assert_array_equal(sol.d, [1.0, 0.0])
        assert sol.gap == 0.0 and sol.svm_solves <= 5

    def test_accpm_matches_grid_oracle(self):
        # only instances whose grid optimum genuinely mixes: at a vertex
        # optimum the gap bound is tight and epsilon = 0.01 cannot certify
        # a 1e-3 objective distance
        checked = 0
        for seed in range(12):
            p = make_bench_problem(seed, n_kernels=2, dim=40, C=10.0, gap_tol=0.01,
                                   quad_weight=2.0)
            J_grid, d_grid = grid_mkl_oracle(p, step=0.01)
            if int(np.sum(d_grid >= 0.05)) < 2:
                continue
            sol = solve_accpm(p)
            assert sol.status == "converged" and sol.gap <= 0.01
            assert abs(sol.objective - J_grid) <= 1e-3
            checked += 1
            if checked == 3:
                break
        assert checked == 3

    def test_solvers_agree_and_accpm_needs_fewer_solves_when_mixing(self):
        p = small_problem(seed=1, n_kernels=3, l=40, C=10.0, gap_tol=0.01)
        a = solve_accpm(p)
        r = solve_reduced_gradient(p)
        assert abs(a.objective - r.objective) <= 2 * p.gap_tol
        assert a.svm_solves < r.svm_solves

    def test_simplex_and_gap_invariants(self):
        for seed in range(4):
            p = small_problem(seed=seed, n_kernels=3, l=30, C=10.0)
            for sol in (solve_accpm(p), solve_reduced_gradient(p)):
                assert abs(float(sol.d.sum()) - 1.0) <= 1e-10
                assert np.all(sol.d >= 0.0)
                assert sol.gap >= -1e-10
                assert all(g >= -1e-10 for g in sol.gap_history)

    @given(seed=st.integers(0, 2**32 - 1), n_kernels=st.integers(1, 4), l=st.integers(6, 30),
           C=st.sampled_from([0.1, 1.0, 10.0, 1000.0]), gap_tol=st.sampled_from([1e-3, 1e-2, 0.5]),
           solver=st.sampled_from([solve_accpm, solve_reduced_gradient]))
    @settings(max_examples=100, deadline=None)
    def test_duality_gap_nonnegative_at_returned_solutions(self, seed, n_kernels, l, C, gap_tol,
                                                            solver):
        p = small_problem(seed=seed, n_kernels=n_kernels, l=l, C=C, gap_tol=gap_tol)
        sol = solver(p)
        q = kernel_quad_forms(p, sol.model.alpha)
        rounding = 1e-14 * max(1.0, float(np.max(np.abs(q))))
        # the explicit gap at the returned weights and alpha, and the gap reported
        assert duality_gap(p, sol.d, sol.model.alpha) >= -rounding
        assert sol.gap >= -rounding

    def test_constraint_budget_and_threshold(self):
        p = small_problem(seed=2, n_kernels=3, l=30, C=10.0, gap_tol=1e-4)
        sol = solve_accpm(p)
        assert np.all((sol.d == 0.0) | (sol.d >= 1e-4))

    def test_deterministic_given_inputs(self):
        p = small_problem(seed=7, n_kernels=3, l=30, C=10.0)
        s1 = solve_accpm(p)
        s2 = solve_accpm(p)
        np.testing.assert_array_equal(s1.d, s2.d)
        assert s1.gap_history == s2.gap_history
        assert s1.svm_solves == s2.svm_solves

    def test_max_iters_flagged(self):
        p = small_problem(seed=0, n_kernels=3, l=40, C=10.0, gap_tol=1e-12)
        p.max_iters = 3
        sol = solve_accpm(p)
        assert sol.status in ("max_iters", "degenerate_localization")

    def test_problem_validation(self):
        p = small_problem()
        with pytest.raises(MklError):
            MklProblem(kernels=[], labels=p.labels, C=1.0)
        with pytest.raises(MklError):
            MklProblem(kernels=p.kernels, labels=p.labels[:-1], C=1.0)
        with pytest.raises(MklError):
            MklProblem(kernels=p.kernels, labels=p.labels, C=-1.0)
        labels = p.labels.copy()
        labels[0] = 3.0
        with pytest.raises(MklError):
            MklProblem(kernels=p.kernels, labels=labels, C=1.0)


STATUSES = {solve_accpm: {"converged", "flat_gradient", "max_iters", "degenerate_localization"},
            solve_reduced_gradient: {"converged", "stalled", "max_iters"}}


class TestIterationLoop:
    """Both solvers run through one loop, which owns the cap, the gap
    history, the best point and the status."""

    @given(seed=st.integers(0, 2**16), n_kernels=st.integers(2, 4), l=st.integers(10, 30),
           C=st.sampled_from([1.0, 10.0, 100.0]), gap_tol=st.sampled_from([1e-4, 1e-2, 0.5]),
           max_iters=st.sampled_from([1, 2, 3, 200]),
           solver=st.sampled_from([solve_accpm, solve_reduced_gradient]))
    @settings(max_examples=60, deadline=None)
    def test_iterations_status_and_gap(self, seed, n_kernels, l, C, gap_tol, max_iters, solver):
        p = small_problem(seed=seed, n_kernels=n_kernels, l=l, C=C, gap_tol=gap_tol)
        p.max_iters = max_iters
        sol = solver(p)
        assert sol.status in STATUSES[solver]
        assert sol.iterations == len(sol.gap_history) <= max_iters
        converged = sol.gap_history[-1] <= gap_tol
        assert (sol.status == "converged") == converged
        if converged:
            assert sol.gap <= gap_tol
        if sol.status == "max_iters":
            assert sol.iterations == max_iters

    @pytest.mark.parametrize("solver", [solve_accpm, solve_reduced_gradient])
    def test_zero_max_iters_raises(self, solver):
        p = small_problem(n_kernels=3)
        p.max_iters = 0
        with pytest.raises(MklError):
            solver(p)

    def test_reduced_gradient_stops_at_its_last_checked_point(self, monkeypatch):
        p = make_bench_problem(1, 3, 30, C=10.0, gap_tol=1e-12)
        p.max_iters = 2
        solves, solves_at_check = [0], []
        real_evaluate, real_points = mkl._evaluate, mkl._reduced_gradient_points

        def evaluate(*args):
            solves[0] += 1
            return real_evaluate(*args)

        def points(problem, state):
            # `_solve` checks every point the rule yields
            steps = real_points(problem, state)
            while True:
                try:
                    point = next(steps)
                except StopIteration as stop:
                    return stop.value
                solves_at_check.append(solves[0])
                yield point

        monkeypatch.setattr(mkl, "_evaluate", evaluate)
        monkeypatch.setattr(mkl, "_reduced_gradient_points", points)
        sol = solve_reduced_gradient(p)
        assert sol.status == "max_iters" and len(solves_at_check) == 2
        assert sol.svm_solves == solves[0]
        # no line search after the last checked point: at most _finish's re-solve
        assert solves[0] - solves_at_check[-1] <= 1


class TestSimplexGridHelper:
    def test_grid_covers_vertices_and_sums_to_one(self):
        pts = list(simplex_grid(3, 0.5))
        arr = np.array(pts)
        assert np.allclose(arr.sum(axis=1), 1.0)
        assert any(np.allclose(p, [1, 0, 0]) for p in pts)
        assert len(pts) == 6  # C(2+2,2)
