"""Independent oracles and instance generators shared by the test suite.

Everything here recomputes results by a different route than the library
code under test: brute-force projected gradient for the SVM dual,
exhaustive simplex grids for MKL, finite differences for gradients,
single-pair kernel values and an eigenvalue check for kernel blocks, and
naive double loops for tf-idf and the performance measures.
"""

from __future__ import annotations

import bisect
import calendar
import math
from dataclasses import dataclass, replace
from datetime import time, timedelta
from typing import NamedTuple

import numpy as np

from newsmkl.kernels import GramMatrix, Kernel, KernelError, KernelSpec, _kernel_block
from newsmkl.market import DROP_REASONS, calendar_features
from newsmkl.mkl import (BACKTRACK_ALPHA, BACKTRACK_BETA, NEWTON_TOL, LocalizationSet, MklProblem,
                         MklState, barrier_value, mkl_objective)
from newsmkl.svm import solve_dual
from newsmkl.text import bag_of_words, tokenize

# ---------------------------------------------------------------------------
# SVM dual: spectral projected gradient on the box/hyperplane feasible set
# ---------------------------------------------------------------------------


def project_box_hyperplane(v: np.ndarray, y: np.ndarray, C: float, n_bisect: int = 64) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= C, y'a = 0} by bisection on the
    hyperplane multiplier (the residual is monotone in it)."""
    lo = -(float(np.max(np.abs(v))) + C + 1.0)
    hi = -lo
    for _ in range(n_bisect):
        lam = 0.5 * (lo + hi)
        if float(np.clip(v - lam * y, 0.0, C) @ y) > 0.0:
            lo = lam
        else:
            hi = lam
    return np.clip(v - 0.5 * (lo + hi) * y, 0.0, C)


def qp_projected_gradient(K: np.ndarray, y: np.ndarray, C: float,
                          max_iter: int = 30000, tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """Maximize e'a - 1/2 a'Qa over the feasible set by projected gradient
    (Barzilai-Borwein steps, nonmonotone backtracking). Returns (a, objective)."""
    Q = (y[:, None] * y[None, :]) * K
    L = max(float(np.linalg.norm(Q, 2)), 1e-12)
    a = project_box_hyperplane(np.full(y.shape[0], min(C, 1.0) / 2.0), y, C)
    g = Q @ a - 1.0

    def fval(x):
        return 0.5 * float(x @ (Q @ x)) - float(x.sum())

    step = 1.0 / L
    recent = [fval(a)]
    for _ in range(max_iter):
        cand = project_box_hyperplane(a - step * g, y, C)
        d = cand - a
        if float(np.linalg.norm(d)) <= tol * max(1.0, float(np.linalg.norm(a))):
            break
        gd = float(g @ d)
        fref = max(recent[-10:])
        t = 1.0
        while t > 1e-13:
            if fval(a + t * d) <= fref + 1e-4 * t * gd:
                break
            t *= 0.5
        a_new = a + t * d
        g_new = Q @ a_new - 1.0
        s = a_new - a
        dg = g_new - g
        sy = float(s @ dg)
        step = min(max(float(s @ s) / sy if sy > 1e-300 else 1.0 / L, 1e-10), 1e10)
        a, g = a_new, g_new
        recent.append(fval(a))
    return a, float(a.sum()) - 0.5 * float(a @ (Q @ a))


def smo_reference(row, diag, y, alpha, grad, C, tol, max_iter):
    """First-order SMO as `_smo.solve` computes it, step by step: the
    scores u = -y * grad and their masked copies are rebuilt from grad on
    every iteration, grad takes its own update, and the scalar work is
    done on numpy scalars. Same arguments, in-place contract and return."""
    pos = y > 0
    neg_y = -y
    # index sets of the pair selection; an iteration changes only entries i, j
    up = np.where(pos, alpha < C, alpha > 0)
    low = np.where(pos, alpha > 0, alpha < C)
    violation = np.inf
    for it in range(max_iter):
        u = neg_y * grad
        ui = np.where(up, u, -np.inf)
        uj = np.where(low, u, np.inf)
        i = int(np.argmax(ui))
        j = int(np.argmin(uj))
        m = ui[i]
        M = uj[j]
        violation = m - M
        if violation <= tol:
            return it, violation, True

        Ki, Kj = row(i), row(j)
        yi, yj = y[i], y[j]
        Qij = yi * yj * Ki[j]
        ai, aj = alpha[i], alpha[j]
        if yi != yj:
            quad = diag[i] + diag[j] + 2.0 * Qij
            if quad <= 0.0:
                quad = 1e-12
            delta = (-grad[i] - grad[j]) / quad
            diff = ai - aj
            ai += delta
            aj += delta
            if diff > 0.0:
                if aj < 0.0:
                    aj = 0.0
                    ai = diff
                if ai > C:
                    ai = C
                    aj = C - diff
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = -diff
                if aj > C:
                    aj = C
                    ai = C + diff
        else:
            quad = diag[i] + diag[j] - 2.0 * Qij
            if quad <= 0.0:
                quad = 1e-12
            delta = (grad[i] - grad[j]) / quad
            s = ai + aj
            ai -= delta
            aj += delta
            if s > C:
                if ai > C:
                    ai = C
                    aj = s - C
                if aj > C:
                    aj = C
                    ai = s - C
            else:
                if aj < 0.0:
                    aj = 0.0
                    ai = s
                if ai < 0.0:
                    ai = 0.0
                    aj = s

        di = ai - alpha[i]
        dj = aj - alpha[j]
        alpha[i] = ai
        alpha[j] = aj
        up[i], low[i] = (ai < C, ai > 0) if pos[i] else (ai > 0, ai < C)
        up[j], low[j] = (aj < C, aj > 0) if pos[j] else (aj > 0, aj < C)
        # Q[:, i] = y * y_i * K[i] since K is symmetric
        grad += y * (Ki * (yi * di) + Kj * (yj * dj))
    return max_iter, violation, False


# ---------------------------------------------------------------------------
# MKL: exhaustive simplex grid
# ---------------------------------------------------------------------------


def simplex_grid(n: int, step: float):
    """All weight vectors on the unit simplex with the given grid step."""
    k = int(round(1.0 / step))

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + [remaining]
            return
        for i in range(remaining + 1):
            yield from rec(prefix + [i], remaining - i, slots - 1)

    for combo in rec([], k, n):
        d = np.array(combo, dtype=np.float64) * step
        yield d / d.sum()


def grid_mkl_oracle(problem: MklProblem, step: float = 0.01) -> tuple[float, np.ndarray]:
    """Exhaustive mix-then-solve search over the simplex grid."""
    state = MklState()
    best_J, best_d = np.inf, None
    for d in simplex_grid(problem.n_kernels, step):
        J, _ = mkl_objective(problem, d, state)
        if J < best_J:
            best_J, best_d = J, d
    return best_J, best_d


def central_difference_directional(problem: MklProblem, d: np.ndarray, v: np.ndarray,
                                   h: float = 1e-5) -> float:
    """[J(d + h v) - J(d - h v)] / 2h with independent cold inner solves."""
    J_plus, _ = mkl_objective(problem, d + h * v)
    J_minus, _ = mkl_objective(problem, d - h * v)
    return (J_plus - J_minus) / (2.0 * h)


def barrier_grid_center(A: np.ndarray, b: np.ndarray, lo, hi, n_grid: int = 400) -> np.ndarray:
    """Brute-force 2-d grid minimizer of -sum log(b - Az) over [lo,hi]^2."""
    xs = np.linspace(lo, hi, n_grid)
    best, best_z = np.inf, None
    for x in xs:
        for yv in xs:
            z = np.array([x, yv])
            s = b - A @ z
            if np.all(s > 0):
                f = -float(np.sum(np.log(s)))
                if f < best:
                    best, best_z = f, z
    return best_z


def newton_center_full_loop(loc: LocalizationSet, z0: np.ndarray, newton_tol: float = NEWTON_TOL,
                            max_newton: int = 200) -> np.ndarray:
    """analytic_center's damped Newton loop without its fixed-point exit:
    every one of the max_newton iterations runs unless the decrement
    criterion or a failed line search stops it."""
    z = np.asarray(z0, dtype=np.float64).copy()
    fz = barrier_value(loc, z)
    for _ in range(max_newton):
        inv_s = 1.0 / loc.slacks(z)
        g = loc.A.T @ inv_s
        W = loc.A * inv_s[:, None]
        H = W.T @ W
        try:
            p = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            p = np.linalg.lstsq(H, -g, rcond=None)[0]
        if np.sqrt(abs(float(-g @ p))) <= newton_tol:
            return z
        t = 1.0
        gTp = float(g @ p)
        while t > 1e-16:
            if barrier_value(loc, z + t * p) <= fz + BACKTRACK_ALPHA * t * gTp:
                break
            t *= BACKTRACK_BETA
        else:
            return z
        z = z + t * p
        fz = barrier_value(loc, z)
    return z


# ---------------------------------------------------------------------------
# Kernels: single-pair values, Mercer's condition by eigenvalues, an index-array median
# ---------------------------------------------------------------------------


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """k(x, y) for one pair of feature vectors, from the formula.

    The identity kind is defined only on indexed training samples and
    rejects raw vectors.
    """
    if spec.kind == "identity":
        raise KernelError("identity kernel is index-based; it has no value on raw vectors")
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise KernelError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    if spec.kind == "linear":
        return float(x @ y)
    if spec.kind == "gaussian":
        d = x - y
        return float(np.exp(-(d @ d) / spec.sigma))
    return float((x @ y + 1.0) ** int(spec.degree))  # polynomial


PSD_TOL = 1e-8


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    max_eigenvalue: float
    tol: float
    passed: bool


def validate_psd(G: GramMatrix | np.ndarray, tol: float = PSD_TOL) -> PsdReport:
    """Check Mercer's condition: smallest eigenvalue >= -tol * largest.

    Raises on non-square or asymmetric input; returns an eigenvalue report
    otherwise.
    """
    v = G.values if isinstance(G, GramMatrix) else np.asarray(G, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise KernelError("PSD validation needs a square matrix")
    sym_err = float(np.max(np.abs(v - v.T))) if v.size else 0.0
    vmax = float(np.max(np.abs(v))) if v.size else 0.0
    if sym_err > 1e-10 * max(1.0, vmax):
        raise KernelError(f"matrix is not symmetric (max asymmetry {sym_err:.3e})")
    eig = np.linalg.eigvalsh(0.5 * (v + v.T))
    lo, hi = float(eig[0]), float(eig[-1])
    passed = lo >= -tol * max(hi, 0.0) if hi > 0.0 else lo >= -tol
    return PsdReport(min_eigenvalue=lo, max_eigenvalue=hi, tol=tol, passed=passed)


def triu_median_sqdist(d2: np.ndarray) -> float:
    """Median of a squared-distance matrix's strict upper triangle, gathered
    by index arrays; 1.0 when there is no pair or the median is 0."""
    iu = np.triu_indices(d2.shape[0], k=1)
    if iu[0].size == 0:
        return 1.0
    med = float(np.median(d2[iu]))
    return med if med > 0.0 else 1.0


# ---------------------------------------------------------------------------
# Naive recomputations (tf-idf, performance measures, percentile)
# ---------------------------------------------------------------------------


def naive_tfidf(counts: np.ndarray, doc_lengths: np.ndarray) -> np.ndarray:
    """Double-loop tf-idf: TF = count/len, IDF = ln(N/DF), DF=0 -> IDF=0."""
    n_docs, n_terms = counts.shape
    df = [sum(1 for j in range(n_docs) if counts[j][i] > 0) for i in range(n_terms)]
    out = np.zeros((n_docs, n_terms))
    for j in range(n_docs):
        for i in range(n_terms):
            idf = math.log(n_docs / df[i]) if df[i] > 0 else 0.0
            out[j, i] = (counts[j][i] / doc_lengths[j]) * idf
    return out


def naive_accuracy_recall(preds, labels) -> tuple[float, float | None]:
    tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
    tn = sum(1 for p, y in zip(preds, labels) if p == -1 and y == -1)
    fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == -1)
    fn = sum(1 for p, y in zip(preds, labels) if p == -1 and y == 1)
    acc = (tp + tn) / (tp + tn + fp + fn)
    rec = tp / (tp + fn) if (tp + fn) > 0 else None
    return acc, rec


def naive_sharpe(returns, periods: int = 252) -> float | None:
    n = len(returns)
    mean = sum(returns) / n
    var = sum((r - mean) ** 2 for r in returns) / (n - 1)
    if var == 0.0:
        return None
    return math.sqrt(periods) * mean / math.sqrt(var)


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


class SvmProblem(NamedTuple):
    """Labels (+/-1) paired with the Gram matrix over the same samples."""

    labels: np.ndarray
    gram: GramMatrix


def make_svm_problem(seed: int, l: int = 20, C: float | None = None,
                     label_noise: float = 0.5) -> tuple[SvmProblem, float]:
    """Random labeled problem with a kernel kind cycling by seed."""
    rng = np.random.default_rng(1000 + seed)
    X = rng.standard_normal((l, 5))
    w = rng.standard_normal(5)
    y = np.where(X @ w + label_noise * rng.standard_normal(l) >= 0, 1.0, -1.0)
    if abs(float(y.sum())) == l:
        y[0] = -y[0]
    kind = ("linear", "gaussian", "polynomial")[seed % 3]
    spec = KernelSpec(kind=kind, sigma=10.0 if kind == "gaussian" else None,
                      degree=2 if kind == "polynomial" else None)
    if C is None:
        C = 1.0 if seed % 2 == 0 else 1000.0
    return SvmProblem(labels=y, gram=raw_gram(spec, X)), C


def raw_gram(spec: KernelSpec, X) -> GramMatrix:
    """The kernel's values on the rows of X as they are, without
    `gram_matrix`'s trace normalization, for problems whose scale a test
    fixes (an analytic solution, a loose SMO tolerance)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    return GramMatrix(values=_kernel_block(spec, X, X))


def as_bytes(a) -> bytes:
    """The float64 bytes of an array, a list of floats or a float, for byte-for-byte comparisons."""
    return np.asarray(a, dtype=np.float64).tobytes()


def densify(kernel: Kernel) -> GramMatrix:
    """The same Gram stored dense: every row of `kernel`, generated in full."""
    return GramMatrix(values=kernel.rows(np.arange(kernel.size)), scale=kernel.scale)


def densify_plan(kernels):
    """A `backtest.PlanKernels` with every Gram densified (and no cross block built yet)."""
    return replace(kernels, grams=[densify(g) for g in kernels.grams])


def solve_tight(ts: SvmProblem, C: float):
    return solve_dual(ts.gram, ts.labels, C, tol=1e-10)


# ---------------------------------------------------------------------------
# Event extraction: every check per document and horizon, in the documented order
# ---------------------------------------------------------------------------


def _naive_return(series, start: int, end: int) -> float:
    """[P(end) - P(start)] / P(start), P the last price at or before an epoch second."""
    p0 = series.prices[bisect.bisect_right(series.times, start) - 1]
    return float((series.prices[bisect.bisect_right(series.times, end) - 1] - p0) / p0)


def naive_feature_records(docs, prices, dictionary, config) -> tuple[list[dict], dict[str, int]]:
    """One horizon's kept events, as plain dicts, and its drop tally.

    Returns are recomputed here, event by event, from previous-tick prices
    found by bisection: r_k = [P(t-5k) - P(t-5k-15)] / P(t-5k-15) for
    k = 0..4 (minutes), and the horizon return [P(t+h) - P(t)] / P(t).
    """
    kept, dropped = [], dict.fromkeys(DROP_REASONS, 0)
    for position, doc in enumerate(docs):
        t = doc.timestamp
        et = calendar.timegm(t.utctimetuple())
        clock = t.timetz().replace(tzinfo=None)
        end = t + timedelta(minutes=config.horizon_minutes)
        series = prices.get(doc.ticker)
        reason = None
        if series is None:
            reason = "unknown_ticker"
        elif t.weekday() >= 5:
            reason = "weekend"
        elif not time(9, 30) <= clock <= time(16, 0):
            reason = "outside_trading_day"
        elif clock < time(10, 10):
            reason = "before_min_event_time"
        elif end.date() != t.date() or end.timetz().replace(tzinfo=None) > time(16, 0):
            reason = "horizon_overflow"
        elif series.times[0] > et - 35 * 60:
            reason = "insufficient_history"
        else:
            rets = [_naive_return(series, et - 300 * k - 900, et - 300 * k) for k in range(5)]
            if config.label_kind == "abnormal":
                rets = [abs(v) for v in rets]
            r = _naive_return(series, et, et + 60 * config.horizon_minutes)
        if reason is not None:
            dropped[reason] += 1
            continue
        tod, dow = calendar_features(t)
        tokens = tokenize(doc.text)
        kept.append({"doc_id": doc.id, "ticker": doc.ticker, "timestamp": t, "position": position,
                     "text_counts": bag_of_words(tokens, dictionary).tolist(),
                     "token_count": len(tokens), "return_features": rets,
                     "time_of_day": tod.tolist(), "day_of_week": dow.tolist(),
                     "signed_return": r})
    return kept, dropped
