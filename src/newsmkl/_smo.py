"""SMO inner loop: maximal-violating-pair coordinate ascent on the SVM dual.

This is the hot kernel of the whole package (one SVM solve per MKL
iteration, hundreds of solves per backtest window sweep). Pair selection
is vectorized with numpy; ``solve`` mutates ``alpha`` and ``grad`` in
place and returns ``(n_iter, final_violation, converged)``.

Convention: we minimize f(a) = 1/2 a'Qa - e'a with Q = diag(y) K diag(y),
subject to y'a = 0 and 0 <= a <= C; grad = Qa - e.

Q is never built: the caller passes a row function, `row(i)` -> K[i, :],
and K's diagonal. Each iteration reads the two rows of its working pair,
so a caller can compute rows on demand (MKL mixes only the rows of
sum_k d_k K_k that SMO asks for).
"""

from __future__ import annotations

import numpy as np

_TAU = 1e-12
_INF = np.inf


def solve(row, diag, y, alpha, grad, C, tol, max_iter):
    """Run SMO in place to KKT violation `tol` or `max_iter` iterations.

    `row(i)` returns row i of the symmetric kernel matrix K and `diag` is
    its diagonal; Q[i, j] = y_i y_j K[i, j] is formed on the fly.
    """
    pos = y > 0
    neg_y = -y
    # index sets of the pair selection; an iteration changes only entries i, j
    up = np.where(pos, alpha < C, alpha > 0)
    low = np.where(pos, alpha > 0, alpha < C)
    violation = _INF
    for it in range(max_iter):
        u = neg_y * grad
        ui = np.where(up, u, -_INF)
        uj = np.where(low, u, _INF)
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
                quad = _TAU
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
                quad = _TAU
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


def active_engine() -> str:
    """Name of the SMO implementation; always "numpy".

    Kept because the benchmark harness records it in each run's environment.
    """
    return "numpy"
