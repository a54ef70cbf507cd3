"""SMO inner loop: maximal-violating-pair coordinate ascent on the SVM dual.

This is the hot kernel of the whole package (one SVM solve per MKL
iteration, hundreds of solves per backtest window sweep). Pair selection
is vectorized with numpy; ``solve`` mutates ``alpha`` and ``grad`` in
place and returns ``(n_iter, final_violation, converged)``.

Convention: we minimize f(a) = 1/2 a'Qa - e'a with Q = diag(y) K diag(y),
subject to y'a = 0 and 0 <= a <= C; grad = Qa - e.
"""

from __future__ import annotations

import numpy as np

_TAU = 1e-12
_INF = np.inf


def solve(Q, y, alpha, grad, C, tol, max_iter):
    """Run SMO in place to KKT violation `tol` or `max_iter` iterations."""
    pos = y > 0
    violation = _INF
    for it in range(max_iter):
        u = -y * grad
        up = np.where(pos, alpha < C, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < C)
        ui = np.where(up, u, -_INF)
        uj = np.where(low, u, _INF)
        i = int(np.argmax(ui))
        j = int(np.argmin(uj))
        m = ui[i]
        M = uj[j]
        violation = m - M
        if violation <= tol:
            return it, violation, True

        ai, aj = alpha[i], alpha[j]
        if y[i] != y[j]:
            quad = Q[i, i] + Q[j, j] + 2.0 * Q[i, j]
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
            quad = Q[i, i] + Q[j, j] - 2.0 * Q[i, j]
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
        grad += Q[:, i] * di + Q[:, j] * dj
    return max_iter, violation, False


def active_engine() -> str:
    """Name of the SMO implementation; always "numpy".

    Kept because the benchmark harness records it in each run's environment.
    """
    return "numpy"
