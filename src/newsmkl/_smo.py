"""SMO inner loop: maximal-violating-pair coordinate ascent on the SVM dual.

This is the hot kernel of the whole package (one SVM solve per MKL
iteration, hundreds of solves per backtest window sweep). ``solve``
mutates ``alpha`` and ``grad`` in place and returns
``(n_iter, final_violation, converged)``.

Convention: we minimize f(a) = 1/2 a'Qa - e'a with Q = diag(y) K diag(y),
subject to y'a = 0 and 0 <= a <= C; grad = Qa - e.

Q is never built: the caller passes a row function, `row(i)` -> K[i, :],
and K's diagonal. Each iteration reads the two rows of its working pair,
so a caller can compute rows on demand (MKL mixes only the rows of
sum_k d_k K_k that SMO asks for).

Pair selection reads the scores u = -y * grad through two masked arrays
kept across iterations: `ui` holds u on the up set (else -inf) and `uj`
on the low set (else +inf). Since y is +/-1, the gradient update
grad += y * t is exactly u -= t (negation commutes with rounding), so an
iteration subtracts t from both arrays in place (+/-inf entries stay put)
and re-masks only entries i and j, the only ones whose set can change.
grad is written back from u once, on return, with the same values it
would have had from its own updates.
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
    u = -y * grad
    ui = np.where(np.where(pos, alpha < C, alpha > 0), u, -_INF)
    uj = np.where(np.where(pos, alpha > 0, alpha < C), u, _INF)
    t, tj = np.empty_like(u), np.empty_like(u)
    ys, dg = y.tolist(), diag.tolist()
    n_iter, violation, converged = max_iter, _INF, False
    for it in range(max_iter):
        i = int(ui.argmax())
        j = int(uj.argmin())
        violation = ui.item(i) - uj.item(j)
        if violation <= tol:
            n_iter, converged = it, True
            break

        Ki, Kj = row(i), row(j)
        yi, yj = ys[i], ys[j]
        Qij = yi * yj * Ki.item(j)
        ai, aj = alpha.item(i), alpha.item(j)
        if yi != yj:
            quad = dg[i] + dg[j] + 2.0 * Qij
            if quad <= 0.0:
                quad = _TAU
            delta = yi * violation / quad  # -grad_i - grad_j, as y_j = -y_i
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
            quad = dg[i] + dg[j] - 2.0 * Qij
            if quad <= 0.0:
                quad = _TAU
            delta = -yi * violation / quad  # grad_i - grad_j, as y_j = y_i
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

        # t = y * (grad change): Q[:, i] = y * y_i * K[i] since K is symmetric
        np.multiply(Ki, yi * (ai - alpha.item(i)), out=t)
        np.multiply(Kj, yj * (aj - alpha.item(j)), out=tj)
        t += tj
        ui -= t
        uj -= t
        # i was in the up set and j in the low set, so those arrays hold their new u
        for k, a, u_k in ((i, ai, ui.item(i)), (j, aj, uj.item(j))):
            alpha[k] = a
            up, low = (a < C, a > 0) if ys[k] > 0 else (a > 0, a < C)
            ui[k] = u_k if up else -_INF
            uj[k] = u_k if low else _INF
    # every index is in the up or the low set when C > 0
    np.multiply(-y, np.where(np.where(pos, alpha < C, alpha > 0), ui, uj), out=grad)
    return n_iter, violation, converged


def active_engine() -> str:
    """Name of the SMO implementation; always "numpy".

    Kept because the benchmark harness records it in each run's environment.
    """
    return "numpy"
