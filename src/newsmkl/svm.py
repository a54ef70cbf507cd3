"""SVM dual solver (sequential minimal optimization) and classifiers.

Solves  max_a  e'a - 1/2 a' diag(y) K diag(y) a
        s.t.   y'a = 0,  0 <= a <= C

on a precomputed Gram matrix, recovers the bias from the KKT conditions,
and evaluates the resulting decision function on kernel products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _smo
from .kernels import Kernel

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 10_000_000
BOUND_RTOL = 1e-12  # recover_bias: |alpha_i - bound| <= BOUND_RTOL * C is at the bound


class SvmError(ValueError):
    """Unsolvable or malformed SVM problem."""


def as_labels(labels, size: int, error: type[ValueError] = SvmError) -> np.ndarray:
    """`size` labels as a float vector; raises `error` unless each is -1 or +1."""
    y = np.asarray(labels, dtype=np.float64).ravel()
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise error("labels must be -1 or +1")
    if y.shape[0] != size:
        raise error(f"label count {y.shape[0]} does not match kernel size {size}")
    return y


@dataclass(frozen=True)
class SvmModel:
    """Solved dual: weights, bias, and solve diagnostics."""

    alpha: np.ndarray
    bias: float
    C: float
    support_indices: np.ndarray
    objective: float
    n_iter: int
    kkt_violation: float
    converged: bool = True

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)


def project_feasible(alpha0, y: np.ndarray, C: float, tol: float = 1e-12) -> np.ndarray:
    """Project a warm-start vector onto {0 <= a <= C, y'a = 0}.

    Clips to the box, then spreads the equality residual over coordinates
    that still have room (alternating projections; exact enough in a few
    passes for warm starts that are already near-feasible).
    """
    a = np.clip(np.asarray(alpha0, dtype=np.float64).ravel(), 0.0, C)
    for _ in range(100):
        r = float(a @ y)
        if abs(r) <= tol:
            break
        # moving a_i by -r*y_i reduces the residual; room depends on direction
        room = np.where(y * r > 0, a, C - a)
        movable = room > 0
        total = float(room[movable].sum())
        if total <= 0.0:
            break
        shift = min(abs(r), total) * room / max(total, 1e-300)
        a = a - np.sign(r) * y * shift * movable
        a = np.clip(a, 0.0, C)
    return a


def check_positive_finite(name: str, value: float, error: type[ValueError] = SvmError) -> None:
    """Raise `error` unless 0 < value < inf (NaN fails too)."""
    if not 0.0 < value < np.inf:
        raise error(f"{name} must be positive and finite, got {value}")


def check_dual(y: np.ndarray, C: float, tol: float) -> None:
    """Raise SvmError unless C and tol are positive and finite, or for single-class labels."""
    check_positive_finite("C", C)
    check_positive_finite("tol", tol)
    if np.all(y > 0) or np.all(y < 0):
        raise SvmError("training set has a single class; no separating problem to solve")


def solve_dual(
    gram: Kernel,
    labels,
    C: float,
    tol: float = DEFAULT_TOL,
    warm_start: np.ndarray | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SvmModel:
    """Solve the dual QP on `gram` with +/-1 `labels` to KKT tolerance `tol` by SMO.

    `warm_start` (a previous alpha) is projected onto the feasible set before the
    solve. SvmError for bad or single-class labels, or a C or tol not positive and finite.
    """
    y = as_labels(labels, gram.size)
    check_dual(y, C, tol)

    if warm_start is not None:
        alpha = project_feasible(warm_start, y, C)
        grad = y * gram.dot(y * alpha) - 1.0
    else:
        alpha = np.zeros(y.shape[0])
        grad = -np.ones(y.shape[0])

    result = _smo.solve(gram.rows, gram.diagonal(), y, alpha, grad, C, tol, max_iter)
    bias = recover_bias(alpha, y, gram.dot(y * alpha), C)
    return build_model(alpha, dual_objective(alpha, grad), bias, C, result)


def dual_objective(alpha: np.ndarray, grad: np.ndarray) -> float:
    """e'a - 1/2 a'Qa from SMO's gradient grad = Q a - e."""
    return 0.5 * (float(alpha.sum()) - float(alpha @ grad))


def build_model(alpha: np.ndarray, objective: float, bias: float, C: float,
                smo_result: tuple[int, float, bool]) -> SvmModel:
    """SvmModel from a finished SMO run, its dual objective and its bias."""
    n_iter, violation, converged = smo_result
    return SvmModel(
        alpha=alpha,
        bias=bias,
        C=C,
        support_indices=np.flatnonzero(alpha > 0.0),
        objective=objective,
        n_iter=n_iter,
        kkt_violation=float(violation),
        converged=converged,
    )


def recover_bias(alpha: np.ndarray, y: np.ndarray, k_alpha: np.ndarray, C: float) -> float:
    """Bias from the KKT conditions, given k_alpha = K (y * alpha).

    Average of y_i - sum_j y_j a_j K_ij over free support vectors
    (0 < a_i < C); with every vector at a bound, the midpoint of the
    interval the bound constraints leave for b. An entry within
    BOUND_RTOL * C of 0 or C counts as at that bound.
    """
    u = y - k_alpha
    at_lo = alpha <= BOUND_RTOL * C
    at_up = alpha >= C - BOUND_RTOL * C
    free = ~(at_lo | at_up)
    if np.any(free):
        return float(u[free].mean())
    lower = (at_lo & (y > 0)) | (at_up & (y < 0))
    upper = (at_lo & (y < 0)) | (at_up & (y > 0))
    has_lo, has_up = np.any(lower), np.any(upper)
    if has_lo and has_up:
        return float(0.5 * (u[lower].max() + u[upper].min()))
    if has_lo:
        return float(u[lower].max())
    if has_up:
        return float(u[upper].min())
    return 0.0


def primal_dual_gap(alpha: np.ndarray, y: np.ndarray, grad: np.ndarray, C: float) -> float:
    """The SVM's duality gap min_b P(w, b) - D(alpha) from SMO's gradient grad = Q a - e.

    With w = sum_i a_i y_i x_i and margins u = -y * grad (u_i = y_i - w'x_i),
    y_i f(x_i) = 1 + y_i (b - u_i), so P(w, b) - D(alpha) =
    a'grad + C sum_i max(0, y_i (u_i - b)). By weak duality that bounds
    max_a D - D(alpha) for every b; the sum is convex and piecewise linear
    in b, so its minimum lies at the u_j where its slope,
    #{y_j < 0, u_j <= b} - #{y_j > 0, u_j > b}, first turns >= 0. One sort.
    """
    u = -y * grad
    order = np.argsort(u, kind="stable")
    pos = y[order] > 0
    slope = np.cumsum(~pos) - (np.count_nonzero(pos) - np.cumsum(pos))
    b = u[order[int(np.argmax(slope >= 0))]]
    return float(alpha @ grad) + C * float(np.maximum(0.0, y * (u - b)).sum())


def predict_many(model: SvmModel, k_alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and decision values of points given k_alpha, each point's
    kernel products sum_i y_i a_i k(x_i, x): d = k_alpha + b, and d >= 0
    (exactly 0 too) gives +1."""
    d = np.asarray(k_alpha, dtype=np.float64) + model.bias
    return np.where(d >= 0.0, 1, -1), d


# ---------------------------------------------------------------------------
# Model serialization (documented JSON layout, see README)
# ---------------------------------------------------------------------------

MODEL_FORMAT = "newsmkl-model-v1"


def model_to_dict(model: SvmModel, kernels: list[dict], mkl_weights, mkl: dict) -> dict:
    """model.json's layout: the SVM, its kernels, their learned weights and how the MKL solve ended."""
    return {
        "format": MODEL_FORMAT,
        "alpha": [float(a) for a in model.alpha],
        "bias": model.bias,
        "C": model.C,
        "support_indices": [int(i) for i in model.support_indices],
        "objective": model.objective,
        "n_iter": model.n_iter,
        "kkt_violation": model.kkt_violation,
        "converged": model.converged,
        "label_convention": "label = sign(decision); decision of exactly 0 -> +1",
        "kernels": kernels,
        "mkl_weights": [float(w) for w in mkl_weights],
        "mkl": mkl,
    }


def save_model(path, model: SvmModel, kernels: list[dict], mkl_weights, mkl: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, kernels, mkl_weights, mkl), fh, indent=2)
        fh.write("\n")
