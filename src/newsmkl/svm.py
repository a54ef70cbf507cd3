"""SVM dual solver (sequential minimal optimization) and classifiers.

Solves  max_a  e'a - 1/2 a' diag(y) K diag(y) a
        s.t.   y'a = 0,  0 <= a <= C

on a precomputed Gram matrix, recovers the bias from the KKT conditions,
and evaluates the resulting decision function on kernel rows.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import _smo
from .kernels import GramMatrix

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 10_000_000


class SvmError(ValueError):
    """Unsolvable or malformed SVM problem."""


@dataclass
class TrainingSet:
    """Labels (+/-1) paired with the Gram matrix over the same samples."""

    labels: np.ndarray
    gram: GramMatrix

    def __post_init__(self):
        y = np.asarray(self.labels, dtype=np.float64).ravel()
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise SvmError("labels must be -1 or +1")
        if y.shape[0] != self.gram.size:
            raise SvmError("label count does not match Gram size")
        self.labels = y

    @property
    def size(self) -> int:
        return self.labels.shape[0]


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


def solve_dual(
    ts: TrainingSet,
    C: float,
    tol: float = DEFAULT_TOL,
    warm_start: np.ndarray | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SvmModel:
    """Solve the dual QP to KKT tolerance `tol` by SMO.

    `warm_start` (a previous alpha) is projected onto the feasible set
    before the solve. Raises SvmError for single-class input or C <= 0.
    """
    if C <= 0.0:
        raise SvmError("C must be positive (C = 0 collapses the box to alpha = 0)")
    if tol <= 0.0:
        raise SvmError("tol must be positive")
    y = ts.labels
    if np.all(y > 0) or np.all(y < 0):
        raise SvmError("training set has a single class; no separating problem to solve")

    K = ts.gram.values
    Q = np.ascontiguousarray((y[:, None] * y[None, :]) * K)

    if warm_start is not None:
        alpha = project_feasible(warm_start, y, C)
        grad = Q @ alpha - 1.0
    else:
        alpha = np.zeros(ts.size)
        grad = -np.ones(ts.size)

    n_iter, violation, converged = _smo.solve(Q, y, alpha, grad, C, tol, max_iter)
    if not converged:
        log.warning("SMO hit max_iter=%d with KKT violation %.3e > tol %.3e", max_iter, violation, tol)

    objective = 0.5 * (float(alpha.sum()) - float(alpha @ grad))
    bias = recover_bias(alpha, ts, C)
    support = np.flatnonzero(alpha > 0.0)
    return SvmModel(
        alpha=alpha,
        bias=bias,
        C=C,
        support_indices=support,
        objective=objective,
        n_iter=n_iter,
        kkt_violation=float(violation),
        converged=converged,
    )


def recover_bias(alpha: np.ndarray, ts: TrainingSet, C: float) -> float:
    """Bias from the KKT conditions.

    Average of y_i - sum_j y_j a_j K_ij over free support vectors
    (0 < a_i < C); with every vector at a bound, the midpoint of the
    interval the bound constraints leave for b.
    """
    y = ts.labels
    u = y - ts.gram.values @ (y * alpha)
    free = (alpha > 0.0) & (alpha < C)
    if np.any(free):
        return float(u[free].mean())
    lower = ((alpha == 0.0) & (y > 0)) | ((alpha >= C) & (y < 0))
    upper = ((alpha == 0.0) & (y < 0)) | ((alpha >= C) & (y > 0))
    has_lo, has_up = np.any(lower), np.any(upper)
    if has_lo and has_up:
        return float(0.5 * (u[lower].max() + u[upper].min()))
    if has_lo:
        return float(u[lower].max())
    if has_up:
        return float(u[upper].min())
    return 0.0


def decision_value(model: SvmModel, labels: np.ndarray, kernel_row) -> float:
    row = np.asarray(kernel_row, dtype=np.float64).ravel()
    if row.shape[0] != labels.shape[0]:
        raise SvmError(f"kernel row length {row.shape[0]} != training size {labels.shape[0]}")
    return float((labels * model.alpha) @ row + model.bias)


def predict(model: SvmModel, labels: np.ndarray, kernel_row) -> tuple[int, float]:
    """Label and decision value at a point given its kernel row k(x_i, x).

    A decision value of exactly 0 maps to +1.
    """
    d = decision_value(model, labels, kernel_row)
    return (1 if d >= 0.0 else -1), d


def predict_many(model: SvmModel, labels: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized predict over a (n_points, l) matrix of kernel rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != labels.shape[0]:
        raise SvmError("rows must be (n_points, training size)")
    d = rows @ (labels * model.alpha) + model.bias
    return np.where(d >= 0.0, 1, -1), d


# ---------------------------------------------------------------------------
# Model serialization (documented JSON layout, see README)
# ---------------------------------------------------------------------------

MODEL_FORMAT = "newsmkl-model-v1"


def model_to_dict(model: SvmModel, kernels: list[dict] | None = None, mkl_weights=None) -> dict:
    out = {
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
    }
    if kernels is not None:
        out["kernels"] = kernels
    if mkl_weights is not None:
        out["mkl_weights"] = [float(w) for w in mkl_weights]
    return out


def model_from_dict(d: dict) -> SvmModel:
    if d.get("format") != MODEL_FORMAT:
        raise SvmError(f"unsupported model format {d.get('format')!r}")
    return SvmModel(
        alpha=np.asarray(d["alpha"], dtype=np.float64),
        bias=float(d["bias"]),
        C=float(d["C"]),
        support_indices=np.asarray(d["support_indices"], dtype=np.int64),
        objective=float(d["objective"]),
        n_iter=int(d.get("n_iter", 0)),
        kkt_violation=float(d.get("kkt_violation", 0.0)),
        converged=bool(d.get("converged", True)),
    )


def save_model(path, model: SvmModel, kernels: list[dict] | None = None, mkl_weights=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, kernels, mkl_weights), fh, indent=2)
        fh.write("\n")


def load_model(path) -> tuple[SvmModel, dict]:
    """Load a model; returns (model, full record dict)."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    return model_from_dict(d), d
