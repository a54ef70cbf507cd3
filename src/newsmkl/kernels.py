"""Kernel (Gram) matrix construction, normalization, and validation.

Supported kernel functions on feature vectors x, y:

    linear       <x, y>
    gaussian     exp(-||x - y||^2 / sigma)
    polynomial   (<x, y> + 1) ** degree
    bagofwords   <x, y> / (||x|| * ||y||)       (cosine similarity)
    identity     1 iff same training index      (index-based, no vectors)

The identity kernel exists only to absorb noise inside a kernel mixture:
it is the identity matrix over training samples, and its cross-kernel
values against unseen points are 0.

A feature's gaussian Grams and its bandwidth median share one squared
distance matrix: `sqdist` computes it once, `median_sqdist` takes the
median of its strict upper triangle and `gram_matrix` maps it to each
gaussian Gram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PSD_TOL = 1e-8

KERNEL_KINDS = ("linear", "gaussian", "polynomial", "bagofwords", "identity")


class KernelError(ValueError):
    """Invalid kernel specification or kernel evaluation input."""


@dataclass(frozen=True)
class KernelSpec:
    """Parameterized kernel function choice.

    sigma is required (> 0) for gaussian kernels, degree (>= 1) for
    polynomial kernels; the identity kind ignores all parameters.
    """

    kind: str
    sigma: float | None = None
    degree: int | None = None
    trace_normalize: bool = False

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise KernelError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.sigma is None or self.sigma <= 0:
                raise KernelError("gaussian kernel requires sigma > 0")
        if self.kind == "polynomial":
            if self.degree is None or int(self.degree) < 1:
                raise KernelError("polynomial kernel requires degree >= 1")

    def describe(self) -> dict:
        out: dict = {"kind": self.kind, "trace_normalize": self.trace_normalize}
        if self.kind == "gaussian":
            out["sigma"] = float(self.sigma)
        if self.kind == "polynomial":
            out["degree"] = int(self.degree)
        return out


@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric PSD matrix of pairwise kernel values.

    `scale` records the constant the raw kernel values were multiplied by
    (1/trace for trace-normalized matrices) so prediction-time kernel rows
    can be scaled consistently.
    """

    values: np.ndarray
    size: int = field(init=False)
    scale: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise KernelError("Gram matrix must be square")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "size", v.shape[0])

    @property
    def trace(self) -> float:
        return float(np.trace(self.values))


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    max_eigenvalue: float
    tol: float
    passed: bool


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise KernelError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    return x, y


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for one pair of feature vectors.

    The identity kind is defined only on indexed training samples and
    rejects raw vectors.
    """
    if spec.kind == "identity":
        raise KernelError("identity kernel is index-based; it has no value on raw vectors")
    x, y = _check_pair(x, y)
    if spec.kind == "linear":
        return float(x @ y)
    if spec.kind == "gaussian":
        d = x - y
        return float(np.exp(-(d @ d) / spec.sigma))
    if spec.kind == "polynomial":
        return float((x @ y + 1.0) ** int(spec.degree))
    # bagofwords: cosine similarity, undefined on zero vectors
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise KernelError("bagofwords kernel undefined for zero-norm vector")
    return float((x @ y) / (nx * ny))


def _as_matrix(samples) -> np.ndarray:
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] == 0:
        raise KernelError("need a nonempty list of equal-length feature vectors")
    # a strided view would take the general matmul path, whose X @ X.T is
    # not exactly symmetric; a contiguous X keeps every Gram exactly symmetric
    return np.ascontiguousarray(X)


def _pairwise_sqdist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    nx = np.sum(X * X, axis=1)
    ny = np.sum(Y * Y, axis=1)
    d2 = nx[:, None] + ny[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(d2, 0.0)


def _kernel_block(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) matrix of k(a_i, b_j) for a vector kernel kind.

    Pass the same array object as A and B for a Gram: A @ A.T on one
    object takes BLAS's symmetric (syrk) path.
    """
    if A.shape[1] != B.shape[1]:
        raise KernelError(f"dimension mismatch: {B.shape[1]} vs {A.shape[1]}")
    if spec.kind == "gaussian":
        return np.exp(-_pairwise_sqdist(A, B) / spec.sigma)
    K = A @ B.T
    if spec.kind == "polynomial":
        return (K + 1.0) ** int(spec.degree)
    if spec.kind == "bagofwords":
        na = np.linalg.norm(A, axis=1)
        nb = np.linalg.norm(B, axis=1)
        if np.any(na == 0.0) or np.any(nb == 0.0):
            raise KernelError("bagofwords kernel undefined for zero-norm vector")
        return K / (na[:, None] * nb[None, :])
    return K


def sqdist(samples) -> np.ndarray:
    """(n, n) squared Euclidean distances between the samples, the matrix a
    gaussian Gram maps elementwise (built as `_kernel_block` builds it)."""
    X = _as_matrix(samples)
    return _pairwise_sqdist(X, X)


def gram_matrix(spec: KernelSpec, samples, distances: np.ndarray | None = None) -> GramMatrix:
    """Assemble the symmetric matrix of pairwise kernel values.

    The matrix is exactly symmetric with no symmetrization pass: syrk
    fills one triangle and mirrors it, and every kind maps that product
    (and the row norms) elementwise and symmetrically. A gaussian Gram is
    mapped from `distances`, which must be `sqdist(samples)` (only its
    shape is checked), so the kernels on one feature compute it once; it
    is computed here when not given. Applies trace normalization (divide
    by the trace so trace = 1) when spec.trace_normalize is set.
    """
    X = _as_matrix(samples)
    if spec.kind == "identity":
        G = np.eye(X.shape[0])
    elif spec.kind == "gaussian":
        D = _pairwise_sqdist(X, X) if distances is None else distances
        if D.shape != (X.shape[0], X.shape[0]):
            raise KernelError(f"distance matrix of shape {D.shape} for {X.shape[0]} samples")
        # exp(-D / sigma), computed in one buffer
        G = np.negative(D)
        G /= spec.sigma
        np.exp(G, out=G)
    else:
        G = _kernel_block(spec, X, X)
    scale = 1.0
    if spec.trace_normalize:
        tr = float(np.trace(G))
        if tr <= 0.0:
            raise KernelError("cannot trace-normalize a matrix with nonpositive trace")
        scale = 1.0 / tr
        G *= scale
    return GramMatrix(values=G, scale=scale)


def cross_gram(spec: KernelSpec, train_samples, test_samples, scale: float = 1.0) -> np.ndarray:
    """(n_test, n_train) matrix of k(x_i, x) rows for a batch of test points.

    `scale` should be the GramMatrix.scale of the matching training Gram
    so that mixture weights trained on normalized kernels stay valid at
    prediction time. Identity-kind blocks are all zeros (unseen points
    share no index with training samples).
    """
    X = _as_matrix(train_samples)
    if spec.kind == "identity":
        T = np.asarray(test_samples)
        n_test = T.shape[0] if T.ndim >= 1 else 0
        return np.zeros((n_test, X.shape[0]))
    K = _kernel_block(spec, _as_matrix(test_samples), X)
    K *= scale
    return K


def median_sqdist(distances: np.ndarray) -> float:
    """Median pairwise squared distance (gaussian bandwidth heuristic): the
    median of the strict upper triangle of a `sqdist` matrix, gathered row
    by row. 1.0 when there is no pair or the median is 0."""
    n = distances.shape[0]
    if n < 2:
        return 1.0
    upper = np.concatenate([distances[i, i + 1:] for i in range(n - 1)])
    med = float(np.median(upper, overwrite_input=True))
    return med if med > 0.0 else 1.0


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
