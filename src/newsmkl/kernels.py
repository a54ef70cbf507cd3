"""Kernel (Gram) matrix construction and trace normalization.

Supported kernel functions on feature vectors x, y:

    linear       <x, y>
    gaussian     exp(-||x - y||^2 / sigma)
    polynomial   (<x, y> + 1) ** degree
    identity     1 iff same training index      (index-based, no vectors)

The identity kernel exists only to absorb noise inside a kernel mixture:
it is the identity matrix over training samples, and its cross-kernel
values against unseen points are 0.

One block evaluator, `_kernel_block`, computes every vector kind, for
training Grams (`gram_matrix`) and for test-against-training blocks
(`cross_gram`) alike. A feature's gaussian Grams and its bandwidth median
share one squared distance matrix: `sqdist` computes it once,
`median_sqdist` takes the median of its strict upper triangle and the
block evaluator maps it to each gaussian Gram.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

KERNEL_KINDS = ("linear", "gaussian", "polynomial", "identity")


class KernelError(ValueError):
    """Invalid kernel specification or kernel evaluation input."""


@dataclass(frozen=True)
class KernelSpec:
    """Parameterized kernel function choice.

    sigma is required (finite, > 0) for gaussian kernels, degree (>= 1)
    for polynomial kernels; the identity kind ignores all parameters.
    """

    kind: str
    sigma: float | None = None
    degree: int | None = None
    trace_normalize: bool = False

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise KernelError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian":
            # NaN fails both comparisons; an infinite bandwidth gives a constant Gram
            if self.sigma is None or not 0.0 < self.sigma < np.inf:
                raise KernelError(f"gaussian kernel requires 0 < sigma < inf, got {self.sigma}")
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


def _kernel_block(spec: KernelSpec, A: np.ndarray, B: np.ndarray,
                  distances: np.ndarray | None = None) -> np.ndarray:
    """(len(A), len(B)) matrix of k(a_i, b_j) for a vector kernel kind.

    Pass the same array object as A and B for a Gram: A @ A.T on one
    object takes BLAS's symmetric (syrk) path. A gaussian block is mapped
    from `distances`, which must be `_pairwise_sqdist(A, B)` (only its
    shape is checked), so the kernels on one feature compute it once; it
    is computed here when not given. Other kinds ignore `distances`.
    """
    if A.shape[1] != B.shape[1]:
        raise KernelError(f"dimension mismatch: {B.shape[1]} vs {A.shape[1]}")
    if spec.kind == "gaussian":
        D = _pairwise_sqdist(A, B) if distances is None else distances
        if D.shape != (A.shape[0], B.shape[0]):
            raise KernelError(f"distance matrix of shape {D.shape} for a "
                              f"{A.shape[0]}x{B.shape[0]} block")
        # exp(-D / sigma), computed in one buffer
        K = np.negative(D)
        K /= spec.sigma
        return np.exp(K, out=K)
    K = A @ B.T
    if spec.kind == "polynomial":
        return (K + 1.0) ** int(spec.degree)
    return K


def sqdist(samples) -> np.ndarray:
    """(n, n) squared Euclidean distances between the samples, the matrix a
    gaussian Gram maps elementwise."""
    X = _as_matrix(samples)
    return _pairwise_sqdist(X, X)


def gram_matrix(spec: KernelSpec, samples, distances: np.ndarray | None = None) -> GramMatrix:
    """Assemble the symmetric matrix of pairwise kernel values.

    The matrix is exactly symmetric with no symmetrization pass: syrk
    fills one triangle and mirrors it, and every kind maps that product
    (or the distances) elementwise and symmetrically. A gaussian Gram is
    mapped from `distances` when given, which must be `sqdist(samples)`.
    Applies trace normalization (divide by the trace so trace = 1) when
    spec.trace_normalize is set. KernelError for a kernel whose values
    overflow (a high polynomial degree): its trace is not finite.
    """
    X = _as_matrix(samples)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the trace
        G = np.eye(X.shape[0]) if spec.kind == "identity" else _kernel_block(spec, X, X, distances)
    tr = float(np.trace(G))
    if not tr < np.inf:  # also true for nan
        raise KernelError(f"kernel values overflow: the trace is {tr}")
    scale = 1.0
    if spec.trace_normalize:
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


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc only
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def release_freed_memory() -> None:
    """Return the C heap's free pages to the OS, where glibc allows it.

    glibc keeps freed Gram matrices resident as heap holes, and a small
    object that outlives them pins those holes. When the next round of
    Grams (the backtest's next window) does not fit the holes, the heap
    grows past them, so peak memory jumps by a Gram's size or not
    depending on where unrelated small objects landed."""
    if _malloc_trim is not None:
        _malloc_trim(0)
