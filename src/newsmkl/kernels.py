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

Every consumer of a training Gram (SMO's row function, the solvers'
kernel products) reads it through `Kernel`, which has two forms, and
`gram_matrix` picks the form. Each form has one row accessor, `rows`,
indexed as numpy indexes: rows(i) is the row K[i], rows(S) the block K[S].
`GramMatrix` stores the dense n x n values.
`IndicatorKernel` stores K = scale * [c_i = c_j] as n integer codes: the
identity (codes 0..n-1) and a linear kernel on one-hot features (each
sample's code is the column of its 1.0). Each entry of those Grams is
exactly 0.0 or the scale, so the rows, diagonal and row blocks it
generates are the dense Gram's bits, and its products run the dense
Gram's own operations (see `IndicatorKernel`): results are
byte-identical to dense storage.
"""

from __future__ import annotations

import ctypes
from abc import ABC, abstractmethod
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
        out: dict = {"kind": self.kind}
        if self.kind == "gaussian":
            out["sigma"] = float(self.sigma)
        if self.kind == "polynomial":
            out["degree"] = int(self.degree)
        return out


class Kernel(ABC):
    """A trace-normalized training Gram K, as every consumer reads it.

    `size` is n, and `scale` the constant the raw kernel values were
    multiplied by (1/trace for a `gram_matrix`), so that prediction-time
    kernel rows can be scaled consistently. `diagonal()` is K's diagonal,
    `rows` indexes K's rows as numpy does (rows(i) is the row K[i], SMO's
    row function; rows(S) for an index array or a slice is the block K[S])
    and `dot(v)` is the product K v. None of them may be written to.
    """

    size: int
    scale: float

    @abstractmethod
    def diagonal(self) -> np.ndarray:
        """K's diagonal."""

    @abstractmethod
    def rows(self, S) -> np.ndarray:
        """K[S]: the row K[i] for an integer, the block for an index array or slice."""

    @abstractmethod
    def dot(self, v: np.ndarray) -> np.ndarray:
        """K v."""


@dataclass(frozen=True)
class GramMatrix(Kernel):
    """Dense symmetric PSD matrix of pairwise kernel values. Its rows and
    products are numpy's own: values.__getitem__ and values @ v."""

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
    def rows(self):
        return self.values.__getitem__

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values)

    def dot(self, v: np.ndarray) -> np.ndarray:
        return self.values @ v


@dataclass(frozen=True)
class IndicatorKernel(Kernel):
    """K = scale * [c_i = c_j], stored as n integer codes and the scale:
    the form `gram_matrix` gives the identity and a linear kernel on
    one-hot samples, whose trace is n and whose scale is 1/n.

    With `width` > 0 the codes are columns of one-hot features and a
    (width, n) table of K's distinct rows serves `rows`; width 0 is the
    identity, codes 0..n-1, whose rows are generated on demand.
    Every entry of the dense Gram is exactly 0.0 or the scale, so generated
    values are its bits. Products keep them too: the identity's K v is
    scale * v + 0.0 (the dense sum adds exact zeros, which turn a -0.0
    into +0.0), and a one-hot K v runs gemv on the generated n x n matrix,
    alive for that product only, because a sum by blocks of rows or by
    code can round differently from the dense one.
    """

    codes: np.ndarray
    scale: float
    width: int = 0
    size: int = field(init=False)
    _table: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.intp)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "size", codes.shape[0])
        table = None
        if self.width:
            table = self._block(np.arange(self.width))
            table.flags.writeable = False
        object.__setattr__(self, "_table", table)

    def _block(self, codes) -> np.ndarray:
        """The rows of K for samples with these codes: one row for a scalar code."""
        return np.where(np.expand_dims(codes, -1) == self.codes, self.scale, 0.0)

    def diagonal(self) -> np.ndarray:
        return np.full(self.size, self.scale)

    def rows(self, S) -> np.ndarray:
        codes = self.codes[S]
        return self._block(codes) if self._table is None else self._table[codes]

    def dot(self, v: np.ndarray) -> np.ndarray:
        if self._table is None:
            return self.scale * v + 0.0
        return self._table[self.codes] @ v


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
        return _gaussian_map(D, spec.sigma)
    K = A @ B.T
    if spec.kind == "polynomial":
        return (K + 1.0) ** int(spec.degree)
    return K


def _gaussian_map(D: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-D / sigma), computed in one buffer: `out`, or a new one."""
    K = np.negative(D, out=out)
    K /= sigma
    return np.exp(K, out=K)


def sqdist(samples) -> np.ndarray:
    """(n, n) squared Euclidean distances between the samples, the matrix a
    gaussian Gram maps elementwise."""
    X = _as_matrix(samples)
    return _pairwise_sqdist(X, X)


def gram_matrix(spec: KernelSpec, samples, distances: np.ndarray | None = None) -> Kernel:
    """The trace-normalized training Gram of `spec` on the samples, in the
    form its structure allows: an IndicatorKernel for the identity kind
    and for a linear kernel on one-hot samples (read off the samples: each
    row one 1.0 among +0.0s), else the dense GramMatrix.

    The dense matrix is exactly symmetric with no symmetrization pass:
    syrk fills one triangle and mirrors it, and every kind maps that
    product (or the distances) elementwise and symmetrically. A gaussian
    Gram is mapped from `distances` when given, which must be
    `sqdist(samples)`. The matrix is divided by its trace (so trace = 1),
    and `scale` is 1/trace. KernelError when the trace is not finite
    (values that overflow, as at a high polynomial degree) or not positive.
    """
    X = _as_matrix(samples)
    n = X.shape[0]
    if spec.kind == "identity":
        return IndicatorKernel(codes=np.arange(n), scale=1.0 / n)
    if spec.kind == "linear" and np.count_nonzero(X) == n:  # the cheap test first
        codes = X.argmax(axis=1)
        # compared as bits, so that a -0.0 is not taken for a zero
        if np.array_equal(np.eye(X.shape[1])[codes].view(np.int64), X.view(np.int64)):
            return IndicatorKernel(codes=codes, scale=1.0 / n, width=X.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the trace
        G = _kernel_block(spec, X, X, distances)
    return _trace_normalized(G)


def _trace_normalized(G: np.ndarray) -> GramMatrix:
    """G divided by its trace, in place, as a GramMatrix of scale 1/trace."""
    tr = float(np.trace(G))
    if not tr < np.inf:  # also true for nan
        raise KernelError(f"kernel values overflow: the trace is {tr}")
    if tr <= 0.0:
        raise KernelError("cannot trace-normalize a matrix with nonpositive trace")
    scale = 1.0 / tr
    G *= scale
    return GramMatrix(values=G, scale=scale)


def _gaussian_gram_in_place(spec: KernelSpec, distances: np.ndarray) -> GramMatrix:
    """`gram_matrix(spec, X, distances)` for a gaussian spec, mapped inside
    the distance matrix's own buffer, which the Gram takes over: for the
    last gaussian kernel on a feature, after which its distances are dead."""
    return _trace_normalized(_gaussian_map(distances, spec.sigma, out=distances))


def cross_gram(spec: KernelSpec, train_samples, test_samples, scale: float) -> np.ndarray:
    """(n_test, n_train) matrix of k(x_i, x) rows for a batch of test points.

    `scale` should be the Kernel.scale of the matching training Gram
    so that mixture weights trained on normalized kernels stay valid at
    prediction time. Identity-kind blocks are all zeros (unseen points
    share no index with training samples).
    """
    X = _as_matrix(train_samples)
    if spec.kind == "identity":
        return np.zeros((len(test_samples), X.shape[0]))
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
