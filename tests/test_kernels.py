import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import as_bytes, dense_gram, densify, eval_kernel, triu_median_sqdist, validate_psd

from newsmkl import kernels
from newsmkl.kernels import IndicatorKernel, KernelError, KernelSpec, cross_gram, gram_matrix, median_sqdist, sqdist

ALL_VECTOR_KINDS = ("linear", "gaussian", "polynomial")


def spec_for(kind: str) -> KernelSpec:
    return KernelSpec(kind=kind, sigma=2.0 if kind == "gaussian" else None,
                      degree=3 if kind == "polynomial" else None)


class TestEvalKernel:
    def test_linear_inner_product(self):
        assert eval_kernel(KernelSpec(kind="linear"), [1, 2], [3, 4]) == 11.0

    def test_gaussian_at_zero_distance_is_one(self):
        for sigma in (0.1, 1.0, 50.0):
            s = KernelSpec(kind="gaussian", sigma=sigma)
            assert eval_kernel(s, [1.5, -2.0], [1.5, -2.0]) == 1.0

    def test_gaussian_formula(self):
        s = KernelSpec(kind="gaussian", sigma=1.0)
        assert eval_kernel(s, [0.0], [1.0]) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_polynomial_formula(self):
        s = KernelSpec(kind="polynomial", degree=2)
        assert eval_kernel(s, [1.0, 1.0], [2.0, 0.0]) == 9.0  # (2 + 1)^2

    def test_dimension_mismatch(self):
        with pytest.raises(KernelError):
            eval_kernel(KernelSpec(kind="linear"), [1, 2], [1, 2, 3])

    def test_identity_rejects_raw_vectors(self):
        with pytest.raises(KernelError):
            eval_kernel(KernelSpec(kind="identity"), [1.0], [1.0])

    def test_spec_validation(self):
        with pytest.raises(KernelError):
            KernelSpec(kind="gaussian")  # missing sigma
        for sigma in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(KernelError):
                KernelSpec(kind="gaussian", sigma=sigma)
        with pytest.raises(KernelError):
            KernelSpec(kind="polynomial", degree=0)
        with pytest.raises(KernelError):
            KernelSpec(kind="sigmoid")


class TestGramMatrix:
    def test_orthonormal_linear(self):
        g = gram_matrix(KernelSpec(kind="linear"), [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(densify(g).values, np.eye(2) / 2.0)
        assert g.scale == 0.5

    def test_identity_kind_trace_normalized(self):
        g = gram_matrix(KernelSpec(kind="identity"), [[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(densify(g).values, np.eye(3) / 3.0)
        assert g.scale == pytest.approx(1.0 / 3.0)

    def test_rows_is_numpys_own_row_read(self):
        # SMO calls rows once per working-pair row: no Python frame between it and numpy
        g = kernels.GramMatrix(values=np.eye(3))
        assert g.rows.__self__ is g.values
        assert g.rows(1).tobytes() == g.values[1].tobytes()

    def test_gaussian_two_points(self):
        g = gram_matrix(KernelSpec(kind="gaussian", sigma=1.0), [[0.0], [1.0]])
        np.testing.assert_allclose(g.values, [[0.5, np.exp(-1) / 2], [np.exp(-1) / 2, 0.5]], rtol=1e-15)

    def test_trace_normalization_trace_is_one(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 3))
        for kind in ALL_VECTOR_KINDS:
            g = gram_matrix(spec_for(kind), np.abs(X) + 0.1)
            assert abs(np.trace(g.values) - 1.0) <= 1e-10

    def test_every_kind_is_exactly_symmetric(self):
        # gram_matrix has no symmetrization pass; strided and Fortran-ordered
        # inputs must come out exactly symmetric too
        base = np.abs(np.random.default_rng(3).standard_normal((300, 60))) + 0.05
        inputs = {"contiguous": base[:, :30].copy(), "column-strided": base[:, ::2],
                  "row-strided": base[::2, :30], "fortran": np.asfortranarray(base[:, :30])}
        for name, X in inputs.items():
            for kind in (*ALL_VECTOR_KINDS, "identity"):
                G = densify(gram_matrix(spec_for(kind), X)).values
                assert np.array_equal(G, G.T), (name, kind)

    def test_overflowing_kernel_raises_without_a_warning(self):
        spec = KernelSpec(kind="polynomial", degree=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError, match="overflow: the trace is inf"):
                gram_matrix(spec, [[1.0], [2.0]])

    def test_values_immutable(self):
        g = gram_matrix(KernelSpec(kind="linear"), [[1.0], [2.0]])
        with pytest.raises(ValueError):
            g.values[0, 0] = 7.0


class TestValidatePsd:
    def test_identity_passes(self):
        assert validate_psd(np.eye(4)).passed

    def test_indefinite_fails(self):
        rep = validate_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not rep.passed
        assert rep.min_eigenvalue == pytest.approx(-1.0)
        assert rep.max_eigenvalue == pytest.approx(3.0)

    def test_rank_one_outer_product_passes(self):
        v = np.array([1.0, -2.0, 0.5])
        assert validate_psd(np.outer(v, v)).passed

    def test_asymmetric_rejected(self):
        with pytest.raises(KernelError):
            validate_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(KernelError):
            validate_psd(np.ones((2, 3)))


class TestKernelProperties:
    """Random-input invariants for every kernel kind."""

    def test_all_kinds_yield_symmetric_psd_grams(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            X = np.abs(rng.standard_normal((12, 4))) + 0.05
            for kind in ALL_VECTOR_KINDS:
                g = gram_matrix(spec_for(kind), X)
                np.testing.assert_array_equal(g.values, g.values.T)
                assert validate_psd(g).passed, f"{kind} trial {trial}"

    def test_trace_normalization_preserves_psd_and_rescales(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 3))
        for kind in ("linear", "gaussian", "polynomial"):
            raw = kernels._kernel_block(spec_for(kind), X, X)
            normed = gram_matrix(spec_for(kind), X)
            assert validate_psd(normed).passed
            assert normed.scale == 1.0 / np.trace(raw)
            np.testing.assert_array_equal(normed.values, raw * normed.scale)

    def test_cross_gram_row_matches_gram_column(self):
        rng = np.random.default_rng(11)
        X = np.abs(rng.standard_normal((8, 3))) + 0.1
        for kind in ALL_VECTOR_KINDS:
            spec = spec_for(kind)
            g = gram_matrix(spec, X)
            row = cross_gram(spec, X, X[2:3], scale=g.scale)
            assert row.shape == (1, 8)
            np.testing.assert_allclose(row[0], g.values[:, 2], rtol=1e-12, atol=1e-15)

    def test_cross_gram_identity_is_zero(self):
        R = cross_gram(KernelSpec(kind="identity"), np.ones((4, 2)), np.ones((3, 2)), scale=1.0)
        np.testing.assert_array_equal(R, np.zeros((3, 4)))

    def test_cross_gram_matches_eval(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((6, 3))
        T = rng.standard_normal((2, 3))
        for kind in ALL_VECTOR_KINDS:
            spec = spec_for(kind)
            R = cross_gram(spec, X, T, scale=1.0)
            for i in range(2):
                for j in range(6):
                    assert R[i, j] == pytest.approx(eval_kernel(spec, X[j], T[i]), rel=1e-12)

    def test_cross_gram_dimension_mismatch(self):
        with pytest.raises(KernelError):
            cross_gram(KernelSpec(kind="linear"), np.ones((4, 2)), np.ones((3, 3)), scale=1.0)


class TestSharedDistances:
    """A feature's median and gaussian Grams read one `sqdist` matrix and
    give the same numbers as kernels built one at a time."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 4))
        yield X
        yield np.vstack([X[:10], X[:10], X[:3]])  # duplicate rows, pairs at distance 0
        yield np.repeat(X[:1], 6, axis=0)  # every pair at distance 0
        yield X[:1]
        yield X[:2]

    def test_median_matches_the_index_array_oracle(self):
        for X in self._inputs():
            D = sqdist(X)
            assert median_sqdist(D) == triu_median_sqdist(D)

    def test_gaussian_grams_from_shared_distances_are_bitwise_equal(self):
        for X in self._inputs():
            D = sqdist(X)
            for sigma in (0.3, 1.0, 7.5):
                spec = KernelSpec(kind="gaussian", sigma=sigma)
                shared = gram_matrix(spec, X, D)
                block = kernels._kernel_block(spec, X, X)
                assert shared.scale == 1.0 / np.trace(block)
                np.testing.assert_array_equal(shared.values, block * shared.scale)
            np.testing.assert_array_equal(D, sqdist(X))  # the shared matrix is not overwritten

    def test_distance_matrix_of_wrong_shape_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(KernelError):
            gram_matrix(KernelSpec(kind="gaussian", sigma=1.0), X, sqdist(np.ones((3, 2))))


class TestIndicatorKernel:
    """The identity and a linear kernel on one-hot features, which
    `gram_matrix` stores as codes, give the dense Gram's bytes
    (`oracles.dense_gram`) in every read SMO and the product passes make.
    Sizes cover SIMD tails (2-70) and backtest windows (939-971); v holds
    the +/-0.0 entries of y * alpha at alpha = 0."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.one_of(st.integers(2, 70), st.integers(939, 971)), bins=st.sampled_from([0, 1, 3, 5]),
           seed=st.integers(0, 2**32 - 1))
    def test_every_read_is_the_dense_grams_bytes(self, n, bins, seed):
        rng = np.random.default_rng(seed)
        if bins == 0:  # the identity, on its placeholder feature
            spec, X = KernelSpec(kind="identity"), np.zeros((n, 1))
        else:
            spec, X = KernelSpec(kind="linear"), np.eye(bins)[rng.integers(0, bins, n)]
        kernel, dense = gram_matrix(spec, X), dense_gram(spec, X)
        assert isinstance(kernel, IndicatorKernel) and kernel.size == n
        assert kernel.scale == dense.scale

        C = 10.0
        alpha = np.where(rng.random(n) < 0.4, 0.0, np.where(rng.random(n) < 0.5, C, rng.uniform(0, C, n)))
        v = np.where(rng.random(n) < 0.5, 1.0, -1.0) * alpha  # -0.0 where y = -1 and alpha = 0
        S = np.flatnonzero(rng.random(n) < rng.uniform(0.0, 0.25))
        dv = np.where(rng.random(S.size) < 0.3, -0.0, rng.standard_normal(S.size))

        assert as_bytes(kernel.diagonal()) == as_bytes(dense.diagonal())
        assert as_bytes([kernel.rows(i) for i in range(n)]) == as_bytes(dense.values)
        assert all(as_bytes(kernel.rows(i)) == as_bytes(kernel.rows([i])[0]) for i in range(n))
        assert as_bytes(kernel.rows(S)) == as_bytes(dense.rows(S))
        assert as_bytes(kernel.dot(v)) == as_bytes(dense.dot(v))
        assert as_bytes(dv @ kernel.rows(S)) == as_bytes(dv @ dense.rows(S))
        assert as_bytes(float(v @ kernel.dot(v))) == as_bytes(float(v @ dense.dot(v)))

    @pytest.mark.parametrize("X", [
        [[1.0, 0.0], [0.0, 0.5]],  # a hot value other than 1
        [[1.0, 0.0], [1.0, 1.0]],  # two hot columns
        [[1.0, 0.0], [0.0, 0.0]],  # none
        [[1.0, -0.0], [0.0, 1.0]],  # a -0.0 among the zeros, which X @ X.T can carry
    ])
    def test_a_matrix_that_is_not_one_hot_stays_dense(self, X):
        assert isinstance(gram_matrix(KernelSpec(kind="linear"), X), kernels.GramMatrix)

    def test_other_kinds_on_one_hot_features_stay_dense(self):
        X = np.eye(3)[[0, 1, 2, 1]]
        for kind in ALL_VECTOR_KINDS:
            built = gram_matrix(spec_for(kind), X)
            assert isinstance(built, kernels.GramMatrix) == (kind != "linear"), kind
