"""Tests of the COO sparse rating matrix container."""

import numpy as np
import pytest

from repro.exceptions import InvalidMatrixError
from repro.sparse import SparseRatingMatrix


class TestConstruction:
    def test_from_triples_shape_inferred(self):
        matrix = SparseRatingMatrix.from_triples([(0, 0, 1.0), (2, 3, 4.0)])
        assert matrix.shape == (3, 4)
        assert matrix.nnz == 2

    def test_explicit_shape(self, tiny_matrix):
        assert tiny_matrix.shape == (6, 5)
        assert tiny_matrix.nnz == 13

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidMatrixError):
            SparseRatingMatrix(
                np.array([0, 1]), np.array([0]), np.array([1.0, 2.0]), shape=(2, 2)
            )

    def test_out_of_range_row_rejected(self):
        with pytest.raises(InvalidMatrixError):
            SparseRatingMatrix(
                np.array([5]), np.array([0]), np.array([1.0]), shape=(3, 3)
            )

    def test_out_of_range_col_rejected(self):
        with pytest.raises(InvalidMatrixError):
            SparseRatingMatrix(
                np.array([0]), np.array([9]), np.array([1.0]), shape=(3, 3)
            )

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidMatrixError):
            SparseRatingMatrix(
                np.array([-1]), np.array([0]), np.array([1.0]), shape=(3, 3)
            )

    def test_non_finite_value_rejected(self):
        with pytest.raises(InvalidMatrixError):
            SparseRatingMatrix(
                np.array([0]), np.array([0]), np.array([np.nan]), shape=(3, 3)
            )

    def test_empty_matrix_requires_shape(self):
        with pytest.raises(InvalidMatrixError):
            SparseRatingMatrix.from_triples([])

    def test_empty_matrix_with_shape(self):
        matrix = SparseRatingMatrix.from_triples([], shape=(4, 4))
        assert matrix.nnz == 0
        assert matrix.shape == (4, 4)

    def test_arrays_are_read_only(self, tiny_matrix):
        with pytest.raises(ValueError):
            tiny_matrix.vals[0] = 99.0

    def test_from_dense_round_trip(self):
        dense = np.array([[0.0, 2.0], [3.0, 0.0]])
        matrix = SparseRatingMatrix.from_dense(dense)
        assert matrix.nnz == 2
        np.testing.assert_array_equal(matrix.to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(InvalidMatrixError):
            SparseRatingMatrix.from_dense(np.array([1.0, 2.0]))

    def test_repr_mentions_shape_and_nnz(self, tiny_matrix):
        text = repr(tiny_matrix)
        assert "6" in text and "13" in text


class TestStatistics:
    def test_len_equals_nnz(self, tiny_matrix):
        assert len(tiny_matrix) == tiny_matrix.nnz

    def test_density(self, tiny_matrix):
        assert tiny_matrix.density == pytest.approx(13 / 30)

    def test_rating_mean_and_std(self, tiny_matrix):
        values = tiny_matrix.vals
        assert tiny_matrix.rating_mean() == pytest.approx(values.mean())
        assert tiny_matrix.rating_std() == pytest.approx(values.std())

    def test_rating_range(self, tiny_matrix):
        assert tiny_matrix.rating_range() == (1.0, 5.0)

    def test_row_counts_sum_to_nnz(self, tiny_matrix):
        assert tiny_matrix.row_counts().sum() == tiny_matrix.nnz
        assert len(tiny_matrix.row_counts()) == tiny_matrix.n_rows

    def test_col_counts_sum_to_nnz(self, tiny_matrix):
        assert tiny_matrix.col_counts().sum() == tiny_matrix.nnz
        assert len(tiny_matrix.col_counts()) == tiny_matrix.n_cols

    def test_empty_matrix_statistics(self):
        matrix = SparseRatingMatrix.from_triples([], shape=(2, 2))
        assert matrix.rating_mean() == 0.0
        assert matrix.rating_std() == 0.0
        assert matrix.rating_range() == (0.0, 0.0)


class TestAppend:
    """The streaming mutation path: append-only growth."""

    def _matrix(self):
        return SparseRatingMatrix.from_triples(
            [(0, 0, 5.0), (1, 1, 3.0), (2, 0, 4.0)], shape=(3, 2)
        )

    def test_append_grows_shape_and_nnz(self):
        matrix = self._matrix()
        added = matrix.append(
            np.array([3, 4]), np.array([2, 0]), np.array([1.0, 2.0])
        )
        assert added == 2
        assert matrix.shape == (5, 3)
        assert matrix.nnz == 5

    def test_append_preserves_existing_triples_bitwise(self):
        matrix = self._matrix()
        before = (
            matrix.rows.copy(), matrix.cols.copy(), matrix.vals.copy()
        )
        matrix.append(np.array([7]), np.array([4]), np.array([2.5]))
        np.testing.assert_array_equal(matrix.rows[:3], before[0])
        np.testing.assert_array_equal(matrix.cols[:3], before[1])
        np.testing.assert_array_equal(matrix.vals[:3], before[2])
        assert (matrix.rows[3], matrix.cols[3], matrix.vals[3]) == (7, 4, 2.5)

    def test_empty_append_grows_dimensions_only(self):
        matrix = self._matrix()
        empty = np.empty(0)
        matrix.append(empty, empty, empty, n_rows=10, n_cols=6)
        assert matrix.shape == (10, 6)
        assert matrix.nnz == 3

    def test_dimensions_never_shrink(self):
        matrix = self._matrix()
        with pytest.raises(InvalidMatrixError):
            matrix.append(np.empty(0), np.empty(0), np.empty(0), n_rows=2)
        with pytest.raises(InvalidMatrixError):
            matrix.append(np.empty(0), np.empty(0), np.empty(0), n_cols=1)

    def test_append_validation(self):
        matrix = self._matrix()
        with pytest.raises(InvalidMatrixError):
            matrix.append(np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(InvalidMatrixError):
            matrix.append(np.array([0]), np.array([0]), np.array([np.inf]))
        with pytest.raises(InvalidMatrixError):
            matrix.append(np.array([-1]), np.array([0]), np.array([1.0]))
        # A failed append leaves the matrix untouched.
        assert matrix.shape == (3, 2)
        assert matrix.nnz == 3

    def test_version_bumps_on_every_append(self):
        matrix = self._matrix()
        first = matrix.version
        matrix.append(np.array([0]), np.array([0]), np.array([1.0]))
        matrix.append(np.empty(0), np.empty(0), np.empty(0), n_rows=9)
        assert matrix.version == first + 2

    def test_csr_cache_invalidated_by_append(self):
        """Regression pin: ``items_of`` must see post-append ratings.

        The CSR rows are cached lazily; before the invalidation fix an
        append left the stale cache in place and the serving layer's
        seen-item exclusion silently missed the new ratings.
        """
        matrix = self._matrix()
        np.testing.assert_array_equal(matrix.items_of(0), [0])  # warms cache
        matrix.append(np.array([0, 3]), np.array([1, 0]), np.array([2.0, 4.5]))
        np.testing.assert_array_equal(matrix.items_of(0), [0, 1])
        np.testing.assert_array_equal(matrix.items_of(3), [0])
        np.testing.assert_array_equal(matrix.items_of(2), [0])

    def test_append_triples_convenience(self):
        matrix = self._matrix()
        assert matrix.append_triples([(5, 3, 1.5), (0, 1, 2.0)]) == 2
        assert matrix.shape == (6, 4)
        assert matrix.nnz == 5

    def test_arrays_stay_read_only_after_append(self):
        matrix = self._matrix()
        matrix.append(np.array([0]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            matrix.vals[0] = 99.0
        with pytest.raises(ValueError):
            matrix.rows[-1] = 0


class TestTransformations:
    def test_iter_triples_matches_storage(self, tiny_matrix):
        triples = list(tiny_matrix.iter_triples())
        assert len(triples) == tiny_matrix.nnz
        assert triples[0] == (0, 0, 5.0)

    def test_select_preserves_shape(self, tiny_matrix):
        subset = tiny_matrix.select(np.array([0, 2, 4]))
        assert subset.shape == tiny_matrix.shape
        assert subset.nnz == 3

    def test_shuffled_preserves_multiset(self, tiny_matrix):
        shuffled = tiny_matrix.shuffled(seed=1)
        assert shuffled.nnz == tiny_matrix.nnz
        assert sorted(shuffled.vals) == sorted(tiny_matrix.vals)
        assert shuffled.shape == tiny_matrix.shape

    def test_shuffled_is_deterministic(self, tiny_matrix):
        a = tiny_matrix.shuffled(seed=5)
        b = tiny_matrix.shuffled(seed=5)
        assert a == b

    def test_shuffled_differs_across_seeds(self, small_matrix):
        a = small_matrix.shuffled(seed=1)
        b = small_matrix.shuffled(seed=2)
        assert not np.array_equal(a.rows, b.rows)

    def test_sample_fraction(self, small_matrix):
        sample = small_matrix.sample(0.25, seed=0)
        assert sample.nnz == pytest.approx(small_matrix.nnz * 0.25, rel=0.05)

    def test_sample_rejects_bad_fraction(self, tiny_matrix):
        with pytest.raises(InvalidMatrixError):
            tiny_matrix.sample(0.0)
        with pytest.raises(InvalidMatrixError):
            tiny_matrix.sample(1.5)

    def test_row_band(self, tiny_matrix):
        band = tiny_matrix.row_band(0, 2)
        assert band.nnz == 5
        assert band.rows.max() <= 1

    def test_row_band_bounds(self, tiny_matrix):
        with pytest.raises(InvalidMatrixError):
            tiny_matrix.row_band(3, 2)
        with pytest.raises(InvalidMatrixError):
            tiny_matrix.row_band(0, 100)

    def test_col_band(self, tiny_matrix):
        band = tiny_matrix.col_band(0, 1)
        assert band.nnz == 3
        assert set(band.cols.tolist()) == {0}

    def test_bands_partition_matrix(self, small_matrix):
        top = small_matrix.row_band(0, 150)
        bottom = small_matrix.row_band(150, small_matrix.n_rows)
        assert top.nnz + bottom.nnz == small_matrix.nnz

    def test_transpose(self, tiny_matrix):
        transposed = tiny_matrix.transpose()
        assert transposed.shape == (5, 6)
        assert transposed.nnz == tiny_matrix.nnz
        np.testing.assert_array_equal(
            transposed.to_dense(), tiny_matrix.to_dense().T
        )

    def test_to_dense_refuses_huge(self):
        matrix = SparseRatingMatrix.from_triples(
            [(0, 0, 1.0)], shape=(100_000, 200_000)
        )
        with pytest.raises(InvalidMatrixError):
            matrix.to_dense()

    def test_equality(self, tiny_matrix):
        same = SparseRatingMatrix(
            tiny_matrix.rows, tiny_matrix.cols, tiny_matrix.vals, shape=(6, 5)
        )
        assert same == tiny_matrix
        assert tiny_matrix != tiny_matrix.transpose()
        assert (tiny_matrix == "not a matrix") is False or True  # NotImplemented path
