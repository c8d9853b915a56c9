"""Pattern discovery, masking, dataset immutability, and CSV loading."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipinfer.errors import ConfigError, DataError, DimensionError, UnusableDatasetError
from ipinfer.patterns import (
    COMPLETE_PATTERN_ID,
    Pattern,
    PatternedDataset,
    build_dataset,
    load_csv,
    mask_matrix,
)

nan = np.nan


def small_matrix() -> np.ndarray:
    return np.array(
        [
            [1.0, 2.0, 3.0],
            [nan, 5.0, 6.0],
            [4.0, 0.0, 1.0],
            [nan, 7.0, 8.0],
            [9.0, nan, nan],
        ]
    )


class TestPattern:
    def test_mask_is_read_only_and_copied(self):
        raw = np.array([True, False])
        p = Pattern(1, raw)
        raw[0] = False
        assert p.mask[0]
        with pytest.raises(ValueError):
            p.mask[0] = False

    def test_indices_and_completeness(self):
        p = Pattern(2, [True, False, True])
        assert p.d == 3
        assert not p.mask.all()
        assert list(p.observed_indices) == [0, 2]
        assert Pattern(0, [True, True]).mask.all()

    def test_key_ignores_id(self):
        assert Pattern(1, [True, False]).key() == Pattern(5, [True, False]).key()

    def test_empty_mask_rejected(self):
        with pytest.raises(DimensionError):
            Pattern(0, np.zeros(0, dtype=bool))


class TestMasking:
    def test_mask_matrix_rejects_wrong_width(self):
        with pytest.raises(DimensionError):
            mask_matrix(np.array([[1.0, 2.0, 3.0]]), Pattern(1, [True, False]))

    def test_mask_matrix_is_vectorized_mask_row(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = Pattern(1, [False, True])
        out = mask_matrix(values, p)
        expected = np.array([[nan, 2.0], [nan, 4.0]])
        assert np.array_equal(out, expected, equal_nan=True)

    def test_mask_matrix_leaves_input_untouched(self):
        values = np.array([[1.0, 2.0]])
        mask_matrix(values, Pattern(1, [False, True]))
        assert np.array_equal(values, [[1.0, 2.0]])

    def test_all_observed_pattern_is_identity(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = mask_matrix(values, Pattern(1, [True, True]))
        assert np.array_equal(out, values)


class TestBuildDataset:
    def test_ids_follow_first_appearance_with_complete_zero(self):
        ds = build_dataset(small_matrix(), target_dims=(0, 1, 2))
        assert list(ds.pattern_ids) == [0, 1, 0, 1, 2]
        assert ds.registry[0].mask.all()
        assert list(ds.registry[1].mask) == [False, True, True]
        assert list(ds.registry[2].mask) == [True, False, False]

    def test_counts_and_sizes(self):
        ds = build_dataset(small_matrix(), target_dims=(0,))
        assert ds.n_rows == 5
        assert ds.n_complete == 2
        assert ds.n_patterns == 2
        assert list(ds.pattern_counts()) == [2, 2, 1]

    def test_min_pattern_count_drops_rows(self):
        ds = build_dataset(small_matrix(), target_dims=(0,), min_pattern_count=2)
        assert ds.n_patterns == 1
        assert ds.dropped_rows == 1
        assert ds.n_rows == 4

    def test_no_complete_rows_raises(self):
        with pytest.raises(UnusableDatasetError):
            build_dataset(np.array([[nan, 1.0], [2.0, nan]]), target_dims=(0,))

    def test_empty_matrix_raises(self):
        with pytest.raises(DimensionError):
            build_dataset(np.zeros((3, 0)), target_dims=(0,))
        with pytest.raises(UnusableDatasetError):
            build_dataset(np.zeros((0, 2)), target_dims=(0,))

    def test_bad_target_dims_raise(self):
        with pytest.raises(ConfigError):
            build_dataset(small_matrix(), target_dims=())
        with pytest.raises(ConfigError):
            build_dataset(small_matrix(), target_dims=(3,))

    def test_row_order_preserved(self):
        ds = build_dataset(small_matrix(), target_dims=(0,))
        assert np.array_equal(ds.values, small_matrix(), equal_nan=True)

    def test_permutation_preserves_groups_as_sets(self, rng):
        matrix = small_matrix()
        perm = rng.permutation(matrix.shape[0])
        a = build_dataset(matrix, target_dims=(0,))
        b = build_dataset(matrix[perm], target_dims=(0,))
        assert a.n_patterns == b.n_patterns

        def groups_by_mask(ds):
            rows = lambda pid: sorted(
                map(tuple, np.nan_to_num(ds.values[ds.rows_of(pid)], nan=-1e300))
            )
            return {ds.registry[pid].key(): rows(pid) for pid in range(ds.n_patterns + 1)}

        assert groups_by_mask(a) == groups_by_mask(b)


class TestPatternedDataset:
    def test_values_immutable(self):
        ds = build_dataset(small_matrix(), target_dims=(0,))
        with pytest.raises(ValueError):
            ds.values[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.pattern_ids[0] = 2

    def test_complete_values_and_group_values(self):
        ds = build_dataset(small_matrix(), target_dims=(0,))
        assert np.array_equal(ds.complete_values(), [[1.0, 2.0, 3.0], [4.0, 0.0, 1.0]])
        grp = ds.values[ds.rows_of(1)]
        assert np.array_equal(grp, [[nan, 5.0, 6.0], [nan, 7.0, 8.0]], equal_nan=True)

    def test_rows_of_indexes_original_positions(self):
        ds = build_dataset(small_matrix(), target_dims=(0,))
        assert list(ds.rows_of(COMPLETE_PATTERN_ID)) == [0, 2]
        assert list(ds.rows_of(1)) == [1, 3]

    def test_restrict_to_patterns_renumbers(self):
        ds = build_dataset(small_matrix(), target_dims=(0,))
        sub = ds.restrict_to_patterns([2])
        assert sub.n_patterns == 1
        assert sub.n_complete == 2
        assert sub.n_rows == 3
        assert list(sub.registry[1].mask) == [True, False, False]

    def test_subset_keeps_patterns(self):
        ds = build_dataset(small_matrix(), target_dims=(0,))
        sub = ds.subset([0, 1, 4])
        assert sub.n_rows == 3
        assert sub.n_complete == 1
        assert np.array_equal(sub.values, small_matrix()[[0, 1, 4]], equal_nan=True)


@settings(max_examples=50, deadline=None)
@given(
    n_extra=st.integers(min_value=0, max_value=8),
    data=st.data(),
)
def test_masking_preserves_observed_cells_property(n_extra, data):
    d = data.draw(st.integers(min_value=1, max_value=5))
    mask = np.array(
        data.draw(
            st.lists(st.booleans(), min_size=d, max_size=d).filter(lambda m: any(m))
        )
    )
    values = np.array(
        data.draw(
            st.lists(
                st.lists(
                    st.floats(-1e6, 1e6, allow_nan=False), min_size=d, max_size=d
                ),
                min_size=1,
                max_size=1 + n_extra,
            )
        )
    )
    out = mask_matrix(values, Pattern(1, mask))
    assert np.array_equal(out[:, mask], values[:, mask])
    assert np.isnan(out[:, ~mask]).all()


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_parses_blank_and_na_as_missing(self, tmp_path):
        path = self.write(tmp_path, "x,u\n1.0,2.0\n,5\nNA,7\n")
        columns, matrix = load_csv(path)
        assert columns == ["x", "u"]
        assert np.array_equal(matrix, [[1, 2], [nan, 5], [nan, 7]], equal_nan=True)

    def test_cell_error_names_file_line_column(self, tmp_path):
        path = self.write(tmp_path, "x,u\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataError, match=r"data\.csv:3.*column 'u'"):
            load_csv(path)

    def test_duplicate_columns_rejected(self, tmp_path):
        path = self.write(tmp_path, "x,x\n1,2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = self.write(tmp_path, "x,u\ninf,2\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_empty_and_header_only_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(self.write(tmp_path, ""))
        with pytest.raises(DataError):
            load_csv(self.write(tmp_path, "x,u\n"))

    def test_cell_beyond_csv_field_limit_rejected(self, tmp_path):
        # The csv module raises its own error past its field size limit.
        path = self.write(tmp_path, "x,u\n1,2\n" + "1" * 140_000 + ",2\n")
        with pytest.raises(DataError, match=r"data\.csv:3.*field limit"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "x,u\n1,2\n3\n")
        with pytest.raises(DataError, match=r":3"):
            load_csv(path)
