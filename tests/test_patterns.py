"""Pattern discovery, masking, dataset immutability, and CSV loading."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipinfer import simgen
from ipinfer.errors import ConfigError, DataError, DimensionError, UnusableDatasetError
from ipinfer.patterns import (
    COMPLETE_PATTERN_ID,
    PatternedDataset,
    build_dataset,
    load_csv,
    mask_matrix,
)

import oracles

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


def two_pattern_masks() -> np.ndarray:
    return np.array([[True, True], [True, False]])


def two_pattern_values() -> np.ndarray:
    return np.array([[1.0, 2.0], [3.0, 4.0], [5.0, nan], [6.0, nan]])


class TestPattern:
    def test_mask_is_read_only_and_copied(self):
        raw = two_pattern_masks()
        ds = PatternedDataset(two_pattern_values(), [0, 0, 1, 1], raw, (0,))
        raw[1, 0] = False
        assert ds.masks[1, 0]
        with pytest.raises(ValueError):
            ds.masks[1, 0] = False

    def test_empty_mask_rejected(self):
        with pytest.raises(DimensionError):
            PatternedDataset(np.zeros((2, 2)), [0, 0], np.zeros((0, 2), dtype=bool), (0,))


class TestDatasetChecks:
    def test_id_out_of_range_rejected(self):
        for ids in ([0, 0, 1, 5], [0, 0, 1, -1], [0, 0, 5, -1]):
            with pytest.raises(DataError, match=r"\[0, 1\]"):
                PatternedDataset(two_pattern_values(), ids, two_pattern_masks(), (0,))

    def test_mask_table_shape_rejected(self):
        with pytest.raises(DimensionError):
            PatternedDataset(
                two_pattern_values(), [0, 0, 1, 1], np.ones((2, 3), dtype=bool), (0,)
            )
        with pytest.raises(DimensionError):
            PatternedDataset(
                two_pattern_values(), [0, 0, 1, 1], np.ones(2, dtype=bool), (0,)
            )

    def test_incomplete_row_zero_rejected(self):
        masks = np.array([[True, False], [True, False]])
        with pytest.raises(DimensionError, match="complete"):
            PatternedDataset(two_pattern_values(), [0, 0, 1, 1], masks, (0,))

    def test_value_in_unobserved_cell_rejected(self):
        values = two_pattern_values()
        values[3, 1] = 4.0
        with pytest.raises(DataError, match="NaN exactly"):
            PatternedDataset(values, [0, 0, 1, 1], two_pattern_masks(), (0,))

    def test_missing_value_in_observed_cell_rejected(self):
        values = two_pattern_values()
        values[0, 1] = nan
        with pytest.raises(DataError, match="NaN exactly"):
            PatternedDataset(values, [0, 0, 1, 1], two_pattern_masks(), (0,))


class TestMasking:
    def test_mask_matrix_rejects_wrong_width(self):
        with pytest.raises(DimensionError):
            mask_matrix(np.array([[1.0, 2.0, 3.0]]), np.array([True, False]))

    def test_mask_matrix_is_vectorized_mask_row(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = mask_matrix(values, np.array([False, True]))
        expected = np.array([[nan, 2.0], [nan, 4.0]])
        assert np.array_equal(out, expected, equal_nan=True)

    def test_mask_matrix_leaves_input_untouched(self):
        values = np.array([[1.0, 2.0]])
        mask_matrix(values, np.array([False, True]))
        assert np.array_equal(values, [[1.0, 2.0]])

    def test_all_observed_pattern_is_identity(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = mask_matrix(values, np.array([True, True]))
        assert np.array_equal(out, values)


class TestBuildDataset:
    def test_ids_follow_first_appearance_with_complete_zero(self):
        ds = build_dataset(small_matrix(), target_dims=(0, 1, 2))
        assert list(ds.pattern_ids) == [0, 1, 0, 1, 2]
        assert ds.masks[0].all()
        assert list(ds.masks[1]) == [False, True, True]
        assert list(ds.masks[2]) == [True, False, False]

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
            return {ds.masks[pid].tobytes(): rows(pid) for pid in range(ds.n_patterns + 1)}

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
        sub = oracles.restrict_to_patterns(ds, [2])
        assert sub.n_patterns == 1
        assert sub.n_complete == 2
        assert sub.n_rows == 3
        assert list(sub.masks[1]) == [True, False, False]

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
    out = mask_matrix(values, mask)
    assert np.array_equal(out[:, mask], values[:, mask])
    assert np.isnan(out[:, ~mask]).all()


def mcar_raw(n_complete, ratio, seed) -> np.ndarray:
    """A simulation's masked matrix: complete rows first, then MCAR rows."""
    population = simgen.build_population(simgen.FactorModelConfig(seed=seed))
    n_total = n_complete + int(round(ratio * n_complete))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    matrix = population.sample(rng, n_total)
    mcfg = simgen.MissingnessConfig(n_complete=n_complete)
    return simgen.gen_mcar_missingness(matrix, mcfg, target_dims=(0,), rng=seed).values


def shuffled_blockwise(seed, n_rows, d, n_patterns) -> np.ndarray:
    """Complete and incomplete rows interleaved, patterns drawn at random."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n_rows, d))
    mcfg = simgen.MissingnessConfig(n_complete=1, n_patterns=n_patterns)
    masks = simgen.draw_patterns(d, mcfg, rng)
    labels = rng.integers(-1, n_patterns, size=n_rows)  # -1: complete
    incomplete = labels >= 0
    matrix[incomplete] = np.where(masks[labels[incomplete]], matrix[incomplete], nan)
    return matrix


def first_pattern_rare() -> np.ndarray:
    """The first pattern to appear has 2 rows, the others 5 and 3."""
    rows = {0: [1.0, 2.0, 3.0, 4.0], 1: [nan, 2.0, 3.0, 4.0],
            2: [1.0, nan, 3.0, 4.0], 3: [1.0, 2.0, nan, nan]}
    labels = [0, 1, 2, 0, 3, 2, 2, 1, 0, 3, 2, 3, 0, 2, 0]
    return np.array([rows[k] for k in labels]) * np.arange(1, 16)[:, None]


def all_missing_row() -> np.ndarray:
    matrix = small_matrix()
    matrix[3] = nan
    return matrix


PARITY_CASES = {
    "headline": (lambda: mcar_raw(200, 10.0, 0), (1, 150, 200, 400)),
    "shift_10000_rows": (lambda: mcar_raw(1000, 9.0, 21), (1, 900)),
    "first_pattern_dropped": (first_pattern_rare, (1, 3, 4)),
    "all_missing_row": (all_missing_row, (1, 2)),
    "d70": (lambda: shuffled_blockwise(3, 400, 70, 6), (1, 60)),
    "no_incomplete_rows": (lambda: np.arange(12.0).reshape(4, 3), (1, 5)),
    "interleaved": (lambda: shuffled_blockwise(4, 300, 5, 4), (1, 60)),
}


def assert_same_dataset(ds, ref):
    assert np.array_equal(ds.values, ref.values, equal_nan=True)
    assert np.array_equal(ds.pattern_ids, ref.pattern_ids)
    assert np.array_equal(ds.masks, ref.masks)
    assert ds.dropped_rows == ref.dropped_rows
    assert ds.target_dims == ref.target_dims


class TestReferenceParity:
    """The mask table reproduces the registry-and-dict construction."""

    @pytest.mark.parametrize("name", list(PARITY_CASES))
    def test_build_matches_reference(self, name):
        make, counts = PARITY_CASES[name]
        raw = make()
        for min_count in counts:
            ds = build_dataset(raw, (1, 0), min_count)
            assert_same_dataset(ds, oracles.build_registry_dataset(raw, (1, 0), min_count))

    def test_cases_drop_rows_and_patterns(self):
        # the cases above exercise what they are named for
        rare = build_dataset(first_pattern_rare(), (0,), 3)
        assert rare.dropped_rows == 2
        assert list(rare.masks[1]) == [True, False, True, True]
        ds = build_dataset(all_missing_row(), (0,))
        assert not ds.masks[ds.pattern_ids[3]].any()
        assert build_dataset(mcar_raw(200, 10.0, 0), (0,), 400).n_patterns == 0

    @pytest.mark.parametrize("name", ["headline", "interleaved", "first_pattern_dropped"])
    def test_subset_matches_reference(self, name):
        raw = PARITY_CASES[name][0]()
        ds = build_dataset(raw, (0,))
        ref = oracles.build_registry_dataset(raw, (0,))
        rng = np.random.default_rng(8)
        middle = ds.n_patterns // 2 + 1
        subsets = [
            np.flatnonzero(ds.pattern_ids != middle),
            np.flatnonzero(~np.isin(ds.pattern_ids, [1, middle])),
            np.sort(rng.choice(ds.n_rows, ds.n_rows // 2, replace=False)),
            rng.permutation(ds.n_rows)[: ds.n_rows // 3],
        ]
        for rows in subsets:
            rows = np.concatenate([ds.rows_of(0)[:1], rows])
            sub = ds.subset(rows)
            assert_same_dataset(sub, ref.subset(rows))
        assert ds.subset(subsets[0]).n_patterns == ds.n_patterns - 1


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

    @pytest.mark.parametrize(
        "token",
        ["nan", "NaN", "inf", "-Infinity", "1e309", "1e-400", "1_000", "+2", "0x10",
         " NA ", '" NA "', "NA", "", "\xa01.5\xa0", '"\xa0-2.5 "', '"3,5"', '"4.5"',
         "oops", "1\x00"],
    )
    def test_block_conversion_matches_per_cell_reader(self, tmp_path, token):
        # The token sits on record 300, in the second block of 256 records.
        self.assert_parity(tmp_path, {300: f'300,{token},"-300"'})

    @pytest.mark.parametrize(
        "edits",
        [
            {300: "300,oops,1", 310: "310,1"},  # a bad cell, then a ragged record
            {290: "290,1", 300: "300,oops,1"},  # a ragged record, then a bad cell
            {300: "300,inf,1", 305: "305," + "1" * 140_000 + ",1"},  # then a csv error
            {300: "300,oops,1", 500: "500,\udcff,1"},  # then a byte that is not UTF-8
            {260: "260,1,NA", 511: "511,NA,NA", 512: "512,NA,2"},  # block edges
        ],
    )
    def test_first_error_matches_per_cell_reader(self, tmp_path, edits):
        self.assert_parity(tmp_path, edits)

    def assert_parity(self, tmp_path, edits):
        """load_csv and the per-cell reader agree on a 600-record CSV with
        quoted cells and blank lines, with `edits` replacing whole records:
        the same matrix, or the same message naming the same line."""
        lines = ["a,b,c"]
        for i in range(600):
            lines.append(edits.get(i, f'{i},{0.25 * i},"{-i}"'))
            if i % 97 == 0:
                lines.append("")
        path = tmp_path / "data.csv"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        try:
            columns, values = oracles.load_csv_per_cell(path)
        except ValueError as exc:
            with pytest.raises(DataError) as raised:
                load_csv(path)
            assert str(raised.value) == str(exc)
        else:
            got_columns, got = load_csv(path)
            assert got_columns == columns
            assert np.array_equal(got, values, equal_nan=True)
