"""Missingness patterns, masking, and pattern-partitioned datasets.

A missingness pattern is a boolean mask over the d data coordinates, True
where a coordinate is observed.  A dataset is a value matrix, one pattern
id per row, and a read-only (R + 1, d) table of the masks the ids index.
Inside the value matrix, missing cells are IEEE NaN, exactly where the
row's mask is False; legitimate data must be finite.  Pattern id 0 is
always the fully observed pattern (an all-True row of the table);
nontrivial patterns get ids 1..R in order of first appearance in the data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import ConfigError, DataError, DimensionError, UnusableDatasetError
from .imputers import pattern_groups

MISSING = np.nan

COMPLETE_PATTERN_ID = 0

# CSV tokens that denote a missing cell.
_NA_TOKENS = frozenset({"", "NA"})
# Records load_csv converts at once.
_CSV_BLOCK = 256


def mask_matrix(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Apply an observation mask to every row of a matrix, NaN-ing the
    unobserved cells."""
    v = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if v.ndim != 2 or mask.shape != (v.shape[1],):
        raise DimensionError(
            f"matrix has width {v.shape[-1] if v.ndim == 2 else '?'}, "
            f"mask has shape {mask.shape}"
        )
    out = v.copy()
    out[:, ~mask] = MISSING
    return out


@dataclass(frozen=True)
class PatternedDataset:
    """Rows partitioned by missingness pattern.

    Attributes:
        values: (N, d) float matrix, NaN exactly at unobserved cells.
        pattern_ids: (N,) int array, each row's pattern id in [0, R].
        masks: read-only (R + 1, d) bool table, True where a pattern
            observes a coordinate; masks[0] is the complete pattern.
        target_dims: sorted coordinate indices the loss acts on.
        dropped_rows: rows removed because their pattern fell below the
            minimum count at construction.

    Raises:
        DimensionError: if the shapes disagree, or masks[0] is not all True.
        DataError: if an id is outside [0, R], or a row's NaN cells are not
            exactly the cells its pattern leaves unobserved.
    """

    values: np.ndarray
    pattern_ids: np.ndarray
    masks: np.ndarray
    target_dims: tuple[int, ...]
    dropped_rows: int = 0
    _groups: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        ids = np.asarray(self.pattern_ids, dtype=int)
        masks = np.asarray(self.masks, dtype=bool)
        if values.ndim != 2:
            raise DimensionError("values must be a 2-d matrix")
        if ids.shape != (values.shape[0],):
            raise DimensionError("pattern_ids must align with rows")
        if masks.ndim != 2 or masks.shape[0] == 0 or masks.shape[1] != values.shape[1]:
            raise DimensionError(
                f"masks must be an (R + 1, {values.shape[1]}) table, got {masks.shape}"
            )
        if not masks[COMPLETE_PATTERN_ID].all():
            raise DimensionError("masks[0] must be the complete pattern")
        if ids.size and not (0 <= ids.min() and ids.max() < masks.shape[0]):
            raise DataError(f"pattern ids must lie in [0, {masks.shape[0] - 1}]")
        if not np.array_equal(np.isnan(values), ~masks[ids]):
            raise DataError("values must be NaN exactly where a row's pattern is unobserved")
        values = values.copy()
        values.flags.writeable = False
        ids = ids.copy()
        ids.flags.writeable = False
        masks = masks.copy()
        masks.flags.writeable = False
        groups = tuple(np.flatnonzero(ids == pid) for pid in range(masks.shape[0]))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pattern_ids", ids)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "_groups", groups)

    # -- sizes ------------------------------------------------------------

    @property
    def d(self) -> int:
        return int(self.values.shape[1])

    @property
    def n_rows(self) -> int:
        """Total row count N, complete and incomplete rows alike."""
        return int(self.values.shape[0])

    @property
    def n_complete(self) -> int:
        """Number of fully observed rows n."""
        return int(self._groups[COMPLETE_PATTERN_ID].size)

    @property
    def n_patterns(self) -> int:
        """Number of nontrivial patterns R."""
        return self.masks.shape[0] - 1

    def pattern_counts(self) -> np.ndarray:
        """Row counts aligned with masks (index 0 = complete)."""
        return np.array([g.size for g in self._groups], dtype=int)

    # -- row access -------------------------------------------------------

    def rows_of(self, pattern_id: int) -> np.ndarray:
        """Row indices belonging to a pattern, in original order."""
        self._check_pattern_id(pattern_id)
        return self._groups[pattern_id]

    def complete_values(self) -> np.ndarray:
        """Value matrix of the fully observed rows."""
        return self.values[self._groups[COMPLETE_PATTERN_ID]]

    # -- derived datasets ---------------------------------------------------

    def subset(self, row_indices) -> "PatternedDataset":
        """Dataset restricted to the given rows.

        Patterns that lose all their rows are dropped and the survivors are
        renumbered, preserving the original id order (the complete pattern
        keeps id 0 and must survive).
        """
        idx = np.asarray(row_indices, dtype=int)
        if idx.ndim != 1:
            raise DimensionError("row_indices must be 1-d")
        sub_values = self.values[idx]
        sub_ids = self.pattern_ids[idx]
        present = np.bincount(sub_ids, minlength=self.masks.shape[0]) > 0
        if not present[COMPLETE_PATTERN_ID]:
            raise UnusableDatasetError("subset contains no complete rows")
        new_ids = (np.cumsum(present) - 1)[sub_ids]
        return PatternedDataset(
            sub_values, new_ids, self.masks[present], self.target_dims, self.dropped_rows
        )

    def _check_pattern_id(self, pattern_id: int) -> None:
        if not 0 <= pattern_id < self.masks.shape[0]:
            raise ConfigError(f"unknown pattern id {pattern_id}")


def build_dataset(
    raw_values,
    target_dims,
    min_pattern_count: int = 1,
) -> PatternedDataset:
    """Discover patterns in a raw matrix and assemble a PatternedDataset.

    Args:
        raw_values: (N, d) float matrix with NaN marking missing cells.
        target_dims: coordinate indices the loss acts on; stored sorted.
        min_pattern_count: nontrivial patterns with fewer rows are dropped
            together with their rows.

    Returns:
        The assembled dataset.  Row order is preserved; pattern ids follow
        first appearance among the retained rows, with the complete pattern
        always id 0.

    Raises:
        UnusableDatasetError: if no complete rows survive.
        DimensionError: if the matrix is empty or zero-width.
        ConfigError: if target_dims is empty or out of range.
    """
    values = np.asarray(raw_values, dtype=float)
    if values.ndim != 2 or values.shape[1] == 0:
        raise DimensionError("raw values must be a matrix with at least one column")
    if values.shape[0] == 0:
        raise UnusableDatasetError("dataset has no rows")
    dims = _validate_target_dims(target_dims, values.shape[1])

    observed = ~np.isnan(values)
    complete = observed.all(axis=1)
    if not complete.any():
        raise UnusableDatasetError("dataset has no complete rows")

    ids = np.where(complete, COMPLETE_PATTERN_ID, -1)
    masks = [np.ones(values.shape[1], dtype=bool)]
    dropped = 0
    for rows in pattern_groups(~observed).values():
        if rows.size < min_pattern_count:
            dropped += rows.size
            continue
        ids[rows] = len(masks)
        masks.append(observed[rows[0]])
    kept = ids >= 0
    return PatternedDataset(values[kept], ids[kept], np.array(masks), dims, dropped)


def _validate_target_dims(target_dims, d: int) -> tuple[int, ...]:
    dims = tuple(sorted({int(t) for t in target_dims}))
    if not dims:
        raise ConfigError("target_dims must be nonempty")
    if dims[0] < 0 or dims[-1] >= d:
        raise ConfigError(f"target_dims {dims} out of range for d={d}")
    return dims


def load_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a data CSV: header row, real-valued cells, ''/'NA' missing.

    Records are converted a block of 256 at a time: the stripped non-NA
    cells go through one map(float) and one finiteness check.  A block
    with a cell that float() rejects, or reads as non-finite, goes through
    the per-cell loop instead, which reports the first bad cell with its
    line and column.  Either route reads each cell as float(cell.strip()).

    Returns:
        (column names, (N, d) float matrix with NaN for missing cells).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            columns = [c.strip() for c in header]
            if len(set(columns)) != len(columns):
                raise DataError(f"{path}: duplicate column names")
            blocks = [
                _convert_block(path, columns, block)
                for block in _record_blocks(path, reader, len(columns))
                if block
            ]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:  # e.g. a cell beyond the csv module's field limit
        raise DataError(f"{path}:{reader.line_num}: unreadable CSV: {exc}") from None
    if not blocks:
        raise DataError(f"{path}: no data rows")
    return columns, np.vstack(blocks)


def _record_blocks(path, reader, n_columns):
    """The nonblank records as lists of at most _CSV_BLOCK (line number,
    cells) pairs.

    A ragged record or a read error is raised only after the records before
    it have been yielded, so that a bad cell on an earlier line is reported
    first.
    """
    block = []
    try:
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != n_columns:
                raise DataError(
                    f"{path}:{lineno}: expected {n_columns} cells, got {len(rec)}"
                )
            block.append((lineno, rec))
            if len(block) == _CSV_BLOCK:
                yield block
                block = []
    except (DataError, csv.Error, UnicodeDecodeError):
        yield block
        raise
    yield block


def _convert_block(path, columns, block) -> np.ndarray:
    """The value matrix of a block of (line number, cells) records."""
    tokens = [tok.strip() for _, rec in block for tok in rec]
    present = [tok not in _NA_TOKENS for tok in tokens]
    try:
        parsed = np.fromiter(map(float, compress(tokens, present)), float)
    except ValueError:
        parsed = None
    if parsed is not None and np.isfinite(parsed).all():
        vals = np.full((len(block), len(columns)), MISSING)
        vals.reshape(-1)[np.array(present)] = parsed
        return vals
    return np.vstack([_convert_record(path, columns, lineno, rec) for lineno, rec in block])


def _convert_record(path, columns, lineno, rec) -> np.ndarray:
    """One record's values, cell by cell; the first bad cell raises."""
    vals = np.empty(len(columns))
    for j, tok in enumerate(rec):
        tok = tok.strip()
        if tok in _NA_TOKENS:
            vals[j] = MISSING
            continue
        try:
            vals[j] = float(tok)
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: cannot parse {tok!r} in column {columns[j]!r}"
            ) from None
        if not np.isfinite(vals[j]):
            raise DataError(
                f"{path}:{lineno}: non-finite value in column "
                f"{columns[j]!r}; use '' or 'NA' for missing"
            )
    return vals
