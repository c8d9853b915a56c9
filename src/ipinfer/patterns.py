"""Missingness patterns, masking, and pattern-partitioned datasets.

A missingness pattern is a boolean mask over the d data coordinates, True
where a coordinate is observed.  Inside data arrays, missing cells are IEEE
NaN; the pattern masks are authoritative and legitimate data must be finite.
Pattern id 0 is always the fully observed pattern; nontrivial patterns get
ids 1..R in order of first appearance in the data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DimensionError, UnusableDatasetError

MISSING = np.nan

COMPLETE_PATTERN_ID = 0

# CSV tokens that denote a missing cell.
_NA_TOKENS = frozenset({"", "NA"})


@dataclass(frozen=True)
class Pattern:
    """A missingness pattern: a boolean observation mask with an id."""

    pattern_id: int
    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 1 or mask.size == 0:
            raise DimensionError("pattern mask must be a nonempty 1-d boolean array")
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def d(self) -> int:
        return int(self.mask.size)

    @property
    def is_complete(self) -> bool:
        return bool(self.mask.all())

    @property
    def observed_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def missing_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.mask)

    def key(self) -> bytes:
        """Hashable identity of the mask, independent of the id."""
        return self.mask.tobytes()


def mask_matrix(values: np.ndarray, pattern: Pattern) -> np.ndarray:
    """Apply a pattern to every row of a matrix, NaN-ing the unobserved cells."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[1] != pattern.d:
        raise DimensionError(
            f"matrix has width {v.shape[-1] if v.ndim == 2 else '?'}, "
            f"pattern expects {pattern.d}"
        )
    out = v.copy()
    out[:, ~pattern.mask] = MISSING
    return out


@dataclass(frozen=True)
class PatternedDataset:
    """Rows partitioned by missingness pattern.

    Attributes:
        values: (N, d) float matrix, NaN exactly at unobserved cells.
        pattern_ids: (N,) int array, each row's pattern id.
        registry: tuple of Pattern, indexed by pattern id; registry[0] is
            the complete pattern.
        target_dims: sorted coordinate indices the loss and imputers act on.
        dropped_rows: rows removed because their pattern fell below the
            minimum count at construction.
    """

    values: np.ndarray
    pattern_ids: np.ndarray
    registry: tuple[Pattern, ...]
    target_dims: tuple[int, ...]
    dropped_rows: int = 0
    _groups: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        ids = np.asarray(self.pattern_ids, dtype=int)
        if values.ndim != 2:
            raise DimensionError("values must be a 2-d matrix")
        if ids.shape != (values.shape[0],):
            raise DimensionError("pattern_ids must align with rows")
        values = values.copy()
        values.flags.writeable = False
        ids = ids.copy()
        ids.flags.writeable = False
        groups = tuple(
            np.flatnonzero(ids == pid) for pid in range(len(self.registry))
        )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pattern_ids", ids)
        object.__setattr__(self, "_groups", groups)

    # -- sizes ------------------------------------------------------------

    @property
    def d(self) -> int:
        return int(self.values.shape[1])

    @property
    def n_rows(self) -> int:
        """Total row count N = n + n_tilde_total."""
        return int(self.values.shape[0])

    @property
    def n_complete(self) -> int:
        """Number of fully observed rows n."""
        return int(self._groups[COMPLETE_PATTERN_ID].size)

    @property
    def n_patterns(self) -> int:
        """Number of nontrivial patterns R."""
        return len(self.registry) - 1

    @property
    def n_tilde_total(self) -> int:
        return self.n_rows - self.n_complete

    def n_tilde(self, pattern_id: int) -> int:
        """Row count of one nontrivial pattern group."""
        self._check_pattern_id(pattern_id)
        return int(self._groups[pattern_id].size)

    def pattern_counts(self) -> np.ndarray:
        """Row counts aligned with the registry (index 0 = complete)."""
        return np.array([g.size for g in self._groups], dtype=int)

    def pattern_frequencies(self) -> np.ndarray:
        """Empirical pattern probabilities over the retained rows."""
        return self.pattern_counts() / self.n_rows

    # -- row access -------------------------------------------------------

    def rows_of(self, pattern_id: int) -> np.ndarray:
        """Row indices belonging to a pattern, in original order."""
        self._check_pattern_id(pattern_id)
        return self._groups[pattern_id]

    def group_values(self, pattern_id: int) -> np.ndarray:
        """Value matrix of one pattern group."""
        return self.values[self.rows_of(pattern_id)]

    def complete_values(self) -> np.ndarray:
        return self.group_values(COMPLETE_PATTERN_ID)

    # -- derived datasets ---------------------------------------------------

    def subset(self, row_indices) -> "PatternedDataset":
        """Dataset restricted to the given rows.

        The registry is rebuilt: patterns that lose all their rows are
        dropped and the survivors are renumbered, preserving the original
        id order (the complete pattern keeps id 0 and must survive).
        """
        idx = np.asarray(row_indices, dtype=int)
        if idx.ndim != 1:
            raise DimensionError("row_indices must be 1-d")
        sub_values = self.values[idx]
        sub_ids = self.pattern_ids[idx]
        if not np.any(sub_ids == COMPLETE_PATTERN_ID):
            raise UnusableDatasetError("subset contains no complete rows")
        surviving = [
            pid for pid in range(len(self.registry)) if np.any(sub_ids == pid)
        ]
        remap = {old: new for new, old in enumerate(surviving)}
        new_registry = tuple(
            Pattern(remap[pid], self.registry[pid].mask) for pid in surviving
        )
        new_ids = np.array([remap[pid] for pid in sub_ids], dtype=int)
        return PatternedDataset(
            sub_values, new_ids, new_registry, self.target_dims, self.dropped_rows
        )

    def restrict_to_patterns(self, pattern_ids) -> "PatternedDataset":
        """Dataset keeping the complete rows plus the named pattern groups."""
        keep = [COMPLETE_PATTERN_ID]
        for pid in pattern_ids:
            self._check_pattern_id(pid)
            if pid != COMPLETE_PATTERN_ID:
                keep.append(int(pid))
        mask = np.isin(self.pattern_ids, keep)
        return self.subset(np.flatnonzero(mask))

    def _check_pattern_id(self, pattern_id: int) -> None:
        if not 0 <= pattern_id < len(self.registry):
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
    d = values.shape[1]
    dims = _validate_target_dims(target_dims, d)

    observed = ~np.isnan(values)
    complete = observed.all(axis=1)
    if not complete.any():
        raise UnusableDatasetError("dataset has no complete rows")

    # Group nontrivial rows by mask bytes, keeping first-appearance order.
    packed = np.packbits(observed, axis=1)
    key_to_rows: dict[bytes, list[int]] = {}
    order: list[bytes] = []
    for i in np.flatnonzero(~complete):
        key = packed[i].tobytes()
        rows = key_to_rows.get(key)
        if rows is None:
            key_to_rows[key] = [i]
            order.append(key)
        else:
            rows.append(i)

    keep_rows = [np.flatnonzero(complete)]
    masks: list[np.ndarray] = []
    dropped = 0
    for key in order:
        rows = key_to_rows[key]
        if len(rows) < min_pattern_count:
            dropped += len(rows)
            continue
        keep_rows.append(np.asarray(rows, dtype=int))
        masks.append(observed[rows[0]].copy())

    kept = np.sort(np.concatenate(keep_rows))
    registry = [Pattern(0, np.ones(d, dtype=bool))]
    registry.extend(Pattern(r + 1, mask) for r, mask in enumerate(masks))

    mask_key_to_id = {p.key(): p.pattern_id for p in registry}
    ids = np.empty(kept.size, dtype=int)
    for out_i, i in enumerate(kept):
        ids[out_i] = mask_key_to_id[observed[i].tobytes()]

    return PatternedDataset(values[kept], ids, tuple(registry), dims, dropped)


def _validate_target_dims(target_dims, d: int) -> tuple[int, ...]:
    dims = tuple(sorted({int(t) for t in target_dims}))
    if not dims:
        raise ConfigError("target_dims must be nonempty")
    if dims[0] < 0 or dims[-1] >= d:
        raise ConfigError(f"target_dims {dims} out of range for d={d}")
    return dims


def load_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a data CSV: header row, real-valued cells, ''/'NA' missing.

    Returns:
        (column names, (N, d) float matrix with NaN for missing cells).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        columns = [c.strip() for c in header]
        if len(set(columns)) != len(columns):
            raise DataError(f"{path}: duplicate column names")
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(columns):
                raise DataError(
                    f"{path}:{lineno}: expected {len(columns)} cells, got {len(rec)}"
                )
            vals = np.empty(len(columns))
            for j, tok in enumerate(rec):
                tok = tok.strip()
                if tok in _NA_TOKENS:
                    vals[j] = MISSING
                else:
                    try:
                        vals[j] = float(tok)
                    except ValueError:
                        raise DataError(
                            f"{path}:{lineno}: cannot parse {tok!r} in column "
                            f"{columns[j]!r}"
                        ) from None
                    if not np.isfinite(vals[j]):
                        raise DataError(
                            f"{path}:{lineno}: non-finite value in column "
                            f"{columns[j]!r}; use '' or 'NA' for missing"
                        )
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return columns, np.vstack(rows)
