"""Program-input accept relations: construction, on-disk formats, restrictions, statistics.

A relation records which of m programs accept which of n inputs as an m x n
boolean matrix. Program subsets are plain int bitmasks: bit j corresponds to
``programs[j]``. Everything downstream (diagrams, complexes, scores) consumes
these two representations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from ._numpy import np
from .errors import CapacityError, FormatError, StatisticUndefinedError, ValidationError
from .util import (is_csv, json_field, load_json_object, open_text, relation_csv_text,
                   relation_json_text, write_text)

# Analysis operations hold dense vectors over all 2^m program subsets, so the
# program count is capped where accept-set masks are formed (not at loading).
MAX_PROGRAMS = 24


@dataclass(frozen=True, eq=False)
class Relation:
    """Boolean accept matrix between named programs (rows) and named inputs (columns)."""

    programs: tuple[str, ...]
    inputs: tuple[str, ...]
    accepts: np.ndarray  # bool, shape (m, n)

    def __post_init__(self):
        programs = tuple(self.programs)
        inputs = tuple(self.inputs)
        matrix = np.asarray(self.accepts, dtype=bool)
        if matrix.ndim != 2:
            raise ValidationError("accept matrix must be two-dimensional")
        if len(programs) < 1:
            raise ValidationError("a relation needs at least one program")
        if matrix.shape != (len(programs), len(inputs)):
            raise ValidationError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(programs)} programs x {len(inputs)} inputs"
            )
        if len(set(programs)) != len(programs):
            raise ValidationError("duplicate program identifiers")
        if len(set(inputs)) != len(inputs):
            raise ValidationError("duplicate input identifiers")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "programs", programs)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "accepts", matrix)

    @property
    def m(self) -> int:
        return len(self.programs)

    @property
    def n(self) -> int:
        return len(self.inputs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.programs == other.programs
            and self.inputs == other.inputs
            and np.array_equal(self.accepts, other.accepts)
        )

    def __repr__(self) -> str:
        return f"Relation({self.m} programs x {self.n} inputs)"


@dataclass(frozen=True, eq=False)
class FeatureRelation:
    """Boolean matrix between named inputs (rows) and named features (columns)."""

    inputs: tuple[str, ...]
    features: tuple[str, ...]
    has_feature: np.ndarray  # bool, shape (n, p)

    def __post_init__(self):
        inputs = tuple(self.inputs)
        features = tuple(self.features)
        matrix = np.asarray(self.has_feature, dtype=bool)
        if matrix.ndim != 2 or matrix.shape != (len(inputs), len(features)):
            raise ValidationError(
                f"feature matrix shape {matrix.shape} does not match "
                f"{len(inputs)} inputs x {len(features)} features"
            )
        if len(set(inputs)) != len(inputs):
            raise ValidationError("duplicate input identifiers")
        if len(set(features)) != len(features):
            raise ValidationError("duplicate feature identifiers")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "has_feature", matrix)

    @property
    def n(self) -> int:
        return len(self.inputs)

    @property
    def p(self) -> int:
        return len(self.features)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureRelation):
            return NotImplemented
        return (
            self.inputs == other.inputs
            and self.features == other.features
            and np.array_equal(self.has_feature, other.has_feature)
        )


# ---------------------------------------------------------------------------
# mask helpers


def validate_mask(rel: Relation, mask: int) -> None:
    if mask < 0 or mask >> rel.m:
        raise ValidationError(f"mask {mask:#x} sets bits outside the {rel.m} programs")


def mask_from_names(rel: Relation, names: Iterable[str]) -> int:
    """Bitmask for a collection of program names."""
    index = {name: j for j, name in enumerate(rel.programs)}
    mask = 0
    for name in names:
        try:
            mask |= 1 << index[name]
        except KeyError:
            raise ValidationError(f"unknown program {name!r}") from None
    return mask


def names_from_mask(rel: Relation, mask: int) -> tuple[str, ...]:
    """Program names of a bitmask, in program order."""
    validate_mask(rel, mask)
    return tuple(rel.programs[j] for j in range(rel.m) if mask >> j & 1)


def column_masks(rel: Relation) -> np.ndarray:
    """Accept-set mask of every input, in input order (read-only int64; enforces the cap)."""
    if rel.m > MAX_PROGRAMS:
        raise CapacityError(
            f"{rel.m} programs exceed the {MAX_PROGRAMS}-program cap for dense power-set analysis"
        )
    masks = np.zeros(rel.n, dtype=np.int64)
    for j, row in enumerate(rel.accepts):
        masks |= row.astype(np.int64) << j
    masks.flags.writeable = False
    return masks


# ---------------------------------------------------------------------------
# restrictions


def restrict_programs(rel: Relation, keep: int) -> Relation:
    """Row restriction to the programs in ``keep``; inputs are unchanged."""
    validate_mask(rel, keep)
    if keep == 0:
        raise ValidationError("cannot restrict to an empty program set")
    rows = [j for j in range(rel.m) if keep >> j & 1]
    return Relation(
        programs=tuple(rel.programs[j] for j in rows),
        inputs=rel.inputs,
        accepts=rel.accepts[rows, :],
    )


def restrict_inputs(rel: Relation, keep: Iterable[int]) -> Relation:
    """Column restriction to the given input indices (kept in ascending order)."""
    indices = sorted(set(keep))
    for k in indices:
        if not 0 <= k < rel.n:
            raise ValidationError(f"input index {k} out of range for n={rel.n}")
    return Relation(
        programs=rel.programs,
        inputs=tuple(rel.inputs[k] for k in indices),
        accepts=rel.accepts[:, indices] if indices else rel.accepts[:, :0],
    )


# ---------------------------------------------------------------------------
# elementary statistics


def acceptance_rates(rel: Relation) -> np.ndarray:
    """Fraction of the corpus each program accepts."""
    if rel.n == 0:
        raise StatisticUndefinedError("acceptance rate is undefined on an empty corpus")
    return rel.accepts.sum(axis=1) / rel.n


def conditional_acceptance(rel: Relation) -> np.ndarray:
    """m x m matrix: entry (j, i) = P(program i accepts | program j accepts).

    Rows conditioned on a program with zero acceptances are NaN (undefined),
    never 0.
    """
    counts = rel.accepts.astype(np.int64)
    both = counts @ counts.T
    per_program = counts.sum(axis=1)
    out = np.full((rel.m, rel.m), np.nan)
    defined = per_program > 0
    out[defined, :] = both[defined, :] / per_program[defined, None]
    return out


# ---------------------------------------------------------------------------
# on-disk formats


def load_relation(path) -> Relation:
    """Load a relation from the transposed CSV or the canonical JSON format, by its name."""
    return _load_csv(path) if is_csv(path) else _load_json(path)


def save_relation(rel: Relation, path) -> None:
    """Write a relation in the transposed CSV or the canonical JSON format, by its name."""
    write_text(path, relation_csv(rel) if is_csv(path) else relation_json(rel))


def _01_rows(matrix: np.ndarray) -> list[str]:
    """Each row of a bool matrix as a '0'/'1' string."""
    # each cell as the ASCII byte '0' or '1', one decode per row
    cells = matrix.view(np.uint8) + np.uint8(ord("0"))
    return [row.tobytes().decode("ascii") for row in cells]


def relation_json(rel: Relation) -> str:
    """Canonical JSON serialization (rows are '0'/'1' strings, one per program)."""
    return relation_json_text(rel.programs, rel.inputs, _01_rows(rel.accepts))


def _load_json(path) -> Relation:
    payload = load_json_object(path)
    programs, inputs, rows = (
        json_field(path, payload, key, (list,), "an array") for key in ("programs", "inputs", "rows")
    )
    for field, names in (("programs", programs), ("inputs", inputs)):
        for i, value in enumerate(names):
            if not isinstance(value, str):
                raise FormatError(f"{path}: {field}[{i}] must be a string")
    if len(rows) != len(programs):
        raise FormatError(
            f"{path}: field 'rows' has {len(rows)} entries for {len(programs)} programs"
        )
    n = len(inputs)
    matrix = np.zeros((len(programs), n), dtype=bool)
    for j, row in enumerate(rows):
        if not isinstance(row, str) or len(row) != n:
            raise FormatError(f"{path}: rows[{j}] must be a string of length {n}")
        # one code point per cell; surrogatepass keeps a lone surrogate (which
        # json.load accepts) a bad cell instead of an encoding error
        codes = np.frombuffer(row.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        ones = codes == ord("1")
        bad = np.flatnonzero(~ones & (codes != ord("0")))
        if bad.size:
            k = int(bad[0])
            raise FormatError(f"{path}: rows[{j}][{k}] is {row[k]!r}, expected '0' or '1'")
        matrix[j] = ones
    return Relation(programs=tuple(programs), inputs=tuple(inputs), accepts=matrix)


def relation_csv(rel: Relation) -> str:
    """Transposed CSV: header ``input,<prog...>``, one row per input, cells 0/1."""
    return relation_csv_text(rel.programs, rel.inputs, _01_rows(rel.accepts))


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The column names after ``input`` in a CSV file's header, and the records after it.

    A record the csv module cannot parse is a FormatError naming its line.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            records = list(reader)
        except csv.Error as exc:
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not records:
        raise FormatError(f"{path}: empty file")
    if not records[0] or records[0][0] != "input":
        raise FormatError(f"{path}: line 1: header must start with 'input'")
    return records[0][1:], records[1:]


def _line_of(path, record: int) -> int:
    """The physical line on which body record ``record`` of a CSV file ends,
    as the csv module counts lines (a quoted field may span several)."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        for _ in range(record + 2):  # the header, then records 0..record
            next(reader)
        return reader.line_num


def _read_01_rows(path, records, columns: list[str], cell_error) -> tuple[list[str], np.ndarray]:
    """Input ids and the (rows x columns) bool matrix of a 0/1 CSV body.

    Blank records are skipped.  The first malformed row in file order is
    reported with the physical line it ends on, a bad cell worded by
    ``cell_error(column, cell)``.
    """
    width = len(columns) + 1
    lengths = np.fromiter(map(len, records), np.int64, len(records))
    (wrong,) = np.nonzero((lengths != width) & (lengths != 0))
    end = int(wrong[0]) if wrong.size else len(records)
    # one flat pass over the nonblank records: numpy is slower to find the shape of nested lists
    table = np.fromiter(chain.from_iterable(filter(None, records[:end])), object).reshape(-1, width)
    cells = table[:, 1:]
    ones = cells == "1"
    bad = ~ones & (cells != "0")
    if bad.any():
        r, c = divmod(int(np.argmax(bad)), len(columns))
        line = _line_of(path, int(np.flatnonzero(lengths)[r]))
        raise FormatError(f"{path}: line {line}: {cell_error(columns[c], cells[r, c])}")
    if wrong.size:
        line = _line_of(path, end)
        raise FormatError(f"{path}: line {line}: expected {width} cells, got {lengths[end]}")
    return table[:, 0].tolist(), ones


def _load_csv(path) -> Relation:
    programs, records = _read_csv(path)
    if not programs:
        raise FormatError(f"{path}: line 1: no program columns")
    inputs, matrix = _read_01_rows(
        path, records, programs,
        lambda field, cell: f"column {field!r} is {cell!r}, expected 0 or 1",
    )
    return Relation(programs=tuple(programs), inputs=tuple(inputs), accepts=matrix.T)


def relation_pgm(rel: Relation) -> str:
    """ASCII PGM (P2) image of the matrix: accept=255, reject=0, one pixel per cell."""
    rows = np.where(rel.accepts, "255", "0").tolist()
    return "\n".join(["P2", f"{rel.n} {rel.m}", "255", *map(" ".join, rows)]) + "\n"


# ---------------------------------------------------------------------------
# feature relation CSV


def load_feature_relation(path) -> FeatureRelation:
    """CSV with header ``input,<feat...>`` and 0/1 cells."""
    features, records = _read_csv(path)
    inputs, matrix = _read_01_rows(
        path, records, features, lambda _, cell: f"cell {cell!r}, expected 0 or 1"
    )
    return FeatureRelation(inputs=tuple(inputs), features=tuple(features), has_feature=matrix)


def feature_relation_csv(feats: FeatureRelation) -> str:
    return relation_csv_text(feats.features, feats.inputs, _01_rows(feats.has_feature.T))
