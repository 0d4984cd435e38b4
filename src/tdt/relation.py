"""Program-input accept relations: construction, on-disk formats, restrictions.

A relation records which of m programs accept which of n inputs as an m x n
boolean matrix. Program subsets are plain int bitmasks: bit j corresponds to
``programs[j]``. Everything downstream (diagrams, complexes, scores) consumes
these two representations.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable

from ._numpy import np
from .errors import CapacityError, FormatError, ValidationError
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


def restrict_inputs(rel: Relation, keep: np.ndarray) -> Relation:
    """Column restriction to the input indices ``keep``: ascending, without repeats."""
    keep = np.asarray(keep)
    if keep.shape == (0,):  # an empty list reads as float
        keep = keep.astype(np.int64)
    if keep.ndim != 1 or keep.dtype.kind != "i" or not (np.diff(keep) > 0).all():
        raise ValidationError("input indices must be an ascending integer array without repeats")
    if len(keep) and (keep[0] < 0 or keep[-1] >= rel.n):
        k = keep[0] if keep[0] < 0 else keep[-1]
        raise ValidationError(f"input index {k} out of range for n={rel.n}")
    return Relation(
        programs=rel.programs,
        inputs=tuple(map(rel.inputs.__getitem__, keep.tolist())),
        accepts=rel.accepts[:, keep],
    )


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
        if not set(map(type, names)) <= {str}:  # json.load makes no str subclass
            i = next(i for i, value in enumerate(names) if not isinstance(value, str))
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


def read_01_csv(path, check_columns, cell_error) -> tuple[list[str], list[str], np.ndarray]:
    """The column names after ``input`` in a 0/1 CSV file's header, its input
    ids, and the (rows x columns) bool matrix of its body.

    Errors come in file order, each naming the physical line it is on: a
    record the csv module cannot parse, then the header, then whatever
    ``check_columns(columns)`` raises, then the first malformed body row, a
    bad cell worded by ``cell_error(column, cell)``.  Blank records are skipped.
    """
    with open_text(path, newline="") as fh:
        text = fh.read()
    bulk = _bulk_01_csv(text)
    if bulk is not None:
        check_columns(bulk[0])
        return bulk
    reader = csv.reader(io.StringIO(text, newline=""))
    try:  # each record with the line it ends on, as the csv module counts lines
        records = [(record, reader.line_num) for record in reader]
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not records:
        raise FormatError(f"{path}: empty file")
    header = records[0][0]
    if not header or header[0] != "input":
        raise FormatError(f"{path}: line 1: header must start with 'input'")
    columns = header[1:]
    check_columns(columns)
    inputs, rows = [], []
    for record, line in records[1:]:
        if not record:
            continue
        if len(record) != len(header):
            raise FormatError(
                f"{path}: line {line}: expected {len(header)} cells, got {len(record)}"
            )
        cells = record[1:]
        if not {"0", "1"}.issuperset(cells):
            c = next(c for c, cell in enumerate(cells) if cell not in ("0", "1"))
            raise FormatError(f"{path}: line {line}: {cell_error(columns[c], cells[c])}")
        inputs.append(record[0])
        rows.append("".join(cells))
    codes = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return columns, inputs, codes.reshape(len(rows), len(columns)) == _ONE


_NEWLINE, _COMMA, _ZERO, _ONE = (ord(c) for c in "\n,01")


def _bulk_01_csv(text: str) -> tuple[list[str], list[str], np.ndarray] | None:
    """:func:`read_01_csv`'s result for a well-formed file whose records are
    plain lines of unquoted fields, read in whole-file passes; None for any
    other file, which the csv module reads record by record.

    With ``\\r\\n`` line ends read as ``\\n``, and without a double quote, other
    carriage return or NUL, and with every line under the csv module's field
    limit, the csv module splits each line at its commas and nothing else, so
    each nonblank line must be an id and ``,0`` or ``,1`` per column.  Cells
    and commas are ASCII, so the UTF-8 bytes of the text locate them.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    head, _, body = text.partition("\n")
    header = head.split(",")
    if header[0] != "input" or len(head) > csv.field_size_limit():
        return None
    columns = header[1:]
    if body and not body.endswith("\n"):
        body += "\n"
    data = np.frombuffer(body.encode("utf-8"), dtype=np.uint8)
    newlines = np.flatnonzero(data == _NEWLINE)
    lengths = np.diff(newlines, prepend=-1) - 1
    if lengths.size and lengths.max() > csv.field_size_limit():  # bytes: at least the characters
        return None
    # a record is an id, then a comma and a cell per column: the last 2p bytes
    # of its line.  With those p commas on every nonblank line and no other
    # comma in the body, no id holds a comma.
    blank = lengths == 0
    ends = newlines[~blank]
    p = len(columns)
    if (lengths[~blank] < 2 * p).any() or np.count_nonzero(data == _COMMA) != p * ends.size:
        return None
    keep = np.ones(data.size, dtype=bool)  # the bytes of the ids and their newlines
    keep[newlines[blank]] = False
    ones = np.empty((ends.size, p), dtype=bool)
    for c in range(p):
        comma, cell = ends - 2 * (p - c), ends - 2 * (p - c) + 1
        cells = data[cell]
        if (data[comma] != _COMMA).any() or ((cells != _ZERO) & (cells != _ONE)).any():
            return None
        ones[:, c] = cells == _ONE
        keep[comma] = keep[cell] = False
    inputs = data[keep].tobytes().decode("utf-8").split("\n")[:-1]
    return columns, inputs, ones


def _load_csv(path) -> Relation:
    def check_columns(programs):
        if not programs:
            raise FormatError(f"{path}: line 1: no program columns")

    programs, inputs, matrix = read_01_csv(
        path, check_columns,
        lambda field, cell: f"column {field!r} is {cell!r}, expected 0 or 1",
    )
    return Relation(programs=tuple(programs), inputs=tuple(inputs), accepts=matrix.T)


def relation_pgm(rel: Relation) -> str:
    """ASCII PGM (P2) image of the matrix: accept=255, reject=0, one pixel per cell."""
    rows = (" ".join(row).replace("1", "255") for row in _01_rows(rel.accepts))
    return "\n".join(["P2", f"{rel.n} {rel.m}", "255", *rows]) + "\n"


# ---------------------------------------------------------------------------
# feature relation CSV


def load_feature_relation(path, rel: Relation) -> tuple[tuple[str, ...], np.ndarray]:
    """CSV with header ``input,<feat...>`` and 0/1 cells: the feature names and
    the bool (n, p) matrix, whose rows must be ``rel.inputs`` in order."""
    features, inputs, matrix = read_01_csv(
        path, lambda features: None, lambda _, cell: f"cell {cell!r}, expected 0 or 1"
    )
    aligned = inputs == list(rel.inputs)  # equal ids are distinct
    if not aligned and len(set(inputs)) != len(inputs):
        raise ValidationError("duplicate input identifiers")
    if len(set(features)) != len(features):
        raise ValidationError("duplicate feature identifiers")
    if not aligned:
        raise ValidationError("feature relation inputs do not match the relation's inputs")
    return tuple(features), matrix
