"""Small shared helpers: bitmask subsets, canonical JSON and CSV output,
reading UTF-8 files, and checking the fields of a JSON object.

Nothing here loads numpy, so ``tdt run`` can use it all."""

from __future__ import annotations

import contextlib
import csv
import json
import types
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import FormatError


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask, ascending."""
    j = 0
    while mask:
        if mask & 1:
            yield j
        mask >>= 1
        j += 1


def submasks(mask: int) -> Iterator[int]:
    """All subsets of a mask, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def canonical_dumps(payload) -> str:
    """Canonical JSON: sorted keys, two-space indent, newline terminated.

    Used for every JSON artifact so identical inputs give byte-identical files.
    """
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def relation_json_text(programs: Sequence[str], inputs: Sequence[str],
                       rows: Sequence[str]) -> str:
    """The canonical relation JSON (``canonical_dumps`` of its three string
    arrays), with each array written in one join: ``rows`` holds one '0'/'1'
    string per program."""

    def array(items: Sequence[str]) -> str:
        # json.dumps escapes every string with this same function (ensure_ascii)
        if not items:
            return "[]"
        return "[\n    " + ",\n    ".join(map(encode_basestring_ascii, items)) + "\n  ]"

    return (f'{{\n  "inputs": {array(inputs)},\n  "programs": {array(programs)},\n'
            f'  "rows": {array(rows)}\n}}\n')


def relation_csv_text(programs: Sequence[str], inputs: Sequence[str],
                      rows: Sequence[str]) -> str:
    """The transposed relation CSV: header ``input,<programs...>``, then a row of
    0/1 cells per input; ``rows`` as for :func:`relation_json_text`."""
    return csv_text(["input", *programs], zip(inputs, *rows))


def is_csv(path) -> bool:
    """A relation file named ``*.csv``, in any case, is the transposed CSV; any other is JSON."""
    return str(path).lower().endswith(".csv")


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text, each row ending in a newline; a field is quoted only if it holds
    a comma, a double quote, a newline or a carriage return, so plain ids are
    written bare."""
    lines: list[str] = []
    # the writer quotes fields holding a character of its line terminator, so
    # it writes "\r\n" and each row's terminator becomes "\n" here
    writer = csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join([line[:-2] + "\n" for line in lines])


_MISSING = object()


def json_field(path, record: dict, key: str, kinds: tuple, expected: str, default=_MISSING,
               where: str = ""):
    """``record[key]`` if it is one of ``kinds``, else a FormatError naming the field.

    A JSON true/false is a bool, which Python counts as an int: it passes only
    where ``kinds`` lists bool.
    """
    if key not in record:
        if default is _MISSING:
            raise FormatError(f"{path}: {where}missing field {key!r}")
        return default
    value = record[key]
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise FormatError(f"{path}: {where}field {key!r} must be {expected}, got {value!r}")
    return value


def json_object(text: str, where: str) -> dict:
    """The JSON object in ``text``.  Anything else is a FormatError starting with
    ``where``: invalid JSON, nesting too deep to decode, an integer longer than
    Python converts, or another top-level value."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
        raise FormatError(f"{where}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{where}: top-level value must be an object")
    return payload


def load_json_object(path) -> dict:
    """The JSON object in a UTF-8 file, as :func:`json_object` decodes it."""
    with open_text(path) as fh:
        text = fh.read()
    return json_object(text, str(path))


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@contextlib.contextmanager
def open_text(path, newline: str | None = None) -> Iterator[TextIO]:
    """``open(path, newline=newline)`` for reading UTF-8 text.

    Bytes that are not UTF-8 raise FormatError naming the path and the byte
    offset, not UnicodeDecodeError.
    """
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        # the stream decodes chunk by chunk, so its error's offset is within a
        # chunk: decode the whole file again for the offset in the file
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: byte {exc.start} is not valid UTF-8") from None
        raise
