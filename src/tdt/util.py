"""Small shared helpers: bitmask subsets, canonical JSON and CSV output."""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Iterator, Sequence


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


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for j in indices:
        out |= 1 << j
    return out


def submasks(mask: int) -> Iterator[int]:
    """All subsets of a mask, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def facet_masks(mask: int) -> Iterator[int]:
    """All subsets of a mask with exactly one bit removed."""
    for j in bits(mask):
        yield mask & ~(1 << j)


def canonical_dumps(payload) -> str:
    """Canonical JSON: sorted keys, two-space indent, newline terminated.

    Used for every JSON artifact so identical inputs give byte-identical files.
    """
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text, each row ending in a newline; a field is quoted only if it holds
    a comma, a double quote or a newline, so plain ids are written bare."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
