"""Seeded input generators for the benchmark workloads.

Every generator takes a seed and sizes and returns plain data; ``write_*``
helpers turn that data into the files the ``tdt`` CLI reads.  The files are
written here, in the canonical formats, so the program under test only ever
sees generated inputs and the benchmark keeps its own copy of the truth (the
planted accept matrix) to check the program's outputs against.

Three families:

- ``dialects``: programs share one core format; each rejects the inputs that
  carry its own quirk features, plus a small rate of noise.  At most 2^m
  distinct accept-sets, so work grows with n.
- ``uniform``: every cell accepts independently with probability p, so the
  number of distinct accept-sets approaches min(n, 2^m) and power-set work
  dominates.
- ``corpus``: small text files with planted quirk tokens, and ``awk`` one-line
  parsers that write ``parse error`` to stderr for their own tokens.  One
  parser blocks on a hang token by reading a FIFO nobody writes, so it times
  out without spinning a core or starting a grandchild.
"""

from __future__ import annotations

import json
import os
import shlex
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Matrices:
    """Generated relation plus the side files that go with it."""

    programs: tuple[str, ...]
    inputs: tuple[str, ...]
    accepts: np.ndarray        # bool (m, n): the planted accept matrix
    features: tuple[str, ...]
    has_feature: np.ndarray    # bool (n, p)
    compliant: np.ndarray      # bool (n,)


def _names(prefix: str, count: int) -> tuple[str, ...]:
    width = len(str(max(count - 1, 0)))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


# Quirk features each dialect program rejects: program j trips on features
# j and j+3 (mod the feature count), so neighbouring dialects share a quirk.
def _quirk_sets(m: int, n_features: int) -> list[tuple[int, ...]]:
    return [tuple(sorted({j % n_features, (j + 3) % n_features})) for j in range(m)]


def dialects(seed: int, m: int, n: int, n_features: int = 8,
             feature_rate: float = 0.06, noise: float = 0.01) -> Matrices:
    rng = np.random.default_rng([seed, 1])
    has = rng.random((n, n_features)) < feature_rate
    reject = np.zeros((m, n), dtype=bool)
    for j, quirks in enumerate(_quirk_sets(m, n_features)):
        reject[j] = has[:, list(quirks)].any(axis=1)
    flip = rng.random((m, n)) < noise
    return Matrices(
        programs=_names("p", m),
        inputs=_names("in", n),
        accepts=~reject ^ flip,
        features=_names("f", n_features),
        has_feature=has,
        compliant=~has.any(axis=1),
    )


def uniform(seed: int, m: int, n: int, p: float = 0.7, n_features: int = 4,
            feature_rate: float = 0.2, noncompliant_rate: float = 0.1) -> Matrices:
    rng = np.random.default_rng([seed, 2])
    accepts = rng.random((m, n)) < p
    return Matrices(
        programs=_names("p", m),
        inputs=_names("in", n),
        accepts=accepts,
        features=_names("f", n_features),
        has_feature=rng.random((n, n_features)) < feature_rate,
        compliant=rng.random(n) >= noncompliant_rate,
    )


# ---------------------------------------------------------------------------
# corpus of small files and awk parsers

TOKENS = tuple(f"QK{i:02d}" for i in range(10))
HANG_TOKEN = "QKHANG"
# Tokens each parser reports as a parse error; the last parser also hangs.
PARSER_TOKENS = (
    ("QK00", "QK01"),
    ("QK01", "QK02", "QK03"),
    ("QK04", "QK05"),
    ("QK06", "QK07"),
    ("QK08", "QK09"),
)
WORDS = tuple(
    "alpha beta gamma delta header trailer object stream xref length filter "
    "page font image table row cell entry value key name size offset".split()
)


@dataclass(frozen=True)
class Corpus:
    files: tuple[str, ...]       # file names, sorted (the relation's input order)
    texts: tuple[str, ...]
    hangs: tuple[str, ...]       # files carrying the hang token
    matrices: Matrices           # planted relation, token features, truth


def corpus(seed: int, n_files: int, n_hangs: int, token_rate: float = 0.06,
           lines: tuple[int, int] = (3, 9)) -> Corpus:
    rng = np.random.default_rng([seed, 3])
    files = _names("doc", n_files)
    has = rng.random((n_files, len(TOKENS))) < token_rate
    hang = np.zeros(n_files, dtype=bool)
    hang[rng.choice(n_files, size=n_hangs, replace=False)] = True
    texts = []
    for k in range(n_files):
        body = [
            " ".join(WORDS[w] for w in rng.integers(0, len(WORDS), size=6))
            for _ in range(int(rng.integers(lines[0], lines[1] + 1)))
        ]
        for t in np.flatnonzero(has[k]):
            line = int(rng.integers(0, len(body)))
            body[line] = f"{body[line]} {TOKENS[t]}"
        if hang[k]:
            # first line, so the hang parser blocks before any token can reject
            body.insert(0, HANG_TOKEN)
        texts.append("\n".join(body) + "\n")
    index = {t: i for i, t in enumerate(TOKENS)}
    accepts = np.ones((len(PARSER_TOKENS), n_files), dtype=bool)
    for j, tokens in enumerate(PARSER_TOKENS):
        accepts[j] = ~has[:, [index[t] for t in tokens]].any(axis=1)
    accepts[-1] &= ~hang
    matrices = Matrices(
        programs=tuple(f"awk{j}" for j in range(len(PARSER_TOKENS))),
        inputs=files,
        accepts=accepts,
        features=TOKENS,
        has_feature=has,
        compliant=~has.any(axis=1) & ~hang,
    )
    return Corpus(
        files=files,
        texts=tuple(texts),
        hangs=tuple(f for f, h in zip(files, hang) if h),
        matrices=matrices,
    )


def awk_command(tokens: tuple[str, ...], fifo: Path | None) -> str:
    """One-line awk parser: ``parse error`` on stderr for any of its tokens."""
    program = f'/{"|".join(tokens)}/ {{ print "parse error: quirk" > "/dev/stderr"; exit 1 }}'
    if fifo is None:
        return f"awk {shlex.quote(program)} {{input}}"
    program = f'/{HANG_TOKEN}/ {{ getline line < fifo }} ' + program
    return f"awk -v fifo={shlex.quote(str(fifo))} {shlex.quote(program)} {{input}}"


def write_corpus(c: Corpus, directory: Path, config_path: Path, timeout_secs: float,
                 parallelism: int) -> None:
    """Corpus files, the FIFO the hang parser reads, and the run configuration."""
    files_dir = directory / "corpus"
    files_dir.mkdir(parents=True)
    for name, text in zip(c.files, c.texts):
        (files_dir / name).write_text(text)
    fifo = (directory / "never-written.fifo").resolve()
    os.mkfifo(fifo)
    last = len(PARSER_TOKENS) - 1
    config = {
        "parsers": [
            {
                "name": name,
                "command": awk_command(tokens, fifo if j == last else None),
                "policy": "stderr-empty",
                "keywords": ["parse error"],
            }
            for j, (name, tokens) in enumerate(zip(c.matrices.programs, PARSER_TOKENS))
        ],
        "corpus": str(files_dir.resolve()),
        "glob": "doc*",
        "timeout_secs": timeout_secs,
        "parallelism": parallelism,
    }
    config_path.write_text(json.dumps(config, indent=2) + "\n")


# ---------------------------------------------------------------------------
# file writers (canonical formats, written independently of tdt)


def relation_rows(accepts: np.ndarray) -> list[str]:
    digits = accepts.astype(np.uint8) + ord("0")
    return [row.tobytes().decode("ascii") for row in digits]


def write_relation(mats: Matrices, path: Path) -> None:
    payload = {
        "programs": list(mats.programs),
        "inputs": list(mats.inputs),
        "rows": relation_rows(mats.accepts),
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _bool_csv(header: list[str], names: tuple[str, ...], cells: np.ndarray) -> str:
    digits = cells.astype(np.uint8).reshape(len(names), -1) + ord("0")
    rows = [",".join(row.tobytes().decode("ascii")) for row in digits]
    return "\n".join([",".join(header)] + [f"{a},{b}" for a, b in zip(names, rows)]) + "\n"


def write_features(mats: Matrices, path: Path) -> None:
    path.write_text(_bool_csv(["input", *mats.features], mats.inputs, mats.has_feature))


def write_truth(mats: Matrices, path: Path) -> None:
    path.write_text(_bool_csv(["input", "compliant"], mats.inputs, mats.compliant))


def properties(mats: Matrices) -> dict:
    """Sizes and shares a later claim about inputs with some property can cite."""
    masks = column_masks(mats.accepts)
    _, inverse, counts = np.unique(masks, return_inverse=True, return_counts=True)
    return {
        "m": int(mats.accepts.shape[0]),
        "n": int(mats.accepts.shape[1]),
        "distinct_accept_sets": int(len(counts)),
        "repeated_accept_set_share": float((counts[inverse] > 1).mean()) if len(masks) else 0.0,
    }


def column_masks(accepts: np.ndarray) -> np.ndarray:
    """Accept-set bitmask of every input, computed without tdt."""
    return (1 << np.arange(accepts.shape[0], dtype=np.int64)) @ accepts.astype(np.int64)
