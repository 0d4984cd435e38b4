"""Binary compliance classifiers over a relation, and exact evaluation metrics.

The positive class is "non-compliant". Metrics are computed in rational
arithmetic and rendered as decimals only at the edges.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

from .distill import ScoreVector
from .errors import FormatError, ValidationError
from .relation import Relation
from .util import canonical_dumps, open_text


@dataclass(frozen=True)
class GroundTruth:
    """Adjudicated per-input compliance labels, aligned to a relation's inputs."""

    inputs: tuple[str, ...]
    compliant: tuple[bool, ...]

    def __post_init__(self):
        if len(self.inputs) != len(self.compliant):
            raise ValidationError("labels and inputs differ in length")

    def noncompliant_indices(self) -> set[int]:
        return {k for k, ok in enumerate(self.compliant) if not ok}


@dataclass(frozen=True)
class ClassifierReport:
    predicted: tuple[bool, ...]  # True = flagged non-compliant
    tp: int
    fp: int
    fn: int
    tn: int
    precision: Fraction | None
    recall: Fraction | None
    f1: Fraction | None


def vote_classifier(rel: Relation, reject_threshold: int) -> set[int]:
    """Flag an input as non-compliant when at least ``reject_threshold`` programs reject it."""
    if not 1 <= reject_threshold <= rel.m:
        raise ValidationError(f"reject_threshold must lie in 1..{rel.m}")
    rejects = rel.m - rel.accepts.sum(axis=0)
    return {k for k in range(rel.n) if rejects[k] >= reject_threshold}


def score_rule_classifier(scores: ScoreVector, below: int, equal: int) -> set[int]:
    """Flag inputs whose inconsistency score is < ``below`` or == ``equal``."""
    return {
        k
        for k, score in enumerate(scores.scores)
        if score < below or score == equal
    }


def evaluate(predicted: set[int], truth: GroundTruth) -> ClassifierReport:
    """Precision/recall/F1 of a predicted non-compliant set against ground truth.

    Zero-denominator metrics are reported as None, never 0.
    """
    n = len(truth.inputs)
    for k in predicted:
        if not 0 <= k < n:
            raise ValidationError(f"predicted index {k} out of range for n={n}")
    actual = truth.noncompliant_indices()
    tp = len(predicted & actual)
    fp = len(predicted - actual)
    fn = len(actual - predicted)
    tn = n - tp - fp - fn
    precision = Fraction(tp, tp + fp) if tp + fp else None
    recall = Fraction(tp, tp + fn) if tp + fn else None
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return ClassifierReport(
        predicted=tuple(k in predicted for k in range(n)),
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def load_ground_truth(path, rel: Relation) -> GroundTruth:
    """CSV ``input,compliant`` with 0/1 cells, aligned to the relation by input id."""
    labels: dict[str, bool] = {}
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if header != ["input", "compliant"]:
            raise FormatError(f"{path}: line 1: header must be 'input,compliant'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 or row[1] not in ("0", "1"):
                raise FormatError(f"{path}: line {lineno}: expected '<input>,0|1'")
            if row[0] in labels:
                raise ValidationError(f"{path}: duplicate input {row[0]!r}")
            labels[row[0]] = row[1] == "1"
    missing = [name for name in rel.inputs if name not in labels]
    if missing or len(labels) != rel.n:
        raise ValidationError(
            f"{path}: labels do not cover exactly the relation's inputs "
            f"(missing {missing[:3]}, {len(labels)} labeled vs {rel.n} inputs)"
        )
    return GroundTruth(
        inputs=rel.inputs,
        compliant=tuple(labels[name] for name in rel.inputs),
    )


def _render(value: Fraction | None) -> float | None:
    return None if value is None else float(value)


def report_json(report: ClassifierReport, inputs: tuple[str, ...]) -> str:
    payload = {
        "flagged": [name for name, hit in zip(inputs, report.predicted) if hit],
        "counts": {"tp": report.tp, "fp": report.fp, "fn": report.fn, "tn": report.tn},
        "precision": _render(report.precision),
        "recall": _render(report.recall),
        "f1": _render(report.f1),
    }
    return canonical_dumps(payload)
