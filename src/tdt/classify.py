"""Binary compliance classifiers over a relation, and exact evaluation metrics.

The positive class is "non-compliant". Metrics are computed in rational
arithmetic and rendered as decimals only at the edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from ._numpy import np
from .errors import FormatError, ValidationError
from .relation import Relation, read_01_csv
from .util import canonical_dumps

if TYPE_CHECKING:
    from .distill import ScoreVector


@dataclass(frozen=True)
class GroundTruth:
    """Adjudicated per-input compliance labels, aligned to a relation's inputs."""

    inputs: tuple[str, ...]
    compliant: tuple[bool, ...]

    def __post_init__(self):
        if len(self.inputs) != len(self.compliant):
            raise ValidationError("labels and inputs differ in length")

    def noncompliant_indices(self) -> set[int]:
        return set(np.flatnonzero(~np.array(self.compliant, dtype=bool)).tolist())


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
    return set(np.flatnonzero(rejects >= reject_threshold).tolist())


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
    indices = np.fromiter(predicted, dtype=np.int64, count=len(predicted))
    bad = indices[(indices < 0) | (indices >= n)]
    if bad.size:
        raise ValidationError(f"predicted index {int(bad[0])} out of range for n={n}")
    flags = np.zeros(n, dtype=bool)
    flags[indices] = True
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
        predicted=tuple(flags.tolist()),
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

    def check_columns(columns):
        if columns != ["compliant"]:
            raise FormatError(f"{path}: line 1: header must be 'input,compliant'")

    _, inputs, compliant = read_01_csv(
        path, check_columns, lambda _, cell: f"cell {cell!r}, expected 0 or 1"
    )
    flags = compliant[:, 0].tolist()
    if inputs != list(rel.inputs):  # equal lists hold no duplicate and cover exactly
        labels = dict(zip(inputs, flags))
        if len(labels) != len(inputs):
            seen: set[str] = set()
            for name in inputs:
                if name in seen:
                    raise ValidationError(f"{path}: duplicate input {name!r}")
                seen.add(name)
        if labels.keys() != set(rel.inputs):  # the relation's inputs are distinct
            missing = [name for name in rel.inputs if name not in labels]
            raise ValidationError(
                f"{path}: labels do not cover exactly the relation's inputs "
                f"(missing {missing[:3]}, {len(labels)} labeled vs {rel.n} inputs)"
            )
        flags = map(labels.__getitem__, rel.inputs)
    return GroundTruth(inputs=rel.inputs, compliant=tuple(flags))


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
