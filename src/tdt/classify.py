"""Binary compliance classifiers over a relation, and exact evaluation metrics.

The positive class is "non-compliant". Metrics are computed in rational
arithmetic and rendered as decimals only at the edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from ._numpy import np
from .errors import FormatError, ValidationError
from .relation import Relation, read_01_csv
from .util import canonical_dumps


@dataclass(frozen=True)
class ClassifierReport:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: Fraction | None
    recall: Fraction | None
    f1: Fraction | None


def vote_classifier(rel: Relation, reject_threshold: int) -> np.ndarray:
    """Per input: do at least ``reject_threshold`` programs reject it? (True = non-compliant)"""
    if not 1 <= reject_threshold <= rel.m:
        raise ValidationError(f"reject_threshold must lie in 1..{rel.m}")
    return rel.m - rel.accepts.sum(axis=0) >= reject_threshold


def score_rule_classifier(scores: np.ndarray, below: int, equal: int) -> np.ndarray:
    """Per input: is its inconsistency score < ``below`` or == ``equal``?"""
    return (scores < below) | (scores == equal)


def evaluate(predicted: np.ndarray, compliant: np.ndarray) -> ClassifierReport:
    """Precision/recall/F1 of per-input non-compliant flags against compliance labels.

    Zero-denominator metrics are reported as None, never 0.
    """
    if len(predicted) != len(compliant):
        raise ValidationError("labels and inputs differ in length")
    tp = int(np.count_nonzero(predicted & ~compliant))
    fp = int(np.count_nonzero(predicted & compliant))
    fn = int(np.count_nonzero(~compliant)) - tp
    tn = len(predicted) - tp - fp - fn
    precision = Fraction(tp, tp + fp) if tp + fp else None
    recall = Fraction(tp, tp + fn) if tp + fn else None
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return ClassifierReport(
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def load_ground_truth(path, rel: Relation) -> np.ndarray:
    """CSV ``input,compliant`` with 0/1 cells: the bool ``compliant`` column in
    ``rel.inputs`` order."""

    def check_columns(columns):
        if columns != ["compliant"]:
            raise FormatError(f"{path}: line 1: header must be 'input,compliant'")

    _, inputs, compliant = read_01_csv(
        path, check_columns, lambda _, cell: f"cell {cell!r}, expected 0 or 1"
    )
    flags = compliant[:, 0]
    if inputs != list(rel.inputs):  # equal lists hold no duplicate and cover exactly
        labels = dict(zip(inputs, range(len(inputs))))
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
        flags = flags[list(map(labels.__getitem__, rel.inputs))]
    return flags


def _render(value: Fraction | None) -> float | None:
    return None if value is None else float(value)


def report_json(report: ClassifierReport, inputs: tuple[str, ...], predicted: np.ndarray) -> str:
    payload = {
        "flagged": list(compress(inputs, predicted.tolist())),
        "counts": {"tp": report.tp, "fp": report.fp, "fn": report.fn, "tn": report.tn},
        "precision": _render(report.precision),
        "recall": _render(report.recall),
        "f1": _render(report.f1),
    }
    return canonical_dumps(payload)
