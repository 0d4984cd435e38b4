from fractions import Fraction

import numpy as np
import pytest

from tdt.classify import evaluate, load_ground_truth, score_rule_classifier, vote_classifier
from tdt.distill import inconsistency_scores
from tdt.errors import FormatError, ValidationError


def flags(n, flagged):
    """An n-input flag vector, True at the given indices."""
    out = np.zeros(n, dtype=bool)
    out[list(flagged)] = True
    return out


def test_vote_classifier_toy(toy_relation):
    # every toy column has at least one acceptance, so nothing loses 4 votes
    assert np.array_equal(vote_classifier(toy_relation, 4), flags(toy_relation.n, ()))


def test_vote_classifier_trio_k1(trio_relation):
    flagged = vote_classifier(trio_relation, 1)
    assert np.array_equal(flagged, flags(14, set(range(14)) - {11}))  # only c12: all accept


def test_vote_classifier_all_ones():
    from conftest import relation_from_rows

    rel = relation_from_rows(("111", "111"))
    for k in (1, 2):
        assert np.array_equal(vote_classifier(rel, k), flags(3, ()))


def test_vote_classifier_monotone(toy_relation):
    previous = flags(toy_relation.n, range(toy_relation.n))
    for k in range(1, 5):
        flagged = vote_classifier(toy_relation, k)
        assert not (flagged & ~previous).any()
        previous = flagged


def test_vote_classifier_bounds(toy_relation):
    with pytest.raises(ValidationError):
        vote_classifier(toy_relation, 0)
    with pytest.raises(ValidationError):
        vote_classifier(toy_relation, 5)


def test_score_rule_classifier():
    scores = np.array([0, 3, 6, 7])
    assert np.array_equal(score_rule_classifier(scores, below=3, equal=6), flags(4, {0, 2}))
    assert np.array_equal(score_rule_classifier(scores, below=0, equal=-1), flags(4, ()))


def test_score_rule_on_real_scores(toy_relation):
    scores, _ = inconsistency_scores(toy_relation)
    flagged = score_rule_classifier(scores, below=1, equal=4)
    zeros = {k for k, s in enumerate(scores.tolist()) if s == 0}
    fours = {k for k, s in enumerate(scores.tolist()) if s == 4}
    assert np.array_equal(flagged, flags(toy_relation.n, zeros | fours))


def test_evaluate_exact_fractions():
    compliant = np.arange(12) == 11  # 11 non-compliant, 1 compliant
    predicted = flags(12, range(12))  # flag everything: 11 TP, 1 FP, 0 FN
    report = evaluate(predicted, compliant)
    assert (report.tp, report.fp, report.fn, report.tn) == (11, 1, 0, 0)
    assert report.precision == Fraction(11, 12)
    assert report.recall == Fraction(1)
    assert report.f1 == Fraction(22, 23)


def test_evaluate_perfect_prediction():
    report = evaluate(flags(3, {1, 2}), np.array([True, False, False]))
    assert report.precision == report.recall == report.f1 == Fraction(1)


def test_evaluate_undefined_metrics():
    report = evaluate(flags(2, ()), np.array([False, False]))
    assert report.precision is None
    assert report.recall == Fraction(0)
    assert report.f1 is None


def test_evaluate_f1_identity_in_floats():
    report = evaluate(flags(10, {0, 1, 2, 3, 7}), np.arange(10) >= 7)
    p, r, f1 = float(report.precision), float(report.recall), float(report.f1)
    assert abs(f1 - 2 * p * r / (p + r)) < 1e-12


def test_evaluate_permutation_invariant():
    compliant = np.array([False, True, False, True])  # inputs a, b, c, d
    shuffled = compliant[::-1]  # inputs d, c, b, a
    r1 = evaluate(flags(4, {0, 2}), compliant)
    r2 = evaluate(flags(4, {1, 3}), shuffled)
    assert (r1.tp, r1.fp, r1.fn, r1.tn) == (r2.tp, r2.fp, r2.fn, r2.tn)


def test_load_ground_truth(tmp_path, trio_relation):
    rows = ["input,compliant"]
    rows += [f"{name},{int(k % 3 != 0)}" for k, name in enumerate(trio_relation.inputs)]
    path = tmp_path / "truth.csv"
    path.write_text("\n".join(rows) + "\n")
    compliant = load_ground_truth(path, trio_relation)
    assert compliant.dtype == bool and len(compliant) == trio_relation.n
    assert np.array_equal(compliant, np.arange(trio_relation.n) % 3 != 0)


def test_load_ground_truth_must_cover_inputs(tmp_path, trio_relation):
    path = tmp_path / "truth.csv"
    path.write_text("input,compliant\nc01,1\n")
    with pytest.raises(ValidationError):
        load_ground_truth(path, trio_relation)


def test_load_ground_truth_bad_cell(tmp_path, trio_relation):
    path = tmp_path / "truth.csv"
    path.write_text("input,compliant\nc01,yes\n")
    with pytest.raises(FormatError, match="line 2"):
        load_ground_truth(path, trio_relation)
