import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdt.errors import FormatError, ValidationError
from tdt.relation import (
    Relation,
    column_masks,
    load_feature_relation,
    load_relation,
    mask_from_names,
    names_from_mask,
    relation_pgm,
    restrict_inputs,
    restrict_programs,
    save_relation,
)

from conftest import TOY_ROWS, TRIO_ROWS, feature_csv, program_names, relation_from_masks
from oracles import first_bad_cell, masks_from_rows, region_weights


def test_load_json_trio(tmp_path, trio_relation):
    path = tmp_path / "rel.json"
    payload = {
        "programs": ["A", "B", "C"],
        "inputs": [f"c{k + 1:02d}" for k in range(14)],
        "rows": list(TRIO_ROWS),
    }
    path.write_text(json.dumps(payload))
    rel = load_relation(path)
    assert rel.m == 3 and rel.n == 14
    assert rel == trio_relation


def test_load_json_empty_corpus(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"programs": ["solo"], "inputs": [], "rows": [""]}))
    rel = load_relation(path)
    assert rel.m == 1 and rel.n == 0


def test_load_csv_rejects_bad_cell(tmp_path):
    path = tmp_path / "rel.csv"
    path.write_text("input,A,B\nf1,1,0\nf2,2,0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_relation(path)


def test_load_json_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"programs": ["A", "A"], "inputs": [], "rows": ["", ""]}))
    with pytest.raises(ValidationError):
        load_relation(path)


def test_load_json_names_offending_row(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"programs": ["A"], "inputs": ["f1"], "rows": ["2"]}))
    with pytest.raises(FormatError, match=r"rows\[0\]"):
        load_relation(path)


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"programs": [1, 2], "inputs": ["f1"], "rows": ["1", "0"]}, r"programs\[0\]"),
        ({"programs": ["A"], "inputs": ["f1", {"id": 2}], "rows": ["10"]}, r"inputs\[1\]"),
    ],
    ids=["int-programs", "object-inputs"],
)
def test_load_json_rejects_non_string_ids(tmp_path, capsys, payload, field):
    from tdt.cli import main

    path = tmp_path / "rel.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=field):
        load_relation(path)
    weights = tmp_path / "w.json"
    assert main(["analyze", str(path), "--weights", str(weights)]) == 2
    assert "must be a string" in capsys.readouterr().err
    assert not weights.exists()


def test_load_json_names_the_first_non_string_id(tmp_path):
    ids = [f"i{k}" for k in range(1000)]
    ids[700], ids[900] = 7, None
    programs = ["A", "B", True, 2.5]
    path = tmp_path / "rel.json"
    for payload, message in (
        ({"programs": ["A"], "inputs": ids, "rows": ["0" * 1000]}, "inputs[700]"),
        ({"programs": programs, "inputs": ["f"], "rows": ["1"] * 4}, "programs[2]"),
    ):
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError) as excinfo:
            load_relation(path)
        assert str(excinfo.value) == f"{path}: {message} must be a string"


# Bad cells the row check must report: a lone surrogate (json.load accepts
# "\\ud800"; no low surrogate here, which json.load would pair with it),
# look-alike digits, an astral code point, control and ASCII junk.
BAD_CELLS = ("\ud800", "\uff11", "\u0660", "\U0001f600", "\x00", " ", "2", "x")


def test_load_json_matches_per_cell_oracle(tmp_path, capsys):
    from tdt.cli import main

    rng = random.Random(20)
    path = tmp_path / "rel.json"
    for case in range(150):
        m, n = rng.randint(1, 5), rng.choice((0, 1, 2, rng.randint(3, 40)))
        rows = ["".join(rng.choice("01") for _ in range(n)) for _ in range(m)]
        if n and case % 5:
            for _ in range(rng.randint(1, 3)):
                j, k = rng.randrange(m), rng.randrange(n)
                rows[j] = rows[j][:k] + rng.choice(BAD_CELLS) + rows[j][k + 1:]
        payload = {"programs": list(program_names(m)),
                   "inputs": [f"i{k}" for k in range(n)], "rows": rows}
        path.write_text(json.dumps(payload))
        bad = first_bad_cell(rows)
        if bad is None:
            rel = load_relation(path)
            assert rel.accepts.shape == (m, n)
            assert column_masks(rel).tolist() == masks_from_rows(rows)
            continue
        j, k, cell = bad
        message = f"{path}: rows[{j}][{k}] is {cell!r}, expected '0' or '1'"
        with pytest.raises(FormatError) as excinfo:
            load_relation(path)
        assert str(excinfo.value) == message
        if case % 10 == 1:
            assert main(["analyze", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


def test_load_json_rejects_wrong_length_row(tmp_path, capsys):
    from tdt.cli import main

    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"programs": ["A", "B"], "inputs": ["f1", "f2"],
                                "rows": ["10", "1"]}))
    message = f"{path}: rows[1] must be a string of length 2"
    with pytest.raises(FormatError) as excinfo:
        load_relation(path)
    assert str(excinfo.value) == message
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_round_trip(tmp_path, toy_relation, fmt):
    path = tmp_path / f"rel.{fmt}"
    save_relation(toy_relation, path)
    assert load_relation(path) == toy_relation


def test_restrict_programs_trio(trio_relation):
    sub = restrict_programs(trio_relation, mask_from_names(trio_relation, ["A", "C"]))
    assert sub.programs == ("A", "C")
    assert sub.inputs == trio_relation.inputs
    weights = region_weights(["".join("1" if v else "0" for v in row) for row in sub.accepts])
    assert [weights[i] for i in range(4)] == [4, 3, 3, 4]


def test_restrict_programs_identity(toy_relation):
    assert restrict_programs(toy_relation, 0b1111) == toy_relation


def test_restrict_programs_rejects_empty(toy_relation):
    with pytest.raises(ValidationError):
        restrict_programs(toy_relation, 0)


def test_restrict_inputs_picks_inconsistent_cols(toy_relation):
    sub = restrict_inputs(toy_relation, np.array([9, 12, 16, 17, 18, 19]))
    assert sub.n == 6
    assert sub.programs == toy_relation.programs
    assert column_masks(sub).tolist() == [0b0101, 0b0110, 0b1101, 0b1101, 0b1101, 0b1101]


def test_restrict_inputs_identity_and_empty(toy_relation):
    assert restrict_inputs(toy_relation, range(20)) == toy_relation
    emptied = restrict_inputs(toy_relation, [])
    assert emptied.n == 0 and emptied.m == 4


def test_column_masks_match_oracle(toy_relation):
    masks = column_masks(toy_relation)
    assert masks.dtype == np.int64
    assert masks.tolist() == masks_from_rows(list(TOY_ROWS))
    assert masks[9] == mask_from_names(toy_relation, ["A", "C"])
    assert masks[5] == mask_from_names(toy_relation, ["D"])
    zero = relation_from_masks([0], m=2)
    assert column_masks(zero).tolist() == masks_from_rows(["0", "0"]) == [0]
    with pytest.raises(ValueError):
        masks[0] = 0


def test_column_masks_popcount_matches_column_sum(toy_relation):
    masks = column_masks(toy_relation).tolist()
    assert masks == masks_from_rows(list(TOY_ROWS))
    for k, mask in enumerate(masks):
        assert bin(mask).count("1") == int(toy_relation.accepts[:, k].sum())


def test_names_round_trip(toy_relation):
    mask = mask_from_names(toy_relation, ["C", "A"])
    assert names_from_mask(toy_relation, mask) == ("A", "C")
    with pytest.raises(ValidationError):
        mask_from_names(toy_relation, ["nope"])


def test_pgm_export(trio_relation):
    text = relation_pgm(trio_relation)
    lines = text.splitlines()
    assert lines[:3] == ["P2", "14 3", "255"]
    assert lines[3].split() == ["0", "0", "255", "255", "255", "0", "0", "0",
                               "255", "0", "255", "255", "255", "0"]
    assert len(lines) == 3 + 3
    pixels = (" ".join("255" if c == "1" else "0" for c in row) for row in TRIO_ROWS)
    assert text == "P2\n14 3\n255\n" + "".join(f"{line}\n" for line in pixels)
    # no inputs: one empty pixel row per program
    assert relation_pgm(relation_from_masks([], m=2)) == "P2\n0 2\n255\n\n\n"


def _features(path, rel):
    """The feature loader's names and matrix (as lists) for ``path`` against ``rel``."""
    features, has_feature = load_feature_relation(path, rel)
    return features, has_feature.tolist()


def _on(inputs):
    """A one-program relation on ``inputs``, for the feature loader to align to."""
    return Relation(("A",), tuple(inputs), np.zeros((1, len(inputs)), dtype=bool))


def test_feature_relation_csv_round_trip(tmp_path, toy_relation, toy_features):
    names, has = toy_features
    path = tmp_path / "feats.csv"
    path.write_text(feature_csv(toy_relation.inputs, names, has))
    assert _features(path, toy_relation) == (names, has.tolist())


def test_relation_validation():
    with pytest.raises(ValidationError):
        Relation(programs=(), inputs=(), accepts=np.zeros((0, 0), dtype=bool))
    with pytest.raises(ValidationError):
        Relation(programs=("A",), inputs=("f", "f"), accepts=np.zeros((1, 2), dtype=bool))
    with pytest.raises(ValidationError):
        Relation(programs=("A",), inputs=("f",), accepts=np.zeros((2, 1), dtype=bool))


def test_relation_matrix_is_immutable(toy_relation):
    with pytest.raises(ValueError):
        toy_relation.accepts[0, 0] = False


AWKWARD_IDS = ("a,b", 'say "hi"', "two\nlines", '"', ",", "", "a\rb", "\r")


def test_csv_loaders_match_per_cell_oracle(tmp_path):
    """Seeded 0/1 CSV files, some with one or two bad cells, a short or long row,
    a blank line and quoted ids: the loaders give the record-by-record reader's
    result or its exact error."""
    import csv

    from oracles import read_01_csv

    rng = random.Random(44)
    bad_cells = ("2", "", " 1", "00", "x", "１", "1 ")
    errors = 0
    for case in range(160):
        kind = ("relation", "feature")[case % 2]
        p, n = rng.randint(0 if case % 17 == 0 else 1, 5), rng.randint(0, 25)
        columns = [f"c{j}" for j in range(p)]
        ids = [AWKWARD_IDS[k] if k < len(AWKWARD_IDS) and case % 3 == 0 else f"in{k}"
               for k in range(n)]
        records = [["input", *columns]]
        records += [[name, *(rng.choice("01") for _ in range(p))] for name in ids]
        if n and case % 4:
            k, j = rng.randint(1, n), rng.randint(1, p) if p else 0
            if case % 4 == 1 and p:
                for _ in range(rng.randint(1, 2)):
                    records[rng.randint(1, n)][rng.randint(1, p)] = rng.choice(bad_cells)
            elif case % 4 == 2:
                records[k] = records[k][: rng.randrange(1, p + 1)] if p else records[k] + ["1"]
            else:
                records[k].append(rng.choice("01"))
        if rng.random() < 0.7:
            records.insert(rng.randint(1, len(records)), [])
        path = tmp_path / f"case{case}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(records)

        expected = read_01_csv(path, kind)
        load = load_relation if kind == "relation" else lambda path: _features(path, _on(()))
        if expected[0] == "error":
            errors += 1
            with pytest.raises(FormatError) as excinfo:
                load(path)
            assert str(excinfo.value) == expected[1]
            continue
        _, cols, inputs, rows = expected
        if kind == "relation":
            loaded = load(path)
            assert loaded.programs == tuple(cols) and loaded.inputs == tuple(inputs)
            assert loaded.accepts.T.tolist() == rows
        else:
            features, has = load_feature_relation(path, _on(inputs))
            assert features == tuple(cols) and has.reshape(len(rows), p).tolist() == rows
    assert 40 < errors < 130


def _check_against_oracle(path, kind):
    """The loader of ``kind`` gives the oracle's result or raises its exact error."""
    from tdt.classify import load_ground_truth

    from oracles import read_01_csv

    expected = read_01_csv(path, kind)
    load = {"relation": load_relation, "feature": lambda path: _features(path, _on(())),
            "truth": lambda path: load_ground_truth(path, None)}[kind]
    if expected[0] == "error":
        with pytest.raises(FormatError) as excinfo:
            load(path)
        assert str(excinfo.value) == expected[1]
        return expected
    _, columns, inputs, rows = expected
    if kind != "truth" and (len(set(inputs)) < len(inputs) or len(set(columns)) < len(columns)):
        with pytest.raises(ValidationError, match="^duplicate .* identifiers$"):
            load(path)
    elif kind == "relation":
        rel = load(path)
        assert (rel.programs, rel.inputs) == (tuple(columns), tuple(inputs))
        assert rel.accepts.T.tolist() == rows
    elif kind == "feature":
        features, has = load_feature_relation(path, _on(inputs))
        assert features == tuple(columns)
        assert has.reshape(len(rows), len(columns)).tolist() == rows
        if len(inputs) > 1:  # the same ids in another order do not align
            with pytest.raises(ValidationError, match="inputs do not match the relation's"):
                load_feature_relation(path, _on(inputs[::-1]))
    elif len(set(inputs)) < len(inputs):
        first = next(name for k, name in enumerate(inputs) if name in inputs[:k])
        distinct = tuple(dict.fromkeys(inputs))
        rel = Relation(programs=("A",), inputs=distinct,
                       accepts=np.zeros((1, len(distinct)), dtype=bool))
        with pytest.raises(ValidationError) as excinfo:
            load_ground_truth(path, rel)
        assert str(excinfo.value) == f"{path}: duplicate input {first!r}"
    else:
        # in the file's order, and reversed, which the loader aligns by id
        for order in (inputs, inputs[::-1]):
            rel = Relation(programs=("A",), inputs=tuple(order),
                           accepts=np.zeros((1, len(order)), dtype=bool))
            compliant = load_ground_truth(path, rel)
            labels = dict(zip(inputs, (row[0] for row in rows)))
            assert compliant.tolist() == [labels[name] for name in order]
    return expected


# Edits of one body line of a plain (unquoted) file that the bulk reader must
# reject as the csv module's records do.
PLAIN_REJECTIONS = {
    "bad-last-cell": lambda line: line[:-1] + "2",
    "bad-first-cell": lambda line: line.replace(",", ",x", 1),
    "empty-cell": lambda line: line[:-1],
    "spaced-cell": lambda line: line[:-1] + " " + line[-1],
    "two-digit-cell": lambda line: line + "0",
    "extra-comma": lambda line: line + ",",
    "extra-cell": lambda line: line + ",1",
    "comma-in-id": lambda line: "a," + line,
    "short-row": lambda line: line.rsplit(",", 1)[0],
    "only-id": lambda line: line.split(",", 1)[0],
    "non-ascii-cell": lambda line: line[:-1] + "\u0661",
}


@pytest.mark.parametrize("kind", ["relation", "feature", "truth"])
@pytest.mark.parametrize("edit", sorted(PLAIN_REJECTIONS))
def test_csv_loaders_match_oracle_on_plain_rejections(tmp_path, kind, edit):
    """Plain files, each with one edited line, with and without blank lines and
    non-ASCII ids: the loaders raise the record-by-record reader's exact error."""
    rng = random.Random(f"{kind}-{edit}")
    p = 1 if kind == "truth" else 3
    header = "input,compliant" if kind == "truth" else "input,c0,c1,c2"
    for blanks, ids in ((0, "in{}"), (5, "\u65e5{}\u00e9")):
        lines = [",".join([ids.format(k), *(rng.choice("01") for _ in range(p))])
                 for k in range(40)]
        k = rng.randrange(40)
        lines[k] = PLAIN_REJECTIONS[edit](lines[k])
        for _ in range(blanks):
            lines.insert(rng.randrange(41), "")
        path = tmp_path / f"{kind}.csv"
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        assert _check_against_oracle(path, kind)[0] == "error"
    # an extra comma on one line and one missing on the next keep the count
    lines = [",".join([f"in{k}", *("1" * p)]) for k in range(6)]
    lines[2] += ",1"
    lines[3] = lines[3].rsplit(",", 1)[0]
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    assert _check_against_oracle(path, kind)[0] == "error"


# Pieces of 0/1 CSV text: the csv module's special characters (a NUL is an
# error under Python 3.10 and a plain character from 3.11), cells, non-ASCII
# code points of each UTF-8 length, and characters that str.splitlines breaks
# lines at but the csv module does not.
CSV_PIECES = ("0", "1", "0", "1", ",", ",", '"', "\r", "\n", "\r\n", "\0", ",0", ",1",
              "x", " ", "\u00e9", "\u65e5", "\U0001f600", "\x0b", "\x1c", "\x85", "\u2028")


@st.composite
def csv_01_texts(draw):
    kind = draw(st.sampled_from(["relation", "feature", "truth"]))
    p = 1 if kind == "truth" else draw(st.integers(0, 3))
    lines = ["input,compliant" if kind == "truth"
             else ",".join(["input", *(f"c{j}" for j in range(p))])]
    pieces = st.lists(st.sampled_from(CSV_PIECES), max_size=6).map("".join)
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):  # a well-formed record, its id maybe quoted
            name = draw(st.text(st.sampled_from("ab,\"\u00e9\n"), max_size=3))
            if set(name) & set(',"\n') or draw(st.booleans()):
                name = '"' + name.replace('"', '""') + '"'
            lines.append(name + "".join(draw(st.sampled_from([",0", ",1"])) for _ in range(p)))
        else:
            lines.append(draw(pieces))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))
    if draw(st.booleans()):  # one more piece anywhere, the header included
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(pieces) + text[at:]
    return kind, text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(csv_01_texts())
def test_csv_loaders_match_oracle_on_generated_text(tmp_path_factory, case):
    kind, text = case
    path = tmp_path_factory.mktemp("csv") / f"{kind}.csv"
    path.write_bytes(text.encode("utf-8"))
    _check_against_oracle(path, kind)


def test_csv_loaders_read_crlf_files_in_bulk(tmp_path, toy_relation, toy_features, monkeypatch):
    """A file with CRLF line ends, as csv.writer and Windows tools write them,
    blank lines included, loads without the csv module's reader, as its LF copy does."""
    import csv

    from tdt.classify import load_ground_truth
    from tdt.relation import relation_csv

    truth = "input,compliant\n" + "".join(f"{name},{k % 2}\n"
                                          for k, name in enumerate(toy_relation.inputs))
    cases = (
        (load_relation, relation_csv(toy_relation)),
        (lambda path: _features(path, toy_relation),
         feature_csv(toy_relation.inputs, *toy_features)),
        (lambda path: load_ground_truth(path, toy_relation).tolist(), truth),
    )

    def no_reader(*args, **kwargs):
        raise AssertionError("a plain CRLF file went to csv.reader")

    for load, text in cases:
        text = text.replace("\n", "\n\n", 2)[:-1]  # blank lines, and no final newline
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        expected = load(lf)
        with monkeypatch.context() as patch:
            patch.setattr(csv, "reader", no_reader)
            assert load(crlf) == expected


def test_csv_writers_quote_awkward_ids(tmp_path):
    import csv
    import io

    from tdt.distill import inconsistency_scores, scores_csv
    from tdt.harness import RunResult, keyword_table

    ids = ("plain", *AWKWARD_IDS)
    masks = [3, 1, 2, 0, 3, 1, 2, 0, 3]
    rel = Relation(programs=("A", "B,C"), inputs=ids,
                   accepts=relation_from_masks(masks, m=2).accepts)
    path = tmp_path / "rel.csv"
    save_relation(rel, path)
    assert load_relation(path) == rel

    path = tmp_path / "feats.csv"
    path.write_text(feature_csv(ids, ("f,1", 'g"'), rel.accepts.T))
    assert _features(path, rel) == (("f,1", 'g"'), rel.accepts.T.tolist())

    scores, _ = inconsistency_scores(rel)
    records = list(csv.reader(io.StringIO(scores_csv(ids, scores), newline="")))
    assert records == [["input_id", "score"], *([name, str(s)] for name, s in zip(ids, scores))]

    results = [RunResult(parser=p, input=name, accept=False, exit_status=1, timed_out=False,
                         stderr=b"k,w x" if k % 2 else b"", truncated=False, wall_time=0.0)
               for p in "pq" for k, name in enumerate(ids)]
    text = keyword_table(ids, results, {"p": ("k,w",), "q": ("x",)})
    records = list(csv.reader(io.StringIO(text, newline="")))
    assert records == [["input", "p:k,w", "q:x"],
                       *([name, str(k % 2), str(k % 2)] for k, name in enumerate(ids))]


def test_csv_writers_leave_plain_ids_bare(toy_relation):
    from tdt.relation import relation_csv

    lines = relation_csv(toy_relation).splitlines()
    assert lines[0] == "input,A,B,C,D"
    assert lines[1] == "f01,1,0,0,0"
    assert len(lines) == 21


# ids the JSON writer must escape as json.dumps does: non-ASCII (a lone
# surrogate too), quotes, backslashes, control characters, commas
JSON_IDS = ("café", "日本", "\U0001f600", "\ud800", "back\\slash", "tab\there", "\x00",
            *AWKWARD_IDS)


@pytest.mark.parametrize("n", [0, 1, len(JSON_IDS)])
def test_relation_json_writer_matches_json_dumps(n):
    from tdt.relation import relation_json
    from tdt.util import relation_json_text

    ids = JSON_IDS[:n]
    programs = ("A", 'q"uote', "über,x", "sl\\ash")
    rel = Relation(programs=programs, inputs=ids,
                   accepts=np.random.default_rng(n).random((4, n)) < 0.5)
    rows = ["".join("1" if v else "0" for v in row) for row in rel.accepts]
    expected = json.dumps({"programs": list(programs), "inputs": list(ids), "rows": rows},
                          sort_keys=True, indent=2) + "\n"
    assert relation_json_text(programs, ids, rows) == expected
    assert relation_json(rel) == expected
