"""Raise sites that no other test reaches: each call below must fail with its
``TdtError`` subclass and its exact message."""

import sys

import numpy as np
import pytest

from tdt.classify import evaluate
from tdt.distill import select_inputs, singleton_screen
from tdt.errors import ConfigurationError, EmptyScreenError, FormatError, ValidationError
from tdt.features import attribute_features
from tdt.harness import ParserSpec, RunConfig, _resolve_commands, load_run_config, run_corpus
from tdt.relation import Relation, load_feature_relation, load_relation, restrict_inputs, \
    validate_mask
from tdt.sheaf import display_vector

from conftest import relation_from_masks

REL = relation_from_masks([0b01, 0b11, 0b10], m=2)
PASS = f"{sys.executable} -c pass {{input}}"


def _config(**changes):
    fields = {"parsers": (ParserSpec("A", PASS),), "corpus": "corpus"}
    return RunConfig(**{**fields, **changes})


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# (id, call on a scratch directory, error class, message with {tmp} for that directory)
CASES = [
    ("relation-ndim", lambda tmp: Relation(("A",), ("f",), np.zeros(1, bool)),
     ValidationError, "accept matrix must be two-dimensional"),
    ("feature-shape", lambda tmp: attribute_features(REL, np.zeros((1, 1), bool)),
     ValidationError, "feature matrix shape (1, 1) does not match the relation's 3 inputs"),
    ("feature-duplicates",
     lambda tmp: load_feature_relation(_file(tmp, "f.csv", "input,x,x\nc,0,1\nb,1,1\n"), REL),
     ValidationError, "duplicate feature identifiers"),
    ("feature-duplicate-inputs",
     lambda tmp: load_feature_relation(_file(tmp, "f.csv", "input,x\ng1,1\ng1,0\ng3,1\n"), REL),
     ValidationError, "duplicate input identifiers"),
    ("feature-alignment",
     lambda tmp: load_feature_relation(_file(tmp, "f.csv", "input,x\ng1,1\ng3,0\ng2,1\n"), REL),
     ValidationError, "feature relation inputs do not match the relation's inputs"),
    ("validate-mask", lambda tmp: validate_mask(REL, 0b100),
     ValidationError, "mask 0x4 sets bits outside the 2 programs"),
    ("restrict-inputs", lambda tmp: restrict_inputs(REL, [0, 3]),
     ValidationError, "input index 3 out of range for n=3"),
    ("restrict-inputs-set", lambda tmp: restrict_inputs(REL, {0, 1}),
     ValidationError, "input indices must be an ascending integer array without repeats"),
    ("restrict-inputs-unsorted", lambda tmp: restrict_inputs(REL, [1, 0]),
     ValidationError, "input indices must be an ascending integer array without repeats"),
    ("restrict-inputs-repeated", lambda tmp: restrict_inputs(REL, [1, 1]),
     ValidationError, "input indices must be an ascending integer array without repeats"),
    ("json-row-count",
     lambda tmp: load_relation(_file(tmp, "r.json", '{"programs": ["A", "B"], "inputs": [], '
                                                    '"rows": [""]}')),
     FormatError, "{tmp}/r.json: field 'rows' has 1 entries for 2 programs"),
    ("csv-empty", lambda tmp: load_relation(_file(tmp, "r.csv", "")),
     FormatError, "{tmp}/r.csv: empty file"),
    ("screen-empty", lambda tmp: singleton_screen(restrict_inputs(REL, [])),
     ValidationError, "singleton screen needs a non-empty corpus"),
    ("screen-all-removed",  # names as reprs, so the message stays one line
     lambda tmp: singleton_screen(Relation(("a\nb", "C"), ("f",), np.zeros((2, 1), bool))),
     EmptyScreenError,
     "every program rejects a majority of the corpus ('a\\nb': 0/1 accepted, 'C': 0/1 accepted)"),
    ("select-threshold", lambda tmp: select_inputs(REL, -1),
     ValidationError, "threshold must be >= 0"),
    ("attribute-max-removed", lambda tmp: attribute_features(REL, np.ones((3, 1)), max_removed=2),
     ValidationError, "max_removed must lie in 0..1"),
    ("display-sigma", lambda tmp: display_vector(REL, 0),
     ValidationError, "sigma must be a nonempty program subset"),
    ("truth-lengths", lambda tmp: evaluate(np.ones(2, bool), np.ones(1, bool)),
     ValidationError, "labels and inputs differ in length"),
    ("config-no-parsers", lambda tmp: _config(parsers=()),
     ValidationError, "configuration needs at least one parser"),
    ("config-parallelism", lambda tmp: _config(parallelism=0),
     ValidationError, "parallelism must be >= 1"),
    ("config-stderr-cap", lambda tmp: _config(stderr_cap_bytes=-1),
     ValidationError, "stderr_cap_bytes must be >= 0"),
    ("config-keyword-columns",  # the keyword CSV would name column 'A:b:c' twice
     lambda tmp: _config(parsers=(ParserSpec("A", PASS, keywords=("b:c",)),
                                  ParserSpec("A:b", PASS, keywords=("c",)))),
     ValidationError, "duplicate keyword column 'A:b:c'"),
    ("config-parser-entry",
     lambda tmp: load_run_config(_file(tmp, "run.json", '{"parsers": [5], "corpus": "c"}')),
     FormatError, "{tmp}/run.json: parsers[0] must be an object"),
    ("command-unsplittable",
     lambda tmp: _resolve_commands(_config(parsers=(ParserSpec("A", "'{input}"),))),
     ConfigurationError, "parser 'A': unparsable command: No closing quotation"),
    ("corpus-no-match", lambda tmp: run_corpus(_config(corpus=str(tmp), glob="*.none")),
     ConfigurationError, "no corpus files match '*.none' under '{tmp}'"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_error_path(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message.format(tmp=tmp_path)
