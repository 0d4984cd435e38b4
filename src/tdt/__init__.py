"""Consensus input-format analysis from program accept/reject behavior.

Build a relation (which programs accept which inputs), project it to a
weighted Venn diagram and Dowker complex, find the consistent core, score and
distill away inconsistency, and attribute what remains to input features.

The public names below load their module on first use, so ``import tdt``
loads neither numpy nor any submodule.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the public names it provides as ``tdt.<name>``
_EXPORTS = {
    "classify": "evaluate load_ground_truth score_rule_classifier vote_classifier",
    "diagram": "build_diagram deficient_regions is_consistent project_diagram",
    "distill": "distill inconsistency_scores select_inputs singleton_screen",
    "dowker": "DowkerComplex DowkerGraph betti_numbers build_complex build_graph "
              "consistent_core graph_dot inconsistent_inputs",
    "errors": "CapacityError ConfigurationError EmptyScreenError FormatError "
              "InconsistentDiagramError TdtError ValidationError",
    "features": "attribute_features greedy_feature_pruning variation_of_information",
    "harness": "RunConfig RunResult accept_rows keyword_table load_run_config run_corpus",
    "relation": "MAX_PROGRAMS Relation column_masks load_feature_relation "
                "load_relation mask_from_names names_from_mask restrict_inputs restrict_programs "
                "save_relation",
    "sheaf": "display_vector",
    "util": "",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted({*_EXPORTS, *_MODULE_OF})


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Where a submodule and a public name share a name (``tdt.distill``), the
    import system's binding of the loaded submodule keeps the public name."""

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and name in _MODULE_OF:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
