#!/usr/bin/env python3
"""Walk the bundled four-parser/twenty-file example through the whole pipeline.

Prints the weighted Venn diagram, the Dowker graph with its inconsistent
edges, the consistent core, the inconsistent files, the inconsistency-score
histogram, and the distillation trace.
"""

import numpy as np

from tdt.diagram import build_diagram, deficient_regions
from tdt.distill import distill, histogram_csv, inconsistency_scores
from tdt.dowker import (
    betti_numbers,
    build_complex,
    build_graph,
    consistent_core,
    graph_dot,
    inconsistent_inputs,
)
from tdt.relation import Relation, names_from_mask

ROWS = (
    "10000011111100001111",
    "01100011100010000000",
    "00011000010011111111",
    "00000100001101111111",
)


def main() -> None:
    matrix = np.array([[c == "1" for c in row] for row in ROWS], dtype=bool)
    rel = Relation(
        programs=("A", "B", "C", "D"),
        inputs=tuple(f"f{k + 1:02d}" for k in range(20)),
        accepts=matrix,
    )

    weights = build_diagram(rel)
    print("region weights (nonzero):")
    for mask, w in enumerate(weights):
        if w:
            print(f"  {{{','.join(names_from_mask(rel, mask))}}}: {w}")
    print("deficient regions:",
          [names_from_mask(rel, m) for m in sorted(deficient_regions(weights, rel.m))])

    graph = build_graph(build_complex(rel))
    print(f"\nDowker graph: {len(graph.faces)} faces, "
          f"{len(graph.tails)} covering edges, {int((~graph.consistent).sum())} inconsistent")
    core = consistent_core(graph)
    print("consistent core:",
          sorted(",".join(names_from_mask(rel, m)) for m in core))
    flagged = sorted(inconsistent_inputs(rel))
    print("inconsistent files:", [rel.inputs[k] for k in flagged])

    betti = betti_numbers(build_complex(rel), 1)
    print(f"Betti numbers over GF(2): {betti}  "
          "(the 1-cycle isolates the odd parser out)")

    scores, _ = inconsistency_scores(rel)
    print("\nscore histogram:")
    print(histogram_csv(scores), end="")

    _, trace = distill(rel)
    print("distillation: screened "
          f"{trace['screened'] or 'nothing'}, "
          f"stepwise removals {[s['removed'] for s in trace['steps']] or 'none'}, "
          f"survivors {trace['final']}")

    print("\nDOT rendering of the weighted Dowker graph:")
    print(graph_dot(graph), end="")


if __name__ == "__main__":
    main()
