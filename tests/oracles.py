"""Independent brute-force oracles used to fix expected test values.

Everything here works on raw row-strings / column masks with direct
enumeration, deliberately avoiding the library's own data structures and
algorithms, so the two sides of each check stay independent.
"""

import csv
import json
from itertools import combinations

import numpy as np


def masks_from_rows(rows: list[str]) -> list[int]:
    """Column accept-set masks of a matrix given as '0'/'1' row strings."""
    m, n = len(rows), len(rows[0]) if rows else 0
    return [
        sum(1 << j for j in range(m) if rows[j][k] == "1")
        for k in range(n)
    ]


def first_bad_cell(rows: list[str]) -> tuple[int, int, str] | None:
    """(row, column, cell) of the first cell, row by row, that is not '0' or '1'."""
    for j, row in enumerate(rows):
        for k, cell in enumerate(row):
            if cell not in ("0", "1"):
                return j, k, cell
    return None


def region_weights(rows: list[str]) -> dict[int, int]:
    """Exact region weight of every program subset, by direct recount."""
    m = len(rows)
    cols = masks_from_rows(rows)
    return {mask: sum(1 for c in cols if c == mask) for mask in range(1 << m)}


def consistent_by_subset_pairs(weights: dict[int, int], m: int) -> bool:
    """Order preservation checked over every nested pair of subsets."""
    for small in range(1 << m):
        for big in range(1 << m):
            if small & ~big == 0 and weights[small] > weights[big]:
                if small != big:
                    return False
    return True


def consistent_by_covers(weights: dict[int, int], m: int) -> bool:
    """Order preservation checked over covering pairs only."""
    for big in range(1, 1 << m):
        for j in range(m):
            if big >> j & 1:
                small = big & ~(1 << j)
                if weights[small] > weights[big]:
                    return False
    return True


def deficient_by_covers(weights: dict[int, int], m: int) -> set[int]:
    """Nonempty regions outweighed by one of their covering subsets."""
    return {
        big
        for big in range(1, 1 << m)
        for j in range(m)
        if big >> j & 1 and weights[big & ~(1 << j)] > weights[big]
    }


def faces_of(rows: list[str]) -> set[int]:
    """Nonempty program subsets jointly accepting at least one input, downward closed."""
    cols = [c for c in masks_from_rows(rows) if c]
    faces: set[int] = set()
    for col in cols:
        members = [j for j in range(len(rows)) if col >> j & 1]
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                faces.add(sum(1 << j for j in combo))
    return faces


def core_faces(rows: list[str]) -> set[int]:
    """Faces all of whose internal covering pairs (over nonempty subsets) are consistent."""
    weights = region_weights(rows)
    faces = faces_of(rows)
    out = set()
    for face in faces:
        ok = True
        members = [j for j in range(len(rows)) if face >> j & 1]
        for size in range(2, len(members) + 1):
            for combo in combinations(members, size):
                big = sum(1 << j for j in combo)
                for j in combo:
                    small = big & ~(1 << j)
                    if weights[small] > weights[big]:
                        ok = False
        if ok:
            out.add(face)
    return out


def inconsistent_input_indices(rows: list[str]) -> set[int]:
    """Inputs whose nonempty accept-set lies outside the core (0-based)."""
    core = core_faces(rows)
    return {
        k
        for k, col in enumerate(masks_from_rows(rows))
        if col and col not in core
    }


def restrict_rows(rows: list[str], keep: list[int]) -> list[str]:
    return [rows[j] for j in keep]


def relation_product(rows: list[str], columns: list[list[bool]], subset: int,
                     strict: bool = False) -> list[bool]:
    """Per feature column: does every input inconsistent under the restriction
    to ``subset`` carry it (strict: and no other input)?  Input by input."""
    bad = inconsistent_input_indices(restrict_rows(rows, _members(subset, len(rows))))
    return [
        all(column[k] for k in bad)
        and not (strict and any(has for k, has in enumerate(column) if k not in bad))
        for column in columns
    ]


def attribution(rows: list[str], columns: list[list[bool]], top: int, strict: bool = False):
    """Feature attribution by direct enumeration: the relation product of every
    subset of size m - r for r = 0..top keyed (mask, column), each level's set
    of columns flagged under all its subsets, each column's first level (or
    None), and per level whether no input is inconsistent under any subset."""
    m = len(rows)
    product, levels, clean = {}, {}, {}
    for r in range(top + 1):
        levels[r], clean[r] = set(range(len(columns))), True
        for combo in combinations(range(m), m - r):
            mask = sum(1 << j for j in combo)
            for i, flag in enumerate(relation_product(rows, columns, mask, strict)):
                product[(mask, i)] = flag
                if not flag:
                    levels[r].discard(i)
            if inconsistent_input_indices(restrict_rows(rows, list(combo))):
                clean[r] = False
    first = [next((r for r in levels if i in levels[r]), None) for i in range(len(columns))]
    return product, levels, first, clean


def sweep_scores(rows: list[str], min_size: int = 2) -> list[int]:
    """Inconsistency scores via the per-subset sweep, all by direct enumeration."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    scores = [0] * n
    for size in range(min_size, m + 1):
        for combo in combinations(range(m), size):
            sub = restrict_rows(rows, list(combo))
            for k in inconsistent_input_indices(sub):
                scores[k] += 1
    return scores


def pair_scores(rows: list[str], min_size: int = 2) -> list[int]:
    """Pairs-mode scores, pair by pair: for every tau of at least min_size
    programs and every proper subset sigma of tau (the empty set included) with
    weight(sigma) > weight(tau), each input accepted by every program in sigma
    and rejected by some program in tau - sigma scores one."""
    m = len(rows)
    weights = region_weights(rows)
    cols = masks_from_rows(rows)
    scores = [0] * len(cols)
    for tau in range(1 << m):
        if _popcount(tau) < min_size:
            continue
        for sigma in range(tau):
            if sigma & ~tau or weights[sigma] <= weights[tau]:
                continue
            for k, col in enumerate(cols):
                accepted = all(col >> j & 1 for j in _members(sigma, m))
                if accepted and any(not col >> j & 1 for j in _members(tau & ~sigma, m)):
                    scores[k] += 1
    return scores


def pair_scores_by_blame(rows: list[str], min_size: int = 2) -> list[int]:
    """Pairs-mode scores by a loop over the pairs, blaming on column masks: for
    every tau of at least min_size programs, walk its proper submasks sigma and,
    where weight(sigma) > weight(tau), add one to each input accepted by all of
    sigma and rejected by one program of tau - sigma.  It visits 3^m pairs but
    touches the inputs only for flagged ones, so it stays fast to m = 11."""
    m = len(rows)
    cols = np.array(masks_from_rows(rows), dtype=np.int64)
    weights = np.bincount(cols, minlength=1 << m).tolist()
    hits = np.zeros(len(cols), dtype=np.int64)
    for tau in range(1, 1 << m):
        if _popcount(tau) < min_size:
            continue
        sigma = tau
        while sigma:
            sigma = (sigma - 1) & tau
            if weights[sigma] > weights[tau]:
                extra = tau & ~sigma
                hits += (cols & sigma == sigma) & (cols & extra != extra)
    return hits.tolist()


def project_weights(weights: list[int], sigma: int) -> list[int]:
    """A 2^m weight vector projected onto the programs in sigma, region by
    region: each mask, restricted to sigma with bit t for sigma's t-th program,
    collects the weight of the region it restricts."""
    masks = np.arange(len(weights))
    regions = np.zeros_like(masks)
    for t, j in enumerate(_members(sigma, len(weights).bit_length() - 1)):
        regions |= (masks >> j & 1) << t
    out = np.zeros(1 << _popcount(sigma), dtype=np.int64)
    np.add.at(out, regions, weights)
    return out.tolist()


def distill_trace(programs: list[str], rows: list[str]):
    """Distillation by restrict-and-rebuild: drop every program that rejects a
    majority, then per round recount the weights of the rows left, pick the
    largest deficient region (ties: larger shortfall, then smaller mask) and its
    heaviest facet (ties: smaller mask), and delete the program between them.

    Returns (screened names, steps as (region names, face names, removed name),
    final names, final rows), or None when the screen keeps no program.
    """
    n = len(rows[0]) if rows else 0
    screened = [name for name, row in zip(programs, rows) if 2 * row.count("1") < n]
    kept = [j for j, row in enumerate(rows) if 2 * row.count("1") >= n]
    if not kept:
        return None
    names, rows = [programs[j] for j in kept], [rows[j] for j in kept]
    steps = []
    while True:
        m = len(rows)
        weights = region_weights(rows)
        deficient = deficient_by_covers(weights, m)
        if not deficient:
            return screened, steps, names, rows

        def shortfall(region):
            return max(weights[region & ~(1 << j)] for j in _members(region, m)) - weights[region]

        region = min(deficient, key=lambda x: (-_popcount(x), -shortfall(x), x))
        facets = [region & ~(1 << j) for j in _members(region, m)]
        face = min(facets, key=lambda f: (-weights[f], f))
        gone = (region & ~face).bit_length() - 1
        steps.append((
            [names[j] for j in _members(region, m)],
            [names[j] for j in _members(face, m)],
            names[gone],
        ))
        del names[gone], rows[gone]


def stalk(rows: list[str], sigma: int) -> dict[int, int]:
    """Inputs per acceptance pattern within sigma, for every pattern (a subset of sigma)."""
    cols = masks_from_rows(rows)
    return {
        z: sum(1 for c in cols if c & sigma == z)
        for z in range(sigma + 1)
        if z & ~sigma == 0
    }


def display_order(m: int, sigma: int) -> list[int]:
    """The regions meeting sigma, by ascending (|Z & sigma|, |Z|, Z)."""
    regions = [mask for mask in range(1, 1 << m) if mask & sigma]
    regions.sort(key=lambda mask: (_popcount(mask & sigma), _popcount(mask), mask))
    return regions


def restrict_stalk(stalk: dict[int, int], sigma: int, sub: int) -> dict[int, int]:
    """Coarsen a stalk over sigma to its face sub by merging classes."""
    assert sub & ~sigma == 0, "sub must be a face of sigma"
    out = {z: 0 for z in range(sub + 1) if z & ~sub == 0}
    for pattern, count in stalk.items():
        out[pattern & sub] += count
    return out


def stalks_agree(stalk_of, sigma: int, m: int) -> bool:
    """Does the stalk over every coface of sigma (one program more) restrict to
    the stalk over sigma?  ``stalk_of(mask)`` gives the stalk over a mask."""
    return all(
        restrict_stalk(stalk_of(sigma | 1 << j), sigma | 1 << j, sigma) == stalk_of(sigma)
        for j in range(m)
        if not sigma >> j & 1
    )


def consistency_at(stalk_of, rows: list[str], sigma: int) -> bool:
    """The sheaf condition at sigma, both clauses checked: the cofaces' stalks
    agree with sigma's, and the relation restricted to sigma is consistent."""
    members = _members(sigma, len(rows))
    restricted = restrict_rows(rows, members)
    return stalks_agree(stalk_of, sigma, len(rows)) and consistent_by_covers(
        region_weights(restricted), len(members)
    )


def euler_characteristic(faces: set[int]) -> int:
    """Sum over faces of (-1)^dim, dim = popcount - 1."""
    return sum((-1) ** (bin(face).count("1") - 1) for face in faces)


def bipartite_components(rows: list[str]) -> int:
    """Connected components of the program-input incidence graph, isolated nodes dropped."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for j in range(m):
        for k in range(n):
            if rows[j][k] == "1":
                union(("p", j), ("f", k))
    roots = {find(x) for x in parent}
    return len(roots)


def skeleton_components(rows: list[str]) -> list[tuple[int, ...]]:
    """Vertex sets of the components of the complex's 1-skeleton, by graph search:
    programs that accept something, joined when they accept a common input."""
    m = len(rows)
    cols = [c for c in masks_from_rows(rows) if c]
    seen: set[int] = set()
    components = []
    for start in range(m):
        if start in seen or not any(c >> start & 1 for c in cols):
            continue
        stack, members = [start], set()
        while stack:
            j = stack.pop()
            if j not in members:
                members.add(j)
                stack.extend(i for c in cols if c >> j & 1 for i in range(m) if c >> i & 1)
        seen |= members
        components.append(tuple(sorted(members)))
    return components


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _members(mask: int, width: int) -> list[int]:
    return [j for j in range(width) if mask >> j & 1]


def closure(generators, width: int) -> set[int]:
    """Every nonempty subset of some generator mask."""
    faces: set[int] = set()
    for gen in generators:
        members = _members(gen, width)
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                faces.add(sum(1 << j for j in combo))
    return faces


def facets_of(faces: set[int]) -> set[int]:
    """Faces not strictly contained in another face."""
    return {f for f in faces if not any(f != g and f & ~g == 0 for g in faces)}


def covering_edges(faces: set[int], weights: dict[int, int]) -> dict[tuple[int, int], bool]:
    """(face, face minus one program) -> is the smaller one no heavier, for nonempty heads."""
    return {
        (face, face & ~(1 << j)): weights.get(face & ~(1 << j), 0) <= weights.get(face, 0)
        for face in faces
        for j in range(face.bit_length())
        if face >> j & 1 and face & ~(1 << j)
    }


def _gf2_rank(rows: list[int]) -> int:
    """Rank by elimination on the highest set bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def betti_numbers(facets: set[int], width: int, max_dim: int) -> tuple[int, ...]:
    """GF(2) Betti numbers, faces of each dimension enumerated from the facets and
    boundary rows indexed through a dict."""
    faces_by_dim = []
    for d in range(max_dim + 2):
        faces = set()
        for facet in facets:
            for combo in combinations(_members(facet, width), d + 1):
                faces.add(sum(1 << j for j in combo))
        faces_by_dim.append(sorted(faces))
    ranks = [0] * (max_dim + 2)
    for d in range(1, max_dim + 2):
        lower = {mask: i for i, mask in enumerate(faces_by_dim[d - 1])}
        rows = [
            sum(1 << lower[mask & ~(1 << j)] for j in _members(mask, width))
            for mask in faces_by_dim[d]
        ]
        ranks[d] = _gf2_rank(rows)
    return tuple(len(faces_by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))


def graph_dot(labels: list[str], faces: set[int], weights: dict[int, int]) -> str:
    """DOT text of the Dowker graph, node by node and edge by edge."""
    width = len(labels)
    lines = ["digraph dowker {"]
    for mask in sorted(faces, key=lambda f: (_popcount(f), f)):
        names = ",".join(labels[j] for j in _members(mask, width))
        lines.append(f'    n{mask} [label="{{{names}}}; {weights.get(mask, 0)}"];')
    edges = covering_edges(faces, weights)
    for tail, head in sorted(edges, key=lambda e: (_popcount(e[0]), e[0], e[1])):
        attr = "" if edges[tail, head] else " [color=red]"
        lines.append(f"    n{tail} -> n{head}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_report(programs: list[str], weights: dict[int, int]) -> str:
    """The weights/deficiency report, each key built from the region's names."""
    m = len(programs)

    def label(mask: int) -> str:
        return ",".join(sorted(programs[j] for j in _members(mask, m)))

    deficient = sorted(deficient_by_covers(weights, m), key=lambda x: (_popcount(x), x))
    payload = {
        "weights": {label(mask): weights[mask] for mask in range(1 << m)},
        "deficient": [label(mask) for mask in deficient],
        "consistent": not deficient,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def dual_generators(rows: list[str]) -> tuple[list[int], list[int]]:
    """(first input of each distinct nonzero column, in first-appearance order;
    each program's mask over those columns)."""
    cols = masks_from_rows(rows)
    firsts: list[int] = []
    for k, col in enumerate(cols):
        if col and all(cols[f] != col for f in firsts):
            firsts.append(k)
    program_masks = [
        sum(1 << v for v, k in enumerate(firsts) if cols[k] >> j & 1) for j in range(len(rows))
    ]
    return firsts, program_masks


def selection_report(weights: dict[int, int], m: int, input_weights: list[int], threshold: int):
    """(threshold, excluded, components) per candidate threshold: components of the
    complex spanned by the nonempty regions of weight >= threshold, by union-find."""
    rows = []
    for t in sorted({w for w in weights.values() if w > 0} | {threshold}):
        parent: dict[int, int] = {}

        def find(v):
            parent.setdefault(v, v)
            while parent[v] != v:
                v = parent[v]
            return v

        for region in range(1, 1 << m):
            if weights[region] >= t:
                members = _members(region, m)
                for v in members:
                    parent[find(v)] = find(members[0])
        components = len({find(v) for v in list(parent)})
        rows.append((t, sum(1 for w in input_weights if w < t), components))
    return rows


def read_01_csv(path, kind: str):
    """A 0/1 CSV (``kind`` 'relation', 'feature' or 'truth') read record by record
    and cell by cell: ('ok', columns, inputs, rows of bools) or ('error', message).
    An error names the physical line its record ends on."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        records, ends = [], []
        try:
            for record in reader:
                records.append(record)
                ends.append(reader.line_num)
        except csv.Error as exc:
            return "error", f"{path}: line {reader.line_num}: {exc}"
    if not records:
        return "error", f"{path}: empty file"
    if not records[0] or records[0][0] != "input":
        return "error", f"{path}: line 1: header must start with 'input'"
    columns = records[0][1:]
    if kind == "relation" and not columns:
        return "error", f"{path}: line 1: no program columns"
    if kind == "truth" and columns != ["compliant"]:
        return "error", f"{path}: line 1: header must be 'input,compliant'"
    inputs, rows = [], []
    for lineno, record in zip(ends[1:], records[1:]):
        if not record:
            continue
        if len(record) != len(columns) + 1:
            return "error", (
                f"{path}: line {lineno}: expected {len(columns) + 1} cells, got {len(record)}"
            )
        for column, cell in zip(columns, record[1:]):
            if cell not in ("0", "1"):
                if kind == "relation":
                    detail = f"column {column!r} is {cell!r}, expected 0 or 1"
                else:
                    detail = f"cell {cell!r}, expected 0 or 1"
                return "error", f"{path}: line {lineno}: {detail}"
        inputs.append(record[0])
        rows.append([cell == "1" for cell in record[1:]])
    return "ok", columns, inputs, rows


# ---------------------------------------------------------------------------
# The per-face code that the bulk Betti, DOT and weights-report paths replaced,
# kept as references: boundary-matrix ranks, one f-string per DOT line, and the
# report as canonical JSON of one dict.


def rank_betti_numbers(face_flags: np.ndarray, width: int, max_dim: int) -> tuple[int, ...]:
    """GF(2) Betti numbers from the ranks of the boundary matrices between the
    faces of each dimension, with rows as Python ints (the faces as flags over all
    2^width masks)."""
    faces = np.flatnonzero(face_flags)
    sizes = np.array([_popcount(face) for face in faces.tolist()], dtype=int)
    faces_by_dim = [faces[sizes == d + 1] for d in range(max_dim + 2)]
    ranks = [0] * (max_dim + 2)  # ranks[d] = rank of boundary map C_d -> C_{d-1}
    for d in range(1, max_dim + 2):
        upper, lower = faces_by_dim[d], faces_by_dim[d - 1]
        rows = [0] * len(upper)
        for j in range(width):
            (row_index,) = np.nonzero(upper >> j & 1)
            position = np.searchsorted(lower, upper[row_index] ^ 1 << j)
            for r, p in zip(row_index.tolist(), position.tolist()):
                rows[r] |= 1 << p
        ranks[d] = _gf2_rank(rows)
    return tuple(len(faces_by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))


def dot_label(name: str) -> str:
    """A program name inside a quoted DOT string."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def fstring_graph_dot(graph) -> str:
    """DOT text of a ``DowkerGraph``, one f-string per node and per edge."""
    lines = ["digraph dowker {"]
    for mask in graph.faces.tolist():
        names = ",".join(dot_label(graph.labels[j]) for j in _members(mask, graph.width))
        lines.append(f'    n{mask} [label="{{{names}}}; {int(graph.weights[mask])}"];')
    for tail, head, ok in zip(graph.tails.tolist(), graph.heads.tolist(),
                              graph.consistent.tolist()):
        lines.append(f"    n{tail} -> n{head}{'' if ok else ' [color=red]'};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dict_diagram_report(programs: list[str], weights: dict[int, int]) -> str:
    """The weights report as ``canonical_dumps`` of one dict, keyed in mask order
    (a key that several masks share keeps the last mask's weight)."""
    from tdt.util import canonical_dumps

    m = len(programs)

    def label(mask: int) -> str:
        return ",".join(sorted(programs[j] for j in _members(mask, m)))

    deficient = sorted(deficient_by_covers(weights, m), key=lambda x: (_popcount(x), x))
    return canonical_dumps({
        "weights": {label(mask): weights[mask] for mask in range(1 << m)},
        "deficient": [label(mask) for mask in deficient],
        "consistent": not deficient,
    })
