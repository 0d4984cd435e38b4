"""Independent brute-force oracles used to fix expected test values.

Everything here works on raw row-strings / column masks with direct
enumeration, deliberately avoiding the library's own data structures and
algorithms, so the two sides of each check stay independent.
"""

import csv
import json
from itertools import combinations


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
    """A 0/1 CSV (``kind`` 'relation' or 'feature') read record by record and cell
    by cell: ('ok', columns, inputs, rows of bools) or ('error', message).  An
    error names the physical line its record ends on."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        records, ends = [], []
        for record in reader:
            records.append(record)
            ends.append(reader.line_num)
    if not records:
        return "error", f"{path}: empty file"
    if not records[0] or records[0][0] != "input":
        return "error", f"{path}: line 1: header must start with 'input'"
    columns = records[0][1:]
    if kind == "relation" and not columns:
        return "error", f"{path}: line 1: no program columns"
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
