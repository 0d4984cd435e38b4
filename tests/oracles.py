"""Independent brute-force oracles used to fix expected test values.

Everything here works on raw row-strings / column masks with direct
enumeration, deliberately avoiding the library's own data structures and
algorithms, so the two sides of each check stay independent.
"""

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
