"""Brute-force enumeration of tree-type closed walks and their diagrams.

This is the independent combinatorial oracle for the weight recurrences in
the moments module.  A walk is a sequence of k+1 letters over the ordered
alphabet 1, 2, 3, ... starting at the root letter 1.  Each letter after the
first is one step; a letter may be marked "generalized", in which case the
step runs out to that letter and silently returns (a red step), otherwise
the walk moves there (a blue step).  The walker's position is therefore the
most recent ordinary letter, called the anchor here.  Steps never target
the current anchor (no self-loops), new letters must appear in first-use
order, and the walk must end with its anchor back at the root.

Every walk maps to a diagram: a multigraph on the letters whose skeleton
collects blue and red multiplicities per edge.  Tree-type means the
skeleton is acyclic and every blue multiplicity is even; only such walks
carry weight in the large-graph limit, and their weight is

    product over skeleton edges of v^(2(l+r)) / phi1^(l+r-1)

with l = blue multiplicity / 2 and r = red multiplicity on the edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Walk",
    "Diagram",
    "WalkBudgetError",
    "diagram_of_walk",
    "is_tree_type",
    "diagram_weight",
    "enumerate_tree_walks",
    "is_valid_tree_walk",
    "walk_profile",
    "oracle_tree_weight",
    "oracle_moment",
]

MAX_STEPS = 8


class WalkBudgetError(ValueError):
    """Enumeration request outside 1..MAX_STEPS steps."""


@dataclass(frozen=True)
class Walk:
    """A tagged letter sequence; generalized[i] marks letters[i] as a red step."""

    letters: tuple[int, ...]
    generalized: tuple[bool, ...]

    def __post_init__(self):
        if len(self.letters) != len(self.generalized):
            raise ValueError("letters and marks must have equal length")
        if not self.letters or self.letters[0] != 1 or self.generalized[0]:
            raise ValueError("walks start with the ordinary root letter 1")

    @property
    def steps(self) -> int:
        return len(self.letters) - 1


@dataclass(frozen=True)
class Diagram:
    """Colored multigraph of a walk: per-edge blue and red step counts."""

    vertex_count: int
    edge_counts: dict  # {(lo, hi): (blue_multiplicity, red_multiplicity)}


def diagram_of_walk(walk: Walk) -> Diagram:
    """Chronological run over the walk drawing one edge per step.

    Raises ValueError on malformed walks (self-loop steps or letters
    appearing out of first-use order).  Closure is not required here; the
    tree-type test is what downstream callers filter on.
    """
    anchor = 1
    seen = 1
    counts: dict[tuple[int, int], list[int]] = {}
    for idx in range(1, len(walk.letters)):
        target = walk.letters[idx]
        red = walk.generalized[idx]
        if target == anchor:
            raise ValueError(f"step {idx} targets its own anchor {anchor}")
        if target > seen + 1:
            raise ValueError(f"letter {target} used before {seen + 1} at step {idx}")
        seen = max(seen, target)
        key = (anchor, target) if anchor < target else (target, anchor)
        blue_red = counts.setdefault(key, [0, 0])
        blue_red[1 if red else 0] += 1
        if not red:
            anchor = target
    return Diagram(
        vertex_count=seen,
        edge_counts={k: (b, r) for k, (b, r) in counts.items()},
    )


def _final_anchor(walk: Walk) -> int:
    for idx in range(len(walk.letters) - 1, -1, -1):
        if not walk.generalized[idx]:
            return walk.letters[idx]
    return 1


def is_tree_type(diagram: Diagram) -> bool:
    """Acyclic skeleton with even blue multiplicity on every edge."""
    if any(blue % 2 for blue, _ in diagram.edge_counts.values()):
        return False
    # union-find cycle test over the skeleton
    parent = list(range(diagram.vertex_count + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in diagram.edge_counts:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def diagram_weight(diagram: Diagram, v: float, phi1: float) -> float:
    """Limit weight of a tree-type diagram."""
    if phi1 <= 0.0:
        raise ValueError(f"phi1 must be positive, got {phi1}")
    if not is_tree_type(diagram):
        raise ValueError("weight is defined for tree-type diagrams only")
    out = 1.0
    for blue, red in diagram.edge_counts.values():
        q = blue // 2 + red
        out *= v ** (2 * q) / phi1 ** (q - 1)
    return out


def is_valid_tree_walk(walk: Walk) -> bool:
    """Membership predicate for the tree-type walk stream of k steps.

    True iff the walk satisfies every construction rule (anchor rule,
    first-use letter order), returns to the root, and its diagram is
    tree-type.  Equals membership in enumerate_tree_walks(walk.steps).
    """
    try:
        diagram = diagram_of_walk(walk)
    except ValueError:
        return False
    if _final_anchor(walk) != 1:
        return False
    return is_tree_type(diagram)


def _search_tree_walks(k: int, leaf) -> None:
    """Depth-first search calling leaf(letters, marks, exits, reds, nverts)
    on each tree-type closed walk of k steps, in lexicographic order, with
    its root-exit count, red-step count and number of distinct letters.

    The choices are (target letter, ordinary or generalized).  Branches are
    pruned when the partial skeleton would acquire a cycle or when the
    walker can no longer reach the root in the remaining steps (the tree
    distance to the root equals the number of odd blue multiplicities, so
    this prune also enforces evenness).
    """
    if not 1 <= k <= MAX_STEPS:
        raise WalkBudgetError(f"k={k} outside enumeration budget 1..{MAX_STEPS}")

    letters, marks = [1], [False]
    # skeleton state: depth per vertex, neighbor lists
    depth = {1: 0}
    neighbors: dict[int, list[int]] = {1: []}

    def descend(anchor: int, nverts: int, remaining: int, exits: int, reds: int) -> None:
        if remaining == 0:
            if anchor == 1:
                leaf(letters, marks, exits, reds, nverts)
            return
        if depth[anchor] > remaining:
            return
        exits += anchor == 1
        # existing skeleton neighbors first (sorted), then the fresh letter
        targets = sorted(neighbors[anchor]) + [nverts + 1]
        for red in (False, True):
            if red and depth[anchor] == remaining:
                continue  # every remaining step must walk toward the root
            for target in targets:
                fresh = target == nverts + 1
                if fresh:
                    depth[target] = depth[anchor] + 1
                    neighbors[target] = [anchor]
                    neighbors[anchor].append(target)
                elif not red and depth[target] == depth[anchor] + 1 and depth[target] > remaining - 1:
                    continue  # moving away with no way back
                letters.append(target)
                marks.append(red)
                descend(anchor if red else target, nverts + fresh, remaining - 1, exits, reds + red)
                letters.pop()
                marks.pop()
                if fresh:
                    neighbors[anchor].pop()
                    del neighbors[target], depth[target]

    descend(1, 1, k, 0, 0)


def enumerate_tree_walks(k: int) -> list[Walk]:
    """All tree-type closed walks of exactly k steps, lexicographic order."""
    walks: list[Walk] = []
    _search_tree_walks(k, lambda letters, marks, *_: walks.append(Walk(tuple(letters), tuple(marks))))
    return walks


@lru_cache(maxsize=None)
def walk_profile(k: int):
    """Count the k-step walk stream by (root exits, total edge order q,
    edge count E); the weight of each class is v^(2q) * phi1^(E - q).

    Counted during the search, without building walks: blue multiplicities
    of tree-type walks are even, so q = (k + red steps) / 2, and the
    skeleton is a tree, so E = letters - 1.  The table is independent of
    (v, phi1) and cached per k.
    """
    profile: Counter = Counter()

    def count(letters, marks, exits, reds, nverts):
        profile[(exits, (k + reds) // 2, nverts - 1)] += 1

    _search_tree_walks(k, count)
    return dict(profile)


def oracle_tree_weight(k: int, r: int, v: float, phi1: float) -> float:
    """Enumeration-backed total weight of k-step tree walks with r root exits."""
    if k == 0 or r == 0:
        return 1.0 if k == 0 and r == 0 else 0.0
    total = 0.0
    for (exits, q, n_edges), count in sorted(walk_profile(k).items()):
        if exits == r:
            total += count * v ** (2 * q) * phi1 ** (n_edges - q)
    return total


def oracle_moment(k: int, v: float, phi1: float) -> float:
    """Enumeration-backed limiting moment: sum over all root-exit counts."""
    if k == 0:
        return 1.0
    total = 0.0
    for (exits, q, n_edges), count in sorted(walk_profile(k).items()):
        total += count * v ** (2 * q) * phi1 ** (n_edges - q)
    return total
