"""Depth-first search over tree-type closed walks, the independent
combinatorial oracle for the weight recurrences in the moments module.

A walk is a sequence of k+1 letters over the ordered alphabet 1, 2, 3, ...
starting at the root letter 1.  Each letter after the first is one step; a
letter may be marked "generalized", in which case the step runs out to that
letter and silently returns (a red step), otherwise the walk moves there (a
blue step).  The walker's position is therefore the most recent ordinary
letter, called the anchor here.  Steps never target the current anchor (no
self-loops), new letters must appear in first-use order, and the walk must
end with its anchor back at the root.

Each step draws one edge between its anchor and its target; the edges form
the walk's skeleton, with a blue and a red multiplicity per edge.
Tree-type means the skeleton is acyclic and every blue multiplicity is
even; only such walks carry weight in the large-graph limit.  An edge with
l = blue multiplicity / 2 and r = red multiplicity weighs
v^(2(l+r)) / phi1^(l+r-1), so a walk of total edge order q = sum of l + r
over its E edges weighs v^(2q) * phi1^(E - q).

walk_profile counts the k-step walks by (root exits, q, E) during the
search, without building them, and oracle_tree_weight and oracle_moment sum
the weighted classes.  The per-walk derivation (each listed walk's diagram,
its tree-type test and its weight) is the reference these counts are
checked against; it lives in tests/test_walks.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Walk",
    "WalkBudgetError",
    "enumerate_tree_walks",
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
    """All tree-type closed walks of exactly k steps, lexicographic order.

    Only tests and the benchmark tracer read the listing; it stays in the
    package because perfbench/tracing.py binds this name (ROADMAP item 7
    frees it).
    """
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
