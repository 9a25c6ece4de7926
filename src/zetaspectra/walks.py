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

walk_profile counts the k-step walks by (root exits, q, E) without
building them, and oracle_tree_weight and oracle_moment sum the weighted
classes.  The count is the same search memoised on its state: the
skeleton, the anchor and the steps left fix every way to finish the walk,
so each state's completions are counted once, by (root exits, red steps,
letters) added, and shared by every branch that reaches the state.
enumerate_tree_walks lists the walks by the plain search; the per-walk
derivation in tests/test_walks.py (each listed walk's diagram, its
tree-type test and its weight) is the reference the counts are checked
against.
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


def _check_budget(k: int) -> None:
    if not 1 <= k <= MAX_STEPS:
        raise WalkBudgetError(f"k={k} outside enumeration budget 1..{MAX_STEPS}")


def enumerate_tree_walks(k: int) -> list[Walk]:
    """All tree-type closed walks of exactly k steps, lexicographic order.

    A depth-first search over (target letter, ordinary or generalized),
    building each walk.  Branches are pruned when the partial skeleton would
    acquire a cycle or when the walker can no longer reach the root in the
    remaining steps (the tree distance to the root equals the number of odd
    blue multiplicities, so this prune also enforces evenness).

    The listing is the second code path that the tests check walk_profile's
    class counts against; nothing in the package reads it.  It stays here
    only because perfbench/tracing.py binds this name, and ROADMAP item 8
    moves it into the tests.
    """
    _check_budget(k)
    walks: list[Walk] = []
    letters, marks = [1], [False]
    depth = {1: 0}
    neighbors: dict[int, list[int]] = {1: []}

    def descend(anchor: int, nverts: int, remaining: int) -> None:
        if remaining == 0:
            if anchor == 1:
                walks.append(Walk(tuple(letters), tuple(marks)))
            return
        if depth[anchor] > remaining:
            return
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
                descend(anchor if red else target, nverts + fresh, remaining - 1)
                letters.pop()
                marks.pop()
                if fresh:
                    neighbors[anchor].pop()
                    del neighbors[target], depth[target]

    descend(1, 1, k)
    return walks


def _completions(parents: tuple[int, ...], anchor: int, remaining: int, memo: dict) -> dict:
    """Count the ways to finish a walk from one search state, by (root exits
    added, red steps added, letters added), each state once in memo.

    parents[i] is the skeleton parent of letter i + 2.  Steps go to a
    skeleton neighbor of the anchor or to the fresh letter, which joins the
    skeleton as the anchor's child, so the skeleton stays a tree.
    """
    depth, letter = 0, anchor
    while letter != 1:
        letter = parents[letter - 2]
        depth += 1
    if depth >= remaining:
        # at depth == remaining the only completion is the blue walk home
        return {(0, 0, 0): 1} if depth == remaining else {}
    key = (parents, anchor, remaining)
    table = memo.get(key)
    if table is not None:
        return table
    table = Counter()
    exit_step = anchor == 1
    fresh = len(parents) + 2
    targets = [x for x, parent in enumerate(parents, 2) if parent == anchor] + [fresh]
    if anchor != 1:
        targets.append(parents[anchor - 2])
    for red in (False, True):
        for target in targets:
            grows = target == fresh
            skeleton = parents + (anchor,) if grows else parents
            sub = _completions(skeleton, anchor if red else target, remaining - 1, memo)
            for (exits, reds, added), count in sub.items():
                table[(exits + exit_step, reds + red, added + grows)] += count
    memo[key] = table
    return table


@lru_cache(maxsize=None)
def walk_profile(k: int):
    """Count the k-step walk stream by (root exits, total edge order q,
    edge count E); the weight of each class is v^(2q) * phi1^(E - q).

    Counted without building walks: blue multiplicities of tree-type walks
    are even, so q = (k + red steps) / 2, and the skeleton is a tree, so
    E = letters - 1.  The search is memoised on its state (skeleton, anchor,
    steps left): each state's completions are counted once, as a table by
    (exits, red steps, letters) added, and reused wherever the search meets
    that state again; k = 8 has 369 states against 31 347 walks.  The memo
    is dropped when the call returns.  The profile is independent of
    (v, phi1) and cached per k.
    """
    _check_budget(k)
    table = _completions((), 1, k, {})
    return {(exits, (k + reds) // 2, added): count for (exits, reds, added), count in table.items()}


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
