import itertools
from collections import Counter
from dataclasses import dataclass

import pytest

from zetaspectra.moments import limit_moments, tree_weight_table
from zetaspectra.walks import (
    Walk,
    WalkBudgetError,
    enumerate_tree_walks,
    oracle_moment,
    oracle_tree_weight,
    walk_profile,
)

# The per-walk reference derivation: every walk maps to a diagram, a
# multigraph on its letters whose skeleton collects blue and red
# multiplicities per edge.  walk_profile's class counts are checked against
# the classes read off these diagrams, one listed walk at a time.


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


# the worked 12-step example: out-and-back excursions off a doubled spine
WALK_12 = Walk(
    letters=(1, 2, 3, 1, 4, 5, 1, 2, 6, 1, 3, 2, 1),
    generalized=(
        False, False, True, False, False, True, False,
        False, True, True, False, False, False,
    ),
)

# walk counts per step number, frozen after two independent routes agreed
# (enumeration and the weight recurrence evaluated at v = phi1 = 1)
WALK_COUNTS = {1: 1, 2: 3, 3: 11, 4: 46, 5: 212, 6: 1055, 7: 5595, 8: 31347}


def root_exit_count(walk: Walk) -> int:
    """Number of steps whose source position is the root letter, read off
    the listed walk; the search counts the same exits on its way down."""
    anchor = 1
    exits = 0
    for idx in range(1, len(walk.letters)):
        if anchor == 1:
            exits += 1
        if not walk.generalized[idx]:
            anchor = walk.letters[idx]
    return exits


def format_walk(walk: Walk) -> str:
    """Letters separated by spaces, generalized ones in brackets: 1 2 [3] 1."""
    return " ".join(f"[{x}]" if red else str(x) for x, red in zip(walk.letters, walk.generalized))


def parse_walk(text: str) -> Walk:
    tokens = text.split()
    return Walk(tuple(int(t.strip("[]")) for t in tokens), tuple(t.startswith("[") for t in tokens))


class TestEnumeration:
    def test_single_step(self):
        walks = enumerate_tree_walks(1)
        assert walks == [Walk((1, 2), (False, True))]

    def test_two_steps(self):
        walks = enumerate_tree_walks(2)
        assert len(walks) == 3
        as_text = {format_walk(w) for w in walks}
        assert as_text == {"1 2 1", "1 [2] [2]", "1 [2] [3]"}

    @pytest.mark.parametrize("k", range(1, 7))
    def test_counts_frozen(self, k):
        assert len(enumerate_tree_walks(k)) == WALK_COUNTS[k]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_enumeration_invariants(self, k):
        walks = enumerate_tree_walks(k)
        assert len(set(walks)) == len(walks)  # duplicate-free
        for walk in walks:
            diagram = diagram_of_walk(walk)
            assert is_tree_type(diagram)
            assert root_exit_count(walk) >= 1
            # steps split as twice the pair count plus the red count
            total = sum(2 * (b // 2) + r for b, r in diagram.edge_counts.values())
            assert total == k
            blue_steps = sum(b for b, _ in diagram.edge_counts.values())
            assert blue_steps % 2 == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_enumeration_matches_validity_predicate(self, k):
        # brute force over every tagged letter sequence of length k+1
        found = set()
        for letters in itertools.product(range(1, k + 2), repeat=k):
            for marks in itertools.product((False, True), repeat=k):
                walk_letters = (1,) + letters
                walk_marks = (False,) + marks
                try:
                    walk = Walk(walk_letters, walk_marks)
                except ValueError:
                    continue
                if is_valid_tree_walk(walk):
                    found.add(walk)
        assert found == set(enumerate_tree_walks(k))

    def test_budget_errors(self):
        for search in (enumerate_tree_walks, walk_profile):
            with pytest.raises(WalkBudgetError):
                search(0)
            with pytest.raises(WalkBudgetError):
                search(9)


class TestDiagrams:
    def test_worked_example_structure(self):
        diagram = diagram_of_walk(WALK_12)
        assert diagram.vertex_count == 6
        assert diagram.edge_counts == {
            (1, 2): (4, 1),
            (2, 3): (2, 1),
            (1, 4): (2, 0),
            (4, 5): (0, 1),
            (2, 6): (0, 1),
        }
        assert is_tree_type(diagram)
        assert root_exit_count(WALK_12) == 3

    def test_worked_example_weight(self):
        diagram = diagram_of_walk(WALK_12)
        v, phi1 = 1.3, 0.7
        assert diagram_weight(diagram, v, phi1) == pytest.approx(
            v**16 / phi1**3, rel=1e-12
        )

    def test_worked_example_is_in_stream(self):
        # twelve steps sit beyond the enumeration budget; membership goes
        # through the validity predicate, which equals stream membership
        # (see test_enumeration_matches_validity_predicate)
        assert WALK_12.steps == 12
        assert is_valid_tree_walk(WALK_12)

    def test_single_red_step(self):
        diagram = diagram_of_walk(Walk((1, 2), (False, True)))
        assert diagram.edge_counts == {(1, 2): (0, 1)}
        assert diagram_weight(diagram, 1.5, 7.0) == pytest.approx(1.5**2)

    def test_out_and_back(self):
        diagram = diagram_of_walk(Walk((1, 2, 1), (False, False, False)))
        assert diagram.edge_counts == {(1, 2): (2, 0)}

    def test_triangle_not_tree(self):
        diagram = diagram_of_walk(Walk((1, 2, 3, 1), (False,) * 4))
        assert not is_tree_type(diagram)
        with pytest.raises(ValueError):
            diagram_weight(diagram, 1.0, 1.0)

    def test_odd_blue_multiplicity_not_tree(self):
        diagram = Diagram(vertex_count=2, edge_counts={(1, 2): (1, 0)})
        assert not is_tree_type(diagram)

    def test_malformed_walks_rejected(self):
        with pytest.raises(ValueError):  # self-loop step after red return
            diagram_of_walk(Walk((1, 2, 3, 2), (False, False, True, False)))
        with pytest.raises(ValueError):  # letter 3 before letter 2
            diagram_of_walk(Walk((1, 3), (False, False)))
        with pytest.raises(ValueError):  # must start at the root letter
            Walk((2, 1), (False, False))

    def test_anchor_rule_permits_repeated_generalized_letter(self):
        # two red steps to the same target from the root; without this walk
        # the second-order weights would lose their 1/phi1 term
        walk = Walk((1, 2, 2), (False, True, True))
        diagram = diagram_of_walk(walk)
        assert diagram.edge_counts == {(1, 2): (0, 2)}
        assert is_valid_tree_walk(walk)


class TestOracle:
    def test_zero_row(self):
        assert oracle_tree_weight(0, 0, 1.0, 1.0) == 1.0
        assert oracle_tree_weight(3, 0, 1.0, 1.0) == 0.0

    def test_single_step_weight(self):
        assert oracle_tree_weight(1, 1, 1.7, 3.0) == pytest.approx(1.7**2)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_oracle_matches_recurrence(self, k, param_grid):
        for v, phi1 in param_grid:
            table = tree_weight_table(k, v, phi1)
            for r in range(1, k + 1):
                oracle = oracle_tree_weight(k, r, v, phi1)
                assert oracle == pytest.approx(table[k][r], rel=1e-12)

    def test_moment_sum(self):
        for v, phi1 in [(0.5, 1.0), (1.0, 2.0)]:
            ms = limit_moments(6, v, phi1)
            for k in range(1, 7):
                assert oracle_moment(k, v, phi1) == pytest.approx(ms[k], rel=1e-12)

    def test_profile_is_parameter_free(self):
        first = walk_profile(4)
        second = walk_profile(4)
        assert first == second
        assert sum(first.values()) == WALK_COUNTS[4]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_profile_matches_the_listed_walks(self, k):
        # the classes read off each walk's diagram, one walk at a time,
        # against the memoised count, which builds no walk
        listed = Counter()
        for walk in enumerate_tree_walks(k):
            diagram = diagram_of_walk(walk)
            q = sum(b // 2 + r for b, r in diagram.edge_counts.values())
            listed[(root_exit_count(walk), q, len(diagram.edge_counts))] += 1
        assert walk_profile(k) == dict(listed)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_profile_counts_frozen(self, k):
        assert sum(walk_profile(k).values()) == WALK_COUNTS[k]


def test_format_parse_roundtrip():
    for walk in enumerate_tree_walks(4):
        assert parse_walk(format_walk(walk)) == walk
    assert format_walk(WALK_12) == "1 2 [3] 1 4 [5] 1 2 [6] [1] 3 2 1"
    assert parse_walk("1 2 [3] 1 4 [5] 1 2 [6] [1] 3 2 1") == WALK_12


def test_dump_walks_golden():
    # one walk per line in enumeration order, pinned
    assert "".join(format_walk(w) + "\n" for w in enumerate_tree_walks(3)) == (
        "1 2 1 [2]\n"
        "1 2 1 [3]\n"
        "1 2 [1] 1\n"
        "1 2 [3] 1\n"
        "1 [2] 2 1\n"
        "1 [2] 3 1\n"
        "1 [2] [2] [2]\n"
        "1 [2] [2] [3]\n"
        "1 [2] [3] [2]\n"
        "1 [2] [3] [3]\n"
        "1 [2] [3] [4]\n"
    )
