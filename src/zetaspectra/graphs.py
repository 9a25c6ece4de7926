"""Small explicit graphs for the exact zeta machinery and its tests."""

from __future__ import annotations

import numpy as np

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "empty_graph",
    "random_connected_graph",
    "from_edges",
    "read_edge_list",
    "is_connected",
    "zeta_corpus",
]

MAX_TRIES = 1000  # draws random_connected_graph makes before it refuses


def empty_graph(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.int64)


def from_edges(n: int, edges) -> np.ndarray:
    adj = empty_graph(n)
    for a, b in edges:
        if a == b:
            raise ValueError(f"loop at vertex {a} not allowed")
        adj[a, b] = adj[b, a] = 1
    return adj


def path_graph(n: int) -> np.ndarray:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> np.ndarray:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> np.ndarray:
    adj = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return adj


def is_connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in np.nonzero(adj[x])[0]:
            if int(y) not in seen:
                seen.add(int(y))
                stack.append(int(y))
    return len(seen) == n


def random_connected_graph(n: int, edge_prob: float, seed: int) -> np.ndarray:
    """Rejection-sample a simple connected graph with iid edges.

    Refuses an edge_prob outside [0, 1], and edge_prob = 0 on two or more
    vertices, where no draw can be connected; raises ValueError when
    MAX_TRIES draws all fail.
    """
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {edge_prob}")
    if n >= 2 and edge_prob <= 0.0:
        raise ValueError(f"no connected graph on {n} vertices with edge probability {edge_prob}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        upper = rng.random((n, n)) < edge_prob
        adj = np.triu(upper, k=1).astype(np.int64)
        adj = adj + adj.T
        if is_connected(adj):
            return adj
    raise ValueError(f"no connected graph found in {MAX_TRIES} tries (p={edge_prob})")


def read_edge_list(path) -> np.ndarray:
    """Graph from 'x y' lines; vertices are relabeled to 0..n-1 preserving order."""
    pairs = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            a, b = line.split()
            pairs.append((int(a), int(b)))
    labels = sorted({x for pair in pairs for x in pair})
    index = {lab: i for i, lab in enumerate(labels)}
    return from_edges(len(labels), [(index[a], index[b]) for a, b in pairs])


def zeta_corpus() -> list[tuple[str, np.ndarray]]:
    """The fixed validation corpus: paths, cycles, K4 and five seeded
    random connected graphs on at most 8 vertices."""
    corpus = [(f"P{n}", path_graph(n)) for n in range(2, 6)]
    corpus += [(f"C{n}", cycle_graph(n)) for n in range(3, 7)]
    corpus.append(("K4", complete_graph(4)))
    random_specs = [(5, 0.5, 101), (6, 0.45, 102), (7, 0.35, 103), (8, 0.3, 104), (8, 0.35, 105)]
    for n, p, seed in random_specs:
        corpus.append((f"R{n}s{seed}", random_connected_graph(n, p, seed)))
    return corpus
