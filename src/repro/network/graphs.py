"""Graph kernel: CSR adjacency, component labels, spanning trees, BFS layers.

The one place that builds graph structure, labels connected components
or builds spanning trees.  Communication graphs, triangle meshes,
connectivity repair and the distributed protocols' centralized
reference implementations all go through :func:`csr_from_edges` and
:func:`component_labels`; the Definition-2 evaluator's connectivity
witness comes from :func:`spanning_tree`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

__all__ = [
    "adjacency_from_csr",
    "adjacency_from_edges",
    "bfs_hops",
    "component_labels",
    "components_largest_first",
    "csr_from_edges",
    "spanning_tree",
]


def csr_from_edges(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Undirected adjacency of ``n`` nodes in CSR form: ``(indptr, indices)``.

    ``indices[indptr[v]:indptr[v + 1]]`` are node ``v``'s neighbours in
    ascending order.  Self-loops and repeated edges are dropped.  Each
    directed link is one ``src * n + dst`` key, so a single sort orders
    and deduplicates them - no per-edge Python loop.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]
    keys = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


def adjacency_from_csr(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """Per-node neighbour lists of a :func:`csr_from_edges` adjacency."""
    return [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(len(indptr) - 1)]


def adjacency_from_edges(n: int, edges) -> list[list[int]]:
    """Sorted neighbour lists for an undirected edge list over ``n`` nodes."""
    return adjacency_from_csr(*csr_from_edges(n, edges))


def component_labels(n: int, edges) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes.

    Components are numbered ``0, 1, ...`` in the order of their lowest
    node, so node 0 is always in component 0.  Each edge may be listed
    in one or both directions.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    graph = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def spanning_tree(n: int, edges, lengths) -> np.ndarray:
    """Links of a minimum spanning forest of ``n`` nodes: ``(n - c, 2)``, ``i < j``.

    ``c`` is the number of components.  Link ``e`` weighs
    ``1 + lengths[e]``: the offset keeps zero-length links, which scipy
    would read as absent, and a minimum tree also makes its longest
    link as short as any spanning tree's.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = 1.0 + np.asarray(lengths, dtype=float)
    tree = minimum_spanning_tree(
        coo_matrix((weights, (e[:, 0], e[:, 1])), shape=(n, n))
    ).tocoo()
    return np.column_stack(
        [np.minimum(tree.row, tree.col), np.maximum(tree.row, tree.col)]
    ).astype(int)


def components_largest_first(labels: np.ndarray) -> list[list[int]]:
    """Node lists per component: largest first, ties by lowest node.

    Members are ascending.  ``labels`` must number components by their
    lowest node, as :func:`component_labels` does.
    """
    labels = np.asarray(labels)
    sizes = np.bincount(labels)
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
    return [members[k].tolist() for k in np.argsort(-sizes, kind="stable")]


def bfs_hops(adjacency: Sequence[Sequence[int]], sources: Iterable[int]) -> np.ndarray:
    """Hop distance from the nearest source to every node (-1 if unreachable).

    This is the centralized equivalent of the paper's boundary-initiated
    flooding used to detect isolated subgroups (Sec. III-D1).
    """
    n = len(adjacency)
    dist = -np.ones(n, dtype=int)
    dq: deque[int] = deque()
    for s in sources:
        s = int(s)
        if dist[s] != 0:
            dist[s] = 0
            dq.append(s)
    while dq:
        v = dq.popleft()
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist
