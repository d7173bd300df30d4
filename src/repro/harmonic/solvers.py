"""Harmonic (Tutte) interior solvers: iterative and sparse-linear.

With the boundary pinned to a convex curve and every interior vertex
placed at the average of its neighbours, the resulting piecewise-linear
map is the discrete harmonic map with uniform spring weights.  Tutte's
theorem guarantees it is an embedding (a diffeomorphism in the paper's
language) for a triangulated disk with convex boundary.

Two solvers compute the same fixed point:

* :func:`solve_iterative` - repeated neighbour averaging, exactly the
  paper's distributed computation ("at each step, an inner vertex
  computes its position as the average of the positions of its
  neighboring vertices").
* :func:`solve_linear` - the sparse Laplacian system solved directly;
  orders of magnitude faster and used as the default engine.

:func:`solve_linear` reuses sparse LU factorizations across calls: the
CSC Laplacian is content-addressed (:func:`repro.exec.stable_hash` of
its structure and values) and the ``spla.factorized`` solve closure is
kept in a small process-wide LRU, so the rotation search's repeated
harmonic evaluations - and any multi-RHS solve - factorize an unchanged
matrix exactly once.  ``scipy.sparse.linalg.spsolve`` solves dense
multi-column systems through the very same factorization path, so warm
results are byte-identical to cold ``spsolve`` results (a regression
test pins this).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import MappingError
from repro.exec.cache import LRUCache, stable_hash
from repro.mesh.trimesh import TriMesh
from repro.obs import get_metrics, span

__all__ = [
    "solve_linear",
    "solve_iterative",
    "harmonic_energy",
    "clear_factorization_cache",
]

# Process-wide LRU of LU factorizations keyed by the CSC matrix's
# content hash.  A handful of distinct Laplacians are live at any time
# (swarm mesh + target mesh per planning problem), so a small capacity
# suffices; the SuperLU objects it holds are the expensive part of a
# solve and are pure functions of the matrix.
FACTORIZATION_CACHE_CAPACITY = 16
_factor_cache = LRUCache(FACTORIZATION_CACHE_CAPACITY)


def clear_factorization_cache() -> None:
    """Drop all cached LU factorizations (tests / memory pressure)."""
    _factor_cache.clear()


def _laplacian_key(mat: sp.csc_matrix) -> str:
    return stable_hash(
        "tutte-laplacian",
        int(mat.shape[0]),
        mat.indptr.astype(np.int64),
        mat.indices.astype(np.int64),
        np.asarray(mat.data, dtype=float),
    )


def _factorized_solver(mat: sp.csc_matrix) -> tuple[Callable, str]:
    """LU solve closure for ``mat``, reused across equal-content calls."""
    key = _laplacian_key(mat)
    solver = _factor_cache.get(key)
    if solver is not None:
        get_metrics().counter("cache.harmonic_factorization.hits").inc()
        return solver, "hit"
    solver = spla.factorized(mat)
    get_metrics().counter("cache.harmonic_factorization.misses").inc()
    _factor_cache.put(key, solver)
    return solver, "miss"


def _split_vertices(
    mesh: TriMesh, boundary: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interior and boundary index arrays; validates the boundary set."""
    b = np.asarray(boundary, dtype=int)
    if len(b) == 0:
        raise MappingError("harmonic solve needs pinned boundary vertices")
    if len(np.unique(b)) != len(b):
        raise MappingError("boundary vertex list contains duplicates")
    mask = np.zeros(mesh.vertex_count, dtype=bool)
    mask[b] = True
    interior = np.flatnonzero(~mask)
    return interior, b


def _interior_neighbors(
    mesh: TriMesh, interior: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened sorted neighbour array and per-vertex counts.

    Equivalent to ``concatenate([adjacency[v] for v in interior])`` but
    sliced out of the mesh's CSR adjacency with pure numpy indexing.
    """
    indptr, indices = mesh.adjacency_csr
    counts = indptr[interior + 1] - indptr[interior]
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    nbr_flat = indices[np.repeat(indptr[interior], counts) + offsets]
    return nbr_flat, counts


def solve_linear(
    mesh: TriMesh,
    boundary: np.ndarray,
    boundary_positions: np.ndarray,
    reuse_factorization: bool = True,
) -> np.ndarray:
    """Solve the uniform-weight Tutte system with a sparse direct solver.

    Parameters
    ----------
    mesh : TriMesh
        Connectivity source (vertex coordinates are ignored).
    boundary : (b,) int array
        Pinned vertex indices.
    boundary_positions : (b, 2) array
        Their target positions (typically on the unit circle).
    reuse_factorization : bool
        Look the CSC Laplacian's LU factorization up in the process
        LRU before factorizing (default).  ``False`` forces a fresh
        ``spsolve`` - the oracle path the byte-identity tests compare
        against.

    Returns
    -------
    (n, 2) ndarray
        Positions for all vertices.
    """
    interior, b_idx = _split_vertices(mesh, boundary)
    bpos = np.asarray(boundary_positions, dtype=float)
    if bpos.shape != (len(b_idx), 2):
        raise MappingError("boundary position array shape mismatch")
    n = mesh.vertex_count
    out = np.zeros((n, 2))
    out[b_idx] = bpos
    if len(interior) == 0:
        return out

    ni = len(interior)
    pos_in_interior = -np.ones(n, dtype=int)
    pos_in_interior[interior] = np.arange(ni)
    nbr_flat, counts = _interior_neighbors(mesh, interior)
    if np.any(counts == 0):
        v = int(interior[int(np.flatnonzero(counts == 0)[0])])
        raise MappingError(f"interior vertex {v} has no neighbours")

    with span("harmonic.solve_linear", vertices=n, interior=ni) as sp_:
        # Vectorised COO assembly: one flattened neighbour array, split
        # into interior couplings (matrix entries) and boundary
        # couplings (right-hand-side contributions).
        seg_ids = np.repeat(np.arange(ni), counts)
        inv_deg = 1.0 / counts.astype(float)
        nbr_slot = pos_in_interior[nbr_flat]
        to_interior = nbr_slot >= 0

        diag = np.arange(ni)
        rows = np.concatenate([diag, seg_ids[to_interior]])
        cols = np.concatenate([diag, nbr_slot[to_interior]])
        vals = np.concatenate([np.ones(ni), -inv_deg[seg_ids[to_interior]]])

        rhs = np.zeros((ni, 2))
        bnd_rows = seg_ids[~to_interior]
        np.add.at(
            rhs, bnd_rows, out[nbr_flat[~to_interior]] * inv_deg[bnd_rows][:, None]
        )

        mat = sp.csr_matrix((vals, (rows, cols)), shape=(ni, ni))
        sp_.set_attributes(nnz=int(mat.nnz))
        csc = mat.tocsc()
        if reuse_factorization:
            solver, state = _factorized_solver(csc)
            solution = solver(rhs)
            sp_.set_attributes(factorization=state)
        else:
            solution = spla.spsolve(csc, rhs)
            sp_.set_attributes(factorization="off")
        if solution.ndim == 1:
            solution = solution[:, None]
        if not np.all(np.isfinite(solution)):
            raise MappingError(
                "harmonic linear solve produced non-finite positions"
            )
        out[interior] = solution
        residual = mat @ solution - rhs
        sp_.set_attributes(residual=float(np.abs(residual).max()))
    return out


def solve_iterative(
    mesh: TriMesh,
    boundary: np.ndarray,
    boundary_positions: np.ndarray,
    tol: float = 1e-7,
    max_iterations: int = 100_000,
) -> tuple[np.ndarray, int]:
    """Neighbour-averaging iteration (the paper's distributed solver).

    Interior vertices start at the disk centre (as in Sec. III-B) and
    repeatedly move to the mean of their neighbours until the largest
    move falls below ``tol``.

    Returns
    -------
    (positions, iterations)

    Raises
    ------
    MappingError
        If convergence is not reached within ``max_iterations``.
    """
    interior, b_idx = _split_vertices(mesh, boundary)
    bpos = np.asarray(boundary_positions, dtype=float)
    if bpos.shape != (len(b_idx), 2):
        raise MappingError("boundary position array shape mismatch")
    n = mesh.vertex_count
    pos = np.zeros((n, 2))
    pos[b_idx] = bpos
    if len(interior) == 0:
        return pos, 0

    # Flattened CSR adjacency indices for a vectorised Jacobi sweep.
    nbr_flat, counts = _interior_neighbors(mesh, interior)
    if np.any(counts == 0):
        raise MappingError("interior vertex with no neighbours")
    seg_ids = np.repeat(np.arange(len(interior)), counts)

    with span(
        "harmonic.solve_iterative", vertices=n, interior=len(interior), tol=tol
    ) as sp_:
        for iteration in range(1, max_iterations + 1):
            sums = np.zeros((len(interior), 2))
            np.add.at(sums, seg_ids, pos[nbr_flat])
            new = sums / counts[:, None]
            delta = float(np.abs(new - pos[interior]).max())
            pos[interior] = new
            if delta < tol:
                sp_.set_attributes(iterations=iteration, residual=delta)
                return pos, iteration
    raise MappingError(
        f"harmonic iteration did not converge in {max_iterations} sweeps"
    )


def harmonic_energy(mesh: TriMesh, positions: np.ndarray) -> float:
    """Uniform-weight spring energy ``sum_edges |x_u - x_v|^2``.

    The discrete harmonic map minimises this energy subject to the
    boundary constraint; tests use it to verify both solvers find the
    same minimum.
    """
    p = np.asarray(positions, dtype=float)
    e = mesh.edges
    d = p[e[:, 0]] - p[e[:, 1]]
    return float((d * d).sum())
