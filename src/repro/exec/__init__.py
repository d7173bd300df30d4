"""Parallel experiment execution engine and content-addressed caching.

Two cooperating pieces:

* :func:`parallel_map` (:mod:`repro.exec.parallel`) - the campaigns'
  one fan-out: inline for one worker or item, otherwise a process pool
  with chunked tasks, one retry per chunk, inline fallback when no pool
  can be built, and merge-back of per-task :mod:`repro.obs` spans and
  metrics.  :func:`resolve_workers` reads ``REPRO_WORKERS``.
* :class:`ContentCache` (:mod:`repro.exec.cache`) - an in-memory LRU
  with an optional on-disk store, keyed by :func:`stable_hash` content
  addresses.  The harmonic disk-map pipeline uses it to compute the
  mission-independent M2 embedding once per target region and reuse it
  across scenarios, sweep points and rotation-search probes.

Determinism contract: for a pure task function, ``parallel_map``
returns identical results for any worker count, and cached results are
identical to freshly computed ones - the experiment harness asserts
byte-identical sweep payloads for ``workers=1`` vs ``workers=4`` and for
cache-cold vs cache-warm runs.  Nothing seeds ambient random state, so
task code draws only from explicitly seeded generators
(``random.Random(seed)``, ``np.random.default_rng(seed)``).
"""

from repro.exec.cache import (
    ContentCache,
    DiskStore,
    LRUCache,
    activate_cache,
    disk_backed_cache,
    get_cache,
    set_cache,
    stable_hash,
)
from repro.exec.parallel import parallel_map, resolve_workers

__all__ = [
    "ContentCache",
    "DiskStore",
    "LRUCache",
    "activate_cache",
    "disk_backed_cache",
    "get_cache",
    "parallel_map",
    "resolve_workers",
    "set_cache",
    "stable_hash",
]
