"""Constrained Role Miner baseline.

Greedy cover loop: cluster users by identical uncovered permission sets,
form one constraint-respecting candidate per cluster, take the candidate
whose cluster has the most users, and assign it to every user whose
uncovered set contains it.  Repeats until no uncovered cell remains, which
is guaranteed because each pick covers at least one cell.

Deterministic policies:
- oversized cluster sets keep the k permissions that are most frequent
  among all currently uncovered cells (ties: ascending permission index);
- selection ties on user count prefer the larger candidate, then the
  lexicographically smallest permission tuple.

The loop runs on the distinct-row index (rolemine._rowindex).  Users of
one row always share an uncovered set, so a cluster is a set of row
positions keyed by its uncovered mask, with its user count and one
representative row.  Clusters persist across rounds: a pick moves only its
holders to the cluster of their remaining mask.  The holders are found
without a scan.  Each permission keeps an "uncovered" bitmap over row
positions, starting as a copy of its index column, so the rows still
missing every permission of a pick are the AND of its at most k bitmaps
(the loop ANDs its own copies, not through `RowIndex.containing`, as
they lose bits every round); ANDed with the bitmap of representative
rows, that names each holder cluster once.  A moved cluster hands its
representative to its new mask, and drops it when it merges into an
existing cluster or is fully covered.

The winning key (user count, min(|mask|, k)) needs no truncation, so a
heap of cluster keys finds the clusters tied at the top and only those are
truncated.  A truncation sorts the cluster's permissions by ``rank[p] =
p - freq[p] * n_perms``, which orders by frequency descending, then index,
with one int per permission.  Truncations are cached per cluster mask.  A
pick lowers the frequency (raises the rank) of its own permissions only,
so a cached truncation can change only when it contains a picked
permission; such entries are dropped and every other entry stays valid.
The output is that of re-clustering and re-truncating every round.

Roles are kept as masks and built once, for the result, and assignments
are kept per row.  With the lattice on, a per-row check that
each row's roles union to its mask comes first.  Then one lattice sweep
(`lattice.reduce_rows`) runs over the index, which equals
`lattice_reduce` on the raw output, and the one builder shared with the
constrained miner (`_rowindex.rebuild`) expands the rows to users once.
"""

from __future__ import annotations

import heapq

from ._rowindex import RowIndex, rebuild
from .lattice import reduce_rows
from .model import (
    AccessMatrix,
    Decomposition,
    IncompleteDecompositionError,
    MiningConfig,
    Role,
    mask_of,
    perm_tuple,
)


def _greedy(index: RowIndex, k: int) -> tuple[list[int], list[set[int]]]:
    """The cover loop over the index rows: each role's mask and each row's
    set of role ids."""
    n = len(index.columns)
    rank = [p - f * n for p, f in enumerate(index.freq)]
    # uncovered[p]: the rows still missing permission p.
    uncovered = list(index.columns)
    # A cluster is keyed by its uncovered mask and named by its
    # representative row r: rows[r] and users[r] are its row positions and
    # user count, mask_at[r] its mask; reps has the bit of every
    # representative set.
    rows = [[i] for i in range(len(index.masks))]
    users = [len(group) for group in index.users]
    mask_at = list(index.masks)
    reps = (1 << len(rows)) - 1
    clusters = {m: r for r, m in enumerate(mask_at)}

    # (-user count, -min(|mask|, k), mask); an entry is stale once its
    # cluster is gone or has grown.
    heap = [(-users[r], -min(m.bit_count(), k), m) for m, r in clusters.items()]
    heapq.heapify(heap)

    def push(m: int) -> None:
        heapq.heappush(heap, (-users[clusters[m]], -min(m.bit_count(), k), m))

    # cluster mask -> (candidate mask, candidate permission tuple)
    cands: dict[int, tuple[int, tuple[int, ...]]] = {}

    def candidate(m: int) -> tuple[int, tuple[int, ...]]:
        cand = cands.get(m)
        if cand is None:
            perms = perm_tuple(m)
            if len(perms) <= k:
                cand = (m, perms)
            else:
                top = tuple(sorted(sorted(perms, key=rank.__getitem__)[:k]))
                cand = (mask_of(top), top)
            cands[m] = cand
        return cand

    role_masks: list[int] = []
    held: list[set[int]] = [set() for _ in rows]
    while clusters:
        tied: set[int] = set()
        top_key = None
        while heap:
            count, size, m = heap[0]
            r = clusters.get(m)
            if r is None or users[r] != -count:
                heapq.heappop(heap)
                continue
            if top_key is None:
                top_key = (count, size)
            elif (count, size) != top_key:
                break
            heapq.heappop(heap)
            tied.add(m)
        pick, perms = min((candidate(m) for m in tied), key=lambda c: c[1])

        rid = len(role_masks)
        role_masks.append(pick)
        holders = -1
        for p in perms:
            holders &= uncovered[p]
        assert holders > 0, "the picked cluster holds its candidate"
        moved = 0
        for r in perm_tuple(holders & reps):
            m = mask_at[r]
            del clusters[m]
            cands.pop(m, None)
            moved += users[r]
            for i in rows[r]:
                held[i].add(rid)
            rest = m & ~pick
            if not rest:
                reps ^= 1 << r
                continue
            into = clusters.get(rest)
            if into is None:
                clusters[rest] = r
                mask_at[r] = rest
            else:
                reps ^= 1 << r
                rows[into] += rows[r]
                users[into] += users[r]
            push(rest)
        for p in perms:
            uncovered[p] ^= holders
            rank[p] += moved * n
        for m in tied:
            if m in clusters:
                push(m)
        for m in [m for m, (cand, _) in cands.items() if cand & pick]:
            del cands[m]
    return role_masks, held


def mine_crm(
    upa: AccessMatrix, cfg: MiningConfig, *, lattice: bool = True
) -> Decomposition:
    k = cfg.max_perms_per_role
    index = RowIndex(upa)
    role_masks, held = _greedy(index, k)
    if lattice:
        for m, roles in zip(index.masks, held):
            union = 0
            for rid in roles:
                union |= role_masks[rid]
            if union != m:
                raise IncompleteDecompositionError(
                    "CRM left a row uncovered before the lattice pass"
                )
        reduce_rows(role_masks, index, held)
    catalog = [Role(i, frozenset(perm_tuple(m))) for i, m in enumerate(role_masks)]
    return rebuild(catalog, held, index.users, upa.n_users)
