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

The loop is incremental.  Clusters persist across rounds: a pick moves
only its holders, which are exactly the clusters whose mask contains it,
to the cluster of their remaining mask.  The winning key (user count,
min(|mask|, k)) needs no truncation, so a heap of cluster keys finds the
clusters tied at the top and only those are truncated.  Truncations are
cached per cluster mask.  A pick lowers the frequency of its own
permissions only, so a cached truncation can change only when it contains
a picked permission; such entries are dropped and every other entry stays
valid.  The output is that of re-clustering and re-truncating every round.
"""

from __future__ import annotations

import heapq

from .lattice import lattice_reduce
from .model import (
    AccessMatrix,
    Decomposition,
    MiningConfig,
    Role,
    iter_bits,
    mask_of,
    perm_tuple,
)


def mine_crm(
    upa: AccessMatrix, cfg: MiningConfig, *, lattice: bool = True
) -> Decomposition:
    k = cfg.max_perms_per_role
    freq = [0] * upa.n_perms
    clusters: dict[int, list[int]] = {}
    for u, m in enumerate(upa.masks):
        if m:
            clusters.setdefault(m, []).append(u)
    for m, users in clusters.items():
        for p in iter_bits(m):
            freq[p] += len(users)

    # (-user count, -min(|mask|, k), mask); an entry is stale once its
    # cluster is gone or has grown.
    heap: list[tuple[int, int, int]] = []

    def push(m: int) -> None:
        heapq.heappush(heap, (-len(clusters[m]), -min(m.bit_count(), k), m))

    for m in clusters:
        push(m)

    # cluster mask -> (candidate mask, candidate permission tuple)
    cands: dict[int, tuple[int, tuple[int, ...]]] = {}

    def candidate(m: int) -> tuple[int, tuple[int, ...]]:
        cand = cands.get(m)
        if cand is None:
            if m.bit_count() <= k:
                cand = (m, perm_tuple(m))
            else:
                top = heapq.nsmallest(k, iter_bits(m), key=lambda p: (-freq[p], p))
                top.sort()
                cand = (mask_of(top), tuple(top))
            cands[m] = cand
        return cand

    role_masks: list[int] = []
    seen_masks: set[int] = set()
    ua: list[set[int]] = [set() for _ in range(upa.n_users)]
    while clusters:
        tied: set[int] = set()
        top_key = None
        while heap:
            count, size, m = heap[0]
            users = clusters.get(m)
            if users is None or len(users) != -count:
                heapq.heappop(heap)
                continue
            if top_key is None:
                top_key = (count, size)
            elif (count, size) != top_key:
                break
            heapq.heappop(heap)
            tied.add(m)
        pick = min((candidate(m) for m in tied), key=lambda c: c[1])[0]
        assert pick > 0 and pick not in seen_masks
        seen_masks.add(pick)

        rid = len(role_masks)
        role_masks.append(pick)
        held = 0
        for m in [m for m in clusters if pick & ~m == 0]:
            users = clusters.pop(m)
            cands.pop(m, None)
            held += len(users)
            for u in users:
                ua[u].add(rid)
            rest = m & ~pick
            if rest:
                clusters.setdefault(rest, []).extend(users)
                push(rest)
        for p in iter_bits(pick):
            freq[p] -= held
        for m in tied:
            if m in clusters:
                push(m)
        for m in [m for m, (cand, _) in cands.items() if cand & pick]:
            del cands[m]

    d = Decomposition(
        roles=tuple(
            Role(rid, frozenset(iter_bits(m))) for rid, m in enumerate(role_masks)
        ),
        ua=tuple(frozenset(s) for s in ua),
    )
    if lattice:
        d = lattice_reduce(upa, d, k)
    return d
