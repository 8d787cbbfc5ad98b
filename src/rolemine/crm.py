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

The loop runs on the matrix's distinct-row index (rolemine._rowindex),
built once per matrix and shared with the constrained miner.  Users of
one row always share an uncovered set, so a cluster is the set of row
positions with one uncovered mask; it keeps that mask, its user count and
one representative row, not its rows.  Clusters persist across rounds: a
pick moves only its holders to the cluster of their remaining mask.  The holders are found
without a scan.  Each permission keeps an "uncovered" bitmap over row
positions, starting as a copy of its index column, so the rows still
missing every permission of a pick are the AND of its at most k bitmaps
(the loop ANDs its own copies, not through `RowIndex.containing`, as
they lose bits every round).  The rows of a cluster share its mask, so
they are holders together: the holder bitmap is decoded once per round,
every holder row takes the role, and a holder flagged as its cluster's
representative moves the cluster.  A moved cluster hands its
representative to its new mask, and clears its flag only when it merges
into an existing cluster; a fully covered cluster's rows are in no
uncovered bitmap, so they never hold a pick again.

The winning key (user count, min(|mask|, k)) needs no truncation.  The
clusters sit in tiers, one set of representatives per key, beside a heap
of the keys, and a round reads the top tier as its tied set: nothing is
popped and pushed back.  A cluster leaves its tier before it moves or,
as a merge target, before its user count grows, and enters the tier of
its new key after.  All tied candidates have min(|mask|, k) permissions,
and of two sets of one size the one holding the lowest bit of their XOR
has the lexicographically smaller sorted tuple, so the tie is broken on
masks in one pass and only the pick is decoded.

A cluster of at most k permissions is its own candidate.  An oversized
one is decoded once, when it first ties at the top, and keeps its
permission tuple until it leaves.  Its truncation sorts that tuple by
``rank[p] = p - freq[p] * n_perms``, which orders by frequency
descending, then index, with one int per permission, and keeps the
first k as a mask.  A pick lowers the frequency (raises the rank) of its
own permissions only, so a cached truncation can change only when it
contains a picked permission; such entries are dropped and every other
entry stays valid.  The output is that of re-clustering and
re-truncating every round.

Roles are kept as masks, and a `Role` is built only for each one still
held at the end; assignments are kept per row, as a list of role ids in
pick order (a row takes each pick once, so no id repeats).  CRM is its
list of stages, run by `_rowindex.mined` as the constrained miner's is,
each ``stage(masks, index, held)``: the loop (`_greedy`, k bound by
`functools.partial`), then `_covered`, a per-row check that each row's
roles union to its mask, the same check (`model._rows_covered`) that
completeness runs per user, with the lattice on or off.  Unless the
lattice is off, `mined` appends the lattice sweep (`lattice.reduce_rows`)
over the index as the last stage, which equals `lattice_reduce` on the
raw output, as that runs the same sweep on the raw output's role-set
groups through the public stages' adapter (`_rowindex.staged`); then the
held roles are found once, built, and the rows expanded to users once
through `_rowindex.rebuild`, the builder the adapter ends in too.
"""

from __future__ import annotations

import heapq
from functools import partial

from ._rowindex import RowIndex, mined
from .model import (
    AccessMatrix,
    Decomposition,
    IncompleteDecompositionError,
    MiningConfig,
    mask_of,
    perm_tuple,
    _rows_covered,
)


def _greedy(masks: list[int], index: RowIndex, held: list[list[int]], k: int) -> None:
    """The cover loop over the index rows, CRM's first stage: on empty
    lists, it appends each role's mask to `masks` and each row's list of
    role ids, in the order they were picked, to `held`."""
    n = len(index.columns)
    rank = [p - f * n for p, f in enumerate(index.freq)]
    # uncovered[p]: the rows still missing permission p.
    uncovered = list(index.columns)
    # A cluster is keyed by its uncovered mask and named by its
    # representative row r: users[r] is its user count and mask_at[r] its
    # mask; reps[r] is set while r represents a cluster.  The rows of a
    # cluster share its mask, so they hold a pick together.
    users = [len(group) for group in index.users]
    mask_at = list(index.masks)
    reps = bytearray(b"\x01") * len(mask_at)
    clusters = {m: r for r, m in enumerate(mask_at)}

    # tiers[(-user count, -width)], width = min(|mask|, k): the
    # representatives of the clusters with that key.  keys is a heap holding
    # each tier's key once; a tier that empties stays until its key reaches
    # the top.
    tiers: dict[tuple[int, int], set[int]] = {}
    for m, r in clusters.items():
        tiers.setdefault((-users[r], -min(m.bit_count(), k)), set()).add(r)
    keys = list(tiers)
    heapq.heapify(keys)
    # Oversized clusters only, by representative: the permission tuple,
    # kept until the cluster leaves, and the truncation mask, dropped also
    # once it holds a picked permission.
    perms_of: dict[int, tuple[int, ...]] = {}
    cands: dict[int, int] = {}

    held += [[] for _ in mask_at]
    while clusters:
        while not tiers[keys[0]]:
            del tiers[heapq.heappop(keys)]
        # Only a tier of width k can hold oversized clusters.  Of two tied
        # candidates, the one holding the lowest bit of their XOR wins.
        oversized = keys[0][1] == -k
        pick = 0
        for r in tiers[keys[0]]:
            c = mask_at[r]
            if oversized and c.bit_count() > k:
                cut = cands.get(r)
                if cut is None:
                    perms = perms_of.get(r)
                    if perms is None:
                        perms = perms_of[r] = perm_tuple(c)
                    cut = cands[r] = mask_of(sorted(perms, key=rank.__getitem__)[:k])
                c = cut
            d = c ^ pick
            if c & d & -d:
                pick = c
        perms = perm_tuple(pick)

        rid = len(masks)
        masks.append(pick)
        holders = -1
        for p in perms:
            holders &= uncovered[p]
        assert holders > 0, "the picked cluster holds its candidate"
        moved = 0
        for r in perm_tuple(holders):
            held[r].append(rid)
            if not reps[r]:
                continue
            m = mask_at[r]
            size = m.bit_count()
            tiers[(-users[r], -min(size, k))].remove(r)
            del clusters[m]
            if size > k:
                perms_of.pop(r, None)
                cands.pop(r, None)
            moved += users[r]
            rest = m & ~pick
            # A covered cluster's rows have left every uncovered bitmap, so
            # they are never holders again and its flag can stay.
            if not rest:
                continue
            width = min(rest.bit_count(), k)
            into = clusters.get(rest)
            if into is None:
                clusters[rest] = into = r
                mask_at[r] = rest
            else:
                reps[r] = 0
                tiers[(-users[into], -width)].remove(into)
                users[into] += users[r]
            key = (-users[into], -width)
            tier = tiers.get(key)
            if tier is None:
                tiers[key] = {into}
                heapq.heappush(keys, key)
            else:
                tier.add(into)
        for p in perms:
            uncovered[p] ^= holders
            rank[p] += moved * n
        for r in [r for r, c in cands.items() if c & pick]:
            del cands[r]


def _covered(masks: list[int], index: RowIndex, held: list[list[int]]) -> None:
    """CRM's second stage, a check: each row's roles must union to its
    mask (`model._rows_covered`), else `IncompleteDecompositionError`."""
    if not _rows_covered(index.masks, held, masks):
        raise IncompleteDecompositionError("CRM left a row uncovered")


def mine_crm(
    upa: AccessMatrix, cfg: MiningConfig, *, lattice: bool = True
) -> Decomposition:
    """Run the CRM baseline, then the lattice pass unless `lattice` is off;
    always returns a complete decomposition whose roles all have at most
    cfg.max_perms_per_role permissions."""
    return mined(upa, (partial(_greedy, k=cfg.max_perms_per_role), _covered), lattice)
