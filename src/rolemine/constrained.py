"""Constrained miner: candidate-per-user, union elimination, splitting.

Pipeline for one matrix:

1. one candidate role per distinct nonempty row, processed smallest first;
2. union elimination: a role equal to the union of other catalog roles that
   sit inside it is dropped and its users take the covering roles instead;
3. cardinality enforcement: any surviving role larger than k is split,
   reusing existing catalog roles before cutting fresh chunks;
4. lattice reduction (rolemine.lattice) unless disabled.

Every ordering below is total, so mining is a pure function of the matrix
and the config: rerunning serializes byte-identically.

All stages run on one distinct-row index (rolemine._rowindex): each
distinct nonempty row once, with its users, mask and permission tuple, in
(size descending, sorted permission tuple) order, plus one vertical bitmap
per permission over those positions (a tid-list in the sense of Zaki,
"Scalable algorithms for association mining", TKDE 2000) and the user
frequency of each permission.  The candidates are the index rows; a
candidate's id is its rank in (size ascending, smallest user) order.  Every
user of a row holds the same roles through union elimination, the split
and the lattice, so assignments are kept per row and expanded to users
once, at the end.

Union elimination reads "which candidates lie inside candidate r" from the
index: ANDing r's columns gives its supersets, and inverting that relation
gives per candidate the ascending positions of its subsets, which is the
largest-first order the greedy cover takes, so no sort is needed.

Split policy for an oversized candidate: greedily take existing roles that
fit inside the uncovered remainder (largest first, ties by lexicographically
smallest permission tuple), then cut what is left into consecutive chunks of
at most k permissions, ordered by descending global permission frequency in
the matrix (ties by ascending index).  Grouping frequent permissions keeps
chunks reusable for later candidates.  A pool role that does not fit the
remainder never fits again, so one pass over the pool in that order makes
the same picks as repeatedly taking the best fitting role.

The public stages (`initial_candidates`, `eliminate_union_roles`,
`enforce_cardinality`) run the same cores on their arguments;
`eliminate_union_roles` groups users by the roles they hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from ._rowindex import (
    RowIndex,
    candidate_order,
    distinct_rows_by_size,
    per_user,
    rarest_first_and,
    role_holders,
    vertical,
)
from .lattice import reduce_rows
from .model import (
    AccessMatrix,
    Decomposition,
    IncompleteDecompositionError,
    MiningConfig,
    Role,
    is_complete,
    mask_of,
    perm_tuple,
)


@dataclass(frozen=True)
class Candidate:
    """A distinct nonempty row and the users that hold it."""

    perms: frozenset[int]
    users: tuple[int, ...]
    order: int


@dataclass(frozen=True)
class CandidatePool:
    candidates: tuple[Candidate, ...]


def initial_candidates(upa: AccessMatrix) -> CandidatePool:
    """One candidate per distinct nonempty row, smallest sets first.

    Ties break on the smallest member user index, so the processing order is
    reproducible for any matrix.
    """
    rows = distinct_rows_by_size(upa)
    perms = [row[0] for row in rows]
    users = [row[2] for row in rows]
    return CandidatePool(
        candidates=tuple(
            Candidate(perms=frozenset(perms[i]), users=tuple(users[i]), order=rank)
            for rank, i in enumerate(candidate_order(perms, users))
        )
    )


def _eliminate(
    masks: Sequence[int],
    perms: Sequence[tuple[int, ...]],
    columns: Sequence[int],
    counts: Sequence[int],
    held: list[set[int]],
) -> list[bool]:
    """Union elimination over roles in visiting order; returns which roles
    were removed.

    Roles are given by mask and permission tuple, largest first and ties by
    permission tuple; `columns` and `counts` index them by permission.
    ``held[g]`` is the set of roles group g holds and is updated in place.
    """
    # subs[i]: positions of the roles strictly inside role i, ascending.
    # Filled for j ascending, so each list is in visiting order already.
    subs: list[list[int]] = [[] for _ in masks]
    for j, t in enumerate(perms):
        own = 1 << j
        for i in perm_tuple(rarest_first_and(t, columns, counts, own) ^ own):
            subs[i].append(j)
    holders = role_holders(held, len(masks))

    removed = [False] * len(masks)
    for i, m in enumerate(masks):
        # Every role in subs[i] is strictly smaller than role i, hence later
        # in the visiting order and not yet visited: none has been removed.
        union = 0
        for j in subs[i]:
            union |= masks[j]
        if union != m:
            continue
        cover = []
        remainder = m
        for j in subs[i]:
            if masks[j] & remainder:
                cover.append(j)
                remainder &= ~masks[j]
                if not remainder:
                    break
        removed[i] = True
        for g in holders[i]:
            held[g].discard(i)
            held[g].update(cover)
            for c in cover:
                holders[c].add(g)
        holders[i] = set()
    return removed


def eliminate_union_roles(
    roles: Sequence[Role],
    ua: Sequence[Iterable[int]],
    upa: AccessMatrix,
) -> Decomposition:
    """Drop every role that equals the union of other roles contained in it.

    Roles are visited largest first; a removable role's users are handed the
    covering roles, chosen greedily largest first.  Because covers consist of
    strictly smaller roles, one descending sweep reaches the fixpoint.

    The roles inside each role come from a subset index over positions in
    visiting order.  One int bitmap per permission has bit i set when role i
    holds it; a role's supersets are the AND of its columns, rarest first,
    stopping once only its own bit is left.  Inverted, this gives each role
    its subsets as an ascending position list: largest first with ties by
    permission tuple, the cover order, so the cover is the one a sort of
    the contained roles would give.  Users holding the same roles are
    handled as one group.
    """
    d_in = Decomposition(roles=tuple(roles), ua=tuple(frozenset(s) for s in ua))
    if not is_complete(upa, d_in):
        raise IncompleteDecompositionError(
            "eliminate_union_roles requires a complete decomposition"
        )
    keyed = sorted(
        ((r.sorted_perms(), r) for r in d_in.roles), key=lambda e: (-len(e[0]), e[0])
    )
    perms = [t for t, _ in keyed]
    by_key = [r for _, r in keyed]
    position = {r.id: i for i, r in enumerate(by_key)}
    groups: dict[frozenset[int], list[int]] = {}
    for u, assigned in enumerate(d_in.ua):
        groups.setdefault(assigned, []).append(u)
    held = [{position[rid] for rid in assigned} for assigned in groups]
    columns, counts = vertical(perms, upa.n_perms)
    removed = _eliminate([r.mask for r in by_key], perms, columns, counts, held)

    kept = tuple(r for r in d_in.roles if not removed[position[r.id]])
    ua_out = per_user(
        groups.values(),
        ({by_key[i].id for i in assigned} for assigned in held),
        upa.n_users,
    )
    return Decomposition(roles=kept, ua=ua_out)


def _split(
    mask: int, pool: Sequence[int], k: int, freq: Sequence[int]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Cover an oversized mask: the positions of the pool masks taken, then
    the fresh chunks of what is left.

    `pool` holds masks inside `mask` in cover order, largest first and ties
    by permission tuple.  A mask that does not fit the remainder never fits
    again, since the remainder only shrinks, so one pass in that order takes
    what repeatedly taking the first fitting mask would.
    """
    taken = []
    remainder = mask
    for i, e in enumerate(pool):
        if e & ~remainder == 0:
            taken.append(i)
            remainder &= ~e
            if not remainder:
                break
    leftover = sorted(perm_tuple(remainder), key=lambda p: (-freq[p], p))
    chunks = [tuple(sorted(leftover[i : i + k])) for i in range(0, len(leftover), k)]
    return taken, chunks


def enforce_cardinality(
    candidate: Iterable[int],
    existing: Iterable[frozenset[int]],
    k: int,
    freq: Sequence[int] | None = None,
) -> list[frozenset[int]]:
    """Split a candidate into permission sets of size at most k.

    Returns the covering sets in assignment order: reused catalog roles
    first, then fresh chunks.  The returned sets are pairwise disjoint and
    union to the candidate exactly; reused sets are the objects passed in,
    never copies.  A candidate that already fits is returned as-is.
    """
    cand = frozenset(candidate)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(cand) <= k:
        return [cand]
    pool = sorted(
        (e for e in existing if e <= cand), key=lambda e: (-len(e), sorted(e))
    )
    taken, chunks = _split(
        mask_of(cand),
        [mask_of(e) for e in pool],
        k,
        [0] * (max(cand) + 1) if freq is None else freq,
    )
    return [pool[i] for i in taken] + [frozenset(c) for c in chunks]


def mine_constrained(
    upa: AccessMatrix, cfg: MiningConfig, *, lattice: bool = True
) -> Decomposition:
    """Run the full pipeline; always returns a complete decomposition whose
    roles all have at most cfg.max_perms_per_role permissions."""
    k = cfg.max_perms_per_role
    index = RowIndex(upa)
    # Row i starts out holding candidate role i, the row itself.
    held = [{i} for i in range(len(index.masks))]
    removed = _eliminate(index.masks, index.perms, index.columns, index.counts, held)

    cat_masks: list[int] = []
    cat_perms: list[tuple[int, ...]] = []
    ids: dict[int, int] = {}
    by_min_perm: dict[int, list[int]] = {}

    def _add(m: int, perms: tuple[int, ...]) -> int:
        cid = ids.get(m)
        if cid is None:
            cid = ids[m] = len(cat_masks)
            cat_masks.append(m)
            cat_perms.append(perms)
            by_min_perm.setdefault(perms[0], []).append(cid)
        return cid

    pieces: dict[int, tuple[int, ...]] = {}
    for i in candidate_order(index.perms, index.users):
        if removed[i]:
            continue
        m, perms = index.masks[i], index.perms[i]
        if len(perms) <= k:
            pieces[i] = (_add(m, perms),)
            continue
        pool = [
            c for p in perms for c in by_min_perm.get(p, ()) if cat_masks[c] & ~m == 0
        ]
        pool.sort(key=lambda c: (-len(cat_perms[c]), cat_perms[c]))
        taken, chunks = _split(m, [cat_masks[c] for c in pool], k, index.freq)
        pieces[i] = tuple(pool[j] for j in taken) + tuple(
            _add(mask_of(c), c) for c in chunks
        )

    roles = [set(chain.from_iterable(pieces[c] for c in cands)) for cands in held]
    keep = [True] * len(cat_masks)
    if lattice:
        keep = reduce_rows(cat_masks, cat_perms, index.columns, index.counts, roles)
    return Decomposition(
        roles=tuple(
            Role(cid, frozenset(perms))
            for cid, perms in enumerate(cat_perms)
            if keep[cid]
        ),
        ua=per_user(index.users, roles, upa.n_users),
    )
