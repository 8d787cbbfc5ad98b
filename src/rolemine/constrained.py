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

Union elimination reads "which roles lie inside role r" from a subset index.
Roles are addressed by position in (size descending, sorted permission
tuple) order, and each permission has a vertical bitmap over positions (a
tid-list in the sense of Zaki, "Scalable algorithms for association mining",
TKDE 2000).  ANDing a role's columns gives its supersets; inverting that
relation gives per role the ascending positions of its subsets, which is
the largest-first order the greedy cover takes, so no sort is needed.

Split policy for an oversized candidate: greedily take existing roles that
fit inside the uncovered remainder (largest first, ties by lexicographically
smallest permission tuple), then cut what is left into consecutive chunks of
at most k permissions, ordered by descending global permission frequency in
the matrix (ties by ascending index).  Grouping frequent permissions keeps
chunks reusable for later candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .lattice import lattice_reduce
from .model import (
    AccessMatrix,
    Decomposition,
    IncompleteDecompositionError,
    MiningConfig,
    Role,
    is_complete,
    iter_bits,
    perm_set,
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
    groups: dict[int, list[int]] = {}
    for u, m in enumerate(upa.masks):
        if m:
            groups.setdefault(m, []).append(u)
    ordered = sorted(groups.items(), key=lambda kv: (kv[0].bit_count(), kv[1][0]))
    return CandidatePool(
        candidates=tuple(
            Candidate(perms=perm_set(m), users=tuple(users), order=i)
            for i, (m, users) in enumerate(ordered)
        )
    )


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
    the contained roles would give.
    """
    d_in = Decomposition(roles=tuple(roles), ua=tuple(frozenset(s) for s in ua))
    if not is_complete(upa, d_in):
        raise IncompleteDecompositionError(
            "eliminate_union_roles requires a complete decomposition"
        )
    user_roles = [set(s) for s in d_in.ua]
    role_users: dict[int, set[int]] = {r.id: set() for r in d_in.roles}
    for u, s in enumerate(user_roles):
        for rid in s:
            role_users[rid].add(u)

    by_key = sorted(
        d_in.roles, key=lambda r: (-len(r.perms), r.sorted_perms())
    )
    pos_masks = [r.mask for r in by_key]
    columns: dict[int, int] = {}
    for i, r in enumerate(by_key):
        bit = 1 << i
        for p in r.perms:
            columns[p] = columns.get(p, 0) | bit
    counts = {p: col.bit_count() for p, col in columns.items()}
    # subs[i]: positions of the roles strictly inside role i, ascending.
    # Filled for j ascending, so each list is in by_key order already.
    subs: list[list[int]] = [[] for _ in pos_masks]
    for j, r in enumerate(by_key):
        own = 1 << j
        supersets = -1
        for p in sorted(r.perms, key=counts.__getitem__):
            supersets &= columns[p]
            if supersets == own:
                break
        for i in iter_bits(supersets ^ own):
            subs[i].append(j)

    removed: set[int] = set()
    for i, m in enumerate(pos_masks):
        # Every role in subs[i] is strictly smaller than role i, hence later
        # in by_key and not yet visited: none of them has been removed.
        union = 0
        for j in subs[i]:
            union |= pos_masks[j]
        if union != m:
            continue
        cover = []
        remainder = m
        for j in subs[i]:
            if pos_masks[j] & remainder:
                cover.append(by_key[j].id)
                remainder &= ~pos_masks[j]
                if not remainder:
                    break
        rid = by_key[i].id
        removed.add(rid)
        for u in sorted(role_users[rid]):
            user_roles[u].discard(rid)
            user_roles[u].update(cover)
            for cid in cover:
                role_users[cid].add(u)
        del role_users[rid]

    kept = tuple(r for r in d_in.roles if r.id not in removed)
    return Decomposition(roles=kept, ua=tuple(frozenset(s) for s in user_roles))


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
    pool = [e for e in existing if e <= cand]
    reused: list[frozenset[int]] = []
    remainder = set(cand)
    while True:
        fits = [e for e in pool if e <= remainder]
        if not fits:
            break
        best = min(fits, key=lambda e: (-len(e), tuple(sorted(e))))
        reused.append(best)
        remainder -= best
    if freq is None:
        leftover = sorted(remainder)
    else:
        leftover = sorted(remainder, key=lambda p: (-freq[p], p))
    chunks = [
        frozenset(leftover[i : i + k]) for i in range(0, len(leftover), k)
    ]
    return reused + chunks


def _perm_frequencies(upa: AccessMatrix) -> list[int]:
    freq = [0] * upa.n_perms
    for m in upa.masks:
        for p in iter_bits(m):
            freq[p] += 1
    return freq


def mine_constrained(
    upa: AccessMatrix, cfg: MiningConfig, *, lattice: bool = True
) -> Decomposition:
    """Run the full pipeline; always returns a complete decomposition whose
    roles all have at most cfg.max_perms_per_role permissions."""
    k = cfg.max_perms_per_role
    pool = initial_candidates(upa)
    if not pool.candidates:
        return Decomposition.empty(upa.n_users)

    roles0 = tuple(Role(c.order, c.perms) for c in pool.candidates)
    ua0: list[set[int]] = [set() for _ in range(upa.n_users)]
    for c in pool.candidates:
        for u in c.users:
            ua0[u].add(c.order)
    d1 = eliminate_union_roles(roles0, ua0, upa)

    freq = _perm_frequencies(upa)
    catalog: list[frozenset[int]] = []
    index: dict[frozenset[int], int] = {}
    by_min_perm: dict[int, list[frozenset[int]]] = {}

    def _add(perms: frozenset[int]) -> int:
        rid = index.get(perms)
        if rid is None:
            rid = len(catalog)
            index[perms] = rid
            catalog.append(perms)
            by_min_perm.setdefault(min(perms), []).append(perms)
        return rid

    piece_ids: dict[int, tuple[int, ...]] = {}
    for r in sorted(d1.roles, key=lambda r: r.id):  # candidate order
        if len(r.perms) <= k:
            piece_ids[r.id] = (_add(r.perms),)
            continue
        reusable = [
            e
            for p in sorted(r.perms)
            for e in by_min_perm.get(p, ())
            if e <= r.perms
        ]
        pieces = enforce_cardinality(r.perms, reusable, k, freq=freq)
        piece_ids[r.id] = tuple(_add(p) for p in pieces)

    ua = tuple(
        frozenset(chain.from_iterable(piece_ids[rid] for rid in d1.ua[u]))
        for u in range(upa.n_users)
    )
    d = Decomposition(
        roles=tuple(Role(i, s) for i, s in enumerate(catalog)), ua=ua
    )
    if lattice:
        d = lattice_reduce(upa, d, k)
    return d
