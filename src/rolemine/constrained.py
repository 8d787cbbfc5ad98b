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

All stages run on the matrix's distinct-row index (rolemine._rowindex
describes it), built on the matrix's first use and shared with CRM and
later calls: each distinct nonempty row once, as its mask, in cover order
(`_rowindex.cover_key`: size descending, then permission tuple), with a
bitmap column per permission and the user frequency of each permission.
The candidates are the index rows; a candidate's id is its rank in (size
ascending, smallest user) order.  Every user of a row holds the same roles
through union elimination, the split and the lattice, so assignments are
kept per row, as a list of catalog role ids, each once.  Union
elimination's stand-ins stay sets, as they are unions; each row's list is
its stand-ins' pieces, and the stand-ins are dropped before the lattice.
The pipeline ends in the tail it shares with CRM (`_rowindex.mined`): one
lattice sweep over the index (`lattice.reduce_rows`), unless it is
disabled, then a `Role` for each catalog mask still held, with the rows
expanded to users once.

Union elimination is one pass over the index, last position to first.
r's strict subsets are smaller, so they sit after r, and each, when
visited, adds itself to the subset lists of its strict supersets: r's list
is complete when the pass reaches r, and read backwards it is ascending,
the largest-first order of the greedy cover.  One walk over it
(`_rowindex.cover`, the lattice's walk too), taking each subset that still
meets what is left of r, is both the test (it empties the rest iff they
union to r) and the cover; the list is then freed.  The subsets all sit
later, so the outcome depends on the masks alone, and r's stand-ins are
{r} if it is kept, else the union of its cover members' stand-ins,
already known.  r's strict supersets sit before r.  A row holds r iff it
holds each role r's walk took and the permissions they leave, so r's
supersets are the positions before r in the superset bitmaps of those
roles, ANDed with the columns of what is left.  The walk's first role is
s, r's largest strict subset, so this is s's supersets narrowed, and only
a row with no strict subset asks `RowIndex.containing` for all the
positions before it.

Step 3 for one kept candidate, visited in candidate order, is `_split`,
the only code that appends to the catalog, a list of masks in which a
role's id is its position, or to the map from each permission to the
catalog positions whose lowest permission it is, where a split finds its
pool.

The public stages run the same cores on their arguments.
`initial_candidates` reads the matrix's index and decodes each candidate's
permission set.  `eliminate_union_roles` is one call of the public
stages' adapter (`_rowindex.staged`), which gates it on completeness
(`complete_masks`, which keeps the role masks it builds), indexes the
catalog once, from `(mask, (role id,))` pairs, one row per role, and
numbers the roles by their positions in it.  Its core is `_eliminate` on that index,
and it gives each group the union of its roles' stand-ins.  The groups
come from `row_groups` alone, by the roles they hold, with no decode, no
sort and no index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ._rowindex import (
    RowIndex, candidate_order, cover, cover_key, mined, row_groups, staged
)
from .model import (
    AccessMatrix,
    Decomposition,
    MiningConfig,
    Role,
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
    """The candidates of a matrix, in processing order."""

    candidates: tuple[Candidate, ...]


def initial_candidates(upa: AccessMatrix) -> CandidatePool:
    """One candidate per distinct nonempty row, smallest sets first.

    Ties break on the smallest member user index, so the processing order is
    reproducible for any matrix.  The rows come from the matrix's
    distinct-row index, built on first use and kept with the matrix.
    """
    index = upa._row_index
    order = candidate_order(index.masks, index.users, range(len(index.masks)))
    return CandidatePool(
        candidates=tuple(
            Candidate(frozenset(perm_tuple(index.masks[i])), index.users[i], rank)
            for rank, i in enumerate(order)
        )
    )


def _eliminate(index: RowIndex) -> list[set[int]]:
    """Union elimination over the roles of `index`, one per position, in
    visiting order: largest first, ties by permission tuple.  Returns each
    position's stand-ins: ``{i}`` if role i is kept, else the kept roles
    that replace it.

    One pass, last position to first.  A role's strict subsets all sit
    after it, and each adds itself to the subset lists of its strict
    supersets when the pass visits it, so role i's list is complete, in
    descending position order, when the pass reaches i; it is walked
    backwards, ascending, and freed there.  Role i's strict supersets are
    larger, so they sit before i.  They come from its walk: a role holds i
    iff it holds each role the walk took and the permissions those leave,
    so i's supersets are the positions before i in the superset bitmaps of
    the roles taken, ANDed with the columns of what is left.  The first
    role taken is s, i's largest strict subset, so the bitmaps are s's
    kept to the positions before i, narrowed by the other roles taken
    instead of the columns of their permissions; a role with no strict
    subset asks `RowIndex.containing` for all of them.  Kept to the
    positions before its role, a bitmap is no wider than the role's
    position.
    """
    masks = index.masks
    # subs[i]: positions of the roles strictly inside role i, descending;
    # popped when the pass reaches i, so later appends cannot reach it.
    subs: list[list[int]] = [[] for _ in masks]
    # sups[i]: bitmap of the positions before i whose role contains role i.
    sups = [0] * len(masks)
    stand_ins: list[set[int]] = [set()] * len(masks)
    for i in reversed(range(len(masks))):
        inside = subs.pop()
        taken, rest = cover(i, masks[i], reversed(inside), masks)
        # The walk empties `rest` iff the subsets union to the mask.
        stand_ins[i] = {i} if rest else set().union(*(stand_ins[j] for j in taken))
        # A role holds role i iff it holds each role taken and what they
        # leave of i; only those before i can hold it.
        sup = (1 << i) - 1
        for j in taken:
            sup &= sups[j]
        # An AND's result keeps the memory of its narrower operand, however
        # few bits it holds; `| 0` copies it at its own width.
        sups[i] = sup = index.containing(rest, sup) | 0
        for j in perm_tuple(sup):
            subs[j].append(i)
    return stand_ins


def eliminate_union_roles(
    roles: Sequence[Role],
    ua: Sequence[Iterable[int]],
    upa: AccessMatrix,
) -> Decomposition:
    """Drop every role that equals the union of other roles contained in it.

    A removable role's users get its cover, chosen greedily largest first,
    with covering roles that go too replaced by their own covers.  Subsets
    are all smaller, so the outcome never depends on the order of removal.

    The core is `_eliminate` on the catalog index that `_rowindex.staged`
    builds, one `(mask, (role id,))` pair per role, with positions in cover
    order, so each role's subsets are walked largest first with ties by
    permission tuple, and the cover (`_rowindex.cover`) is the one a sort
    of the contained roles would give.  A group of users with the same
    roles takes the union of their stand-ins.
    """
    d = Decomposition(roles=tuple(roles), ua=tuple(frozenset(s) for s in ua))

    def core(catalog: RowIndex, held: list[list[int]]) -> None:
        stand_ins = _eliminate(catalog)
        held[:] = [list({s for i in roles for s in stand_ins[i]}) for roles in held]

    # Group order cannot change the result: each user's set is written.
    groups = [users for _, users in row_groups(upa, d.ua)]
    return staged(upa, d, "eliminate_union_roles", groups, core)


def _split(
    mask: int,
    catalog: list[int],
    lowest: dict[int, list[int]],
    k: int,
    freq: Sequence[int],
) -> list[int]:
    """Step 3 for one kept candidate: the catalog positions of its pieces,
    appending to `catalog` the ones that are new.

    ``lowest[p]`` lists, ascending, the catalog positions whose mask's
    lowest permission is p; `_split` extends it wherever it appends, so it
    is the only code that grows either.  A candidate of at most k
    permissions is appended as itself.  A larger one greedily takes the
    catalog masks that fit inside the uncovered remainder, largest first
    with ties by permission tuple (`cover_key`), then cuts what is left
    into consecutive chunks of at most k permissions, ordered by descending
    user frequency of the permission in the matrix, ties by ascending
    index; grouping frequent permissions keeps chunks reusable for later
    candidates.  The pieces are the reused positions, then the new ones.
    A mask inside the candidate has its lowest permission in it, so the
    pool is the masks inside it among the positions listed under its
    permissions, each listed once, with no scan of the catalog.  A mask
    that does not fit the remainder never fits again, as the remainder
    only shrinks, so one pass over the pool, sorted by cover keys with no
    decode, makes the same picks as repeatedly taking the first that fits.

    No chunk equals a catalog mask, so the catalog only grows: such a mask
    lies in the candidate and, at its turn, in the remainder, so the walk
    takes it first.  A candidate within k is new too, as the caller visits
    the distinct rows smallest first, so before any chunk exists.
    """
    pieces = []
    if mask.bit_count() <= k:
        chunks = [mask]
    else:
        outside = ~mask
        pool = [c for p in perm_tuple(mask) for c in lowest.get(p, ())
                if not catalog[c] & outside]
        pool.sort(key=lambda c: cover_key(catalog[c]))
        remainder = mask
        for c in pool:
            if not catalog[c] & ~remainder:
                pieces.append(c)
                remainder &= ~catalog[c]
                if not remainder:
                    break
        leftover = sorted(perm_tuple(remainder), key=lambda p: (-freq[p], p))
        chunks = [mask_of(leftover[i : i + k]) for i in range(0, len(leftover), k)]
    for chunk in chunks:
        lowest.setdefault((chunk & -chunk).bit_length() - 1, []).append(len(catalog))
        pieces.append(len(catalog))
        catalog.append(chunk)
    return pieces


def mine_constrained(
    upa: AccessMatrix, cfg: MiningConfig, *, lattice: bool = True
) -> Decomposition:
    """Run the full pipeline; always returns a complete decomposition whose
    roles all have at most cfg.max_perms_per_role permissions."""
    k = cfg.max_perms_per_role
    index = upa._row_index
    # Row i holds candidate i's stand-ins, which are {i} iff i is kept.
    held = _eliminate(index)
    kept = [i for i, stand_ins in enumerate(held) if i in stand_ins]

    cat_masks: list[int] = []
    lowest: dict[int, list[int]] = {}
    pieces = {
        i: _split(index.masks[i], cat_masks, lowest, k, index.freq)
        for i in candidate_order(index.masks, index.users, kept)
    }

    # Each row lists its stand-ins' pieces once; the stand-ins go here.
    roles = [list({j for c in cands for j in pieces[c]}) for cands in held]
    del held
    return mined(upa, cat_masks, roles, lattice)
