"""The distinct-row index of a matrix, shared by both miners.

Users with identical rows are interchangeable for every stage of the
constrained pipeline and for CRM's greedy loop, whose clusters are sets of
rows, so the index keeps each distinct nonempty row once, as its mask, with
its users.  It is built from `(mask, users)` groups and the number of
permissions.  Rows are addressed by position in cover order (`cover_key`):
size descending, then permission tuple, the one order in which union
elimination, the split's pool and the lattice take roles.  Each permission
has a vertical bitmap over positions (Eclat's vertical layout, Zaki,
"Scalable algorithms for association mining", TKDE 2000), and the index
answers "the rows, among given positions, that contain permission set S"
itself: `containing` ANDs the positions with the columns of S's mask,
decoding it from the top bit, and stops once none is left.  The order puts
every strict superset of a row before the row, as it is larger, so a row's
strict supersets are the rows before it that contain it.  The build decodes
only the few rows that several users share: `cover_key` sorts the masks by
their bytes, the columns are the sorted rows' bit matrix transposed 8x8
bits at a time (`_transpose`), and a permission's frequency is its
column's bit count plus the further users of those shared rows.

A matrix builds its index once, on first use (`AccessMatrix._row_index`),
from its `row_groups`, and keeps it, so both miners, `initial_candidates`,
the oracle and every later call on that matrix share one build.  The
miners hand it to the stage cores; CRM starts its uncovered-cell bitmaps
and permission frequencies from copies of it; the oracle takes its
distinct rows from it.  Every field is a tuple, each user group
too: no consumer can change a shared index, and once collections have run
the garbage collector tracks the index object alone.  (A collection
untracks a tuple only if its items are untracked when it reaches the
tuple, so the tuple of user tuples may wait for a second one.)

`row_groups` is the one place users are grouped; it only groups, and the
index sorts its groups.  The miners group by row.  The public stages take
a complete decomposition, whose users of one row may hold different roles,
and group by the assigned role set, which fixes the row; `lattice_reduce`
indexes those groups per call.

Every stage's result comes from one builder, `rebuild`, given the roles
still held and the role ids of each group.  Between stages a group's role
ids are a plain list, each id once: a row holds a few small ids, and a list
of them costs a fraction of a set's hash table.

A miner is its list of stages, and `mined` is the one code that runs such
a list.  A stage has the lattice sweep's own signature, ``stage(masks,
index, held)``: it takes the list of role masks, the matrix's index and
each row position's list of role ids, and updates both lists in place; a
stage that needs k gets it through `functools.partial`.  `mined` starts
from empty lists, runs the miner's stages in order, then, unless the
lattice is off, the lattice sweep (`lattice.reduce_rows`, imported when
called, as lattice imports this module) as the last stage, and builds a
`Role` only for each mask still held, with its position as its id.  The
public stages reach `rebuild` through `staged`, the one adapter that runs a
stage core on a decomposition, and the one place they are gated: it runs
the completeness check (`complete_masks`) and refuses an incomplete
decomposition, naming the stage, before any core runs.  It sorts the roles
once into cover order by the masks the check built, numbers them by their
positions in that order, hands the core those masks and each group's
positions, and maps the positions back to role ids once.  It builds no
catalog index: only union elimination's core reads columns, and it indexes
the masks itself.

Union elimination and the lattice replace a role by the same greedy cover
of other catalog roles, written once, in `cover`: walk a list of roles in
cover order and take each that meets what is left, until nothing is.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

from .model import (
    AccessMatrix, Decomposition, IncompleteDecompositionError, Role, complete_masks,
    perm_tuple,
)


def rebuild(
    roles: Sequence[Role],
    held: Sequence[Iterable[int]],
    users: Iterable[Sequence[int]],
    n_users: int,
) -> Decomposition:
    """The decomposition after a stage: `roles` are the roles still held,
    ``held[g]`` holds the role ids of the group whose users are
    ``users[g]``, and a user in no group gets no roles."""
    ua: list[frozenset[int]] = [frozenset()] * n_users
    for group, ids in zip(users, held):
        # Through a set: a frozenset copies a set's table at the size its
        # count needs, but grows item by item from a list, to twice that
        # table for 5 to 7 ids.
        shared = frozenset(set(ids))
        for u in group:
            ua[u] = shared
    return Decomposition(roles=tuple(roles), ua=tuple(ua))


def mined(
    upa: AccessMatrix, stages: Sequence[Callable[..., None]], lattice: bool
) -> Decomposition:
    """A miner's result: its `stages` run in order on empty lists of role
    masks and of each row's role ids, then, with `lattice` on, the one
    lattice sweep as the last stage.  Each stage is called as
    ``stage(masks, index, held)`` with the matrix's index and updates both
    lists in place.  At the end role i is ``masks[i]`` with id i, and
    ``held[g]`` lists the roles of row position g; a `Role` is built only
    for each mask still held."""
    # Imported here: lattice imports this module.
    from .lattice import reduce_rows

    masks: list[int] = []
    held: list[list[int]] = []
    for stage in (*stages, reduce_rows) if lattice else stages:
        stage(masks, upa._row_index, held)
    live = set().union(*held)
    roles = [Role(i, frozenset(perm_tuple(masks[i]))) for i in sorted(live)]
    return rebuild(roles, held, upa._row_index.users, upa.n_users)


def staged(
    upa: AccessMatrix,
    d: Decomposition,
    stage: str,
    users: Sequence[Sequence[int]],
    core: Callable[[list[int], list[list[int]]], None],
) -> Decomposition:
    """A public stage's result: `core` run on the decomposition `d`, which
    must be complete (`complete_masks`, with its errors); otherwise
    `IncompleteDecompositionError` names the `stage`.

    ``users[g]`` is a group of users holding one role set in `d`.  The
    stage's catalog is the list of `d`'s role masks in cover order
    (`cover_key`), so position i numbers a role; ``core(catalog, held)``
    updates ``held[g]``, the list of positions group g holds, each once, in
    place.  A stage hands a dropped role's groups other roles and never
    takes a kept role from its last group, so the roles still held are the
    ones kept; they stay in `d`'s order.
    """
    masks = complete_masks(upa, d)
    if masks is None:
        raise IncompleteDecompositionError(f"{stage} requires a complete decomposition")
    ordered = sorted(d.roles, key=lambda r: cover_key(masks[r.id]))
    position = {r.id: i for i, r in enumerate(ordered)}
    held = [[position[rid] for rid in d.ua[group[0]]] for group in users]
    core([masks[r.id] for r in ordered], held)
    assigned = [[ordered[i].id for i in roles] for roles in held]
    live = set().union(*assigned)
    return rebuild([r for r in d.roles if r.id in live], assigned, users, upa.n_users)


def cover(
    i: int, rest: int, order: Iterable[int], masks: Sequence[int]
) -> tuple[list[int], int]:
    """The greedy cover of `rest` by the roles of `order` other than `i`:
    takes, in order, each that meets what is left, until nothing is.
    Returns the roles taken and what they leave; `order` is not read when
    `rest` is empty."""
    taken = []
    if rest:
        for j in order:
            if masks[j] & rest and j != i:
                taken.append(j)
                rest &= ~masks[j]
                if not rest:
                    break
    return taken, rest


def row_groups(
    upa: AccessMatrix, keys: Sequence[Hashable] | None = None
) -> list[tuple[int, list[int]]]:
    """(mask, users) of each group of users with a nonempty row, in the
    order of their first users.

    Users are grouped by ``keys[u]``, by default their row; a key must fix
    the row, as the role set of a complete decomposition does.
    """
    if keys is None:
        keys = upa.masks
    groups: dict[Hashable, tuple[int, list[int]]] = {}
    for u, (m, key) in enumerate(zip(upa.masks, keys)):
        if m:
            groups.setdefault(key, (m, []))[1].append(u)
    return list(groups.values())


# _COVER[x] is 255 minus x with its 8 bits reversed: bit 0 becomes the
# heaviest, and a byte holding a lower bit compares smaller.
_COVER = bytes(255 - int(f"{x:08b}"[::-1], 2) for x in range(256))


def cover_key(mask: int) -> tuple[int, bytes]:
    """The cover order's sort key of a role or row, given as its mask: size
    descending, then the ascending permission tuple.

    Of two masks of one size, the smaller permission tuple holds the lowest
    bit where they differ.  The key's bytes run from bit 0 up, each byte
    reversed and complemented, so they first differ at that bit's byte and
    the mask holding it compares smaller there.  Of one size, neither key
    is a prefix of another: a longer mask that agreed on every byte of a
    shorter one would hold more bits.  No mask is decoded.
    """
    return -mask.bit_count(), mask.to_bytes(
        (mask.bit_length() + 7) >> 3, "little"
    ).translate(_COVER)


def candidate_order(
    masks: Sequence[int], users: Sequence[Sequence[int]], positions: Iterable[int]
) -> list[int]:
    """Row `positions` by (size, smallest user): the candidate order, in
    which a row's rank among all rows is its candidate role's id."""
    return sorted(positions, key=lambda i: (masks[i].bit_count(), users[i][0]))


# Warren's transpose8 (Hacker's Delight, section 7-3): three delta swaps
# (shift, mask) transpose the 8x8 bit matrix held in a 64-bit word, byte j
# bit t going to byte t bit j.
_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _transpose(masks: Sequence[int], n_perms: int) -> tuple[int, ...]:
    """Permission p's bitmap over the positions of `masks`, for each p below
    `n_perms`: the bit matrix of the rows, transposed.

    The rows are laid out as one buffer of `n_perms`-bit little-endian
    rows.  Byte column b, read as one int, holds a 64-bit word per 8 rows,
    row j of the 8 in byte j, the last word padded with zero rows.  The
    delta swaps, their masks repeated across every word, transpose every
    word at once, so byte t of each word holds the 8 rows' bits of
    permission 8b + t, and that permission's column is those bytes joined.
    No row is decoded and no cell is visited one at a time.
    """
    width = (n_perms + 7) >> 3
    height = len(masks) + (-len(masks) % 8)
    buf = b"".join([m.to_bytes(width, "little") for m in masks])
    repeat = int.from_bytes(b"\1\0\0\0\0\0\0\0" * (height >> 3), "little")
    swaps = [(s, mask * repeat) for s, mask in _SWAPS]
    columns: list[int] = []
    for b in range(width):
        x = int.from_bytes(buf[b::width], "little")
        for s, mask in swaps:
            t = (x ^ (x >> s)) & mask
            x ^= t ^ (t << s)
        data = x.to_bytes(height, "little")
        columns += [int.from_bytes(data[t::8], "little") for t in range(8)]
    return tuple(columns[:n_perms])


class RowIndex:
    """Distinct nonempty rows of a matrix, their users and columns.

    ``masks[i]`` and ``users[i]`` describe row position i, in cover order
    (`cover_key`); ``columns[p]`` is permission p's bitmap over positions;
    ``freq[p]`` is the number of users holding p, summed over the positions
    in p's column.  The index is built from `(mask, users)` groups with
    nonempty masks below bit `n_perms`, as `row_groups` forms them; where
    groups repeat a row, those of one row keep their given order, as the
    sort by `cover_key` is stable.  The columns are the rows transposed by
    `_transpose`; only rows of several users are decoded, for `freq`.
    """

    __slots__ = ("masks", "users", "columns", "freq")

    def __init__(
        self, groups: Iterable[tuple[int, Sequence[int]]], n_perms: int
    ) -> None:
        rows = sorted(groups, key=lambda group: cover_key(group[0]))
        self.masks = tuple(m for m, _ in rows)
        self.users = tuple(tuple(users) for _, users in rows)
        self.columns = _transpose(self.masks, n_perms)
        # A column counts each row once; a row of several users adds the rest.
        freq = [col.bit_count() for col in self.columns]
        for m, users in zip(self.masks, self.users):
            if len(users) > 1:
                for p in perm_tuple(m):
                    freq[p] += len(users) - 1
        self.freq = tuple(freq)

    def containing(self, mask: int, rows: int = -1) -> int:
        """The positions in `rows` (by default all) whose row holds every
        permission of `mask`, as a bitmap: `rows` ANDed with the columns of
        the mask, decoded from its top bit, ending early once no position
        is left; an empty mask leaves `rows` as it is."""
        while mask and rows:
            top = mask.bit_length() - 1
            rows &= self.columns[top]
            mask ^= 1 << top
        return rows
