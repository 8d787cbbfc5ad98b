"""The distinct-row index of a matrix, shared by both miners.

Users with identical rows are interchangeable for every stage of the
constrained pipeline and for CRM's greedy loop, whose clusters are sets of
rows, so the index keeps each distinct nonempty row once, with its users,
its permission tuple and its mask.  Rows are addressed by position in
union elimination's order: size descending, then permission tuple.  Each
permission has a vertical bitmap over positions (Eclat's vertical layout,
Zaki, "Scalable algorithms for association mining", TKDE 2000), and the
index answers "the rows that contain permission set S" itself:
`containing` ANDs S's columns.  Each row keeps its permission tuple next
to its mask: union elimination walks every row's tuple and the columns and
frequencies are built in one loop over them, all 15317 rows on the
20000x2000 instance, so each row is decoded once, when the index is built.

A matrix builds its index once, on first use (`AccessMatrix._row_index`),
and keeps it, so both miners and every later call on that matrix share one
build.  The miners hand it to the stage cores; CRM starts its
uncovered-cell bitmaps and permission frequencies from copies of it.  Every
field is a tuple, each row and user group too: no consumer can change a
shared index, and once a collection has run the garbage collector tracks
the index object alone.  The keyed indexes of `lattice_reduce` and
`eliminate_union_roles` are built per call.

`distinct_rows_by_size` is the one place users are grouped.  The miners
group by row.  `eliminate_union_roles` and `lattice_reduce` take a complete
decomposition, whose users of one row may hold different roles, and group
by the assigned role set, which fixes the row.  Union elimination returns
each role's stand-ins for its callers to map their groups through; from the
per-group role sets `rebuild`, the one builder, makes every stage's result.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .model import AccessMatrix, Decomposition, Role, perm_tuple


def held_positions(
    ua: Sequence[Iterable[int]], ids: Sequence[int], users: Iterable[Sequence[int]]
) -> list[set[int]]:
    """Per group of `users`, the positions of the roles its users hold in
    `ua`, where ``ids[i]`` is the id of position i."""
    position = {rid: i for i, rid in enumerate(ids)}
    return [{position[rid] for rid in ua[group[0]]} for group in users]


def rebuild(
    roles: Sequence[Role],
    held: Sequence[Iterable[int]],
    users: Iterable[Sequence[int]],
    n_users: int,
) -> Decomposition:
    """The decomposition after a stage: ``held[g]`` holds the role ids of
    the group whose users are ``users[g]``, and a user in no group gets no
    roles.  A stage hands a dropped role's groups other roles and never
    takes a kept role from its last group, so the roles still held are the
    ones kept; they stay in `roles` order."""
    ua: list[frozenset[int]] = [frozenset()] * n_users
    for group, ids in zip(users, held):
        shared = frozenset(ids)
        for u in group:
            ua[u] = shared
    live = set().union(*held)
    return Decomposition(roles=tuple(r for r in roles if r.id in live), ua=tuple(ua))


def distinct_rows_by_size(
    upa: AccessMatrix, keys: Sequence[Hashable] | None = None
) -> list[tuple[tuple[int, ...], int, list[int]]]:
    """(permission tuple, mask, users) of each group of users with a
    nonempty row, size descending, then permission tuple: union
    elimination's order.

    Users are grouped by ``keys[u]``, by default their row; a key must fix
    the row, as the role set of a complete decomposition does.  Groups of
    one row keep the order of their first users.
    """
    if keys is None:
        keys = upa.masks
    groups: dict[Hashable, tuple[int, list[int]]] = {}
    for u, (m, key) in enumerate(zip(upa.masks, keys)):
        if m:
            groups.setdefault(key, (m, []))[1].append(u)
    return sorted(
        ((perm_tuple(m), m, users) for m, users in groups.values()),
        key=lambda row: (-len(row[0]), row[0]),
    )


def candidate_order(
    perms: Sequence[tuple[int, ...]], users: Sequence[Sequence[int]]
) -> list[int]:
    """Row positions by (size, smallest user): the candidate order, in which
    a row's rank is its candidate role's id."""
    return sorted(range(len(perms)), key=lambda i: (len(perms[i]), users[i][0]))


class RowIndex:
    """Distinct nonempty rows of a matrix, their users and columns.

    ``perms[i]``, ``masks[i]`` and ``users[i]`` describe row position i;
    ``columns[p]`` is permission p's bitmap over positions; ``freq[p]`` is
    the number of users holding p, summed over the positions in p's column.
    With `keys`, a position is a group of users as `distinct_rows_by_size`
    forms it, and rows repeat.
    """

    __slots__ = ("perms", "masks", "users", "columns", "freq")

    def __init__(
        self, upa: AccessMatrix, keys: Sequence[Hashable] | None = None
    ) -> None:
        rows = distinct_rows_by_size(upa, keys)
        self.perms = tuple(row[0] for row in rows)
        self.masks = tuple(row[1] for row in rows)
        self.users = tuple(tuple(row[2]) for row in rows)
        # Position i is bit i & 7 of byte i >> 3: int.from_bytes reads each
        # column once, where ORing one big int per cell would copy it.
        cols = [bytearray((len(rows) + 7) >> 3) for _ in range(upa.n_perms)]
        freq = [0] * upa.n_perms
        for i, (perms, users) in enumerate(zip(self.perms, self.users)):
            byte, bit, n = i >> 3, 1 << (i & 7), len(users)
            for p in perms:
                cols[p][byte] |= bit
                freq[p] += n
        self.columns = tuple(int.from_bytes(col, "little") for col in cols)
        self.freq = tuple(freq)

    def containing(self, perms: Iterable[int], stop: int = 0) -> int:
        """The positions whose row holds every permission of the nonempty
        `perms`, as a bitmap: the AND of their columns in the order given,
        ending early once the result is `stop`.  Every row of `stop` must
        hold all of `perms`, so no later column clears one of its bits."""
        rows = -1
        for p in perms:
            rows &= self.columns[p]
            if rows == stop:
                break
        return rows
