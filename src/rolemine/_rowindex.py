"""The distinct-row index one constrained mining run works on.

Users with identical rows are interchangeable for every stage of the
constrained pipeline, so the index keeps each distinct nonempty row once,
with its users, its permission tuple and its mask.  Rows are addressed by
position in union elimination's order: size descending, then permission
tuple.  Each permission has a vertical bitmap over positions (an Eclat
tid-list, Zaki, "Scalable algorithms for association mining", TKDE 2000):
"the rows that contain permission set S" is the AND of S's columns.

`eliminate_union_roles` and `lattice_reduce`, which take a decomposition
whose users of one row may hold different roles, index their own user
groups with the same helpers.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import invert
from typing import Iterable, Sequence

from .model import AccessMatrix, perm_tuple


def tidlists(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Per permission in [0, width), the ascending positions of the rows
    that hold it."""
    lists: list[list[int]] = [[] for _ in range(width)]
    for i, perms in enumerate(rows):
        for p in perms:
            lists[p].append(i)
    return lists


def bitmaps(lists: Sequence[Sequence[int]], n_rows: int) -> list[int]:
    """Each position list as an int with those bits set.

    Setting characters of a '0'/'1' buffer runs in C and int() parses the
    buffer in linear time; ORing one big int per position would copy the
    column every time.  Position i is the character at index ~i = -1 - i.
    """
    zeros = bytearray(b"0") * n_rows
    out = []
    for positions in lists:
        if not positions:
            out.append(0)
            continue
        buf = zeros[:]
        deque(map(buf.__setitem__, map(invert, positions), repeat(49)), 0)
        out.append(int(buf, 2))
    return out


def vertical(
    rows: Sequence[Sequence[int]], width: int
) -> tuple[list[int], list[int]]:
    """Each permission's bitmap over row positions and its popcount."""
    lists = tidlists(rows, width)
    return bitmaps(lists, len(rows)), [len(positions) for positions in lists]


def per_user(
    users: Iterable[Sequence[int]], assigned: Iterable[Iterable[int]], n_users: int
) -> tuple[frozenset[int], ...]:
    """Expand per-group role sets to the per-user assignment; a user in no
    group gets no roles."""
    ua: list[frozenset[int]] = [frozenset()] * n_users
    for group, roles in zip(users, assigned):
        shared = frozenset(roles)
        for u in group:
            ua[u] = shared
    return tuple(ua)


def role_holders(held: Sequence[Iterable[int]], n_roles: int) -> list[set[int]]:
    """Invert per-group role sets: the groups holding each role."""
    holders: list[set[int]] = [set() for _ in range(n_roles)]
    for g, roles in enumerate(held):
        for i in roles:
            holders[i].add(g)
    return holders


def rarest_first_and(
    perms: Sequence[int], columns: Sequence[int], counts: Sequence[int], stop: int = 0
) -> int:
    """AND of the columns of `perms`, rarest first, ending early once the
    result is `stop` (it can only shrink)."""
    rows = -1
    for p in sorted(perms, key=counts.__getitem__):
        rows &= columns[p]
        if rows == stop:
            break
    return rows


def distinct_rows_by_size(
    upa: AccessMatrix,
) -> list[tuple[tuple[int, ...], int, list[int]]]:
    """(permission tuple, mask, users) of each distinct nonempty row, size
    descending, then permission tuple: union elimination's order."""
    groups: dict[int, list[int]] = {}
    for u, m in enumerate(upa.masks):
        if m:
            groups.setdefault(m, []).append(u)
    return sorted(
        ((perm_tuple(m), m, users) for m, users in groups.items()),
        key=lambda row: (-len(row[0]), row[0]),
    )


def candidate_order(
    perms: Sequence[tuple[int, ...]], users: Sequence[list[int]]
) -> list[int]:
    """Row positions by (size, smallest user): the candidate order, in which
    a row's rank is its candidate role's id."""
    return sorted(range(len(perms)), key=lambda i: (len(perms[i]), users[i][0]))


class RowIndex:
    """Distinct nonempty rows of a matrix, their users and columns.

    ``perms[i]``, ``masks[i]`` and ``users[i]`` describe row position i;
    ``columns[p]`` and ``counts[p]`` are permission p's bitmap over
    positions and its popcount; ``freq[p]`` is the number of users holding
    p, summed over the rows in p's tid-list.
    """

    __slots__ = ("perms", "masks", "users", "columns", "counts", "freq")

    def __init__(self, upa: AccessMatrix) -> None:
        rows = distinct_rows_by_size(upa)
        self.perms = [row[0] for row in rows]
        self.masks = [row[1] for row in rows]
        self.users = [row[2] for row in rows]
        lists = tidlists(self.perms, upa.n_perms)
        self.columns = bitmaps(lists, len(rows))
        self.counts = [len(positions) for positions in lists]
        weights = [len(users) for users in self.users]
        self.freq = [sum(map(weights.__getitem__, positions)) for positions in lists]
