"""Redundant-role removal pass applied after mining.

A role is redundant when, for every user holding it, each of its permissions
is also available from some other catalog role that fits inside that user's
row.  Redundant roles are removed largest first and their users reassigned
greedily (largest fitting role first), in one sweep: a role kept once can
never become removable later, so the sweep ends at a fixpoint.  The pass
never adds or merges roles, so the catalog can only shrink and
completeness and the cardinality bound are preserved by construction.

The pass runs on row groups, not users.  Users with the same row and the
same roles are reassigned alike, so each group keeps one assignment.  The
miners' shared tail, `_rowindex.mined`, runs `reduce_rows` on the matrix's
distinct-row index, where every user of a row holds the same roles.
`lattice_reduce` checks k and makes one call of the public stages'
adapter, `_rowindex.staged`, which gates it on completeness
(`complete_masks`) and indexes the catalog once, in cover order, from the
role masks the check built.  Its core checks the cardinality bound, so an
incomplete input is refused as such before its roles are measured, then
runs `reduce_rows` on that index's masks and an index built from the
`row_groups` of the assigned role sets.  Both reach one builder,
`rebuild`.

Roles come in as masks and stay masks; the pass sorts them into the cover
order, the removal order, by their masks' `_rowindex.cover_key`.  A role's
fitting rows are `RowIndex.containing` its mask (rolemine._rowindex
describes the index); each row keeps its fitting roles in removal order.
A role's holders are not stored a second time: they are its fitting rows
that hold it, which is exact because completeness makes every held role
fit its group.  A row's list holds only its live fitting roles: a removed
role leaves the lists of the rows it fits.

Each holder takes one walk, which is both the test and the reassignment.
Its `rest` is the role's mask minus the union of its other held roles,
and the walk (`_rowindex.cover`, union elimination's too) takes, in list
order, each other role of its list that meets `rest` until `rest` is
empty; a holder whose other roles already cover the mask reads no list.
The other held roles are live and fit the row, so the list covers the
mask iff the walk empties `rest`, and the picks are those of a catalog
scan in the same order.  Holders are visited in fitting-row order, and
the first whose walk fails keeps the role with nothing changed; only when
every holder passes does the role leave the lists and its holders swap
it for their picks.

A group's held roles are a plain list, each role once, and the swap is a
`remove` and a `+=`.  No list gains a duplicate: a walk never takes a role
its group already holds, as that role's mask lies in the union of the
other held roles, so it cannot meet `rest`.
"""

from __future__ import annotations

from typing import Sequence

from ._rowindex import RowIndex, cover, cover_key, row_groups, staged
from .model import (
    AccessMatrix,
    ConstraintViolationError,
    Decomposition,
    perm_tuple,
    satisfies_constraint,
)


def reduce_rows(masks: Sequence[int], index: RowIndex, held: list[list[int]]) -> None:
    """The lattice pass over row groups, in one sweep.

    Roles are given by mask; `index` holds the groups.  ``held[g]`` lists
    the roles group g holds, each once, and is updated in place; every role
    held must fit its group.
    """
    order = sorted(range(len(masks)), key=lambda i: cover_key(masks[i]))
    fit_rows: list[tuple[int, ...]] = [()] * len(masks)
    fits: list[list[int]] = [[] for _ in held]
    for i in order:
        fit_rows[i] = perm_tuple(index.containing(masks[i]))
        for g in fit_rows[i]:
            fits[g].append(i)

    # One sweep: a live role's test only gets harder, as the roles fitting
    # its holders only die and its holders only grow, so a role that fails
    # the test once fails it for good.
    for i in order:
        m = masks[i]
        # Each holder's role list and the roles its walk takes.
        picks: list[tuple[list[int], list[int]]] = []
        # A held role fits its group, so its holders are among the rows it
        # fits.
        for g in fit_rows[i]:
            roles = held[g]
            if i not in roles:
                continue
            # The other held roles are live and fit g, so g's list covers m
            # iff it covers what they leave of m.
            still = 0
            for other in roles:
                if other != i:
                    still |= masks[other]
            taken, rest = cover(i, m & ~still, fits[g], masks)
            if rest:
                break  # g's list leaves part of m bare: i stays
            picks.append((roles, taken))
        else:  # every holder's walk covered m: i goes
            for g in fit_rows[i]:
                fits[g].remove(i)
            # A walk skips i and reads only its own group's roles, so its
            # picks hold after i leaves and the other groups change.
            for roles, taken in picks:
                roles.remove(i)
                roles += taken


def lattice_reduce(upa: AccessMatrix, d: Decomposition, k: int) -> Decomposition:
    """Remove redundant roles; the one sweep ends at a fixpoint, so the
    pass is idempotent."""
    if k < 1:
        raise ValueError("k must be >= 1")
    index = RowIndex(row_groups(upa, d.ua), upa.n_perms)

    def core(catalog: RowIndex, held: list[list[int]]) -> None:
        if not satisfies_constraint(d, k):
            raise ConstraintViolationError(
                f"input decomposition violates the constraint k={k}"
            )
        reduce_rows(catalog.masks, index, held)

    return staged(upa, d, "lattice_reduce", index.users, core)
