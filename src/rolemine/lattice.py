"""Redundant-role removal pass applied after mining.

A role is redundant when, for every user holding it, each of its permissions
is also available from some other catalog role that fits inside that user's
row.  Redundant roles are removed largest first and their users reassigned
greedily (largest fitting role first); the sweep repeats until no role can
be removed.  The pass never adds or merges roles, so the catalog can only
shrink and completeness and the cardinality bound are preserved by
construction.

The pass runs on row groups, not users.  Users with the same row and the
same roles are reassigned alike, so each group keeps one assignment.  The
constrained miner hands over its distinct-row index, where every user of a
row holds the same roles; `lattice_reduce` groups users by (row, assigned
roles) and builds columns over those groups the same way.

A role's fitting rows are the AND of its permissions' vertical bitmaps over
rows (Eclat tid-lists, Zaki, TKDE 2000); each row keeps its fitting roles
in removal order.  The redundancy test reads two coverage masks per row,
the permissions covered by at least one live fitting role and those
covered by at least two: a role is removable iff its mask lies inside the
second mask of every row holding it.  Both come from one walk over a row's
live fitting roles (``again |= seen & m; seen |= m``), and only the second
is kept.  Removing a role marks the rows it fits, which recompute the walk
when next read; each row holding it is reassigned by walking its fitting
roles in order, skipping dead ones, so the picks are those of a catalog
scan in the same order.
"""

from __future__ import annotations

from typing import Sequence

from ._rowindex import per_user, rarest_first_and, role_holders, vertical
from .model import (
    AccessMatrix,
    ConstraintViolationError,
    Decomposition,
    IncompleteDecompositionError,
    is_complete,
    perm_tuple,
    satisfies_constraint,
)


def reduce_rows(
    masks: Sequence[int],
    perms: Sequence[tuple[int, ...]],
    columns: Sequence[int],
    counts: Sequence[int],
    held: list[set[int]],
) -> list[bool]:
    """The lattice pass over row groups; returns which roles stay.

    Roles are given by mask and permission tuple; `columns` and `counts`
    index the groups by permission.  ``held[g]`` is the set of roles group
    g holds and is updated in place.
    """
    order = sorted(range(len(masks)), key=lambda i: (-len(perms[i]), perms[i]))
    fit_rows: list[tuple[int, ...]] = [()] * len(masks)
    fits: list[list[int]] = [[] for _ in held]
    for i in order:
        fit_rows[i] = perm_tuple(rarest_first_and(perms[i], columns, counts))
        for g in fit_rows[i]:
            fits[g].append(i)
    holders = role_holders(held, len(masks))

    alive = [True] * len(masks)
    # twice[g]: permissions covered by at least two live roles fitting g,
    # recomputed on read once a role fitting g has been removed.
    twice = [0] * len(held)
    stale = [True] * len(held)

    def covered_twice(g: int) -> int:
        if stale[g]:
            seen = again = 0
            for j in fits[g]:
                if alive[j]:
                    again |= seen & masks[j]
                    seen |= masks[j]
            twice[g] = again
            stale[g] = False
        return twice[g]

    changed = True
    while changed:
        changed = False
        for i in order:
            m = masks[i]
            if not alive[i] or any(m & ~covered_twice(g) for g in holders[i]):
                continue
            alive[i] = False
            for g in fit_rows[i]:
                stale[g] = True
            # Each group is reassigned from its own roles and the live set
            # alone, so the order of groups does not matter.
            for g in holders[i]:
                roles = held[g]
                roles.discard(i)
                still = 0
                for other in roles:
                    still |= masks[other]
                remainder = m & ~still
                if not remainder:
                    continue
                for cand in fits[g]:
                    if alive[cand] and masks[cand] & remainder:
                        roles.add(cand)
                        holders[cand].add(g)
                        remainder &= ~masks[cand]
                        if not remainder:
                            break
                assert remainder == 0, "redundancy test guaranteed a cover"
            holders[i] = set()
            changed = True
    return alive


def lattice_reduce(upa: AccessMatrix, d: Decomposition, k: int) -> Decomposition:
    """Remove redundant roles; idempotent once a fixpoint is reached."""
    if not is_complete(upa, d):
        raise IncompleteDecompositionError(
            "lattice_reduce requires a complete decomposition"
        )
    if not satisfies_constraint(d, k):
        raise ConstraintViolationError(
            f"input decomposition violates the constraint k={k}"
        )
    if not d.roles:
        return d

    index = {r.id: i for i, r in enumerate(d.roles)}
    groups: dict[tuple[int, frozenset[int]], list[int]] = {}
    for u, key in enumerate(zip(upa.masks, d.ua)):
        groups.setdefault(key, []).append(u)
    held = [{index[rid] for rid in roles} for _, roles in groups]
    columns, counts = vertical([perm_tuple(m) for m, _ in groups], upa.n_perms)
    alive = reduce_rows(
        [r.mask for r in d.roles],
        [r.sorted_perms() for r in d.roles],
        columns,
        counts,
        held,
    )
    kept = tuple(r for r, keep in zip(d.roles, alive) if keep)
    ua = per_user(
        groups.values(),
        ({d.roles[i].id for i in roles} for roles in held),
        upa.n_users,
    )
    return Decomposition(roles=kept, ua=ua)
