"""Core domain types for constrained role mining.

Users and permissions are dense 0-based indices; string labels from input
files live in the dataset layer's name maps, never here.  Permission sets
are held as int bitmasks internally (bit ``p`` set means permission ``p``),
which gives word-parallel union/subset tests; the public surface speaks
frozensets.

A decomposition is *complete* for a matrix when every user's assigned roles
union to exactly that user's row.  Equality is deliberate: a role may never
grant a user a permission the matrix does not, so over-assignment fails the
check just like under-coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence


class RoleMiningError(Exception):
    """Base class for errors raised by this package."""


class InvalidDecompositionError(RoleMiningError):
    """Structurally malformed decomposition (dangling ids, orphans, duplicates)."""


class IncompleteDecompositionError(RoleMiningError):
    """An operation that requires a complete decomposition received one that is not."""


class ConstraintViolationError(RoleMiningError):
    """A decomposition breaks the max-permissions-per-role bound."""


# --- bitmask helpers -------------------------------------------------------

def mask_of(perms: Iterable[int]) -> int:
    m = 0
    for p in perms:
        m |= 1 << p
    return m


def perm_tuple(mask: int) -> tuple[int, ...]:
    """Set bit positions in ascending order.

    Taken from the top: clearing the highest bit shortens the int, so each
    step works on a shorter int.  On wide sparse masks (bitmaps over
    thousands of rows) that is cheaper than clearing the lowest bit.
    """
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return tuple(out)


# --- domain types ----------------------------------------------------------

@dataclass(frozen=True)
class AccessMatrix:
    """The user-permission relation: one bitmask row per user.

    The distinct-row index both miners work on (rolemine._rowindex) is
    built on first use and kept as long as the matrix.  It is no field:
    equality, hash and repr ignore it.  On the 20000x2000 scale instance
    (seed 99, 15317 distinct rows) tracemalloc puts the matrix at 6.0 MB and
    the index at 5.0 MB, 3.4 MB of it the permission columns; the index
    shares the matrix's mask objects, and its build peaks at 13.7 MB,
    `row_groups` included (10.8 MB from the groups on).
    """

    n_users: int
    n_perms: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_users < 0 or self.n_perms < 0:
            raise ValueError("n_users and n_perms must be nonnegative")
        if len(self.masks) != self.n_users:
            raise ValueError(
                f"expected {self.n_users} rows, got {len(self.masks)}"
            )
        for u, m in enumerate(self.masks):
            if m < 0 or m.bit_length() > self.n_perms:
                raise ValueError(
                    f"row {u} references a permission >= n_perms ({self.n_perms})"
                )

    @classmethod
    def from_rows(
        cls, rows: Iterable[Iterable[int]], n_perms: int | None = None
    ) -> "AccessMatrix":
        """Build from per-user permission index collections.

        Duplicate indices within a row collapse (set semantics).  When
        `n_perms` is omitted it is inferred as max index + 1.
        """
        masks = tuple(mask_of(r) for r in rows)
        if n_perms is None:
            n_perms = max((m.bit_length() for m in masks), default=0)
        return cls(n_users=len(masks), n_perms=n_perms, masks=masks)

    @cached_property
    def _row_index(self):
        # Imported here: _rowindex imports this module.
        from ._rowindex import RowIndex, row_groups

        return RowIndex(row_groups(self), self.n_perms)

    def row(self, user: int) -> frozenset[int]:
        return frozenset(perm_tuple(self.masks[user]))

    def rows(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(perm_tuple(m)) for m in self.masks)

    def cell_count(self) -> int:
        return sum(m.bit_count() for m in self.masks)

    def max_row_size(self) -> int:
        return max((m.bit_count() for m in self.masks), default=0)

    def density(self) -> float:
        cells = self.n_users * self.n_perms
        return self.cell_count() / cells if cells else 0.0


@dataclass(frozen=True)
class Role:
    """A nonempty set of permissions with an id unique inside one decomposition.

    A role holds its permissions once, as a frozenset.  The miners work on
    bitmasks of their own (``mask_of(role.perms)``) and build roles only
    for their result, so a role costs no memory for a mask, however large
    its permission indices.
    """

    id: int
    perms: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "perms", frozenset(self.perms))
        if not self.perms:
            raise ValueError(f"role {self.id} has an empty permission set")
        if any(p < 0 for p in self.perms):
            raise ValueError(f"role {self.id} has a negative permission index")

    def sorted_perms(self) -> tuple[int, ...]:
        return tuple(sorted(self.perms))


@dataclass(frozen=True)
class Decomposition:
    """A role catalog plus the per-user role assignment (UA).

    The role-permission relation (PA) is derived from the catalog.  Invariants
    enforced at construction: ids unique, permission sets unique, every ua
    reference resolves, and no role is orphaned (assigned to nobody).
    """

    roles: tuple[Role, ...]
    ua: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(self, "ua", tuple(map(frozenset, self.ua)))
        ids = [r.id for r in self.roles]
        if len(set(ids)) != len(ids):
            raise InvalidDecompositionError("duplicate role ids")
        seen_perms = set()
        for r in self.roles:
            if r.perms in seen_perms:
                raise InvalidDecompositionError(
                    f"two roles share the permission set {sorted(r.perms)}"
                )
            seen_perms.add(r.perms)
        known = set(ids)
        assigned = set().union(*self.ua)
        if not assigned <= known:
            # Only now find the first user with a dangling id, to name it.
            for u, role_ids in enumerate(self.ua):
                dangling = role_ids - known
                if dangling:
                    raise InvalidDecompositionError(
                        f"user {u} references unknown role ids {sorted(dangling)}"
                    )
        orphans = known - assigned
        if orphans:
            raise InvalidDecompositionError(
                f"roles {sorted(orphans)} are assigned to no user"
            )

    @classmethod
    def from_sets(
        cls,
        role_perm_sets: Sequence[Iterable[int]],
        ua: Sequence[Iterable[int]],
    ) -> "Decomposition":
        """Catalog from permission sets (ids are list positions) plus ua."""
        roles = tuple(Role(i, frozenset(s)) for i, s in enumerate(role_perm_sets))
        return cls(roles=roles, ua=tuple(frozenset(s) for s in ua))

    @classmethod
    def empty(cls, n_users: int) -> "Decomposition":
        return cls(roles=(), ua=tuple(frozenset() for _ in range(n_users)))

    def role_by_id(self) -> dict[int, Role]:
        return {r.id: r for r in self.roles}

    def r_count(self) -> int:
        return len(self.roles)

    def ua_size(self) -> int:
        return sum(len(s) for s in self.ua)

    def pa_size(self) -> int:
        return sum(len(r.perms) for r in self.roles)


@dataclass(frozen=True)
class MiningConfig:
    """Mining parameters: the cardinality bound k, WSC weights, seed."""

    max_perms_per_role: int
    wsc_weights: tuple[Fraction, Fraction, Fraction] = (
        Fraction(1),
        Fraction(1),
        Fraction(1),
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_perms_per_role < 1:
            raise ValueError("max_perms_per_role must be >= 1")
        weights = tuple(Fraction(w) for w in self.wsc_weights)
        if len(weights) != 3:
            raise ValueError("wsc_weights must have exactly three entries")
        if any(w < 0 for w in weights):
            raise ValueError("wsc_weights must be nonnegative")
        object.__setattr__(self, "wsc_weights", weights)
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must be a 64-bit unsigned integer")


# --- operations ------------------------------------------------------------

def is_complete(upa: AccessMatrix, d: Decomposition) -> bool:
    """True iff every user's assigned roles union to exactly their row.

    Raises InvalidDecompositionError for structural mismatches (wrong user
    count, permissions outside the matrix) rather than returning False.
    """
    return complete_masks(upa, d) is not None


def complete_masks(upa: AccessMatrix, d: Decomposition) -> dict[int, int] | None:
    """Each role's mask by id if `d` is complete, else None, with the errors
    of `is_complete`; the public stages run on the masks the check builds."""
    if len(d.ua) != upa.n_users:
        raise InvalidDecompositionError(
            f"assignment covers {len(d.ua)} users, matrix has {upa.n_users}"
        )
    masks = {}
    for r in d.roles:
        # Checked before the mask is built, whose size grows with the index.
        if max(r.perms) >= upa.n_perms:
            raise InvalidDecompositionError(
                f"role {r.id} references a permission >= n_perms ({upa.n_perms})"
            )
        masks[r.id] = mask_of(r.perms)
    return masks if _rows_covered(upa.masks, d.ua, masks) else None


def _rows_covered(rows: Iterable[int], held: Iterable[Iterable[int]], masks) -> bool:
    """True iff each row's roles union to exactly the row: ``rows`` and
    ``held`` pair each row's mask with its role ids, and ``masks[r]`` is
    role r's mask (a dict by id or a list by position)."""
    for m, roles in zip(rows, held):
        union = 0
        for r in roles:
            union |= masks[r]
        if union != m:
            return False
    return True


def satisfies_constraint(d: Decomposition, k: int) -> bool:
    """True iff every role holds at most k permissions."""
    return all(len(r.perms) <= k for r in d.roles)


def singleton_decomposition(upa: AccessMatrix) -> Decomposition:
    """One role per permission in use: the universal feasibility witness.

    Complete for any matrix and satisfies every constraint k >= 1, which is
    why a constrained mining run can never be infeasible.
    """
    used = 0
    for m in upa.masks:
        used |= m
    perm_to_role = {p: i for i, p in enumerate(perm_tuple(used))}
    roles = tuple(Role(i, frozenset((p,))) for p, i in perm_to_role.items())
    ua = tuple(
        frozenset(perm_to_role[p] for p in perm_tuple(m)) for m in upa.masks
    )
    return Decomposition(roles=roles, ua=ua)
