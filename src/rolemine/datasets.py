"""Access-matrix file formats and the seeded synthetic instance generator.

Two text formats are supported, both UTF-8 with '\\n' line endings and '#'
comments (full-line or trailing):

sparse
    One "<user> <perm>" pair per line, whitespace separated.  Tokens are
    arbitrary strings mapped to dense indices in first-appearance order;
    duplicate pairs collapse.  Cannot express a user with no permissions or
    a permission held by nobody.

dense
    One row of '0'/'1' characters per user, all rows the same length.

The generator draws a role catalog first and then lets users sample roles,
so every generated matrix carries a known ground-truth catalog.  All draws
come from the SplitMix64 stream in rolemine.rng; a (params, seed) pair
pins the instance bytes on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .model import (
    AccessMatrix,
    Decomposition,
    RoleMiningError,
    Role,
    iter_bits,
    mask_of,
)
from .rng import SplitMix64


class ParseError(RoleMiningError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) pairs with comments and blank lines dropped."""
    out = []
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


class SparseParseResult(NamedTuple):
    matrix: AccessMatrix
    user_names: tuple[str, ...]
    perm_names: tuple[str, ...]


def parse_sparse(text: str) -> SparseParseResult:
    """Parse "<user> <perm>" lines into a matrix plus name maps.

    One pass: each pair is ORed into its user's mask as the line is read.
    """
    users: dict[str, int] = {}
    perms: dict[str, int] = {}
    masks: list[int] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError(
                line_no, f"expected 2 tokens (user, perm), got {len(tokens)}"
            )
        u_tok, p_tok = tokens
        u = users.get(u_tok)
        if u is None:
            u = users[u_tok] = len(masks)
            masks.append(0)
        masks[u] |= 1 << perms.setdefault(p_tok, len(perms))
    matrix = AccessMatrix(n_users=len(users), n_perms=len(perms), masks=tuple(masks))
    return SparseParseResult(matrix, tuple(users), tuple(perms))


def serialize_sparse(
    upa: AccessMatrix,
    user_names: Sequence[str] | None = None,
    perm_names: Sequence[str] | None = None,
) -> str:
    """Canonical sparse text: users ascending, permissions ascending per user."""
    unames = list(user_names) if user_names else [f"u{i}" for i in range(upa.n_users)]
    pnames = list(perm_names) if perm_names else [f"p{j}" for j in range(upa.n_perms)]
    lines = []
    for u in range(upa.n_users):
        for p in iter_bits(upa.masks[u]):
            lines.append(f"{unames[u]} {pnames[p]}")
    return "".join(line + "\n" for line in lines)


def names_are_indices(names: Iterable[str]) -> bool:
    """True iff the token at index i is str(i) for every i, so the parsed
    indices already are the tokens and no name map is needed."""
    return all(n == str(i) for i, n in enumerate(names))


def parse_dense(text: str) -> AccessMatrix:
    """Parse '0'/'1' rows; all rows must have equal length."""
    masks: list[int] = []
    width: int | None = None
    for line_no, line in _logical_lines(text):
        if width is None:
            width = len(line)
        elif len(line) != width:
            raise ParseError(
                line_no, f"ragged row: expected {width} columns, got {len(line)}"
            )
        m = 0
        for col, ch in enumerate(line):
            if ch == "1":
                m |= 1 << col
            elif ch != "0":
                raise ParseError(
                    line_no, f"column {col + 1}: invalid character {ch!r}"
                )
        masks.append(m)
    return AccessMatrix(
        n_users=len(masks), n_perms=width or 0, masks=tuple(masks)
    )


def serialize_dense(upa: AccessMatrix) -> str:
    lines = []
    for m in upa.masks:
        lines.append(
            "".join("1" if (m >> j) & 1 else "0" for j in range(upa.n_perms))
        )
    return "".join(line + "\n" for line in lines)


# --- decomposition / catalog text form --------------------------------------

def serialize_decomposition(d: Decomposition) -> str:
    """Byte-stable canonical form.

    Roles are sorted by (size, sorted permission tuple) and renumbered from
    zero; assignment lines follow in user order, with empty assignments
    omitted.
    """
    order = sorted(d.roles, key=lambda r: (len(r.perms), r.sorted_perms()))
    renumber = {r.id: i for i, r in enumerate(order)}
    lines = []
    for i, r in enumerate(order):
        lines.append("role %d: %s" % (i, " ".join(f"p{p}" for p in r.sorted_perms())))
    for u, role_ids in enumerate(d.ua):
        if role_ids:
            ids = sorted(renumber[rid] for rid in role_ids)
            lines.append("user %d: %s" % (u, " ".join(f"r{i}" for i in ids)))
    return "".join(line + "\n" for line in lines)


def parse_decomposition(text: str, n_users: int) -> Decomposition:
    """Inverse of serialize_decomposition (users absent from the text get
    empty assignments, which is why the user count must be supplied)."""
    role_sets: dict[int, frozenset[int]] = {}
    ua = [frozenset()] * n_users
    for line_no, line in _logical_lines(text):
        head, _, rest = line.partition(":")
        fields = head.split()
        if len(fields) != 2 or fields[0] not in ("role", "user"):
            raise ParseError(line_no, f"unrecognized line {line!r}")
        try:
            idx = int(fields[1])
        except ValueError:
            raise ParseError(line_no, f"bad index in {line!r}") from None
        items = rest.split()
        if fields[0] == "role":
            try:
                role_sets[idx] = frozenset(int(t[1:]) for t in items if t[0] == "p")
            except (ValueError, IndexError):
                raise ParseError(line_no, f"bad permission token in {line!r}") from None
            if len(role_sets[idx]) != len(items):
                raise ParseError(line_no, f"bad permission token in {line!r}")
            if not items:
                raise ParseError(line_no, "role with no permissions")
            if min(role_sets[idx]) < 0:
                raise ParseError(line_no, f"negative permission index in {line!r}")
        else:
            if not 0 <= idx < n_users:
                raise ParseError(line_no, f"user {idx} out of range")
            try:
                ua[idx] = frozenset(int(t[1:]) for t in items if t[0] == "r")
            except (ValueError, IndexError):
                raise ParseError(line_no, f"bad role token in {line!r}") from None
            if len(ua[idx]) != len(items):
                raise ParseError(line_no, f"bad role token in {line!r}")
    roles = tuple(Role(i, s) for i, s in sorted(role_sets.items()))
    return Decomposition(roles=roles, ua=tuple(ua))


def serialize_catalog(catalog: Sequence[frozenset[int]]) -> str:
    """Role lines only, canonical order; used for ground-truth files."""
    order = sorted(catalog, key=lambda s: (len(s), tuple(sorted(s))))
    return "".join(
        "role %d: %s\n" % (i, " ".join(f"p{p}" for p in sorted(s)))
        for i, s in enumerate(order)
    )


def parse_catalog(text: str) -> tuple[frozenset[int], ...]:
    out: list[frozenset[int]] = []
    for line_no, line in _logical_lines(text):
        head, _, rest = line.partition(":")
        fields = head.split()
        if len(fields) != 2 or fields[0] != "role":
            raise ParseError(line_no, f"expected a role line, got {line!r}")
        try:
            perms = frozenset(int(t[1:]) for t in rest.split() if t[0] == "p")
        except (ValueError, IndexError):
            raise ParseError(line_no, f"bad permission token in {line!r}") from None
        if len(perms) != len(rest.split()):
            raise ParseError(line_no, f"bad permission token in {line!r}")
        if not perms:
            raise ParseError(line_no, "role with no permissions")
        out.append(perms)
    return tuple(out)


def relabel_catalog(
    catalog: Sequence[frozenset[int]], perm_names: Sequence[str]
) -> tuple[frozenset[int], ...]:
    """Move a catalog read by parse_catalog into a sparse input's index space.

    parse_catalog reads the token ``p<j>`` as index j, while parse_sparse
    numbers tokens in order of first appearance; each j is mapped through
    the input token ``p<j>`` instead, or through the bare token ``<j>`` of
    an input with plain integer tokens.  A permission that no input token
    names gets a fresh index >= len(perm_names), so it matches no role mined
    from that input, just as a permission nobody holds matches none.
    """
    index = {name: i for i, name in enumerate(perm_names)}
    fresh: dict[int, int] = {}

    def relabel(p: int) -> int:
        i = index.get(f"p{p}", index.get(str(p)))
        if i is None:
            i = fresh.setdefault(p, len(perm_names) + len(fresh))
        return i

    return tuple(frozenset(relabel(p) for p in role) for role in catalog)


# --- synthetic generation ----------------------------------------------------

@dataclass(frozen=True)
class GeneratorParams:
    n_users: int
    n_perms: int
    n_roles: int
    max_roles_per_user: int
    max_perms_per_role: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_users < 0:
            raise ValueError("n_users must be nonnegative")
        if self.n_roles < 1:
            raise ValueError("n_roles must be >= 1")
        if self.max_roles_per_user < 1:
            raise ValueError("max_roles_per_user must be >= 1")
        if self.max_perms_per_role < 1:
            raise ValueError("max_perms_per_role must be >= 1")
        if self.n_perms < self.max_perms_per_role:
            raise ValueError("n_perms must be >= max_perms_per_role")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must be a 64-bit unsigned integer")


def generate(params: GeneratorParams) -> tuple[AccessMatrix, tuple[frozenset[int], ...]]:
    """Seeded instance with known ground truth.

    Draws n_roles roles (size uniform in [1, max_perms_per_role], members a
    uniform subset), deduplicates them, then assigns each user a uniform
    count of distinct roles; the user's row is the union of the assignment.
    """
    rng = SplitMix64(params.seed)
    drawn = []
    for _ in range(params.n_roles):
        size = rng.randint(1, params.max_perms_per_role)
        drawn.append(frozenset(rng.sample(params.n_perms, size)))
    truth: list[frozenset[int]] = []
    seen = set()
    for role in drawn:
        if role not in seen:
            seen.add(role)
            truth.append(role)
    role_masks = [mask_of(r) for r in truth]
    cap = min(params.max_roles_per_user, len(truth))
    masks = []
    for _ in range(params.n_users):
        count = rng.randint(1, cap)
        row = 0
        for idx in rng.sample(len(truth), count):
            row |= role_masks[idx]
        masks.append(row)
    upa = AccessMatrix(
        n_users=params.n_users, n_perms=params.n_perms, masks=tuple(masks)
    )
    return upa, tuple(truth)


def witness_assignment(
    upa: AccessMatrix, catalog: Sequence[frozenset[int]]
) -> Decomposition:
    """Assign every user all catalog roles inside their row.

    For matrices whose rows are unions of catalog roles (as generated ones
    are) this is a complete decomposition; roles no user can hold are
    dropped so the result carries no orphans.
    """
    role_masks = [mask_of(s) for s in catalog]
    used: list[int] = []
    per_user: list[list[int]] = [[] for _ in range(upa.n_users)]
    new_id: dict[int, int] = {}
    for u, row in enumerate(upa.masks):
        for i, rm in enumerate(role_masks):
            if rm & ~row == 0:
                if i not in new_id:
                    new_id[i] = len(used)
                    used.append(i)
                per_user[u].append(new_id[i])
    roles = tuple(Role(new_id[i], catalog[i]) for i in used)
    return Decomposition(roles=roles, ua=tuple(frozenset(s) for s in per_user))
