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

Every parser here, of these two formats and of the decomposition and
catalog text form, reads its text through one chunk reader, `_chunks`.  It
cuts the text at the first newline about 64 K characters past its previous
cut, strips each chunk's comments and numbers the chunk's lines, so a parse
holds one chunk's lines at a time, not every line of its input.

The generator draws a role catalog first and then lets users sample roles,
so every generated matrix carries a known ground-truth catalog.  All draws
come from the SplitMix64 stream in rolemine.rng; a (params, seed) pair
pins the instance bytes on every platform.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .model import (
    AccessMatrix,
    Decomposition,
    RoleMiningError,
    Role,
    mask_of,
    perm_tuple,
)
from .rng import SplitMix64


class ParseError(RoleMiningError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# A comment runs from '#' to the end of its line; removing it keeps the
# newline, so line numbers still count from the original text.  It never
# spans a newline, so stripping each chunk that `_chunks` cuts at a newline
# removes the same text as stripping the whole.
_COMMENT = re.compile("#[^\n]*")
# Characters in a chunk, at least: `_chunks` cuts at the first newline this
# far past its previous cut.
_CHUNK = 1 << 16


def _chunks(text: str) -> Iterator[tuple[int, list[str]]]:
    """The number of each chunk's first line and the chunk's lines, with
    comments removed; together the chunks' lines are the text's lines."""
    first, start = 1, 0
    while True:
        cut = text.find("\n", start + _CHUNK)
        lines = _COMMENT.sub("", text[start:cut if cut >= 0 else None]).split("\n")
        yield first, lines
        if cut < 0:
            return
        first += len(lines)
        start = cut + 1


def _logical_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, content) pairs with comments and blank lines dropped."""
    for first, lines in _chunks(text):
        for i, raw in enumerate(lines, first):
            line = raw.strip()
            if line:
                yield i, line


class SparseParseResult(NamedTuple):
    """A parsed sparse file: the matrix and the input token of each user and
    permission index."""

    matrix: AccessMatrix
    user_names: tuple[str, ...]
    perm_names: tuple[str, ...]


def parse_sparse(text: str) -> SparseParseResult:
    """Parse "<user> <perm>" lines into a matrix plus name maps.

    The text is read one chunk of about 64 K characters at a time (see
    `_chunks`), so the parse holds no more than one chunk's lines at once.
    Each permission token maps to its bit on first appearance, and each
    pair is ORed into its user's mask as the line is read, so a repeated
    pair changes nothing.  A line with other than two tokens raises
    ParseError; its number is worked out only then.
    """
    users: dict[str, int] = {}
    bits: dict[str, int] = {}
    masks: list[int] = []
    for first, lines in _chunks(text):
        for raw in lines:
            try:
                u_tok, p_tok = raw.split()
            except ValueError:
                count = len(raw.split())
                if not count:
                    continue
                # An equal line before this one would have raised already.
                raise ParseError(
                    first + lines.index(raw),
                    f"expected 2 tokens (user, perm), got {count}",
                ) from None
            bit = bits.get(p_tok)
            if bit is None:
                bit = bits[p_tok] = 1 << len(bits)
            u = users.get(u_tok)
            if u is None:
                users[u_tok] = len(masks)
                masks.append(bit)
            else:
                masks[u] |= bit
    matrix = AccessMatrix(n_users=len(users), n_perms=len(bits), masks=tuple(masks))
    return SparseParseResult(matrix, tuple(users), tuple(bits))


def serialize_sparse(
    upa: AccessMatrix,
    user_names: Sequence[str] | None = None,
    perm_names: Sequence[str] | None = None,
) -> str:
    """Canonical sparse text: users ascending, permissions ascending per user."""
    unames = list(user_names) if user_names else [f"u{i}" for i in range(upa.n_users)]
    pnames = perm_names if perm_names else [f"p{j}" for j in range(upa.n_perms)]
    tails = [f" {p}\n" for p in pnames]
    # A user's block is its name before each " <perm>\n" tail.
    return "".join(
        unames[u] + unames[u].join(map(tails.__getitem__, perm_tuple(m)))
        for u, m in enumerate(upa.masks)
        if m
    )


def names_are_indices(names: Iterable[str]) -> bool:
    """True iff the token at index i is str(i) for every i, so the parsed
    indices already are the tokens and no name map is needed."""
    return all(n == str(i) for i, n in enumerate(names))


def parse_dense(text: str) -> AccessMatrix:
    """Parse '0'/'1' rows of equal length; column j is bit j, so a row
    reversed is its mask in base 2, which int() reads at any length."""
    masks: list[int] = []
    width: int | None = None
    for line_no, line in _logical_lines(text):
        if width is None:
            width = len(line)
        elif len(line) != width:
            raise ParseError(
                line_no, f"ragged row: expected {width} columns, got {len(line)}"
            )
        col = width - len(line.lstrip("01"))
        if col < width:
            raise ParseError(
                line_no, f"column {col + 1}: invalid character {line[col]!r}"
            )
        masks.append(int(line[::-1], 2))
    return AccessMatrix(
        n_users=len(masks), n_perms=width or 0, masks=tuple(masks)
    )


def serialize_dense(upa: AccessMatrix) -> str:
    """One '0'/'1' row per user, column j being bit j; a sentinel bit at
    n_perms fixes the width of bin()'s digits, which are reversed."""
    top = 1 << upa.n_perms
    return "".join(bin(m | top)[:2:-1] + "\n" for m in upa.masks)


# --- decomposition / catalog text form --------------------------------------

def serialize_decomposition(d: Decomposition) -> str:
    """Byte-stable canonical form.

    Roles are sorted by (size, sorted permission tuple) and renumbered from
    zero; assignment lines follow in user order, with empty assignments
    omitted.
    """
    order = sorted(d.roles, key=lambda r: (len(r.perms), r.sorted_perms()))
    renumber = {r.id: i for i, r in enumerate(order)}
    lines = [serialize_catalog([r.perms for r in order])]
    names = [f"r{i}" for i in range(len(order))]
    for u, role_ids in enumerate(d.ua):
        if role_ids:
            ids = sorted(map(renumber.__getitem__, role_ids))
            lines.append(f"user {u}: {' '.join(map(names.__getitem__, ids))}\n")
    return "".join(lines)


def _number(text: str) -> int:
    """An index in ASCII decimal digits; int() alone would also read a
    sign, underscores and other scripts' digits (``p1_0`` as 10)."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an index: {text!r}")
    return int(text)


_TOKENS = {"role": ("p", "permission"), "user": ("r", "role")}


def _parse_line(
    line_no: int, line: str, kinds: tuple[str, ...]
) -> tuple[str, int, frozenset[int]]:
    """Kind, index and token numbers of a ``role <i>: p<n> ...`` or
    ``user <i>: r<n> ...`` line whose kind is one of `kinds`."""
    head, _, rest = line.partition(":")
    fields = head.split()
    if len(fields) != 2 or fields[0] not in kinds:
        raise ParseError(line_no, f"unrecognized line {line!r}")
    try:
        idx = _number(fields[1])
    except ValueError:
        raise ParseError(line_no, f"bad index in {line!r}") from None
    prefix, what = _TOKENS[fields[0]]
    items = rest.split()
    try:
        numbers = frozenset(_number(t[1:]) for t in items if t[0] == prefix)
        if len(numbers) != len(items):
            raise ValueError("a repeated or foreign token")
    except ValueError:
        raise ParseError(line_no, f"bad {what} token in {line!r}") from None
    if not items and fields[0] == "role":
        raise ParseError(line_no, "role with no permissions")
    return fields[0], idx, numbers


def parse_decomposition(text: str, n_users: int) -> Decomposition:
    """Inverse of serialize_decomposition (users absent from the text get
    empty assignments, which is why the user count must be supplied).  A
    role or user index given twice is an error at its second line."""
    role_sets: dict[int, frozenset[int]] = {}
    user_sets: dict[int, frozenset[int]] = {}
    for line_no, line in _logical_lines(text):
        kind, idx, numbers = _parse_line(line_no, line, ("role", "user"))
        if kind == "user" and idx >= n_users:
            raise ParseError(line_no, f"user {idx} out of range")
        seen = role_sets if kind == "role" else user_sets
        if idx in seen:
            raise ParseError(line_no, f"{kind} {idx} defined again")
        seen[idx] = numbers
    ua = [user_sets.get(u, frozenset()) for u in range(n_users)]
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
    """The permission sets of ``role <i>: p<n> ...`` lines, in file order;
    the inverse of serialize_catalog.  Comments and blank lines are skipped;
    any other line is a ParseError."""
    return tuple(
        _parse_line(line_no, line, ("role",))[2]
        for line_no, line in _logical_lines(text)
    )


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
    """Sizes and seed of a `generate` instance; each is checked when the
    parameters are made."""

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
    truth = tuple(dict.fromkeys(drawn))  # first draws, in draw order
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
    return upa, truth


def witness_assignment(
    upa: AccessMatrix, catalog: Sequence[frozenset[int]]
) -> Decomposition:
    """Assign every user all catalog roles inside their row.

    For matrices whose rows are unions of catalog roles (as generated ones
    are) this is a complete decomposition; roles no user can hold are
    dropped so the result carries no orphans.
    """
    role_masks = [mask_of(s) for s in catalog]
    per_user: list[list[int]] = [[] for _ in range(upa.n_users)]
    # Catalog position -> id, numbered in order of first use.
    new_id: dict[int, int] = {}
    for u, row in enumerate(upa.masks):
        for i, rm in enumerate(role_masks):
            if rm & ~row == 0:
                per_user[u].append(new_id.setdefault(i, len(new_id)))
    roles = tuple(Role(j, catalog[i]) for i, j in new_id.items())
    return Decomposition(roles=roles, ua=tuple(frozenset(s) for s in per_user))
