import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemine import (
    AccessMatrix,
    Decomposition,
    GeneratorParams,
    InvalidDecompositionError,
    ParseError,
    Role,
    generate,
    is_complete,
    parse_catalog,
    parse_decomposition,
    parse_dense,
    parse_sparse,
    serialize_catalog,
    serialize_decomposition,
    serialize_dense,
    serialize_sparse,
    witness_assignment,
)
from rolemine import datasets
from rolemine.datasets import (
    SparseParseResult,
    names_are_indices,
    relabel_catalog,
)
from rolemine.rng import SplitMix64

from conftest import shape_draws


# --- sparse format -----------------------------------------------------------

def test_parse_sparse_basic():
    result = parse_sparse("u1 p1\nu1 p2\nu2 p1\n")
    assert result.matrix.n_users == 2
    assert result.matrix.n_perms == 2
    assert result.matrix.rows() == (frozenset({0, 1}), frozenset({0}))
    assert result.user_names == ("u1", "u2")
    assert result.perm_names == ("p1", "p2")


def test_parse_sparse_collapses_duplicates():
    result = parse_sparse("u1 p1\nu1 p1\n")
    assert result.matrix.rows() == (frozenset({0}),)


def test_parse_sparse_rejects_wrong_token_count():
    with pytest.raises(ParseError) as err:
        parse_sparse("u1 p1 extra\n")
    assert err.value.line_no == 1


def test_parse_sparse_comments_and_blanks():
    text = "# header\n\nu1 p1  # trailing\n   \nu2 p2\n"
    result = parse_sparse(text)
    assert result.matrix.n_users == 2
    assert result.matrix.n_perms == 2


def test_sparse_round_trip():
    text = "alice read\nalice write\nbob read\n# dup below\nbob read\n"
    first = parse_sparse(text)
    canon = serialize_sparse(first.matrix, first.user_names, first.perm_names)
    second = parse_sparse(canon)
    assert second.matrix == first.matrix
    assert second.user_names == first.user_names
    assert second.perm_names == first.perm_names
    assert serialize_sparse(second.matrix, second.user_names, second.perm_names) == canon



def _reference_parse_sparse(text):
    """Two passes: collect the distinct (user, perm) index pairs, then OR
    them into masks."""
    users, perms, pairs = {}, {}, set()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                line_no, f"expected 2 tokens (user, perm), got {len(tokens)}"
            )
        u = users.setdefault(tokens[0], len(users))
        p = perms.setdefault(tokens[1], len(perms))
        pairs.add((u, p))
    masks = [0] * len(users)
    for u, p in pairs:
        masks[u] |= 1 << p
    matrix = AccessMatrix(n_users=len(users), n_perms=len(perms), masks=tuple(masks))
    return SparseParseResult(matrix, tuple(users), tuple(perms))


_SPARSE_TEXT = st.one_of(
    st.text(),
    st.lists(
        st.text(alphabet="ab01 \t#\r\x0b\x1c\u2028", max_size=8), max_size=12
    ).map("\n".join),
    # well-formed pairs whose users come back after another user's lines
    st.lists(
        st.sampled_from(["a 0", "a 1", "b 1", "b 2", "c 0", "# a 2", ""]),
        max_size=12,
    ).map("\n".join),
)


# Chunk sizes for the parsers' chunk reader: the tiny ones put cuts inside
# every drawn text, and the default leaves each drawn text whole.
_CUTS = st.sampled_from((1, 2, 5, datasets._CHUNK))


def _cut_every(chunk):
    """Patch the chunk reader to cut `chunk` characters past each cut."""
    return mock.patch.object(datasets, "_CHUNK", chunk)


def _same_as_reference(parse, reference, text):
    try:
        want = reference(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.line_no) == (str(exc), exc.line_no)
    else:
        assert parse(text) == want


@settings(max_examples=300, deadline=None)
@given(_SPARSE_TEXT, _CUTS)
def test_parse_sparse_fuzz_gives_result_or_parse_error(text, chunk):
    with _cut_every(chunk):
        _same_as_reference(parse_sparse, _reference_parse_sparse, text)


def test_parse_sparse_reads_the_lines_just_after_a_cut():
    # 300 lines of 10 characters: with 999-character chunks the first cut
    # falls at the newline of line 100, so lines 101-103 open a chunk.
    lines = [f"u{i // 7:03d} p{i % 50:03d}" for i in range(300)]
    lines[100:100] = ["# a note", "", "u001 p001 p002"]
    text = "\n".join(lines) + "\n"
    with _cut_every(999):
        first, opening = list(datasets._chunks(text))[1]
        assert (first, opening[:3]) == (101, ["", "", "u001 p001 p002"])
        with pytest.raises(ParseError) as err:
            parse_sparse(text)
        assert err.value.line_no == 103
        _same_as_reference(parse_sparse, _reference_parse_sparse, text)
        del lines[102]
        _same_as_reference(parse_sparse, _reference_parse_sparse, "\n".join(lines))


def test_parse_sparse_memory_does_not_grow_with_the_line_count():
    upa, _ = generate(GeneratorParams(
        n_users=5000, n_perms=500, n_roles=120,
        max_roles_per_user=4, max_perms_per_role=20, seed=99,
    ))
    text = serialize_sparse(upa)
    assert text.count("\n") == 120906
    tracemalloc.start()
    try:
        result = parse_sparse(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.matrix.cell_count() == 120906
    # Every line of this 1.27 M-character text at once takes about 8 MB;
    # one 64 K chunk's lines take well under 1 MB.
    assert peak - kept < 2_000_000


def test_names_are_indices_detection():
    assert not names_are_indices(("alice", "0"))
    assert not names_are_indices(("0", "42"))
    assert not names_are_indices(("1", "0"))
    assert not names_are_indices(("00",))
    assert names_are_indices(("0", "1", "2"))
    assert names_are_indices(())


def test_serialize_sparse_default_names():
    upa = AccessMatrix.from_rows([{1}, {0}])
    assert serialize_sparse(upa) == "u0 p1\nu1 p0\n"


# --- dense format ------------------------------------------------------------

def test_parse_dense_identity():
    upa = parse_dense("10\n01\n")
    assert upa.rows() == (frozenset({0}), frozenset({1}))


def test_parse_dense_single_row():
    upa = parse_dense("111\n")
    assert upa.n_users == 1
    assert upa.n_perms == 3


def test_parse_dense_ragged():
    with pytest.raises(ParseError) as err:
        parse_dense("10\n011\n")
    assert err.value.line_no == 2


def test_parse_dense_foreign_character():
    with pytest.raises(ParseError) as err:
        parse_dense("1x\n")
    assert "column 2" in str(err.value)


def test_dense_round_trip_with_empty_row():
    upa = AccessMatrix.from_rows([{0, 2}, set()], n_perms=3)
    text = serialize_dense(upa)
    assert text == "101\n000\n"
    assert parse_dense(text) == upa


def _reference_parse_dense(text):
    """Character by character: column j of a row sets bit j."""
    masks, width = [], None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
                raise ParseError(line_no, f"column {col + 1}: invalid character {ch!r}")
        masks.append(m)
    return AccessMatrix(n_users=len(masks), n_perms=width or 0, masks=tuple(masks))


_DENSE_TEXT = st.one_of(
    st.text(),
    st.lists(
        st.text(alphabet="0000111 \t#x2\r\u0661\u2028", max_size=12), max_size=8
    ).map("\n".join),
    st.lists(st.text(alphabet="01", min_size=1, max_size=80), max_size=6).map(
        "\n".join
    ),
)


@settings(max_examples=500, deadline=None)
@given(_DENSE_TEXT, _CUTS)
def test_parse_dense_matches_per_character_reference(text, chunk):
    with _cut_every(chunk):
        _same_as_reference(parse_dense, _reference_parse_dense, text)


def test_serialize_dense_matches_per_bit_reference():
    rng = SplitMix64(2024)
    for n_perms in range(71):
        full = (1 << n_perms) - 1
        masks = (0, full, full & 0x5555555555555555555, *(
            sum(rng.below(2) << j for j in range(n_perms)) for _ in range(4)
        ))
        upa = AccessMatrix(n_users=len(masks), n_perms=n_perms, masks=masks)
        want = "".join(
            "".join("1" if (m >> j) & 1 else "0" for j in range(n_perms)) + "\n"
            for m in masks
        )
        assert serialize_dense(upa) == want
        if n_perms:
            assert parse_dense(want) == upa


# --- decomposition / catalog text --------------------------------------------

def test_serialize_decomposition_canonical_order():
    d = Decomposition.from_sets([{1, 0}], [{0}])
    assert serialize_decomposition(d) == "role 0: p0 p1\nuser 0: r0\n"


def test_serialize_decomposition_smaller_roles_first():
    d = Decomposition.from_sets([{0, 1}, {2}], [{0, 1}])
    text = serialize_decomposition(d)
    assert text.splitlines()[0] == "role 0: p2"
    assert text.splitlines()[1] == "role 1: p0 p1"


def test_serialize_decomposition_empty():
    assert serialize_decomposition(Decomposition.empty(2)) == ""


def _reference_serialize_decomposition(d):
    """Role lines in (size, sorted permission tuple) order, then each user
    with a role, built user by user from the renumbered ids."""
    order = sorted(d.roles, key=lambda r: (len(r.perms), sorted(r.perms)))
    new_id = {r.id: i for i, r in enumerate(order)}
    text = ""
    for i, r in enumerate(order):
        text += f"role {i}: " + " ".join(f"p{p}" for p in sorted(r.perms)) + "\n"
    for u, role_ids in enumerate(d.ua):
        if role_ids:
            ids = sorted(new_id[rid] for rid in role_ids)
            text += f"user {u}: " + " ".join(f"r{i}" for i in ids) + "\n"
    return text


@st.composite
def _decompositions(draw):
    """Unsorted role ids, users that share one frozenset, empty
    assignments; roles nobody holds are dropped."""
    perm_sets = draw(st.lists(
        st.frozensets(st.integers(0, 12), min_size=1, max_size=5),
        unique=True, max_size=8))
    ids = draw(st.lists(st.integers(0, 60), unique=True,
                        min_size=len(perm_sets), max_size=len(perm_sets)))
    shared = draw(st.lists(st.frozensets(st.sampled_from(ids)), max_size=4)) if ids else []
    ua = draw(st.lists(st.sampled_from(shared + [frozenset()]), max_size=10))
    held = frozenset().union(*ua)
    roles = tuple(Role(i, s) for i, s in zip(ids, perm_sets) if i in held)
    return Decomposition(roles=roles, ua=tuple(ua))


@settings(max_examples=300, deadline=None)
@given(_decompositions())
def test_serialize_decomposition_matches_reference(d):
    assert serialize_decomposition(d) == _reference_serialize_decomposition(d)


def test_decomposition_text_round_trip():
    d = Decomposition.from_sets([{0, 1}, {2}, {1, 2, 3}], [{0, 2}, {1}, set()])
    text = serialize_decomposition(d)
    back = parse_decomposition(text, n_users=3)
    assert serialize_decomposition(back) == text


def test_catalog_round_trip():
    catalog = (frozenset({3, 1}), frozenset({0}))
    text = serialize_catalog(catalog)
    assert text == "role 0: p0\nrole 1: p1 p3\n"
    assert parse_catalog(text) == (frozenset({0}), frozenset({1, 3}))


@pytest.mark.parametrize("line", ["role 0: p1_0", "role 0: p+1", "role 0: p-1",
                                  "role \u0660: p1", "role x: p1"])
def test_parse_catalog_rejects_noncanonical_numbers(line):
    with pytest.raises(ParseError) as err:
        parse_catalog(f"role 0: p0\n{line}\n")
    assert err.value.line_no == 2


def test_parse_catalog_rejects_garbage():
    with pytest.raises(ParseError):
        parse_catalog("user 0: r1\n")


@pytest.mark.parametrize("line", [
    "role 0:", "role 0: p-1", "role 0: p1 p-3",
    # int() reads a sign, underscores and non-ASCII digits; the text form
    # never writes them
    "role 0: p1_0", "role 0: p+3", "role 0: p\u0663", "role +2: p1",
    "user +0: r1", "user 0: r\u0661",
])
def test_parse_decomposition_rejects_bad_role_with_line_number(line):
    with pytest.raises(ParseError) as err:
        parse_decomposition(f"# header\nrole 1: p0\n{line}\nuser 0: r1\n", 1)
    assert err.value.line_no == 3



@pytest.mark.parametrize("text", [
    "role 0: p0\n# again\n\nrole 0: p1\nuser 0: r0\n",
    "role 0: p0\nuser 0: r0\n\nuser 0: r0\n",
])
def test_parse_decomposition_rejects_repeated_index_with_line_number(text):
    with pytest.raises(ParseError) as err:
        parse_decomposition(text, 1)
    assert err.value.line_no == 4


# Token soup for the fuzz tests below: the keywords and token shapes the
# parsers branch on.  Long numbers are in: a role's bitmask is built only
# when it is read, so a huge permission index costs the parsers nothing.
_TOKENS = st.sampled_from([
    "role", "user", "0", "1", "-1", "7", "x", ":", "0:", "1:", "p0", "p1",
    "p3", "p-1", "p", "px", "p1x", "r0", "r1", "r-1", "r", "#", "\t", "",
    "p100000000", "p98765432109876543210", "98765432109876543210",
])
_LINE = st.one_of(
    st.lists(_TOKENS, max_size=6).map(" ".join),
    st.builds(
        "{} {}: {}".format,
        st.sampled_from(["role", "user", "roles"]),
        st.sampled_from(["0", "1", "2", "-1", "x"]),
        st.lists(_TOKENS, max_size=4).map(" ".join),
    ),
)
_LINE_SOUP = st.lists(_LINE, max_size=8).map("\n".join)
_NO_DIGITS = st.text(st.characters(exclude_categories=("Nd",)))


def _result_or_parse_error(parse, text, *allowed):
    """parse(text)'s result, or the type and message of the ParseError or
    `allowed` error it raised."""
    try:
        return parse(text)
    except ParseError as exc:
        assert exc.line_no >= 1
        assert str(exc).startswith(f"line {exc.line_no}: ")
        return ParseError, str(exc)
    except allowed as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.text(alphabet="01 \t#x", max_size=6), max_size=8).map("\n".join),
))
def test_parse_dense_fuzz_gives_result_or_parse_error(text):
    _result_or_parse_error(parse_dense, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _LINE_SOUP), _CUTS)
def test_parse_catalog_fuzz_gives_result_or_parse_error(text, chunk):
    whole = _result_or_parse_error(parse_catalog, text)
    with _cut_every(chunk):
        assert _result_or_parse_error(parse_catalog, text) == whole


@settings(max_examples=300, deadline=None)
@given(st.one_of(_NO_DIGITS, _LINE_SOUP), st.integers(0, 3), _CUTS)
def test_parse_decomposition_fuzz_gives_result_or_parse_error(text, n_users, chunk):
    def parse(t):
        return parse_decomposition(t, n_users)

    whole = _result_or_parse_error(parse, text, InvalidDecompositionError)
    with _cut_every(chunk):
        assert _result_or_parse_error(parse, text, InvalidDecompositionError) == whole


@pytest.mark.parametrize("perm", ["p100000000", "p98765432109876543210"])
def test_huge_permission_index_costs_no_memory(perm):
    text = f"role 0: {perm}\nuser 0: r0\n"
    upa = AccessMatrix.from_rows([{0}])
    tracemalloc.start()
    try:
        d = parse_decomposition(text, 1)
        with pytest.raises(InvalidDecompositionError, match="role 0 references"):
            is_complete(upa, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The first mask alone would take 13 MB; the second cannot be built.
    assert peak < 1_000_000


def test_wide_matrix_check_costs_no_memory():
    tracemalloc.start()
    try:
        AccessMatrix(n_users=1, n_perms=1 << 27, masks=(1,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A bound of 1 << n_perms would take 17 MB on its own, for any rows.
    assert peak < 1_000_000


def test_relabel_catalog_follows_the_input_tokens():
    names = parse_sparse("u0 p7\nu0 p2\nu1 p9\n").perm_names
    catalog = parse_catalog("role 0: p2 p7\nrole 1: p5 p9 p6\n")
    # p7 -> 0, p2 -> 1, p9 -> 2; p5 and p6 name no input permission and get
    # distinct indices past the matrix
    assert relabel_catalog(catalog, names) == (
        frozenset({0, 1}), frozenset({2, 3, 4}),
    )
    numeric = parse_sparse("1 7\n1 2\n").perm_names
    assert relabel_catalog(catalog[:1], numeric) == (frozenset({0, 1}),)


# --- generator ---------------------------------------------------------------

def test_generator_params_validation():
    with pytest.raises(ValueError):
        GeneratorParams(n_users=1, n_perms=3, n_roles=0,
                        max_roles_per_user=1, max_perms_per_role=2, seed=0)
    with pytest.raises(ValueError):
        GeneratorParams(n_users=1, n_perms=2, n_roles=1,
                        max_roles_per_user=1, max_perms_per_role=3, seed=0)


_PARAMS = dict(n_users=1, n_perms=3, n_roles=1, max_roles_per_user=1,
               max_perms_per_role=2, seed=0)


@pytest.mark.parametrize("field, value, message", [
    ("n_users", -1, "n_users must be nonnegative"),
    ("max_roles_per_user", 0, "max_roles_per_user must be >= 1"),
    ("max_perms_per_role", 0, "max_perms_per_role must be >= 1"),
    ("seed", -1, "seed must be a 64-bit unsigned integer"),
    ("seed", 1 << 64, "seed must be a 64-bit unsigned integer"),
])
def test_generator_params_checks_raise_with_message(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GeneratorParams(**{**_PARAMS, field: value})


def test_generate_single_role_row_equals_role():
    params = GeneratorParams(n_users=1, n_perms=3, n_roles=1,
                             max_roles_per_user=1, max_perms_per_role=3, seed=5)
    upa, truth = generate(params)
    assert len(truth) == 1
    assert upa.row(0) == truth[0]


def test_generate_is_deterministic():
    params = GeneratorParams(n_users=20, n_perms=15, n_roles=6,
                             max_roles_per_user=3, max_perms_per_role=4, seed=77)
    a = generate(params)
    b = generate(params)
    assert a == b


def test_generate_respects_role_size_bound():
    params = GeneratorParams(n_users=10, n_perms=12, n_roles=5,
                             max_roles_per_user=2, max_perms_per_role=2, seed=9)
    _, truth = generate(params)
    assert all(1 <= len(r) <= 2 for r in truth)


def test_generate_truth_is_deduplicated_and_witnesses_completeness():
    params = GeneratorParams(n_users=40, n_perms=10, n_roles=12,
                             max_roles_per_user=3, max_perms_per_role=3, seed=13)
    upa, truth = generate(params)
    assert len(set(truth)) == len(truth)
    d = witness_assignment(upa, truth)
    assert is_complete(upa, d)


def test_skewed_instance_favours_its_first_role():
    """Summed over the skewed draws, the rank-0 truth role lies in at least
    1.5 times as many rows as the last rank; with every role equally
    popular the two counts are about equal."""
    draws = list(shape_draws(48, 40, max_users=60))
    first = last = 0
    for upa, truth, _ in draws[40:]:  # shape_draws yields the skewed half last
        rows = upa.rows()
        first += sum(truth[0] <= r for r in rows)
        last += sum(truth[-1] <= r for r in rows)
    assert 2 * first > 3 * last
