import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemine import (
    AccessMatrix,
    Decomposition,
    GeneratorParams,
    InvalidDecompositionError,
    ParseError,
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
from rolemine.datasets import (
    SparseParseResult,
    names_are_indices,
    relabel_catalog,
)


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
)


@settings(max_examples=300, deadline=None)
@given(_SPARSE_TEXT)
def test_parse_sparse_fuzz_gives_result_or_parse_error(text):
    try:
        want = _reference_parse_sparse(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_sparse(text)
        assert (str(err.value), err.value.line_no) == (str(exc), exc.line_no)
    else:
        assert parse_sparse(text) == want

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


def test_parse_catalog_rejects_garbage():
    with pytest.raises(ParseError):
        parse_catalog("user 0: r1\n")


@pytest.mark.parametrize("line", ["role 0:", "role 0: p-1", "role 0: p1 p-3"])
def test_parse_decomposition_rejects_bad_role_with_line_number(line):
    with pytest.raises(ParseError) as err:
        parse_decomposition(f"# header\nrole 1: p0\n{line}\nuser 0: r1\n", 1)
    assert err.value.line_no == 3


# Token soup for the fuzz tests below: the keywords and token shapes the
# parsers branch on.  Numbers stay short: parse_decomposition turns a
# permission index into a bit position, so memory grows with its value.
_TOKENS = st.sampled_from([
    "role", "user", "0", "1", "-1", "7", "x", ":", "0:", "1:", "p0", "p1",
    "p3", "p-1", "p", "px", "p1x", "r0", "r1", "r-1", "r", "#", "\t", "",
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
    try:
        parse(text)
    except ParseError as exc:
        assert exc.line_no >= 1
        assert str(exc).startswith(f"line {exc.line_no}: ")
    except allowed:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.text(alphabet="01 \t#x", max_size=6), max_size=8).map("\n".join),
))
def test_parse_dense_fuzz_gives_result_or_parse_error(text):
    _result_or_parse_error(parse_dense, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _LINE_SOUP))
def test_parse_catalog_fuzz_gives_result_or_parse_error(text):
    _result_or_parse_error(parse_catalog, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_NO_DIGITS, _LINE_SOUP), st.integers(0, 3))
def test_parse_decomposition_fuzz_gives_result_or_parse_error(text, n_users):
    _result_or_parse_error(
        lambda t: parse_decomposition(t, n_users), text, InvalidDecompositionError
    )


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
