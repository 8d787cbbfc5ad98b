import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rolemine.lattice
from rolemine import (
    AccessMatrix,
    ConstraintViolationError,
    Decomposition,
    IncompleteDecompositionError,
    InvalidDecompositionError,
    MiningConfig,
    Role,
    RoleMiningError,
    eliminate_union_roles,
    is_complete,
    lattice_reduce,
    mine_constrained,
    mine_crm,
    satisfies_constraint,
    serialize_decomposition,
    singleton_decomposition,
    witness_assignment,
)
from rolemine._rowindex import RowIndex, row_groups, staged
from rolemine.lattice import reduce_rows
from rolemine.model import mask_of, perm_tuple

from conftest import (
    guard_instance,
    mixed_decomposition,
    mixed_instances,
    shape_draws,
)


def test_removes_role_whose_cells_are_covered_elsewhere():
    upa = AccessMatrix.from_rows([{0, 1}, {0}, {1}])
    d = Decomposition.from_sets([{0}, {1}, {0, 1}], [{2}, {0}, {1}])
    out = lattice_reduce(upa, d, 2)
    assert {r.perms for r in out.roles} == {frozenset({0}), frozenset({1})}
    assert is_complete(upa, out)


def test_fixpoint_on_minimal_decomposition():
    upa = AccessMatrix.from_rows([{0, 1}, {2}])
    d = Decomposition.from_sets([{0, 1}, {2}], [{0}, {1}])
    out = lattice_reduce(upa, d, 2)
    assert serialize_decomposition(out) == serialize_decomposition(d)


def test_single_role_untouched():
    upa = AccessMatrix.from_rows([{0, 1}])
    d = Decomposition.from_sets([{0, 1}], [{0}])
    out = lattice_reduce(upa, d, 2)
    assert out.r_count() == 1


def test_rejects_incomplete_input():
    upa = AccessMatrix.from_rows([{0, 1}])
    d = Decomposition.from_sets([{0}], [{0}])
    with pytest.raises(IncompleteDecompositionError):
        lattice_reduce(upa, d, 2)


def test_rejects_constraint_violation():
    upa = AccessMatrix.from_rows([{0, 1, 2}])
    d = Decomposition.from_sets([{0, 1, 2}], [{0}])
    with pytest.raises(ConstraintViolationError):
        lattice_reduce(upa, d, 2)


@pytest.mark.parametrize("k", [0, -1])
def test_rejects_k_below_one(k):
    # The bound is checked before the input: an empty decomposition has no
    # role to violate it, and a nonempty one must not be blamed for it.
    empty = AccessMatrix.from_rows([[], []], n_perms=2)
    upa = AccessMatrix.from_rows([{0}, {1}])
    for m, d in ((empty, Decomposition.empty(2)), (upa, singleton_decomposition(upa))):
        with pytest.raises(ValueError, match="k must be >= 1"):
            lattice_reduce(m, d, k)


def test_public_stages_raise_in_one_order():
    # Each input below also breaks every later check: a role outside the
    # matrix leaves its user over-granted and exceeds k=1, and the
    # incomplete input exceeds k=1 too.
    upa = AccessMatrix.from_rows([{0, 1}, {1}])
    outside = Decomposition.from_sets([{0, 1, 2}, {1}], [{0}, {1}])
    incomplete = Decomposition.from_sets([{0, 1}], [{0}, {0}])
    complete = Decomposition.from_sets([{0, 1}, {1}], [{0}, {1}])

    stages = {
        "eliminate_union_roles": lambda d: eliminate_union_roles(d.roles, d.ua, upa),
        "lattice_reduce": lambda d: lattice_reduce(upa, d, 1),
    }

    def raised(stage, d):
        with pytest.raises(RoleMiningError) as caught:
            stages[stage](d)
        return type(caught.value), str(caught.value)

    with pytest.raises(ValueError, match="^k must be >= 1$"):
        lattice_reduce(upa, outside, 0)
    for stage in stages:
        assert raised(stage, outside) == (
            InvalidDecompositionError,
            "role 0 references a permission >= n_perms (2)",
        )
        assert raised(stage, incomplete) == (
            IncompleteDecompositionError,
            f"{stage} requires a complete decomposition",
        )
    assert raised("lattice_reduce", complete) == (
        ConstraintViolationError, "input decomposition violates the constraint k=1"
    )
    assert stages["eliminate_union_roles"](complete) == complete


def test_never_regresses_on_mined_outputs():
    for upa, _, k in shape_draws(1717, 30, min_users=5, max_users=50,
                                 min_perms=5, max_perms=25):
        cfg = MiningConfig(max_perms_per_role=k)
        for miner in (mine_constrained, mine_crm):
            raw = miner(upa, cfg, lattice=False)
            out = lattice_reduce(upa, raw, k)
            assert is_complete(upa, out)
            assert satisfies_constraint(out, k)
            assert out.r_count() <= raw.r_count()
            assert (
                out.ua_size() + out.pa_size() <= raw.ua_size() + raw.pa_size()
                or out.r_count() < raw.r_count()
            )
            again = lattice_reduce(upa, out, k)
            assert serialize_decomposition(again) == serialize_decomposition(out)


def test_lattice_after_constrained_guard_bytes_pinned():
    # SHA-256 of serialize_decomposition, pinned from the catalog-scanning
    # reassignment; the row-indexed pass must reproduce these bytes.
    upa = guard_instance()
    raw = mine_constrained(upa, MiningConfig(max_perms_per_role=20), lattice=False)
    out = lattice_reduce(upa, raw, 20)
    assert out.r_count() == 122
    digest = hashlib.sha256(serialize_decomposition(out).encode()).hexdigest()
    assert digest == (
        "4de7b92486296559ae9261980da0361993950f07213454479ce936790e95f279"
    )


def _reference_lattice_reduce(upa, d, k):
    """The pass user by user: per distinct row, counters of live fitting
    roles per permission; a removed role's users are reassigned one by one
    from the row's fitting roles in removal order."""
    assert is_complete(upa, d) and satisfies_constraint(d, k)
    if not d.roles:
        return d
    ordered = sorted(d.roles, key=lambda r: (-len(r.perms), r.sorted_perms()))
    position = {r.id: i for i, r in enumerate(ordered)}
    masks = [mask_of(r.perms) for r in ordered]
    bits = [r.sorted_perms() for r in ordered]
    user_roles = [{position[rid] for rid in s} for s in d.ua]
    role_users = [set() for _ in ordered]
    for u, s in enumerate(user_roles):
        for i in s:
            role_users[i].add(u)
    row_ids = {}
    row_of_user = [row_ids.setdefault(m, len(row_ids)) for m in upa.masks]
    row_masks = list(row_ids)
    fit_rows, fits = [], [[] for _ in row_masks]
    counters = [dict() for _ in row_masks]
    for i, m in enumerate(masks):
        rows = [ri for ri, rm in enumerate(row_masks) if m & ~rm == 0]
        fit_rows.append(rows)
        for ri in rows:
            fits[ri].append(i)
            for p in bits[i]:
                counters[ri][p] = counters[ri].get(p, 0) + 1
    alive = [True] * len(ordered)
    changed = True
    while changed:
        changed = False
        for i, m in enumerate(masks):
            if not alive[i]:
                continue
            touched_rows = {row_of_user[u] for u in role_users[i]}
            if not all(counters[ri][p] >= 2 for ri in touched_rows for p in bits[i]):
                continue
            alive[i] = False
            for ri in fit_rows[i]:
                for p in bits[i]:
                    counters[ri][p] -= 1
            for u in sorted(role_users[i]):
                held = user_roles[u]
                held.discard(i)
                still = 0
                for other in held:
                    still |= masks[other]
                remainder = m & ~still
                for cand in fits[row_of_user[u]]:
                    if remainder and alive[cand] and masks[cand] & remainder:
                        held.add(cand)
                        role_users[cand].add(u)
                        remainder &= ~masks[cand]
                assert remainder == 0
            role_users[i] = set()
            changed = True
    kept = tuple(r for r in d.roles if alive[position[r.id]])
    ua = tuple(frozenset(ordered[i].id for i in s) for s in user_roles)
    return Decomposition(roles=kept, ua=ua)


@settings(max_examples=300, deadline=None)
@given(mixed_instances())
def test_lattice_matches_reference_when_row_users_differ(instance):
    upa, k, d = instance
    assert lattice_reduce(upa, d, k) == _reference_lattice_reduce(upa, d, k)


@settings(max_examples=300, deadline=None)
@given(mixed_instances())
def test_one_sweep_is_a_fixpoint_when_row_users_differ(instance):
    # The pass sweeps once; a second pass over its output removes nothing.
    upa, k, d = instance
    once = lattice_reduce(upa, d, k)
    assert lattice_reduce(upa, once, k) == once


@st.composite
def _witness_instances(draw):
    """Every user holds every catalog role inside its row: a catalog of
    random sets within k plus all singletons, so most roles are redundant."""
    n_perms = draw(st.integers(1, 7))
    k = draw(st.integers(1, n_perms))
    full = (1 << n_perms) - 1
    extra = draw(st.lists(st.integers(1, full), max_size=10))
    catalog = {frozenset((p,)) for p in range(n_perms)}
    catalog |= {frozenset(perm_tuple(m)) for m in extra if m.bit_count() <= k}
    masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=12))
    upa = AccessMatrix(n_users=len(masks), n_perms=n_perms, masks=tuple(masks))
    order = sorted(catalog, key=lambda s: (len(s), sorted(s)))
    ids = draw(st.permutations(range(len(order))))
    d = witness_assignment(upa, order)
    d = Decomposition(
        roles=tuple(Role(ids[r.id], r.perms) for r in d.roles),
        ua=tuple({ids[i] for i in s} for s in d.ua),
    )
    return upa, k, d


@settings(max_examples=300, deadline=None)
@given(_witness_instances())
def test_lattice_matches_reference_on_redundant_catalogs(instance):
    upa, k, d = instance
    assert lattice_reduce(upa, d, k) == _reference_lattice_reduce(upa, d, k)


@pytest.mark.parametrize("with_singletons", [False, True])
def test_lattice_matches_reference_on_mixed_guard_assignment(with_singletons):
    # Even users keep the singleton roles or CRM's, odd users the
    # constrained miner's.
    upa = guard_instance()
    cfg = MiningConfig(max_perms_per_role=20)
    other = singleton_decomposition(upa) if with_singletons else mine_crm(
        upa, cfg, lattice=False)
    raw = mine_constrained(upa, cfg, lattice=False)
    d = mixed_decomposition(upa, (other, raw), [u % 2 for u in range(upa.n_users)])
    assert lattice_reduce(upa, d, 20) == _reference_lattice_reduce(upa, d, 20)


def _reference_reduce_rows(masks, index, held):
    """The sweep in two walks per holder: first every holder's list is
    walked to test the role, then each holder ORs its other held roles and
    walks its list again to be reassigned."""
    perms = [perm_tuple(m) for m in masks]
    order = sorted(range(len(masks)), key=lambda i: (-len(perms[i]), perms[i]))
    fit_rows = [()] * len(masks)
    fits = [[] for _ in held]
    for i in order:
        fit_rows[i] = perm_tuple(index.containing(masks[i]))
        for g in fit_rows[i]:
            fits[g].append(i)

    def others_cover(g, i, rest):
        for j in fits[g]:
            if j != i:
                rest &= ~masks[j]
                if not rest:
                    return True
        return False

    for i in order:
        m = masks[i]
        holders = [g for g in fit_rows[i] if i in held[g]]
        if not all(others_cover(g, i, m) for g in holders):
            continue
        for g in fit_rows[i]:
            fits[g].remove(i)
        for g in holders:
            roles = held[g]
            roles.remove(i)
            still = 0
            for other in roles:
                still |= masks[other]
            remainder = m & ~still
            if not remainder:
                continue
            for cand in fits[g]:
                if masks[cand] & remainder:
                    roles.append(cand)
                    remainder &= ~masks[cand]
                    if not remainder:
                        break
            assert remainder == 0


def _sweeps_agree(upa, d):
    """Run both sweeps on the groups of `d` through the public stages'
    adapter, check that their held lists agree, in order, and hold no role
    twice, and return the held lists before and after the sweep."""
    index = RowIndex(row_groups(upa, d.ua), upa.n_perms)
    runs = []
    for sweep in (_reference_reduce_rows, reduce_rows):
        def core(catalog, held, sweep=sweep):
            runs.append([list(roles) for roles in held])
            sweep(catalog, index, held)
            runs.append(held)
        staged(upa, d, "the sweep", index.users, core)
    before, expected, _, held = runs
    assert held == expected
    assert not _rows_holding_a_role_twice(before + held)
    return before, held


def _rows_holding_a_role_twice(held):
    """The lists of `held` that hold some role more than once."""
    return [roles for roles in held if len(set(roles)) != len(roles)]


def _checked_sweeps(monkeypatch):
    """Make the `reduce_rows` that the miners' tail and `lattice_reduce`
    call check, before and after the sweep, that no row's list holds a role
    twice; returns the list each checked sweep appends its index to."""
    checked = []

    def checking(masks, index, held):
        assert not _rows_holding_a_role_twice(held)
        reduce_rows(masks, index, held)
        assert not _rows_holding_a_role_twice(held)
        checked.append(index)

    monkeypatch.setattr(rolemine.lattice, "reduce_rows", checking)
    return checked


def _mine_and_reduce(upa, k):
    """Both miners with the lattice on, then `lattice_reduce` on each
    miner's raw output."""
    cfg = MiningConfig(max_perms_per_role=k)
    for miner in (mine_constrained, mine_crm):
        miner(upa, cfg)
        lattice_reduce(upa, miner(upa, cfg, lattice=False), k)


def _sweeps_on_matrix_index(upa, checked):
    """For each checked sweep, whether it ran on the matrix's own index, as
    the miners' tail does, not on one `lattice_reduce` built."""
    return [index is upa._row_index for index in checked]


@pytest.mark.parametrize("k", [2, 5, 20])
def test_no_row_list_holds_a_role_twice_on_guard(monkeypatch, k):
    # The invariant the list form rests on: a walk never takes a role its
    # row already holds.
    checked = _checked_sweeps(monkeypatch)
    upa = guard_instance()
    _mine_and_reduce(upa, k)
    assert _sweeps_on_matrix_index(upa, checked) == [True, False, True, False]


def test_no_row_list_holds_a_role_twice_on_shape_draws(monkeypatch):
    checked = _checked_sweeps(monkeypatch)
    draws = list(shape_draws(5151, 30, min_users=5, max_users=80,
                             min_perms=5, max_perms=40))
    for upa, _, k in draws:
        checked.clear()
        _mine_and_reduce(upa, k)
        assert _sweeps_on_matrix_index(upa, checked) == [True, False, True, False]


def test_sweep_matches_two_walk_reference_on_mined_outputs():
    for upa, _, k in shape_draws(4242, 30, min_users=5, max_users=80,
                                 min_perms=5, max_perms=40):
        cfg = MiningConfig(max_perms_per_role=k)
        for miner in (mine_constrained, mine_crm):
            _sweeps_agree(upa, miner(upa, cfg, lattice=False))


@pytest.mark.parametrize("k", [2, 5, 20])
@pytest.mark.parametrize("miner", [mine_constrained, mine_crm])
def test_sweep_matches_two_walk_reference_on_guard(miner, k):
    upa = guard_instance()
    _sweeps_agree(upa, miner(upa, MiningConfig(max_perms_per_role=k), lattice=False))


def _assert_stages_ignore_role_order(upa, d, k, seed):
    """Both public stages give `d`'s result, kept roles in the input's
    order, when `d.roles` is reversed or shuffled with ids and ua kept: the
    adapter numbers the roles by their masks alone."""
    def stages(roles):
        given = Decomposition(roles=roles, ua=d.ua)
        return eliminate_union_roles(roles, d.ua, upa), lattice_reduce(upa, given, k)

    expected = stages(d.roles)
    shuffled = tuple(random.Random(seed).sample(d.roles, len(d.roles)))
    for roles in (d.roles[::-1], shuffled):
        for out, want in zip(stages(roles), expected):
            assert out.ua == want.ua
            assert out.roles == tuple(r for r in roles if r in set(want.roles))


@pytest.mark.parametrize("k", [2, 5, 20])
@pytest.mark.parametrize("miner", [mine_constrained, mine_crm])
def test_public_stages_ignore_role_order_on_guard(miner, k):
    upa = guard_instance()
    d = miner(upa, MiningConfig(max_perms_per_role=k), lattice=False)
    _assert_stages_ignore_role_order(upa, d, k, seed=k)


def test_public_stages_ignore_role_order_on_shape_draws():
    draws = shape_draws(9797, 25, min_users=5, max_users=80,
                        min_perms=5, max_perms=40)
    for seed, (upa, _, k) in enumerate(draws):
        cfg = MiningConfig(max_perms_per_role=k)
        for miner in (mine_constrained, mine_crm):
            d = miner(upa, cfg, lattice=False)
            _assert_stages_ignore_role_order(upa, d, k, seed)


def test_role_kept_by_its_second_holder_leaves_first_holder_alone():
    # A = {0,1} is tried first.  Its first holder, row {0,1,2,3}, could swap
    # it for B and C; its second, row {0,1}, fits no other role.  So A stays
    # and no row changes, the first holder included.
    upa = AccessMatrix.from_rows([{0, 1, 2, 3}, {0, 1}, {0, 2}, {1, 3}, {2, 3}])
    d = Decomposition.from_sets(
        [{0, 1}, {0, 2}, {1, 3}, {2, 3}], [{0, 3}, {0}, {1}, {2}, {3}]
    )
    before, held = _sweeps_agree(upa, d)
    assert held == before
    assert lattice_reduce(upa, d, 2) == d


def test_holder_covered_by_its_own_roles_gets_no_new_role():
    # Row {1,2,3} holds A = {1,2}, S = {1} and R = {2,3}; S and R cover A, so
    # A goes and the row takes nothing for it, although N = {1,3}, which
    # meets A, comes first in its list.  Rows {1,3}, {2,3} and {1} keep N,
    # R and S.
    upa = AccessMatrix.from_rows([{1, 2, 3}, {1, 3}, {2, 3}, {1}])
    d = Decomposition.from_sets(
        [{1, 2}, {1, 3}, {2, 3}, {1}], [{0, 2, 3}, {1}, {2}, {3}]
    )
    _sweeps_agree(upa, d)
    out = lattice_reduce(upa, d, 2)
    kept = tuple(r for r in d.roles if r.id != 0)
    assert out == Decomposition(roles=kept, ua=(
        frozenset({2, 3}), frozenset({1}), frozenset({2}), frozenset({3})
    ))
