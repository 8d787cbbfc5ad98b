import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemine import (
    AccessMatrix,
    ConstraintViolationError,
    Decomposition,
    IncompleteDecompositionError,
    MiningConfig,
    Role,
    is_complete,
    lattice_reduce,
    mine_constrained,
    mine_crm,
    satisfies_constraint,
    serialize_decomposition,
    singleton_decomposition,
    witness_assignment,
)
from rolemine.model import iter_bits
from rolemine.rng import SplitMix64

from conftest import (
    guard_instance,
    mixed_decomposition,
    mixed_instances,
    synthetic_instance,
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


def test_never_regresses_on_mined_outputs():
    meta = SplitMix64(1717)
    for _ in range(30):
        upa, _, k = synthetic_instance(meta, min_users=5, max_users=50,
                                       min_perms=5, max_perms=25)
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
    masks = [r.mask for r in ordered]
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


@st.composite
def _witness_instances(draw):
    """Every user holds every catalog role inside its row: a catalog of
    random sets within k plus all singletons, so most roles are redundant."""
    n_perms = draw(st.integers(1, 7))
    k = draw(st.integers(1, n_perms))
    full = (1 << n_perms) - 1
    extra = draw(st.lists(st.integers(1, full), max_size=10))
    catalog = {frozenset((p,)) for p in range(n_perms)}
    catalog |= {frozenset(iter_bits(m)) for m in extra if m.bit_count() <= k}
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
