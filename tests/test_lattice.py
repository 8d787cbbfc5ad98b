import hashlib

import pytest

from rolemine import (
    AccessMatrix,
    ConstraintViolationError,
    Decomposition,
    IncompleteDecompositionError,
    MiningConfig,
    is_complete,
    lattice_reduce,
    mine_constrained,
    mine_crm,
    satisfies_constraint,
    serialize_decomposition,
)
from rolemine.rng import SplitMix64

from conftest import guard_instance, synthetic_instance


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
