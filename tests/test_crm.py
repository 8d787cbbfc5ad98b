import hashlib

from rolemine import (
    AccessMatrix,
    MiningConfig,
    is_complete,
    mine_constrained,
    mine_crm,
    satisfies_constraint,
    serialize_decomposition,
)
from rolemine.rng import SplitMix64

from conftest import guard_instance, synthetic_instance


def test_crm_picks_most_popular_cluster_first():
    # hand simulation: cluster {0,1} has two users, so it is selected first,
    # then the remaining cluster {2}
    upa = AccessMatrix.from_rows([{0, 1}, {0, 1}, {2}])
    d = mine_crm(upa, MiningConfig(max_perms_per_role=2), lattice=False)
    assert [r.perms for r in d.roles] == [frozenset({0, 1}), frozenset({2})]
    assert d.ua[0] == {0} and d.ua[1] == {0} and d.ua[2] == {1}


def test_crm_identity_k1():
    upa = AccessMatrix.from_rows([{0}, {1}])
    d = mine_crm(upa, MiningConfig(max_perms_per_role=1))
    assert d.r_count() == 2
    assert all(len(r.perms) == 1 for r in d.roles)


def test_crm_truncation_by_uncovered_frequency():
    # hand simulation: all three permissions appear once among uncovered
    # cells, so truncation keeps the two with the lowest indices; the rest
    # is picked up on the next round
    upa = AccessMatrix.from_rows([{0, 1, 2}])
    d = mine_crm(upa, MiningConfig(max_perms_per_role=2), lattice=False)
    assert [r.perms for r in d.roles] == [frozenset({0, 1}), frozenset({2})]


def test_crm_assigns_role_to_superset_users_outside_cluster():
    # {0,1} is picked for its two-user cluster and also covers those cells
    # of the {0,1,2} user
    upa = AccessMatrix.from_rows([{0, 1}, {0, 1}, {0, 1, 2}])
    d = mine_crm(upa, MiningConfig(max_perms_per_role=3), lattice=False)
    assert d.roles[0].perms == {0, 1}
    assert 0 in d.ua[2]


def test_crm_complete_constrained_deterministic_on_random_instances():
    meta = SplitMix64(606)
    for _ in range(40):
        upa, _, k = synthetic_instance(meta, min_users=5, max_users=60,
                                       min_perms=5, max_perms=30)
        cfg = MiningConfig(max_perms_per_role=k)
        d = mine_crm(upa, cfg)
        assert is_complete(upa, d)
        assert satisfies_constraint(d, k)
        assert serialize_decomposition(mine_crm(upa, cfg)) == serialize_decomposition(d)


def test_crm_antichain_returns_rows_by_descending_user_count():
    rows = [{0, 1}, {0, 1}, {0, 1}, {2, 3}, {2, 3}, {4}]
    upa = AccessMatrix.from_rows(rows)
    d = mine_crm(upa, MiningConfig(max_perms_per_role=2), lattice=False)
    assert [r.perms for r in d.roles] == [
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({4}),
    ]
    counts = [sum(1 for s in d.ua if r.id in s) for r in d.roles]
    assert counts == sorted(counts, reverse=True)


# Golden outputs: SHA-256 of serialize_decomposition, pinned from the
# straightforward re-cluster-every-round loop.  Any change to the greedy
# loop must reproduce these bytes exactly.

def _sha(d):
    return hashlib.sha256(serialize_decomposition(d).encode()).hexdigest()


def test_crm_guard_instance_bytes_pinned():
    upa = guard_instance()
    cfg = MiningConfig(max_perms_per_role=20)
    raw = mine_crm(upa, cfg, lattice=False)
    assert raw.r_count() == 643
    assert _sha(raw) == (
        "808a865cbead81f2f7807b1764b1c94ffc9b9a19599cf8ee2bff1e68a62effb6"
    )
    reduced = mine_crm(upa, cfg)
    assert reduced.r_count() == 191
    assert _sha(reduced) == (
        "397f357f4bc24b0a724e725aa8fc0cc8f851cc402bd24f8296a7a4443ce59fd5"
    )


def test_both_miners_bytes_pinned_on_synthetic_instances():
    meta = SplitMix64(2024)
    acc = {mine_constrained: hashlib.sha256(), mine_crm: hashlib.sha256()}
    for _ in range(40):
        upa, _, k = synthetic_instance(meta)
        cfg = MiningConfig(max_perms_per_role=k)
        for miner, h in acc.items():
            h.update(serialize_decomposition(miner(upa, cfg)).encode())
    assert acc[mine_constrained].hexdigest() == (
        "4633ab026d07757e830cc4de5a297edb52a43b68a5ef4df25d36a0762435aff7"
    )
    assert acc[mine_crm].hexdigest() == (
        "8268a2cbc5564694e7e93bd89a70d89c22120d1a75b32e9429d0b71bf7ae335b"
    )
