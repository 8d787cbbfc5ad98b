"""The benchmark's three workloads and the calls they make into rolemine.

Each workload builds its inputs from the workload seed in `setup`, then
serves operations one at a time.  An operation is plain (the path a user
runs, timed as a whole per call) or traced (the same work split into the
public calls it is made of, plus probe calls next to it, each timed on its
own).  Every operation checks its outputs and raises `CheckFailed` when one
is wrong.

guard-2000x500    both miners in memory on the 2000x500 instance, k=20
scale-20000x2000  `rolemine mine --algo constrained --k 5` on files, in-process
corpus-small      both miners on 300 small instances, plus the exact oracle
                  on 300 oracle-sized ones
"""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

from rolemine import (
    AccessMatrix,
    Decomposition,
    GeneratorParams,
    MiningConfig,
    Role,
    SplitMix64,
    cli,
    eliminate_union_roles,
    generate,
    initial_candidates,
    is_complete,
    lattice_reduce,
    measure,
    mine_constrained,
    mine_crm,
    optimal_role_count,
    parse_catalog,
    parse_decomposition,
    parse_sparse,
    satisfies_constraint,
    serialize_catalog,
    serialize_decomposition,
    serialize_sparse,
)

SPEC = {"max_roles_per_user": 4, "max_perms_per_role": 20}
SPEC_SEED = 99  # generator seed of the ROADMAP's fixed specs


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def totals(counts: dict, traced: bool, size: int) -> dict:
    """Sum each count over the inputs, for plain or for traced operations;
    the output hashes of several inputs are hashed together."""
    total: dict = {}
    hashes: dict = {}
    for index in range(size):
        for name, value in counts.get((index, traced), {}).items():
            if isinstance(value, str):
                hashes.setdefault(name, []).append(value)
            else:
                total[name] = total.get(name, 0) + value
    for name, values in hashes.items():
        total[name] = values[0] if size == 1 else digest("\n".join(values))
    return total


class OpRecord:
    """What one operation measured: time samples and exact counts."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}
        self.counts: dict[str, object] = {}

    def time(self, name: str, seconds: float) -> None:
        self.times.setdefault(name, []).append(seconds)


def check_output(rec, out: OpRecord, algo: str, upa: AccessMatrix,
                 d: Decomposition, k: int) -> None:
    """Completeness and the k bound, then size, WSC and output hash."""
    complete, seconds = rec.call("model.is_complete", is_complete, upa, d)
    out.time("model.is_complete_s", seconds)
    require(complete, f"{algo}: decomposition is not complete")
    require(satisfies_constraint(d, k), f"{algo}: a role exceeds k={k}")
    out.counts[f"{algo}_r_count"] = d.r_count()
    out.counts[f"{algo}_wsc"] = int(measure(upa, d, MiningConfig(k)).wsc)
    out.counts[f"sha256.{algo}"] = digest(serialize_decomposition(d))


def constrained_probes(rec, out: OpRecord, upa: AccessMatrix, k: int):
    """Time initial_candidates and eliminate_union_roles on their own, as
    mine_constrained calls them.  Returns the number of roles that enter
    the split and the seconds of the two calls."""
    pool, t_cand = rec.call(
        "constrained.initial_candidates", initial_candidates, upa)
    roles0 = [Role(c.order, c.perms) for c in pool.candidates]
    ua0: list[set[int]] = [set() for _ in range(upa.n_users)]
    for c in pool.candidates:
        for u in c.users:
            ua0[u].add(c.order)
    d1, t_union = rec.call(
        "constrained.eliminate_union_roles", eliminate_union_roles,
        roles0, ua0, upa)
    kept = {r.perms for r in d1.roles}
    out.time("constrained.initial_candidates_s", t_cand)
    out.time("constrained.eliminate_union_roles_s", t_union)
    out.counts["constrained.candidates"] = len(roles0)
    out.counts["constrained.union_removed"] = sum(r.perms not in kept for r in roles0)
    out.counts["constrained.oversized"] = sum(len(r.perms) > k for r in d1.roles)
    require(len(roles0) - out.counts["constrained.union_removed"] == len(d1.roles),
            "candidates - union_removed != roles entering the split")
    return len(d1.roles), t_cand + t_union


def constrained_stages(rec, out: OpRecord, upa: AccessMatrix, k: int,
                       probes_s: float):
    """mine_constrained(lattice=False), then lattice_reduce: together what
    mine_constrained(lattice=True) does.  Returns the decomposition and the
    seconds of the two calls."""
    with rec.span("constrained"):
        raw, t_mine = rec.call(
            "constrained.mine_nolattice", mine_constrained, upa,
            MiningConfig(k), lattice=False)
        d, t_lat = rec.call(
            "lattice.after_constrained", lattice_reduce, upa, raw, k)
    out.time("constrained.mine_nolattice_s", t_mine)
    # Derived: no public function runs the split alone.
    out.time("constrained.split_s", t_mine - probes_s)
    out.time("lattice.after_constrained_s", t_lat)
    final = {r.perms for r in d.roles}
    out.counts["constrained.split_roles"] = raw.r_count()
    out.counts["lattice.removed_constrained"] = sum(
        r.perms not in final for r in raw.roles)
    require(raw.r_count() - out.counts["lattice.removed_constrained"] == d.r_count(),
            "split_roles - lattice.removed_constrained != constrained_r_count")
    return d, t_mine + t_lat


def crm_stages(rec, out: OpRecord, upa: AccessMatrix, k: int):
    """Traced CRM: mine_crm(lattice=False), then lattice_reduce."""
    with rec.span("crm"):
        raw, t_mine = rec.call(
            "crm.mine_nolattice", mine_crm, upa, MiningConfig(k), lattice=False)
        d, t_lat = rec.call("lattice.after_crm", lattice_reduce, upa, raw, k)
    out.time("crm.mine_nolattice_s", t_mine)
    out.time("lattice.after_crm_s", t_lat)
    final = {r.perms for r in d.roles}
    out.counts["crm.iterations"] = raw.r_count()
    out.counts["lattice.removed_crm"] = sum(r.perms not in final for r in raw.roles)
    require(out.counts["crm.iterations"] - out.counts["lattice.removed_crm"]
            == d.r_count(), "crm.iterations - lattice.removed_crm != crm_r_count")
    return d, t_mine + t_lat


def mine_both(rec, out: OpRecord, upa: AccessMatrix, k: int, traced: bool) -> float:
    """Constrained then CRM on one matrix; returns the operation's seconds."""
    if traced:
        _, probes_s = constrained_probes(rec, out, upa, k)
        gc.collect()
        dc, t_c = constrained_stages(rec, out, upa, k, probes_s)
        dr, t_r = crm_stages(rec, out, upa, k)
    else:
        cfg = MiningConfig(k)
        dc, t_c = rec.call("constrained", mine_constrained, upa, cfg)
        dr, t_r = rec.call("crm", mine_crm, upa, cfg)
        out.time("constrained_s", t_c)
        out.time("crm_s", t_r)
    check_output(rec, out, "constrained", upa, dc, k)
    check_output(rec, out, "crm", upa, dr, k)
    return t_c + t_r


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def shuffled(items, seed: int) -> list:
    """The items in a seeded order (Fisher-Yates)."""
    rng = SplitMix64(seed)
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


class Workload:
    """Inputs built at set-up and the operations run on them.

    Every workload's inputs are drawn with the ROADMAP specs' seed.  The
    default workload seed (that same seed) keeps them in generator order;
    any other seed shuffles them: the users here, the instances in the
    corpus.  That changes the input bytes but not the work, so the results
    of different seeds compare.  This base builds one instance and writes
    it to files."""

    name = ""
    size = 1  # distinct inputs the operations cycle over
    n_users = n_perms = n_roles = k = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.params = GeneratorParams(
            n_users=self.n_users, n_perms=self.n_perms, n_roles=self.n_roles,
            seed=SPEC_SEED, **SPEC)
        self.input_path = workdir / "input.txt"
        self.truth_path = workdir / "truth.txt"

    def setup(self, rec) -> tuple[str, dict[str, float]]:
        """Generate and write the inputs; returns their text and stage times."""
        (upa, truth), t_gen = rec.call("datasets.generate", generate, self.params)
        if self.seed != SPEC_SEED:
            upa = AccessMatrix(n_users=upa.n_users, n_perms=upa.n_perms,
                               masks=tuple(shuffled(upa.masks, self.seed)))
        text, t_ser = rec.call("datasets.serialize_sparse", serialize_sparse, upa)
        truth_text = serialize_catalog(truth)
        _write(self.input_path, text)
        _write(self.truth_path, truth_text)
        self.upa, self.truth = upa, truth
        stages = {"datasets.generate_s": t_gen, "datasets.serialize_sparse_s": t_ser}
        return text + truth_text, stages

    def prepare(self) -> None:
        """Untimed work after set-up that the output checks need."""

    def finish(self, rec, out: OpRecord) -> None:
        """Work done once after the traced run's last operation."""


class Guard(Workload):
    name = "guard-2000x500"
    n_users, n_perms, n_roles, k = 2000, 500, 120, 20

    def op(self, index: int, rec, out: OpRecord, traced: bool) -> float:
        return mine_both(rec, out, self.upa, self.k, traced)


class Scale(Workload):
    name = "scale-20000x2000"
    n_users, n_perms, n_roles, k = 20000, 2000, 400, 5

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.output_path = workdir / "decomposition.txt"
        self.metrics_path = workdir / "metrics.json"
        self.argv = [
            "mine", "--algo", "constrained", "--k", str(self.k),
            "--input", str(self.input_path), "--truth", str(self.truth_path),
            "--output", str(self.output_path), "--metrics", str(self.metrics_path),
        ]

    def prepare(self) -> None:
        self.parsed = parse_sparse(self.input_path.read_text(encoding="utf-8"))

    def _in_generator_space(self, d: Decomposition) -> Decomposition:
        """Relabel a decomposition of the parsed matrix with the generator's
        indices, read back from the u<i> and p<j> tokens."""
        perm = [int(name[1:]) for name in self.parsed.perm_names]
        user = [int(name[1:]) for name in self.parsed.user_names]
        ua = [frozenset()] * self.upa.n_users
        for j, role_ids in enumerate(d.ua):
            ua[user[j]] = role_ids
        roles = [Role(r.id, frozenset(perm[p] for p in r.perms)) for r in d.roles]
        return Decomposition(roles=tuple(roles), ua=tuple(ua))

    def _mine(self, rec, out: OpRecord) -> tuple[float, str, dict]:
        """One `rolemine mine` and the checks of what it wrote; returns its
        seconds, the decomposition text and the metrics JSON."""
        stdout = StringIO()
        with redirect_stdout(stdout), redirect_stderr(StringIO()):
            code, t_cli = rec.call("cli.main", cli.main, self.argv)
        require(code == 0, f"rolemine mine exited with {code}")
        metrics_text = self.metrics_path.read_text(encoding="utf-8")
        require(stdout.getvalue() == metrics_text, "stdout differs from --metrics")
        report = json.loads(metrics_text)
        text = self.output_path.read_text(encoding="utf-8")
        upa = self.parsed.matrix
        d = parse_decomposition(text, upa.n_users)
        require(is_complete(upa, d), "written decomposition is not complete")
        require(satisfies_constraint(d, self.k), f"a role exceeds k={self.k}")
        require(is_complete(self.upa, self._in_generator_space(d)),
                "decomposition does not cover the generated matrix")
        wsc = d.r_count() + d.ua_size() + d.pa_size()
        require(report["r_count"] == d.r_count() and Fraction(report["wsc"]) == wsc,
                "metrics JSON disagrees with the written decomposition")
        out.counts["constrained_r_count"] = d.r_count()
        out.counts["constrained_wsc"] = wsc
        out.counts["sha256.constrained"] = digest(text)
        # ROADMAP item 1: the truth file's p<j> are read as literal indices,
        # so this is not the accuracy of the mined roles.  Recorded, not
        # counted as a failure.
        out.counts["cli_accuracy"] = float(Fraction(report["accuracy"]))
        return t_cli, text, report

    def op(self, index: int, rec, out: OpRecord, traced: bool) -> float:
        t_cli, cli_text, report = self._mine(rec, out)
        if not traced:
            out.time("cli_mine_s", t_cli)
            out.time("constrained_s", report["elapsed_ms"] / 1000.0)
            return t_cli
        # Probe the candidate and union stages first, then time each stage
        # the CLI wraps, in its order and with no collection in between.
        _, probes_s = constrained_probes(rec, out, self.parsed.matrix, self.k)
        gc.collect()
        input_text = self.input_path.read_text(encoding="utf-8")
        parsed, t_parse = rec.call("datasets.parse_sparse", parse_sparse, input_text)
        truth, t_cat = rec.call(
            "datasets.parse_catalog", parse_catalog,
            self.truth_path.read_text(encoding="utf-8"))
        d, t_mine = constrained_stages(rec, out, parsed.matrix, self.k, probes_s)
        _, t_measure = rec.call(
            "metrics.measure", measure, parsed.matrix, d, MiningConfig(self.k),
            truth=truth)
        text, t_ser = rec.call(
            "datasets.serialize_decomposition", serialize_decomposition, d)
        require(text == cli_text, "the stages do not reproduce the CLI's output")
        out.counts["datasets.input_bytes"] = len(input_text.encode("utf-8"))
        out.time("datasets.parse_sparse_s", t_parse)
        out.time("datasets.parse_catalog_s", t_cat)
        out.time("metrics.measure_s", t_measure)
        out.time("datasets.serialize_decomposition_s", t_ser)
        out.time("cli.overhead_s",
                 t_cli - (t_parse + t_cat + t_mine + t_measure + t_ser))
        return t_cli

    def finish(self, rec, out: OpRecord) -> None:
        """The in-memory pipeline on the generated matrix, for comparison
        with the CLI, which mines the parsed matrix."""
        cfg = MiningConfig(self.k)
        d, seconds = rec.call(
            "constrained.mine_in_memory", mine_constrained, self.upa, cfg)
        require(is_complete(self.upa, d), "in-memory decomposition is not complete")
        out.time("constrained.mine_in_memory_s", seconds)
        report = measure(self.upa, d, cfg, truth=self.truth)
        out.counts["metrics.accuracy_in_memory"] = float(report.accuracy)


def _synthetic(meta: SplitMix64):
    """Draw one instance as the test suite's synthetic_instance does; the
    generate call is left to the caller so it can be timed."""
    n_perms = meta.randint(10, 100)
    return GeneratorParams(
        n_users=meta.randint(10, 200),
        n_perms=n_perms,
        n_roles=meta.randint(1, 20),
        max_roles_per_user=meta.randint(1, 4),
        max_perms_per_role=meta.randint(1, min(12, n_perms)),
        seed=meta.next_u64(),
    )


def _tiny(rng: SplitMix64) -> tuple[AccessMatrix, int]:
    """Oracle-sized instance drawn as the test suite's tiny_instance does:
    at most 6 permissions and 6 distinct nonempty rows."""
    n_perms = rng.randint(2, 6)
    n_rows = rng.randint(1, 6)
    universe = (1 << n_perms) - 1
    rows: list[int] = []
    attempts = 0
    while len(rows) < n_rows and attempts < 200:
        attempts += 1
        m = 1 + rng.below(universe)
        if m not in rows:
            rows.append(m)
    masks = list(rows)
    for _ in range(rng.below(3)):
        masks.append(rows[rng.below(len(rows))])
    upa = AccessMatrix(n_users=len(masks), n_perms=n_perms, masks=tuple(masks))
    return upa, rng.randint(1, upa.max_row_size())


class Corpus(Workload):
    name = "corpus-small"
    size = 300

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.input_path = workdir / "corpus.txt"

    def setup(self, rec) -> tuple[str, dict[str, float]]:
        meta = SplitMix64(SPEC_SEED)
        instances = []
        t_gen = t_ser = 0.0
        for _ in range(self.size):
            (upa, _), seconds = rec.call("datasets.generate", generate, _synthetic(meta))
            t_gen += seconds
            k = meta.randint(1, upa.max_row_size())
            instances.append((upa, k, *_tiny(SplitMix64(meta.next_u64()))))
        if self.seed != SPEC_SEED:
            instances = shuffled(instances, self.seed)
        self.instances = instances
        parts = []
        for i, (upa, k, tiny, tiny_k) in enumerate(instances):
            for label, m, m_k in (("instance", upa, k), ("tiny", tiny, tiny_k)):
                text, seconds = rec.call(
                    "datasets.serialize_sparse", serialize_sparse, m)
                t_ser += seconds
                parts.append(f"# {label} {i} k={m_k}\n{text}")
        text = "".join(parts)
        _write(self.input_path, text)
        stages = {"datasets.generate_s": t_gen, "datasets.serialize_sparse_s": t_ser}
        return text, stages

    def op(self, index: int, rec, out: OpRecord, traced: bool) -> float:
        upa, k, tiny, tiny_k = self.instances[index]
        seconds = mine_both(rec, out, upa, k, traced)
        (optimum, witness), t_oracle = rec.call(
            "oracle.optimal_role_count", optimal_role_count, tiny, tiny_k)
        require(is_complete(tiny, witness) and satisfies_constraint(witness, tiny_k)
                and witness.r_count() == optimum, "oracle witness is wrong")
        out.counts["oracle_r_count"] = optimum
        out.time("oracle.optimal_role_count_s" if traced else "oracle_s", t_oracle)
        return seconds + t_oracle


WORKLOADS = {w.name: w for w in (Guard, Scale, Corpus)}
