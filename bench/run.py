"""Run one rolemine benchmark workload and print its metrics.

    python3 bench/run.py --workload guard-2000x500 --seed 99 --seconds 30 --trace 0

Run from the root of a checkout.  The benchmark imports rolemine from the
checkout's `src/` and exits with code 2 without a result when it is missing.
One process runs one workload: it sets up the inputs at least five times
(timing each), then runs operations one after another (a closed loop with
one client), with a fixed reference task between them, until `--seconds`
have passed and every input has been used once.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it
holds informational fields (environment, output hashes, the metrics that
apply to this workload only).  The full record, and with `--trace 1` the
spans, are written under `.bench_out/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # at least this many set-ups, and
SETUP_SECONDS = 2.0  # until this much time has passed
REFERENCE_SHARE = 0.1  # of the measuring loop spent in the reference task

END_TO_END = {
    "setup_s": "s",
    "op_ref": "ref",
    "peak_rss_mb": "MB",
    "constrained_r_count": "count",
    "constrained_wsc": "count",
}

PER_LAYER = {
    "datasets.generate_s": "s",
    "datasets.serialize_sparse_s": "s",
    "datasets.parse_sparse_s": "s",
    "datasets.parse_catalog_s": "s",
    "datasets.serialize_decomposition_s": "s",
    "datasets.input_bytes": "bytes",
    "constrained.initial_candidates_s": "s",
    "constrained.candidates": "count",
    "constrained.eliminate_union_roles_s": "s",
    "constrained.union_removed": "count",
    "constrained.mine_nolattice_s": "s",
    "constrained.split_s": "s",
    "constrained.oversized": "count",
    "constrained.split_roles": "count",
    "constrained.mine_in_memory_s": "s",
    "crm.mine_nolattice_s": "s",
    "crm.iterations": "count",
    "crm_r_count": "count",
    "crm_wsc": "count",
    "lattice.after_constrained_s": "s",
    "lattice.after_crm_s": "s",
    "lattice.removed_constrained": "count",
    "lattice.removed_crm": "count",
    "lattice.removal_ratio_constrained": "ratio",
    "lattice.removal_ratio_crm": "ratio",
    "metrics.measure_s": "s",
    "metrics.accuracy_in_memory": "ratio",
    "model.is_complete_s": "s",
    "oracle.optimal_role_count_s": "s",
    "cli.overhead_s": "s",
    "cli_accuracy": "ratio",
    "gc.pause_s": "s",
    "reference_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


def _load_program():
    """Import rolemine from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rolemine" / "__init__.py").is_file():
        print(f"error: no rolemine package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import rolemine

    if Path(rolemine.__file__).resolve().parent != src / "rolemine":
        print(f"error: imported rolemine from {rolemine.__file__}", file=sys.stderr)
        sys.exit(2)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# The host's speed drifts by up to 2x over minutes, far more than a run can
# average out, so end-to-end times are reported as multiples of a fixed
# reference task timed in the same process between operations.
def _reference_rows() -> list[int]:
    x, rows = 1, []
    for _ in range(300):
        row = 0
        for _ in range(10):
            x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            row |= 1 << (x >> 57)
        rows.append(row)
    return rows


REFERENCE_ROWS = _reference_rows()


def reference_s() -> float:
    """Seconds for a greedy cover of 300 fixed rows, written in the miners'
    style (bit masks, grouping, sorting) but never calling the program, so
    that it tracks the machine's speed and nothing else."""
    start = time.perf_counter()
    uncovered = list(REFERENCE_ROWS)
    while any(uncovered):
        groups: dict[int, list[int]] = {}
        for u, m in enumerate(uncovered):
            if m:
                groups.setdefault(m & -m, []).append(u)
        best = sorted(groups, key=lambda b: (-len(groups[b]), b))[0]
        for u in groups[best]:
            uncovered[u] &= ~best
    return time.perf_counter() - start


def _tail(values: list[float]) -> dict | None:
    """The highest of the usual percentiles (nearest rank) with at least 10
    samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return {"value": ordered[rank - 1], "unit": "s", "percentile": pct,
                    "samples": n, "beyond": n - rank}
    return None


def _top_up(reference: list[float], start: float) -> None:
    """Run the reference task until it has had its share of the loop."""
    while not reference or sum(reference) < REFERENCE_SHARE * (
            time.perf_counter() - start):
        reference.append(reference_s())


def run(workload, rec, seconds: float) -> dict:
    from workloads import CheckFailed, OpRecord, digest, totals

    setup_s, stages, fingerprints = [], {}, set()
    begin = time.perf_counter()
    while len(setup_s) < SETUPS or time.perf_counter() - begin < SETUP_SECONDS:
        rec.op = f"setup-{len(setup_s)}"
        gc.collect()
        start = time.perf_counter()
        text, stage_times = workload.setup(rec)
        setup_s.append(time.perf_counter() - start)
        fingerprints.add(digest(text))
        for name, value in stage_times.items():
            stages.setdefault(name, []).append(value)
    errors = [] if len(fingerprints) == 1 else ["set-ups gave different inputs"]
    workload.prepare()

    period = 2 if rec.tracing else 1  # traced runs alternate plain and traced ops
    samples: dict[str, list[float]] = {}
    counts: dict[tuple[int, bool], dict] = {}
    attempted = failed = 0
    reference: list[float] = []
    start = time.perf_counter()
    while attempted < workload.size * period or time.perf_counter() - start < seconds:
        index = (attempted // period) % workload.size
        traced = rec.tracing and attempted % 2 == 1
        rec.op = f"op-{attempted}"
        out = OpRecord()
        gc.collect()
        _top_up(reference, start)
        gc_before = rec.gc_seconds
        attempted += 1
        try:
            op_s = workload.op(index, rec, out, traced)
            if counts.setdefault((index, traced), out.counts) != out.counts:
                raise CheckFailed("outputs differ from an earlier operation "
                                  "on the same input")
        except Exception as exc:  # any failure of one operation is counted
            failed += 1
            errors.append(f"{rec.op} (input {index}): {exc!r}")
            traceback.print_exc(file=sys.stderr)
            continue
        out.time("trace.op_s" if traced else "op_s", op_s)
        if traced:
            out.time("gc.pause_s", rec.gc_seconds - gc_before)
        for name, values in out.times.items():
            samples.setdefault(name, []).extend(values)
    _top_up(reference, start)
    samples["reference_s"] = reference
    elapsed = time.perf_counter() - start

    extra: dict = {}
    if rec.tracing:
        rec.op = "finish"
        out = OpRecord()
        gc.collect()
        try:
            workload.finish(rec, out)
        except Exception as exc:
            errors.append(f"finish: {exc!r}")
            traceback.print_exc(file=sys.stderr)
        for name, values in out.times.items():
            samples.setdefault(name, []).extend(values)
        extra = out.counts
    for index in range(workload.size):
        plain, traced = counts.get((index, False), {}), counts.get((index, True), {})
        if any(traced.get(name, value) != value for name, value in plain.items()):
            errors.append(f"input {index}: traced and plain operations disagree")
    return {
        "setup_s": setup_s, "stages": stages, "samples": samples,
        "plain": totals(counts, False, workload.size),
        "traced": {**totals(counts, True, workload.size), **extra},
        "attempted": attempted, "failed": failed, "errors": errors,
        "loop_s": elapsed,
    }


def _end_to_end(result: dict) -> tuple[dict, dict]:
    samples, plain = result["samples"], result["plain"]
    reference = statistics.median(samples["reference_s"])
    values = {
        "setup_s": statistics.median(result["setup_s"]),
        "op_ref": statistics.median(samples["op_s"]) / reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "constrained_r_count": plain["constrained_r_count"],
        "constrained_wsc": plain["constrained_wsc"],
    }
    extra: dict = {}
    for name in ("op_s", "constrained_s", "reference_s", "crm_s", "cli_mine_s",
                 "oracle_s"):
        if name in samples:
            extra[name] = {"value": statistics.median(samples[name]), "unit": "s",
                           "samples": len(samples[name])}
    for name in ("constrained_s", "crm_s"):
        tail = _tail(samples.get(name, []))
        if tail:
            extra[name[:-2] + "_tail_s"] = tail
    for name in ("crm_r_count", "crm_wsc", "oracle_r_count"):
        if name in plain:
            extra[name] = {"value": plain[name], "unit": "count"}
    if "cli_accuracy" in plain:
        extra["cli_accuracy"] = {"value": plain["cli_accuracy"], "unit": "ratio"}
    return values, extra


def _per_layer(result: dict) -> dict:
    samples, traced = result["samples"], result["traced"]
    values = {name: 0 for name in PER_LAYER}  # 0: the workload does not run it
    for name, series in {**result["stages"], **samples}.items():
        if name in PER_LAYER:
            values[name] = statistics.median(series)
    for name, value in traced.items():
        if name in PER_LAYER:
            values[name] = value
    for algo, roles_in in (("constrained", "constrained.split_roles"),
                           ("crm", "crm.iterations")):
        if traced.get(roles_in):
            values[f"lattice.removal_ratio_{algo}"] = (
                traced[f"lattice.removed_{algo}"] / traced[roles_in])
    if "trace.op_s" in samples and "op_s" in samples:
        values["trace.overhead_s"] = (
            values["trace.op_s"] - statistics.median(samples["op_s"]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from spans import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    seed = args.seed % (1 << 64)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    rec = Recorder(tracing=bool(args.trace))
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as workdir:
            workload = WORKLOADS[args.workload](seed, Path(workdir))
            result = run(workload, rec, args.seconds)
    finally:
        rec.close()

    correct = result["failed"] == 0 and not result["errors"]
    info: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups": len(result["setup_s"]), "loop_s": result["loop_s"],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": _commit(), "errors": result["errors"][:20],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = {n: {"value": v, "unit": PER_LAYER[n]}
                   for n, v in _per_layer(result).items()}
        rec.write(out_dir / f"{stem}.spans.jsonl")
        info["spans"] = str(Path(".bench_out") / f"{stem}.spans.jsonl")
    else:
        values, extra = _end_to_end(result) if correct else ({}, {})
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}
        info["workload_metrics"] = extra
        info["sha256"] = {k: v for k, v in result["plain"].items()
                          if k.startswith("sha256.")}
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(
        json.dumps({**line, "info": info}, indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
