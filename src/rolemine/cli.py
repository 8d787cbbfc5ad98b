"""Command-line front end: generate datasets, mine, compare.

Exit codes: 0 success, 1 input or data error, 2 usage error.  Reports go to
stdout, logs to stderr, and every command is deterministic for a fixed flag
set (timing fields excepted; they are wall-clock by design).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from pathlib import Path

from .constrained import mine_constrained
from .crm import mine_crm
from .datasets import (
    GeneratorParams,
    ParseError,
    generate,
    names_are_indices,
    parse_catalog,
    parse_dense,
    parse_sparse,
    relabel_catalog,
    serialize_catalog,
    serialize_decomposition,
    serialize_dense,
    serialize_sparse,
)
from .metrics import MetricsReport, measure, role_lower_bound
from .model import Decomposition, MiningConfig, RoleMiningError
from .oracle import optimal_role_count

_MINERS = {"constrained": mine_constrained, "crm": mine_crm}

COMPARE_HEADER = [
    "dataset",
    "algorithm",
    "k",
    "r_count",
    "ua_size",
    "pa_size",
    "wsc",
    "accuracy",
    "distance",
    "elapsed_ms",
    "seed",
]


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_text(path: str) -> str:
    """A file's text, without a leading byte-order mark; bytes that are not
    UTF-8 are a data error.  The mark is dropped after decoding, since the
    "utf-8-sig" codec would count an error's byte from after the mark."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        data = Path(path).read_bytes()
        raise ParseError(
            data.count(b"\n", 0, exc.start) + 1,
            f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})",
        ) from None


def _paths_clash(writes: dict[str, str], reads: dict[str, str | None]) -> bool:
    """Log and return True when a file to write, named by flag, is another
    one to write or one to read (unset reads are None); run before any input
    is read, so a clash leaves every file as it was."""
    seen = {os.path.realpath(path): flag for flag, path in reads.items() if path}
    for flag, path in writes.items():
        other = seen.setdefault(os.path.realpath(path), flag)
        if other != flag:
            _log(f"error: {other} and {flag} name one file; they must differ")
            return True
    return False


def _load_matrix(path: str, fmt: str):
    text = _read_text(path)
    if fmt == "sparse":
        result = parse_sparse(text)
        return result.matrix, result
    return parse_dense(text), None


def _mine(
    name, upa, truth, algo, k, seed, lattice
) -> tuple[Decomposition, MetricsReport]:
    """Mine one matrix with one algorithm; the decomposition and its report,
    timed over the miner alone."""
    cfg = MiningConfig(max_perms_per_role=k, seed=seed)
    start = time.perf_counter()
    d = _MINERS[algo](upa, cfg, lattice=lattice)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = measure(
        upa, d, cfg, truth=truth, elapsed_ms=elapsed_ms, algorithm=algo, dataset=name
    )
    return d, report


def cmd_mine(args: argparse.Namespace) -> int:
    names_path = args.output + ".names.json"
    writes = {"--output": args.output, "--metrics": args.metrics,
              "<output>.names.json": names_path}
    if _paths_clash(writes, {"--input": args.input, "--truth": args.truth}):
        return 2
    upa, sparse_result = _load_matrix(args.input, args.format)
    truth = None
    if args.truth:
        truth = parse_catalog(_read_text(args.truth))
        if sparse_result is not None:
            truth = relabel_catalog(truth, sparse_result.perm_names)
        else:
            outside = [p for role in truth for p in role if not 0 <= p < upa.n_perms]
            if outside:
                _log(
                    f"error: truth permission p{min(outside)} is outside the "
                    f"{upa.n_perms} permissions of the dense input"
                )
                return 1
    d, report = _mine(
        args.input, upa, truth, args.algo, args.k, args.seed, not args.no_lattice
    )
    _write_text(args.output, serialize_decomposition(d))
    payload = json.dumps(report.to_json_dict(), indent=2) + "\n"
    _write_text(args.metrics, payload)
    if sparse_result is not None and not (
        names_are_indices(sparse_result.user_names)
        and names_are_indices(sparse_result.perm_names)
    ):
        names = {
            "users": list(sparse_result.user_names),
            "perms": list(sparse_result.perm_names),
        }
        _write_text(names_path, json.dumps(names, indent=2) + "\n")
    else:  # a stale sidecar would name tokens this input does not have
        Path(names_path).unlink(missing_ok=True)
    _log(
        f"{args.algo}: {report.r_count} roles, |UA|={report.ua_size}, "
        f"|PA|={report.pa_size}, {report.elapsed_ms:.1f} ms, "
        f"lower bound {role_lower_bound(upa, args.k)}"
    )
    sys.stdout.write(payload)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if _paths_clash({"--out-upa": args.out_upa, "--out-truth": args.out_truth}, {}):
        return 2
    params = GeneratorParams(
        n_users=args.n_users,
        n_perms=args.n_perms,
        n_roles=args.n_roles,
        max_roles_per_user=args.max_roles_per_user,
        max_perms_per_role=args.max_perms_per_role,
        seed=args.seed,
    )
    upa, truth = generate(params)
    if args.format == "sparse":
        _write_text(args.out_upa, serialize_sparse(upa))
    else:
        _write_text(args.out_upa, serialize_dense(upa))
    _write_text(args.out_truth, serialize_catalog(truth))
    summary = {
        "n_users": upa.n_users,
        "n_perms": upa.n_perms,
        "truth_roles": len(truth),
        "cells": upa.cell_count(),
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


def _parse_gen_spec(spec: str, seed: int) -> GeneratorParams:
    fields = {}
    for part in spec.split(","):
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"bad gen-spec entry {part!r} (want key=value)")
        key = key.strip()
        if key in fields:
            raise ValueError(f"gen-spec key {key!r} is given twice")
        fields[key] = int(value)
    try:
        return GeneratorParams(seed=seed, **fields)
    except TypeError:
        raise ValueError(
            "gen-spec keys must be n_users, n_perms, n_roles, "
            "max_roles_per_user, max_perms_per_role"
        ) from None


def _compare_cell(name, upa, truth, algo, k, seed, lattice) -> list[str]:
    _, report = _mine(name, upa, truth, algo, k, seed, lattice)
    values = report.to_json_dict()
    return ["" if values[f] is None else str(values[f]) for f in COMPARE_HEADER]


def cmd_compare(args: argparse.Namespace) -> int:
    if _paths_clash({"--out": args.out}, {"--input": args.input}):
        return 2
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        _log("error: --algos names no algorithm")
        return 2
    for algo in algos:
        if algo not in _MINERS:
            _log(f"error: unknown algorithm {algo!r}")
            return 2
    if args.gen_spec is None:
        upa, _ = _load_matrix(args.input, args.format)
        name, truth = args.input, None
    else:
        params = _parse_gen_spec(args.gen_spec, args.seed)
        upa, truth = generate(params)
        name = args.gen_spec
    rows = [
        _compare_cell(name, upa, truth, algo, k, args.seed, not args.no_lattice)
        for algo in algos
        for k in args.k_list
    ]
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(COMPARE_HEADER)
    out.writerows(rows)
    text = buf.getvalue()
    _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    upa, _ = _load_matrix(args.input, args.format)
    count, witness = optimal_role_count(upa, args.k)
    sys.stdout.write(f"optimal_r_count: {count}\n")
    sys.stdout.write(serialize_decomposition(witness))
    return 0


def _int_rule(rule: str, holds):
    """An argparse type: an int for which `holds` is true, else a usage
    error reading `rule`, raised while the arguments are parsed, before any
    file is read."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    return parse


_K = _int_rule("k must be >= 1", lambda k: k >= 1)
_JOBS = _int_rule("jobs must be >= 1", lambda jobs: jobs >= 1)
_SEED = _int_rule(
    "seed must be a 64-bit unsigned integer", lambda seed: 0 <= seed < 1 << 64
)


def _path(text: str) -> str:
    """An argparse type: a file path, which must not be empty, as the empty
    path would name the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("the path must not be empty")
    return text


def _k_list(text: str) -> list[int]:
    """An argparse type: comma-separated values of --k, at least one."""
    k_list = [_K(x) for x in text.split(",") if x.strip()]
    if not k_list:
        raise argparse.ArgumentTypeError("no k given")
    return k_list


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rolemine",
        description="Mine RBAC roles under a max-permissions-per-role constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine one dataset with one algorithm")
    mine.add_argument("--algo", required=True, choices=sorted(_MINERS))
    mine.add_argument("--k", required=True, type=_K)
    mine.add_argument("--input", required=True, type=_path)
    mine.add_argument("--format", choices=("sparse", "dense"), default="sparse")
    mine.add_argument("--output", required=True, type=_path)
    mine.add_argument("--metrics", required=True, type=_path)
    mine.add_argument("--truth", type=_path)
    mine.add_argument("--no-lattice", action="store_true")
    mine.add_argument("--seed", type=_SEED, default=0)
    mine.set_defaults(func=cmd_mine)

    gen = sub.add_parser("gen", help="generate a synthetic dataset with ground truth")
    gen.add_argument("--n-users", required=True, type=int)
    gen.add_argument("--n-perms", required=True, type=int)
    gen.add_argument("--n-roles", required=True, type=int)
    gen.add_argument("--max-roles-per-user", required=True, type=int)
    gen.add_argument("--max-perms-per-role", required=True, type=int)
    gen.add_argument("--seed", type=_SEED, default=0)
    gen.add_argument("--format", choices=("sparse", "dense"), default="sparse")
    gen.add_argument("--out-upa", required=True, type=_path)
    gen.add_argument("--out-truth", required=True, type=_path)
    gen.set_defaults(func=cmd_gen)

    comp = sub.add_parser("compare", help="run algorithms side by side, emit CSV")
    source = comp.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=_path)
    source.add_argument("--gen-spec")
    comp.add_argument("--format", choices=("sparse", "dense"), default="sparse")
    comp.add_argument("--k-list", required=True, type=_k_list)
    comp.add_argument("--algos", default="constrained,crm")
    comp.add_argument("--out", required=True, type=_path)
    comp.add_argument("--no-lattice", action="store_true")
    comp.add_argument("--seed", type=_SEED, default=0)
    # Kept for compatibility: cells run in order, as threads were slower.
    comp.add_argument("--jobs", type=_JOBS, default=1)
    comp.set_defaults(func=cmd_compare)

    orc = sub.add_parser("oracle", help="exact optimum for tiny instances")
    orc.add_argument("--input", required=True, type=_path)
    orc.add_argument("--format", choices=("sparse", "dense"), default="sparse")
    orc.add_argument("--k", required=True, type=_K)
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # ParseError is a RoleMiningError; so is UndefinedMetricError, which is
    # also a ValueError but a data error.
    except (OSError, RoleMiningError) as exc:
        _log(f"error: {exc}")
        return 1
    except ValueError as exc:
        _log(f"error: {exc}")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
