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
import sys
import time
from concurrent.futures import ThreadPoolExecutor
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
from .metrics import JSON_FIELDS, measure
from .model import MiningConfig, RoleMiningError
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


def _load_matrix(path: str, fmt: str):
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "sparse":
        result = parse_sparse(text)
        return result.matrix, result
    return parse_dense(text), None


def cmd_mine(args: argparse.Namespace) -> int:
    if args.k < 1:
        _log("error: k must be >= 1")
        return 2
    upa, sparse_result = _load_matrix(args.input, args.format)
    truth = None
    if args.truth:
        truth = parse_catalog(Path(args.truth).read_text(encoding="utf-8"))
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
    cfg = MiningConfig(max_perms_per_role=args.k, seed=args.seed)
    miner = _MINERS[args.algo]
    start = time.perf_counter()
    d = miner(upa, cfg, lattice=not args.no_lattice)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = measure(
        upa,
        d,
        cfg,
        truth=truth,
        elapsed_ms=elapsed_ms,
        algorithm=args.algo,
        dataset=args.input,
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
        _write_text(args.output + ".names.json", json.dumps(names, indent=2) + "\n")
    _log(
        f"{args.algo}: {d.r_count()} roles, |UA|={d.ua_size()}, "
        f"|PA|={d.pa_size()}, {elapsed_ms:.1f} ms"
    )
    sys.stdout.write(payload)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
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
        fields[key.strip()] = int(value)
    try:
        return GeneratorParams(seed=seed, **fields)
    except TypeError:
        raise ValueError(
            "gen-spec keys must be n_users, n_perms, n_roles, "
            "max_roles_per_user, max_perms_per_role"
        ) from None


def _compare_cell(cell) -> list[str]:
    name, upa, truth, algo, k, seed, lattice = cell
    cfg = MiningConfig(max_perms_per_role=k, seed=seed)
    start = time.perf_counter()
    d = _MINERS[algo](upa, cfg, lattice=lattice)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = measure(
        upa, d, cfg, truth=truth, elapsed_ms=elapsed_ms, algorithm=algo, dataset=name
    )
    values = dict(zip(JSON_FIELDS, report.csv_values()))
    return [values[f] if f in values else "" for f in COMPARE_HEADER]


def cmd_compare(args: argparse.Namespace) -> int:
    if bool(args.input) == bool(args.gen_spec):
        _log("error: provide exactly one of --input or --gen-spec")
        return 2
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for algo in algos:
        if algo not in _MINERS:
            _log(f"error: unknown algorithm {algo!r}")
            return 2
    try:
        k_list = [int(x) for x in args.k_list.split(",") if x.strip()]
    except ValueError:
        _log(f"error: bad k list {args.k_list!r}")
        return 2
    if not k_list or any(k < 1 for k in k_list):
        _log("error: k must be >= 1")
        return 2
    if args.input:
        upa, _ = _load_matrix(args.input, args.format)
        name, truth = args.input, None
    else:
        params = _parse_gen_spec(args.gen_spec, args.seed)
        upa, truth = generate(params)
        name = args.gen_spec
    cells = [
        (name, upa, truth, algo, k, args.seed, not args.no_lattice)
        for algo in algos
        for k in k_list
    ]
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_compare_cell, cells))
    else:
        rows = [_compare_cell(c) for c in cells]
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(COMPARE_HEADER)
    out.writerows(rows)
    text = buf.getvalue()
    _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.k < 1:
        _log("error: k must be >= 1")
        return 2
    upa, _ = _load_matrix(args.input, args.format)
    count, witness = optimal_role_count(upa, args.k)
    sys.stdout.write(f"optimal_r_count: {count}\n")
    sys.stdout.write(serialize_decomposition(witness))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rolemine",
        description="Mine RBAC roles under a max-permissions-per-role constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine one dataset with one algorithm")
    mine.add_argument("--algo", required=True, choices=sorted(_MINERS))
    mine.add_argument("--k", required=True, type=int)
    mine.add_argument("--input", required=True)
    mine.add_argument("--format", choices=("sparse", "dense"), default="sparse")
    mine.add_argument("--output", required=True)
    mine.add_argument("--metrics", required=True)
    mine.add_argument("--truth")
    mine.add_argument("--no-lattice", action="store_true")
    mine.add_argument("--seed", type=int, default=0)
    mine.set_defaults(func=cmd_mine)

    gen = sub.add_parser("gen", help="generate a synthetic dataset with ground truth")
    gen.add_argument("--n-users", required=True, type=int)
    gen.add_argument("--n-perms", required=True, type=int)
    gen.add_argument("--n-roles", required=True, type=int)
    gen.add_argument("--max-roles-per-user", required=True, type=int)
    gen.add_argument("--max-perms-per-role", required=True, type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=("sparse", "dense"), default="sparse")
    gen.add_argument("--out-upa", required=True)
    gen.add_argument("--out-truth", required=True)
    gen.set_defaults(func=cmd_gen)

    comp = sub.add_parser("compare", help="run algorithms side by side, emit CSV")
    comp.add_argument("--input")
    comp.add_argument("--format", choices=("sparse", "dense"), default="sparse")
    comp.add_argument("--gen-spec")
    comp.add_argument("--k-list", required=True)
    comp.add_argument("--algos", default="constrained,crm")
    comp.add_argument("--out", required=True)
    comp.add_argument("--no-lattice", action="store_true")
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--jobs", type=int, default=1)
    comp.set_defaults(func=cmd_compare)

    orc = sub.add_parser("oracle", help="exact optimum for tiny instances")
    orc.add_argument("--input", required=True)
    orc.add_argument("--format", choices=("sparse", "dense"), default="sparse")
    orc.add_argument("--k", required=True, type=int)
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
    except ParseError as exc:
        _log(f"error: {exc}")
        return 1
    except OSError as exc:
        _log(f"error: {exc}")
        return 1
    except RoleMiningError as exc:
        _log(f"error: {exc}")
        return 1
    except ValueError as exc:
        _log(f"error: {exc}")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
