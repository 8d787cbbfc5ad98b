"""Evaluation of decompositions: sizes, weighted complexity, truth match.

Implemented definitions (spelled out because published variants differ):

- wsc        = w_r * |R| + w_u * |UA| + w_p * |PA|, exact rationals.
- accuracy   = fraction of ground-truth roles with an exact permission-set
               match in the mined catalog.
- distance   = mean over truth roles of (1 - best Jaccard similarity
               against any mined role); 0 when every truth role is matched
               exactly, at most 1.
- elapsed_ms = wall-clock time around the mining call only, supplied by the
               caller (this module never does I/O or timing itself).
- lower bound on |R| = max over rows of ceil(|row| / k): a row needs that
               many roles of at most k permissions on its own.

A report has one serializer, `to_json_dict`, with a fixed field order; the
CSV of `rolemine compare` reads its cells from it.  Repeated runs compare
byte-for-byte (the timing field excepted, being wall-clock).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

from .model import (
    AccessMatrix,
    Decomposition,
    IncompleteDecompositionError,
    MiningConfig,
    RoleMiningError,
    is_complete,
)

@dataclass(frozen=True)
class MetricsReport:
    """One scored decomposition and the labels of its run; the field order
    is the key order of the JSON report."""

    r_count: int
    ua_size: int
    pa_size: int
    wsc: Fraction
    accuracy: Fraction | None
    distance: Fraction | None
    elapsed_ms: float
    algorithm: str = ""
    k: int = 0
    dataset: str = ""
    seed: int = 0

    def to_json_dict(self) -> dict:
        """Keys in field order; exact rationals become canonical fraction
        strings ("6", "1/2") so no precision is lost in transit."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {f: str(v) if isinstance(v, Fraction) else v for f, v in values}


class UndefinedMetricError(RoleMiningError, ValueError):
    """Accuracy or distance asked of an empty mined or truth catalog: a data
    error, not a usage error."""


def role_lower_bound(upa: AccessMatrix, k: int) -> int:
    """The fewest roles of at most k permissions any complete decomposition
    can have by the largest row alone: max over rows of ceil(|row| / k),
    0 for an empty matrix."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -(-upa.max_row_size() // k)


def jaccard(a: frozenset[int], b: frozenset[int]) -> Fraction:
    """|a & b| / |a | b| as an exact rational; 1 for two empty sets."""
    union = len(a | b)
    if union == 0:
        return Fraction(1)
    return Fraction(len(a & b), union)


def accuracy_distance(
    mined: Sequence[frozenset[int]], truth: Sequence[frozenset[int]]
) -> tuple[Fraction, Fraction]:
    """Exact-match fraction and mean best-Jaccard shortfall, truth-side."""
    mined_sets = [frozenset(s) for s in mined]
    truth_sets = [frozenset(s) for s in truth]
    if not mined_sets or not truth_sets:
        raise UndefinedMetricError(
            "accuracy/distance are undefined for empty catalogs"
        )
    mined_lookup = set(mined_sets)
    # Only a mined role sharing a permission with t can beat Jaccard 0, so
    # the mined roles are indexed by permission and counting t's
    # permissions in that index gives each sharing role its intersection.
    # A truth role matched exactly adds 0.
    holding: dict[int, list[int]] = {}
    for i, m in enumerate(mined_sets):
        for p in m:
            holding.setdefault(p, []).append(i)
    matched = 0
    total = Fraction(0)
    for t in truth_sets:
        if t in mined_lookup:
            matched += 1
            continue
        shared = Counter(i for p in t for i in holding.get(p, ()))
        best_inter, best_union = 0, 1
        for i, inter in shared.items():
            union = len(t) + len(mined_sets[i]) - inter
            if inter * best_union > best_inter * union:
                best_inter, best_union = inter, union
        total += 1 - Fraction(best_inter, best_union)
    n = len(truth_sets)
    return Fraction(matched, n), total / n


def measure(
    upa: AccessMatrix,
    d: Decomposition,
    cfg: MiningConfig,
    truth: Sequence[frozenset[int]] | None = None,
    *,
    elapsed_ms: float = 0.0,
    algorithm: str = "",
    dataset: str = "",
) -> MetricsReport:
    """Score a decomposition; refuses incomplete ones, whose numbers would
    not describe a valid role set."""
    if not is_complete(upa, d):
        raise IncompleteDecompositionError("refusing to measure an incomplete decomposition")
    r = d.r_count()
    ua = d.ua_size()
    pa = d.pa_size()
    w_r, w_u, w_p = cfg.wsc_weights
    wsc = w_r * r + w_u * ua + w_p * pa
    accuracy = distance = None
    if truth is not None:
        accuracy, distance = accuracy_distance([x.perms for x in d.roles], truth)
    return MetricsReport(
        r_count=r,
        ua_size=ua,
        pa_size=pa,
        wsc=wsc,
        accuracy=accuracy,
        distance=distance,
        elapsed_ms=elapsed_ms,
        algorithm=algorithm,
        k=cfg.max_perms_per_role,
        dataset=dataset,
        seed=cfg.seed,
    )
