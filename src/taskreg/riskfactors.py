"""Per-task feature rankings and their multi-level aggregation.

Features are ranked within each task by the magnitude of the fitted
weight. Rankings roll up three ways: population level (how many tasks
share a feature in their top-k), cluster level (which cluster subsets
share it), and a voting merge that fuses rankings from several
single-task baselines into one list.

Every tie anywhere is broken by ascending feature index so that reports
are reproducible byte for byte.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .dataset import write_json, write_rows

_LEVELS = ("task", "cluster", "population")


@dataclass(frozen=True)
class RankedFactor:
    """One feature in a task's ranking; rank is 1-based."""

    feature_name: str
    score: float
    rank: int


@dataclass(frozen=True)
class RiskReport:
    """Risk-factor rankings at the levels that were requested.

    Levels that were not requested are None. ``per_cluster`` maps a
    tuple of cluster ids (the set of clusters sharing the features) to
    the features shared by exactly that set; insertion order is largest
    subset first.
    """

    top_k: int
    per_task: dict[str, tuple[RankedFactor, ...]] | None = None
    population: tuple[tuple[str, int], ...] | None = None
    per_cluster: dict[tuple[int, ...], tuple[str, ...]] | None = None
    categories: dict[str, str] | None = None
    assignments: tuple[int, ...] | None = None
    task_labels: tuple[str, ...] = field(default=())


def rank_task_rfs(weights, feature_names, task_index: int, top_k: int) -> list[RankedFactor]:
    """Top ``top_k`` features of one task by absolute weight.

    Sorted by |weight| descending; equal scores fall back to ascending
    feature index. Scores are the absolute weights themselves.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    n_tasks, n_features = weights.shape
    if len(feature_names) != n_features:
        raise ValueError(
            f"{len(feature_names)} feature names for {n_features} weight columns"
        )
    if not 0 <= task_index < n_tasks:
        raise IndexError(f"task_index {task_index} out of range [0, {n_tasks})")
    if not 1 <= top_k <= n_features:
        raise ValueError(f"top_k must be in [1, {n_features}], got {top_k}")
    scores = np.abs(weights[task_index])
    order = np.argsort(-scores, kind="stable")
    return [
        RankedFactor(feature_name=feature_names[j], score=float(scores[j]), rank=r + 1)
        for r, j in enumerate(order[:top_k])
    ]


def _name_of(entry) -> str:
    return entry.feature_name if isinstance(entry, RankedFactor) else str(entry)


def _feature_lists(per_task_top) -> list[list[str]]:
    """Normalize a per-task container to name lists in task order."""
    if isinstance(per_task_top, Mapping):
        rows = list(per_task_top.values())
    else:
        rows = list(per_task_top)
    return [[_name_of(e) for e in row] for row in rows]


def aggregate_population(per_task_top, feature_names) -> list[tuple[str, int]]:
    """Count, per feature, how many tasks list it in their top-k.

    Accepts a mapping or sequence of per-task rankings (names or
    RankedFactor entries). Output is sorted by share count descending
    with ties in ascending feature index, and is independent of task
    order.
    """
    index = {name: j for j, name in enumerate(feature_names)}
    counts: dict[str, int] = {}
    for row in _feature_lists(per_task_top):
        for name in set(row):
            if name not in index:
                raise ValueError(f"unknown feature name {name!r}")
            counts[name] = counts.get(name, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], index[item[0]]))


def aggregate_cluster_level(
    per_task_top, assignments, feature_names
) -> dict[tuple[int, ...], tuple[str, ...]]:
    """Group features by the exact set of clusters that share them.

    A feature belongs to a cluster when at least one member task lists
    it. Groups are emitted with the largest cluster subsets first
    (fully shared features on top, cluster-specific ones last); equal
    sizes order lexicographically, and features inside a group keep
    ascending index order.
    """
    rows = _feature_lists(per_task_top)
    assignments = [int(a) for a in assignments]
    if len(rows) != len(assignments):
        raise ValueError(
            f"{len(rows)} task rankings but {len(assignments)} cluster assignments"
        )
    index = {name: j for j, name in enumerate(feature_names)}
    clusters_of: dict[str, set[int]] = {}
    for row, cluster in zip(rows, assignments):
        for name in row:
            if name not in index:
                raise ValueError(f"unknown feature name {name!r}")
            clusters_of.setdefault(name, set()).add(cluster)
    groups: dict[tuple[int, ...], list[str]] = {}
    for name, members in clusters_of.items():
        groups.setdefault(tuple(sorted(members)), []).append(name)
    ordered = sorted(groups.items(), key=lambda item: (-len(item[0]), item[0]))
    return {key: tuple(sorted(names, key=index.get)) for key, names in ordered}


def vote_merge_stl(rankings, feature_names, top_k: int) -> list[str]:
    """Merge several rankings into one list by per-rank plurality vote.

    At rank position r the methods vote with their r-th features;
    features already picked are excluded, and when every vote at r is
    already taken (or the rankings are shorter than r) each method
    falls back to its highest-ranked unpicked feature. The plurality
    winner is appended, with ties resolved by ascending feature index.
    """
    rankings = [[_name_of(e) for e in r] for r in rankings]
    if not rankings:
        raise ValueError("need at least one ranking to merge")
    index = {name: j for j, name in enumerate(feature_names)}
    for row in rankings:
        for name in row:
            if name not in index:
                raise ValueError(f"unknown feature name {name!r}")
        if len(set(row)) != len(row):
            raise ValueError("a ranking contains duplicate features")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    picked: list[str] = []
    taken: set[str] = set()
    limit = min(top_k, len(feature_names))
    for position in range(top_k):
        if len(picked) >= limit:
            break
        votes = [
            row[position]
            for row in rankings
            if position < len(row) and row[position] not in taken
        ]
        if not votes:
            for row in rankings:
                for name in row:
                    if name not in taken:
                        votes.append(name)
                        break
        if not votes:
            break
        tally: dict[str, int] = {}
        for name in votes:
            tally[name] = tally.get(name, 0) + 1
        winner = min(tally, key=lambda name: (-tally[name], index[name]))
        picked.append(winner)
        taken.add(winner)
    return picked


def build_report(
    weights,
    feature_names,
    task_labels,
    *,
    top_k: int = 10,
    levels=("task", "population"),
    assignments=None,
    categories: dict[str, str] | None = None,
) -> RiskReport:
    """Assemble a RiskReport for the requested aggregation levels.

    The cluster level needs per-task cluster ``assignments`` (from a
    clustered model). ``categories`` is an optional feature-to-category
    map echoed into the report untouched.
    """
    levels = tuple(levels)
    for level in levels:
        if level not in _LEVELS:
            raise ValueError(f"unknown level {level!r}; expected subset of {_LEVELS}")
    if not levels:
        raise ValueError("need at least one level")
    if "cluster" in levels and assignments is None:
        raise ValueError("the cluster level requires a cmtl model's cluster assignments")

    weights = np.asarray(weights, dtype=np.float64)
    task_labels = tuple(task_labels)
    feature_names = tuple(feature_names)
    tops = {
        label: tuple(rank_task_rfs(weights, feature_names, t, top_k))
        for t, label in enumerate(task_labels)
    }
    per_task = tops if "task" in levels else None
    population = (
        tuple(aggregate_population(tops, feature_names))
        if "population" in levels
        else None
    )
    per_cluster = None
    kept_assignments = None
    if "cluster" in levels:
        per_cluster = aggregate_cluster_level(tops, assignments, feature_names)
        kept_assignments = tuple(int(a) for a in assignments)
    return RiskReport(
        top_k=top_k,
        per_task=per_task,
        population=population,
        per_cluster=per_cluster,
        categories=dict(categories) if categories else None,
        assignments=kept_assignments,
        task_labels=task_labels,
    )


def report_to_dict(report: RiskReport) -> dict:
    """JSON-ready dict; key order is fixed so dumps are reproducible."""
    out: dict = {"top_k": report.top_k}
    if report.per_task is not None:
        out["per_task"] = {
            label: [
                {"feature": f.feature_name, "score": f.score, "rank": f.rank}
                for f in factors
            ]
            for label, factors in report.per_task.items()
        }
    if report.population is not None:
        out["population"] = [
            {"feature": name, "share_count": count} for name, count in report.population
        ]
    if report.per_cluster is not None:
        out["per_cluster"] = [
            {"clusters": list(key), "features": list(names)}
            for key, names in report.per_cluster.items()
        ]
    if report.assignments is not None:
        out["assignments"] = {
            label: cluster
            for label, cluster in zip(report.task_labels, report.assignments)
        }
    if report.categories is not None:
        out["categories"] = dict(sorted(report.categories.items()))
    return out


def write_report_json(report: RiskReport, path) -> None:
    write_json(report_to_dict(report), path)


def write_report_csv(report: RiskReport, path) -> None:
    """Flat CSV with one row per (level, group, feature), in the dialect of :func:`write_rows`.

    Columns are level, group, feature, value; value holds the score at
    task level, the share count at population level, and the subset
    size at cluster level. A category column is appended when the
    report carries a category map.
    """
    rows = [["level", "group", "feature", "value"]]
    if report.per_task is not None:
        for label, factors in report.per_task.items():
            rows += (["task", label, f.feature_name, repr(f.score)] for f in factors)
    if report.per_cluster is not None:
        for key, names in report.per_cluster.items():
            group = "+".join(str(c) for c in key)
            rows += (["cluster", group, name, len(key)] for name in names)
    if report.population is not None:
        rows += (["population", "", name, count] for name, count in report.population)
    if report.categories is not None:
        rows[0].append("category")
        for row in rows[1:]:
            row.append(report.categories.get(row[2], ""))
    write_rows(rows, path)
