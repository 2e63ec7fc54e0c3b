"""Fleet rollup: merge run ledgers into benchmark-style tables.

``python -m repro report <job_dir|ledger_dir>`` lands here.  The
input is any directory holding ledger files — a sharded job directory
(whose workers default the ledger on under ``<job>/ledger/``), a
service data directory, or a bare ledger directory — and the output is
the accounting the ROADMAP's benchmark tables use everywhere else:

* per-algorithm / per-scenario latency percentiles (p50/p90/max over
  *executed* records — cache replays are counted separately, never
  mixed into solve latency);
* cache-hit and retry rates;
* specs/sec per worker (``hostname:pid``);
* a dead-letter summary, from ``failed/`` quarantine files when the
  directory is a job dir, falling back to failed ledger records;
* ledger-driven retry advice: flaky-recovery vs poison rates per
  algorithm/scenario and a suggested ``FailurePolicy(retries=…)``
  sized to the worst observed recovery depth.

The rollup reads only observational data and is itself observational:
nothing here feeds back into results or fingerprints.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.telemetry.ledger import read_ledger_rows

__all__ = ["find_ledger_dir", "format_report", "rollup"]

#: Ledger subdirectory convention shared with the cluster worker and
#: the service (duplicated as a constant to keep this module importable
#: without the cluster layer).
LEDGER_SUBDIR = "ledger"


def find_ledger_dir(path: str | Path) -> Path:
    """Resolve a report target: a job/data dir or a ledger dir itself.

    A directory containing a ``ledger/`` subdirectory reports on that
    (the job-dir and service-data-dir convention); anything else is
    treated as the ledger directory directly.
    """
    root = Path(path)
    nested = root / LEDGER_SUBDIR
    if nested.is_dir():
        return nested
    return root


def _percentile(values: list[float], quantile: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample."""
    rank = max(0, min(len(values) - 1, int(round(quantile * (len(values) - 1)))))
    return values[rank]


def _group_key(row: dict[str, Any]) -> str:
    algorithm = row.get("algorithm") or "?"
    scenario = row.get("scenario")
    return f"{algorithm} [{scenario}]" if scenario else str(algorithm)


def rollup(path: str | Path) -> dict[str, Any]:
    """Merge a directory's ledgers into one JSON-safe accounting dict.

    Multiple records of one fingerprint (a worker died after recording
    but before publishing, so a reclaimer re-ran the spec) are all
    counted — the rollup describes *work performed*, not distinct
    specs; ``specs_distinct`` carries the deduplicated count.
    """
    root = Path(path)
    ledger_dir = find_ledger_dir(root)
    rows = read_ledger_rows(ledger_dir)
    runs = [row for row in rows if row.get("kind") == "run"]
    spans = [row for row in rows if row.get("kind") == "span"]

    by_group: dict[str, dict[str, Any]] = {}
    workers: dict[str, dict[str, float]] = {}
    executed = cache_hits = failed = retried = extra_attempts = 0
    fingerprints: set[str] = set()
    environments: dict[str, dict[str, Any]] = {}

    for row in runs:
        disposition = row.get("disposition")
        observed = row.get("observed") or {}
        fingerprints.add(str(row.get("fingerprint")))
        group = by_group.setdefault(
            _group_key(row),
            {
                "runs": 0,
                "executed": 0,
                "cache_hits": 0,
                "failed": 0,
                "retried": 0,
                "rounds_max": 0,
                "_latencies": [],
            },
        )
        group["runs"] += 1
        attempts = row.get("attempts")
        if isinstance(attempts, int) and attempts > 1:
            retried += 1
            extra_attempts += attempts - 1
            group["retried"] += 1
        rounds = row.get("rounds")
        if isinstance(rounds, int):
            group["rounds_max"] = max(group["rounds_max"], rounds)
        wall = observed.get("wall_clock_s")
        if disposition in ("executed", "failed"):
            executed += 1
            key = "failed" if disposition == "failed" else "executed"
            group[key] += 1
            if disposition == "failed":
                failed += 1
            worker = str(observed.get("worker"))
            stats = workers.setdefault(
                worker, {"executed": 0, "wall_clock_s": 0.0}
            )
            stats["executed"] += 1
            if isinstance(wall, (int, float)) and not isinstance(wall, bool):
                stats["wall_clock_s"] += float(wall)
                group["_latencies"].append(float(wall))
        elif disposition in ("cache_memory", "cache_disk", "coalesced"):
            cache_hits += 1
            group["cache_hits"] += 1
        env = observed.get("environment")
        if isinstance(env, dict):
            # One entry per interpreter/host flavor, not per process.
            flavor = {
                key: value for key, value in env.items() if key != "pid"
            }
            environments.setdefault(
                "|".join(f"{k}={flavor[k]}" for k in sorted(flavor)), flavor
            )

    by_algorithm: dict[str, Any] = {}
    for key, group in sorted(by_group.items()):
        latencies = sorted(group.pop("_latencies"))
        group["latency_s"] = (
            {
                "p50": round(_percentile(latencies, 0.50), 6),
                "p90": round(_percentile(latencies, 0.90), 6),
                "max": round(latencies[-1], 6),
                "mean": round(sum(latencies) / len(latencies), 6),
            }
            if latencies
            else None
        )
        by_algorithm[key] = group

    for worker, stats in workers.items():
        wall = stats["wall_clock_s"]
        stats["specs_per_s"] = (
            round(stats["executed"] / wall, 3) if wall > 0 else None
        )
        stats["wall_clock_s"] = round(wall, 6)

    resolutions = executed + cache_hits

    # Retry advice: split terminal records into flaky recoveries
    # (executed, but only after retries — a retry budget *helped*) and
    # poison (failed every attempt — no budget would have helped).
    # The suggested budget is the worst observed recovery depth.
    advice_groups: dict[str, dict[str, Any]] = {}
    for row in runs:
        disposition = row.get("disposition")
        if disposition not in ("executed", "failed"):
            continue
        attempts = row.get("attempts")
        attempts = (
            attempts
            if isinstance(attempts, int) and not isinstance(attempts, bool)
            else 1
        )
        entry = advice_groups.setdefault(
            _group_key(row),
            {
                "terminal": 0,
                "flaky_recoveries": 0,
                "poison": 0,
                "retries_needed": 0,
            },
        )
        entry["terminal"] += 1
        if disposition == "executed":
            if attempts > 1:
                entry["flaky_recoveries"] += 1
                entry["retries_needed"] = max(
                    entry["retries_needed"], attempts - 1
                )
        else:
            entry["poison"] += 1
    for entry in advice_groups.values():
        terminal = entry["terminal"]
        entry["flaky_rate"] = (
            round(entry["flaky_recoveries"] / terminal, 4) if terminal else None
        )
        entry["poison_rate"] = (
            round(entry["poison"] / terminal, 4) if terminal else None
        )
    retry_advice = {
        "by_group": dict(sorted(advice_groups.items())),
        "suggested_retries": max(
            (entry["retries_needed"] for entry in advice_groups.values()),
            default=0,
        ),
        "poison_specs": sum(
            entry["poison"] for entry in advice_groups.values()
        ),
    }

    span_names: dict[str, dict[str, float]] = {}
    for span in spans:
        name = str(span.get("name"))
        observed = span.get("observed") or {}
        entry = span_names.setdefault(name, {"count": 0, "wall_clock_s": 0.0})
        entry["count"] += 1
        wall = observed.get("wall_clock_s")
        if isinstance(wall, (int, float)) and not isinstance(wall, bool):
            entry["wall_clock_s"] = round(entry["wall_clock_s"] + wall, 9)

    return {
        "source": str(root),
        "ledger_dir": str(ledger_dir),
        "records": len(rows),
        "run_records": len(runs),
        "span_records": len(spans),
        "specs_distinct": len(fingerprints),
        "by_algorithm": by_algorithm,
        "cache": {
            "hits": cache_hits,
            "executions": executed,
            "hit_rate": (
                round(cache_hits / resolutions, 4) if resolutions else None
            ),
        },
        "retries": {
            "specs_retried": retried,
            "extra_attempts": extra_attempts,
            "retry_rate": (
                round(retried / len(runs), 4) if runs else None
            ),
        },
        "retry_advice": retry_advice,
        "failures": {
            "failed_records": failed,
            "dead_letters": _dead_letter_summary(root),
        },
        "workers": dict(sorted(workers.items())),
        "spans": dict(sorted(span_names.items())),
        "environments": sorted(
            environments.values(), key=lambda env: sorted(env.items())
        ),
    }


def _dead_letter_summary(root: Path) -> list[dict[str, Any]]:
    """Quarantined failures when the target is a job directory.

    Reported per dead letter: fingerprint, error type, attempts.  A
    directory with no ``failed/`` quarantine (a bare ledger dir, a
    service data dir) reports an empty list — the failed ledger
    records above still carry the failure counts.
    """
    from repro.api.diskcache import read_json

    directory = root / "failed"
    if not directory.is_dir():
        return []
    letters = []
    for path in sorted(directory.glob("*.json")):
        payload = read_json(path)
        if not isinstance(payload, dict):
            continue
        result = payload.get("result")
        result = result if isinstance(result, dict) else {}
        failure = result.get("failure")
        failure = failure if isinstance(failure, dict) else {}
        letters.append(
            {
                "fingerprint": path.stem,
                "error_type": failure.get("error_type"),
                "attempts": failure.get("attempts"),
            }
        )
    return letters


def format_report(summary: dict[str, Any]) -> str:
    """Render a rollup as the aligned tables the benchmarks use."""
    from repro.analysis.tables import format_table

    blocks: list[str] = [
        f"ledger: {summary['ledger_dir']}",
        f"records: {summary['records']} "
        f"({summary['run_records']} runs, {summary['span_records']} spans; "
        f"{summary['specs_distinct']} distinct specs)",
    ]
    rows = []
    for key, group in summary["by_algorithm"].items():
        latency = group["latency_s"] or {}
        rows.append(
            [
                key,
                group["runs"],
                group["executed"],
                group["cache_hits"],
                group["failed"],
                group["retried"],
                latency.get("p50", "-"),
                latency.get("p90", "-"),
                latency.get("max", "-"),
                group["rounds_max"],
            ]
        )
    if rows:
        blocks.append(
            format_table(
                [
                    "algorithm [scenario]",
                    "runs",
                    "executed",
                    "cache",
                    "failed",
                    "retried",
                    "p50 (s)",
                    "p90 (s)",
                    "max (s)",
                    "rounds",
                ],
                rows,
                title="per-algorithm / per-scenario",
            )
        )
    cache = summary["cache"]
    retries = summary["retries"]
    blocks.append(
        format_table(
            ["metric", "value"],
            [
                ["cache hits", cache["hits"]],
                ["executions", cache["executions"]],
                ["cache hit rate", cache["hit_rate"]],
                ["specs retried", retries["specs_retried"]],
                ["extra attempts", retries["extra_attempts"]],
                ["retry rate", retries["retry_rate"]],
                ["failed records", summary["failures"]["failed_records"]],
                ["dead letters", len(summary["failures"]["dead_letters"])],
            ],
            title="cache / retry",
        )
    )
    advice = summary.get("retry_advice") or {}
    suggested = advice.get("suggested_retries", 0)
    poison = advice.get("poison_specs", 0)
    if suggested:
        recovered = sum(
            entry["flaky_recoveries"]
            for entry in advice.get("by_group", {}).values()
        )
        blocks.append(
            f"retry advice: {recovered} flaky spec(s) recovered within "
            f"{suggested} retr{'y' if suggested == 1 else 'ies'} — "
            f"suggested FailurePolicy(retries={suggested})"
        )
        if poison:
            blocks[-1] += (
                f"; {poison} poison spec(s) failed every attempt "
                "(no budget helps — fix, then `repro shard retry-failed`)"
            )
    elif poison:
        blocks.append(
            f"retry advice: {poison} poison spec(s) failed every attempt "
            "and nothing recovered on retry — raising retries won't help; "
            "fix the cause, then `repro shard retry-failed`"
        )
    if summary["workers"]:
        blocks.append(
            format_table(
                ["worker", "executed", "wall-clock (s)", "specs/s"],
                [
                    [
                        worker,
                        stats["executed"],
                        stats["wall_clock_s"],
                        stats["specs_per_s"] if stats["specs_per_s"] is not None else "-",
                    ]
                    for worker, stats in summary["workers"].items()
                ],
                title="throughput per worker",
            )
        )
    if summary["spans"]:
        blocks.append(
            format_table(
                ["span", "count", "wall-clock (s)"],
                [
                    [name, entry["count"], entry["wall_clock_s"]]
                    for name, entry in summary["spans"].items()
                ],
                title="spans",
            )
        )
    for letter in summary["failures"]["dead_letters"]:
        blocks.append(
            f"dead letter {letter['fingerprint'][:12]}: "
            f"{letter['error_type']} after {letter['attempts']} attempts"
        )
    return "\n\n".join(blocks)

