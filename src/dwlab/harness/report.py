"""Ratio statistics and deterministic report emission."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from ..dyadic import DwlabError


class ReportError(DwlabError):
    pass


def _sig12(x):
    """Round a float to 12 significant digits (stable text form)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return x
    if isinstance(x, int):
        return x
    return float(f"{x:.12g}")


def ratio_stats(values_a, values_b):
    """Elementwise a/b statistics with 0/0 pairs skipped.

    A nonzero numerator over a zero denominator is flagged as divergence
    rather than raising.
    """
    if len(values_a) != len(values_b):
        raise ReportError("ratio_stats needs equal-length lists")
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    zero = b == 0
    divergent = int(np.count_nonzero(zero & (a != 0)))
    ratios = a[~zero] / b[~zero]
    if not ratios.size:
        return {"min": None, "max": None, "median": None, "count": 0,
                "divergent": divergent}
    return {
        "min": float(np.min(ratios)),
        "max": float(np.max(ratios)),
        "median": float(np.median(ratios)),
        "count": int(ratios.size),
        "divergent": divergent,
    }


def interval_drift(intervals):
    """Max multiplicative change of ratio-interval endpoints across
    consecutive windows; 1.0 for fewer than two windows."""
    drift = 1.0
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        for a, b in ((lo1, lo2), (hi1, hi2)):
            if a is None or b is None or a == 0 or b == 0:
                continue
            drift = max(drift, a / b, b / a)
    return drift


@dataclass
class Report:
    """One experiment's outcome.

    ``wall_time`` is informational only and excluded from serialized
    output so that reports are byte-stable for a fixed seed.
    """

    name: str
    criterion: str
    windows: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    passed: bool = False
    provenance: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def to_dict(self):
        def clean(obj):
            if isinstance(obj, dict):
                return {k: clean(v) for k, v in sorted(obj.items())}
            if isinstance(obj, (list, tuple)):
                return [clean(v) for v in obj]
            return _sig12(obj)

        return {
            "name": self.name,
            "criterion": self.criterion,
            "windows": clean(self.windows),
            "stats": clean(self.stats),
            "passed": bool(self.passed),
            "provenance": clean(self.provenance),
        }


def _flat_rows(reports):
    rows = []
    for r in reports:
        for window, stats in sorted(r.stats.items()):
            if not isinstance(stats, dict):
                rows.append((r.name, window, "", _sig12(stats)))
                continue
            for key, val in sorted(stats.items()):
                rows.append((r.name, str(window), key, _sig12(val)))
    return rows


def emit_report(reports, fmt="json", path=None, seed=None):
    """Serialize reports (JSON: full structure; CSV: flat stat table)."""
    if isinstance(reports, Report):
        reports = [reports]
    if fmt == "json":
        doc = {
            "seed": seed,
            "results": [r.to_dict() for r in reports],
            "all_passed": all(r.passed for r in reports),
        }
        text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["experiment", "window", "stat", "value"])
        w.writerows(_flat_rows(reports))
        text = buf.getvalue()
    else:
        raise ReportError(f"unknown format: {fmt}")
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ReportError(f"cannot write report to {path}: {exc}") from exc
    return text
