"""Shared harness for the reproduction benches.

Every ``bench_*`` module that publishes numbers does it the same way:
a ``BENCH_N.json`` at the repository root, written deterministically
(sorted keys, trailing newline) with a ``machine`` block so archived
runs say where they came from.  Timing comparisons use interleaved
paired sampling — the two configurations are measured back to back
within each repeat so machine drift (frequency scaling, noisy
neighbors) hits both equally instead of biasing whichever ran first.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Callable, Dict, Tuple

#: Repository root — bench artifacts live next to README.md.
REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir)


def bench_json_path(filename: str) -> str:
    """Absolute path of a ``BENCH_N.json`` artifact at the repo root."""
    return os.path.join(REPO_ROOT, filename)


def machine_info() -> Dict[str, object]:
    """The host header embedded in every bench artifact."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def emit_bench_json(filename: str, payload: dict) -> str:
    """Write a bench payload (plus the machine header) to the repo root.

    The serialization is deterministic — ``indent=2``, sorted keys, one
    trailing newline — so reruns on the same numbers produce the same
    bytes and artifact diffs stay readable.  Returns the written path.
    """
    document = dict(payload)
    document.setdefault("machine", machine_info())
    path = bench_json_path(filename)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def paired_medians(sample_a: Callable[[], float],
                   sample_b: Callable[[], float],
                   repeats: int = 7) -> Tuple[float, float]:
    """Median of two timing samplers, interleaved A/B per repeat.

    Each repeat draws one sample from ``sample_a`` then one from
    ``sample_b`` before the next repeat starts, so slow drift in the
    machine's performance is shared between the configurations rather
    than attributed to one of them.  Returns ``(median_a, median_b)``.
    """
    a_values, b_values = [], []
    for _ in range(repeats):
        a_values.append(sample_a())
        b_values.append(sample_b())
    a_values.sort()
    b_values.sort()
    return a_values[repeats // 2], b_values[repeats // 2]


def paired_overhead_pct(sample_a: Callable[[], float],
                        sample_b: Callable[[], float],
                        repeats: int = 7,
                        ) -> Tuple[float, float, float]:
    """Median per-repeat overhead of B over A, in percent.

    :func:`paired_medians` medians each arm separately, which leaves
    slow drift *between* repeats (frequency scaling ramping over the
    run) attributed to whichever arm it coincided with.  Here the
    ratio is formed inside each interleaved repeat — the two samples
    of a pair run back to back, so drift cancels, and every other pair
    runs B first, so neither arm always pays for running second — and
    the median is taken over the per-pair overheads.  Returns
    ``(median_a, median_b, median_overhead_pct)``; the first two are
    the usual per-arm medians for rate reporting.
    """
    a_values, b_values, pcts = [], [], []
    for index in range(repeats):
        if index % 2:
            b = sample_b()
            a = sample_a()
        else:
            a = sample_a()
            b = sample_b()
        a_values.append(a)
        b_values.append(b)
        pcts.append(100.0 * (b - a) / a)
    a_values.sort()
    b_values.sort()
    pcts.sort()
    return (a_values[repeats // 2], b_values[repeats // 2],
            pcts[repeats // 2])
