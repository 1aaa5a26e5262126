"""Lookup-table controller (the paper's proposed online deployment).

Section 6.2: "one can classify the input dynamic power vector to
different categories and pre-calculate optimization solutions and store
them in a look-up table.  In this way, the desired controlling values can
be accessed immediately."  This module implements exactly that: OFTEC is
run offline for a set of representative power vectors; at run time the
observed vector is matched to its nearest representative and the stored
``(omega*, I*)`` is applied with zero optimization latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .evaluator import Evaluation, Evaluator
from .oftec import OFTECResult, run_oftec
from .problem import CoolingProblem


@dataclass
class LUTEntry:
    """One precomputed table row.

    Attributes:
        label: Representative workload name.
        feature: Normalized per-unit power vector used for matching.
        omega: Stored optimal fan speed, rad/s.
        current: Stored optimal TEC current, A.
        feasible: Whether OFTEC found the representative feasible.
    """

    label: str
    feature: np.ndarray
    omega: float
    current: float
    feasible: bool


class LookupTableController:
    """Nearest-representative lookup of precomputed OFTEC solutions."""

    def __init__(self, unit_names: Sequence[str]):
        if not unit_names:
            raise ConfigurationError("unit_names must not be empty")
        self.unit_names: List[str] = list(unit_names)
        self._entries: List[LUTEntry] = []

    @property
    def entries(self) -> List[LUTEntry]:
        """Stored rows (copy)."""
        return list(self._entries)

    def _feature(self, unit_power: Mapping[str, float]) -> np.ndarray:
        vector = np.array(
            [float(unit_power.get(name, 0.0)) for name in self.unit_names])
        if (vector < 0.0).any():
            raise ConfigurationError("Unit powers must be >= 0")
        return vector

    def add_entry(self, label: str, unit_power: Mapping[str, float],
                  omega: float, current: float,
                  feasible: bool = True) -> None:
        """Store one precomputed row: per-unit powers in W, the
        operating point as fan speed in rad/s and TEC current in A."""
        self._entries.append(LUTEntry(
            label=label, feature=self._feature(unit_power),
            omega=omega, current=current, feasible=feasible))

    def precompute(self, problem_template: CoolingProblem,
                   profiles: Mapping[str, Mapping[str, float]],
                   method: str = "slsqp",
                   ) -> Dict[str, OFTECResult]:
        """Run OFTEC offline for every representative profile.

        ``problem_template`` must carry a coverage so
        :meth:`CoolingProblem.with_profile` can retarget it.  Returns the
        full per-profile OFTEC results for inspection.
        """
        results: Dict[str, OFTECResult] = {}
        for label, unit_power in profiles.items():
            problem = problem_template.with_profile(dict(unit_power),
                                                    name=label)
            result = run_oftec(problem, method=method)
            results[label] = result
            self.add_entry(label, unit_power, result.omega_star,
                           result.current_star, result.feasible)
        return results

    def lookup(self, unit_power: Mapping[str, float],
               ) -> Tuple[float, float, LUTEntry]:
        """Return ``(omega, current, entry)`` for the nearest row.

        Matching is by Euclidean distance between total-power-normalized
        vectors, so the classifier keys on the power *distribution* shape
        with a secondary penalty on total-power mismatch.
        """
        if not self._entries:
            raise ConfigurationError("Lookup table is empty")
        query = self._feature(unit_power)
        query_total = query.sum()
        best_entry: Optional[LUTEntry] = None
        best_distance = np.inf
        for entry in self._entries:
            entry_total = entry.feature.sum()
            shape_distance = float(np.linalg.norm(
                _safe_normalize(query) - _safe_normalize(entry.feature)))
            scale_penalty = abs(query_total - entry_total) \
                / max(query_total, entry_total, 1e-12)
            distance = shape_distance + scale_penalty
            if distance < best_distance:
                best_distance = distance
                best_entry = entry
        if best_entry is None:
            raise ConfigurationError(
                "lookup table has no entries; add_entry() or "
                "precompute() must run first")
        return best_entry.omega, best_entry.current, best_entry

    def screen_entries(self, problem: CoolingProblem,
                       evaluator: Optional[Evaluator] = None,
                       ) -> List[Evaluation]:
        """Evaluate every stored operating point against ``problem``.

        Answers "what would each table row actually do on this
        workload?" — the validation pass that catches stale rows after
        a power-model change.  All rows go through
        :meth:`Evaluator.evaluate_many`, so they share the model's
        build-once operator.  Returns one
        :class:`~repro.core.evaluator.Evaluation` per entry, in table
        order.
        """
        if not self._entries:
            raise ConfigurationError("Lookup table is empty")
        evaluator = evaluator or Evaluator(problem)
        points = [(entry.omega, entry.current)
                  for entry in self._entries]
        return evaluator.evaluate_many(points)


def _safe_normalize(vector: np.ndarray) -> np.ndarray:
    total = vector.sum()
    if total <= 0.0:
        return np.zeros_like(vector)
    return vector / total
