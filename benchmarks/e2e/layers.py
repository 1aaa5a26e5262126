"""Outside-in layer attribution for the traced run.

:class:`Recorder` wraps public functions and methods of ``repro`` for the
length of one item's call and keeps one span per call in memory:
``[kind, start, end, parent]``.  :meth:`Recorder.summary` turns them into
self times per layer afterwards — a span's self time is its duration
minus the durations of its direct children — and reads the counters the
program already keeps (``ThermalOperator.stats``, ``SolveStats``).  The
wrappers are removed after every call, so correctness checks and the
untraced phase run the plain code.

Functions imported by name into another module are patched at the
import sites the workloads reach (``tangent_linearization`` in the
steady solver, the adjoint and the online loop; ``solve_steady_state``
and ``steady_state_gradients`` in the evaluator; the SQP entry points in
Algorithm 1).  A target a later refactor removes is skipped and listed
in :attr:`Recorder.missing`; its time then counts toward its caller.
"""

from __future__ import annotations

import collections
import functools
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core import evaluator as _evaluator
from repro.core import oftec as _oftec
from repro.core import online as _online
from repro.errors import ThermalRunawayError
from repro.thermal import adjoint as _adjoint
from repro.thermal import assembly as _assembly
from repro.thermal import operator as _operator
from repro.thermal import solver as _solver

#: Span kind of the benchmark's host calibrations (see ``hostclock.py``),
#: kept apart so their time never lands in a program layer.
CALIBRATION = "calibration"

#: Span kind -> layer.  The last four are the benchmark's own spans: the
#: calibrations, and the spans around the sweep, online and campaign
#: calls.
LAYER_OF = {
    "ThermalOperator.factor": "operator.factor",
    "ThermalOperator.solve": "operator.guard",
    "ThermalOperator.solve_many": "operator.guard",
    "ThermalOperator.solve_adjoint": "operator.guard",
    "Factorization.solve": "operator.backsolve",
    "Factorization.solve_transpose": "operator.adjoint",
    "PackageThermalModel.overlays": "assembly.overlays",
    "tangent_linearization": "leakage.linearize",
    "solve_steady_state": "solver.steady",
    "steady_state_gradients": "adjoint.gradients",
    "Evaluator.evaluate": "evaluator",
    "Evaluator.evaluate_with_grad": "evaluator",
    "Evaluator.evaluate_many": "evaluator",
    "minimize_power": "sqp",
    "minimize_temperature": "sqp",
    CALIBRATION: CALIBRATION,
    "sweep_objective_surfaces": "sweep",
    "run_online_controller": "online",
    "run_campaign": "exec",
}

#: Two factor calls on one operator are near repeats when their overlays
#: differ by at most this share of the previous overlay's largest entry
#: (entrywise ratios are meaningless on the TEC-face entries, where
#: Peltier and leakage terms nearly cancel).
NEAR_REPEAT_RTOL = 1e-3

_TARGETS: List[Tuple[Any, str]] = [
    (_operator.ThermalOperator, "factor"),
    (_operator.ThermalOperator, "solve"),
    (_operator.ThermalOperator, "solve_many"),
    (_operator.ThermalOperator, "solve_adjoint"),
    (_operator.Factorization, "solve"),
    (_operator.Factorization, "solve_transpose"),
    (_assembly.PackageThermalModel, "overlays"),
    (_solver, "tangent_linearization"),
    (_adjoint, "tangent_linearization"),
    (_online, "tangent_linearization"),
    (_solver, "solve_steady_state"),
    (_evaluator, "solve_steady_state"),
    (_evaluator, "steady_state_gradients"),
    (_evaluator.Evaluator, "evaluate"),
    (_evaluator.Evaluator, "evaluate_with_grad"),
    (_evaluator.Evaluator, "evaluate_many"),
    (_oftec, "minimize_power"),
    (_oftec, "minimize_temperature"),
]


def _kind(owner: Any, attr: str) -> str:
    return f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr


class Recorder:
    """In-memory spans and counters of the traced items of one round."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.missing = [_kind(owner, attr) for owner, attr in _TARGETS
                        if not hasattr(owner, attr)]
        self._open = -1
        self._previous_overlay: Dict[int, np.ndarray] = {}
        observers = {
            "ThermalOperator.factor": self._observe_factor,
            "solve_steady_state": self._observe_steady,
        }
        self._patches = []
        for owner, attr in _TARGETS:
            if hasattr(owner, attr):
                kind = _kind(owner, attr)
                self._patches.append((owner, attr, self.wrap(
                    kind, getattr(owner, attr), observers.get(kind))))

    def wrap(self, kind: str, fn: Callable,
             observe: Callable = None) -> Callable:
        """``fn`` recording one span of ``kind`` per call."""
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open
            span = [kind, 0.0, 0.0, parent]
            self._open = len(spans)
            spans.append(span)
            result = error = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                self._open = parent
                if observe is not None:
                    observe(args, kwargs, result, error)

        return traced

    def scope(self, operators: list, patch: bool) -> "_Scope":
        """Context manager: layers wrapped (when ``patch``) and the
        operators' counters read around one call."""
        return _Scope(self, operators, self._patches if patch else [])

    def add(self, work: Dict[str, float]) -> None:
        """Add an item's own counters (online steps, exec totals)."""
        self.counts.update(work)

    def _observe_factor(self, args, kwargs, _result, _error) -> None:
        operator = args[0]
        overlay = np.asarray(
            args[1] if len(args) > 1 else kwargs["diag_overlay"],
            dtype=float)
        self.counts["factor_calls"] += 1
        previous = self._previous_overlay.get(id(operator))
        if previous is not None and previous.shape == overlay.shape \
                and np.max(np.abs(overlay - previous)) \
                <= NEAR_REPEAT_RTOL * np.max(np.abs(previous)):
            self.counts["near_repeats"] += 1
        self._previous_overlay[id(operator)] = overlay.copy()

    def _observe_steady(self, _args, _kwargs, result, error) -> None:
        if isinstance(error, ThermalRunawayError):
            self.counts["runaways"] += 1
        elif result is not None:
            self.counts["converged_solves"] += 1
            self.counts["leak_iterations"] += result.stats.outer_iterations

    def _read_stats(self, before, after) -> None:
        self.counts["factorizations"] += \
            after.factorizations - before.factorizations
        self.counts["factor_hits"] += after.cache_hits - before.cache_hits
        self.counts["backsolves"] += after.solves - before.solves
        self.counts["adjoint_backsolves"] += \
            getattr(after, "adjoint_solves", 0) \
            - getattr(before, "adjoint_solves", 0)

    def summary(self) -> Dict[str, Any]:
        """Self seconds per layer, calls per kind, and counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
                children[parent] += 1
        self_s: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        counts = collections.Counter(self.counts)
        for index, (kind, start, end, _) in enumerate(spans):
            self_s[LAYER_OF[kind]] += end - start - child_time[index]
            calls[kind] += 1
            if kind == "Evaluator.evaluate":
                # A request answered without solving is a cache hit.
                counts["evaluator_hits"] += children[index] == 0
                counts["sqp_requests"] += self._under(index, "sqp")
        return {"self_s": dict(self_s), "calls": dict(calls),
                "counts": dict(counts), "missing": self.missing}

    def _under(self, index: int, layer: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if LAYER_OF[self.spans[parent][0]] == layer:
                return True
            parent = self.spans[parent][3]
        return False


class _Scope:
    """Installs the wrappers and snapshots operator counters."""

    def __init__(self, recorder: Recorder, operators: list,
                 patches: list):
        self._recorder = recorder
        self._operators = operators
        self._patches = patches
        self._saved: list = []
        self._before: list = []

    def __enter__(self) -> None:
        self._before = [operator.stats for operator in self._operators]
        for owner, attr, wrapper in self._patches:
            self._saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, wrapper)

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:  # inherited: drop the shadowing wrapper
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()
        for operator, before in zip(self._operators, self._before):
            self._recorder._read_stats(before, operator.stats)
