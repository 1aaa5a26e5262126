"""The built-in whole-program rules (RPR602/RPR603/RPR703).

These run over the :class:`~repro.devtools.physlint.project.ProjectGraph`
rather than one file at a time, because the defects they target only
exist across module boundaries:

``RPR602`` worker-state
    Coordinator-only state touched on a worker-reachable path —
    ``global`` mutation, writes to attributes of imported modules,
    and ambient (process-global) RNG streams.  Each worker process
    holds a private copy of such state; mutations silently diverge
    and never merge back.
``RPR603`` worker-fanout
    A process pool spawned on a worker-reachable path: the nested
    fan-out shape that deadlocked PR 5's campaign scheduler.  A
    function that consults ``in_worker()``/``resolve_workers()``
    before acting is a guard barrier and is never flagged.
``RPR703`` unit-call
    A call-site argument whose flow-inferred unit disagrees with the
    unit the callee's docstring declares for that parameter — the
    cross-module half of the RPR701/RPR702 dimensional analysis.
"""

from __future__ import annotations

from typing import Optional, Union

from .dimensional import CallRecord
from .project import (
    FunctionSummary,
    NodeKey,
    ProjectGraph,
    ProjectRule,
    project_rule,
)
from .unitlang import render_unit

#: Fully-qualified callables that fork the current process or spawn a
#: pool of children.
_SPAWN_CALLS = frozenset({
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.Process",
    "multiprocessing.process.Process",
    "multiprocessing.get_context",
    "os.fork",
    "os.forkpty",
})

#: Module-level functions of :mod:`random` and :mod:`numpy.random`
#: that draw from (or reseed) the process-global stream.
_AMBIENT_RNG = frozenset(
    {f"random.{name}" for name in (
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "normalvariate", "paretovariate", "randint",
        "random", "randrange", "sample", "seed", "shuffle",
        "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    )}
    | {f"numpy.random.{name}" for name in (
        "choice", "exponential", "normal", "permutation", "poisson",
        "rand", "randint", "randn", "random", "random_sample", "seed",
        "shuffle", "standard_normal", "uniform",
    )})


def _chain(graph: ProjectGraph, key: NodeKey) -> str:
    chain = graph.worker_reachable().get(key, (key[1],))
    return " -> ".join(chain)


@project_rule
class WorkerStateRule(ProjectRule):
    """Worker-reachable code must not touch coordinator-only state.

    Fail::

        # workers call run_unit; helper mutates a module global
        RESULTS = {}

        def helper(unit):
            global RESULTS          # RPR602: per-process copy
            RESULTS[unit.key] = 1

        def run_unit(unit):
            return helper(unit)

        pool.submit(run_unit, unit)

    Pass::

        def run_unit(unit):
            return {unit.key: 1}    # returned, merged by coordinator
    """

    code = "RPR602"
    name = "worker-state"
    rationale = (
        "Functions reachable from a repro.exec worker entry point run "
        "in child processes: a `global` rebind, a write to an imported "
        "module's attribute, or a draw from the ambient random/"
        "numpy.random stream mutates one private per-process copy.  "
        "The coordinator never sees the change, replays stop being "
        "bit-identical, and the bug only surfaces under -j > 1.  Pass "
        "state in through the unit payload and return results; seed "
        "explicit Generators from the payload.")

    def check(self, graph: ProjectGraph) -> None:
        for key in sorted(graph.worker_reachable()):
            summary, fn = graph.nodes[key]
            via = _chain(graph, key)
            self._check_state(summary.path, fn, via)
            self._check_rng(graph, key, via)

    def _check_state(self, path: str, fn: FunctionSummary,
                     via: str) -> None:
        for site in fn.global_names:
            self.emit(path, site.line, site.column, (
                f"`global {site.desc}` on a worker-reachable path "
                f"({via}): each worker process mutates a private "
                "copy that never merges back; pass state through "
                "the unit payload and return results"))
        for site in fn.attr_writes:
            self.emit(path, site.line, site.column, (
                f"write to imported-module state `{site.desc}` on a "
                f"worker-reachable path ({via}): the assignment "
                "lands in the worker's copy of the module, not the "
                "coordinator's"))

    def _check_rng(self, graph: ProjectGraph, key: NodeKey,
                   via: str) -> None:
        summary, fn = graph.nodes[key]
        for call in fn.calls:
            full = graph.resolve_name(summary, call.callee)
            if full in _AMBIENT_RNG:
                self.emit(summary.path, call.line, call.column, (
                    f"ambient RNG `{full}` on a worker-reachable "
                    f"path ({via}): the process-global stream is "
                    "unseeded and differs per worker; use a "
                    "Generator seeded from the unit payload"))


@project_rule
class WorkerFanoutRule(ProjectRule):
    """Worker-reachable code must not spawn another process pool.

    Fail::

        def step(unit):
            with multiprocessing.Pool() as pool:   # RPR603
                return list(pool.map(expand, unit.parts))

        def run_unit(unit):
            return step(unit)

        pool.submit(run_unit, unit)

    Pass::

        def step(unit):
            if in_worker():               # guard barrier: runs inline
                return [expand(p) for p in unit.parts]
            with multiprocessing.Pool() as pool:
                return list(pool.map(expand, unit.parts))
    """

    code = "RPR603"
    name = "worker-fanout"
    rationale = (
        "A pool spawned inside a pool worker is the nested fan-out "
        "bug: each of N workers forks N more processes, oversubscribes "
        "the host, and deadlocks under the default spawn semantics.  "
        "The traversal stops at guard barriers — functions that call "
        "in_worker()/resolve_workers() demonstrably check their "
        "process context before fanning out — so the fix is either "
        "such a guard or running the nested stage inline.")

    def check(self, graph: ProjectGraph) -> None:
        for key in sorted(graph.worker_reachable()):
            summary, fn = graph.nodes[key]
            via = _chain(graph, key)
            for call in fn.calls:
                full = graph.resolve_name(summary, call.callee)
                if full in _SPAWN_CALLS:
                    self.emit(summary.path, call.line, call.column, (
                        f"`{full}` spawns processes on a "
                        f"worker-reachable path ({via}): nested "
                        "fan-out oversubscribes and can deadlock; "
                        "guard with in_worker() or run this stage "
                        "inline"))


@project_rule
class UnitCallRule(ProjectRule):
    """Call-site argument units must match the parameter's docstring.

    Fail::

        # fan.py
        def fan_power(omega):
            \"\"\"Args:
                omega: Fan speed, rad/s.
            \"\"\"

        # control.py
        from fan import fan_power

        def step(omega_rpm):
            \"\"\"Args:
                omega_rpm: Commanded speed, RPM.
            \"\"\"
            return fan_power(omega_rpm)   # RPR703: RPM into rad/s

    Pass::

        from repro.units import rpm_to_rad_s

        def step(omega_rpm):
            \"\"\"Args:
                omega_rpm: Commanded speed, RPM.
            \"\"\"
            return fan_power(rpm_to_rad_s(omega_rpm))
    """

    code = "RPR703"
    name = "unit-call"
    rationale = (
        "The paper's quantities (A, rad/s vs RPM, K/W, W) cross many "
        "module boundaries; a call passing RPM where the callee "
        "documents rad/s is off by 2*pi/60 at every operating point.  "
        "This check joins each call site's flow-inferred argument "
        "units against the callee's declared parameter units across "
        "the whole project graph.")

    def check(self, graph: ProjectGraph) -> None:
        for key in sorted(graph.nodes):
            module, qual = key
            summary, fn = graph.nodes[key]
            for call in fn.calls:
                if not call.args:
                    continue
                resolved = graph.resolve_call(module, qual,
                                              call.callee)
                if resolved is None:
                    continue
                self._check_call(graph, summary.path, call,
                                 resolved[0], resolved[1])

    def _check_call(self, graph: ProjectGraph, path: str,
                    call: CallRecord, target_key: NodeKey,
                    implicit_self: bool) -> None:
        target_module, target_qual = target_key
        _, target = graph.nodes[target_key]
        offset = 1 if implicit_self else 0
        for slot, unit in call.args:
            name = self._param_name(target, slot, offset)
            if name is None:
                continue
            declared = target.param_units.get(name)
            if declared is not None and declared != unit:
                self.emit(path, call.line, call.column, (
                    f"argument `{name}` of "
                    f"{target_module}.{target_qual} is documented "
                    f"as {render_unit(declared)} but receives "
                    f"{render_unit(unit)}; convert at the call "
                    "site (repro.units)"))

    @staticmethod
    def _param_name(target: FunctionSummary,
                    slot: Union[int, str],
                    offset: int) -> Optional[str]:
        if isinstance(slot, int):
            index = slot + offset
            if 0 <= index < len(target.params):
                return target.params[index]
            return None
        return slot


__all__ = [
    "UnitCallRule",
    "WorkerFanoutRule",
    "WorkerStateRule",
]
