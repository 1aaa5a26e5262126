"""Coordinator: fans units out to a pool (worker-root discovery).

``run_all`` itself spawns a pool but is coordinator-only — it must
never be flagged; only code reachable from the submitted entry point
(``workers.run_unit``) is worker territory.
"""

from multiprocessing import Pool

from miniplant.workers import run_unit


def run_all(units):
    """Submit every unit to a fresh pool and collect the results."""
    with Pool() as pool:
        futures = [pool.apply_async(run_unit, (unit,)) for unit in units]
        return [future.get() for future in futures]
