"""The nested stage: spawns its own pool when reached from a worker."""

from multiprocessing import Pool


def expand_parallel(unit):
    """Fans out again — flagged (RPR603) when worker-reachable."""
    with Pool() as pool:
        return list(pool.map(str, [unit]))
