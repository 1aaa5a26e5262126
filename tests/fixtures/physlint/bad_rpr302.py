"""Known-bad fixture for RPR302 (solver-in-loop)."""

from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import splu, spsolve


def relinearize(static, overlays, loads):
    """Temperatures, K, from conductance, W/K, and heat loads, W."""
    temps = []
    for overlay, load in zip(overlays, loads):
        system = (static + overlay).tocsc()  # BAD: convert per step
        temps.append(spsolve(system, load))  # BAD: refactor per step
    return temps


def march(static, capacitance, load, steps):
    """Transient march; capacitance in J/K, load in W."""
    temps = load * 0.0
    step = 0
    while step < steps:
        lu = splu((static + capacitance).tocsc())  # BAD: both calls
        temps = lu.solve(load + capacitance @ temps)
        step += 1
    return temps


def band_march(band, capacitance, load, steps):
    """Banded march; band in W/K, capacitance in J/K, load in W."""
    temps = load * 0.0
    for _ in range(steps):
        factor, _ = dpbtrf(band + capacitance, lower=1)  # BAD: refactor
        temps, _ = dpbtrs(factor, load + capacitance[0] * temps, lower=1)
    return temps
