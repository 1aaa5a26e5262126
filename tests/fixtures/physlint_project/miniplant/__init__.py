"""Mini plant model: the physlint cross-module fixture package.

Each module seeds one class of defect the lint pass must find (see
tests/test_physlint_project.py for the expected set):

* ``control``/``panel`` — dimensional-flow bugs (RPR701/702/703);
* ``tracing`` — span/stopwatch hygiene (RPR502).

The ``fan_power`` re-export below is load-bearing: ``panel`` imports
through it to exercise the one-hop re-export resolution.
"""

from .fan import fan_power

__all__ = ["fan_power"]
