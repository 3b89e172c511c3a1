"""Deployment-timeline projection for autonomous-vehicle categories.

Couples two constraints into one calendar projection per vehicle
category and deployment stage: the wait for compute capacity to cover
the category's effective planning demand, and the fleet-miles needed to
grow and then statistically demonstrate the required failure rate.
Includes a builtin eight-category reference catalog, JSON scenario
documents, sensitivity analyses (sweep, tornado, Monte Carlo) and
report rendering in table, CSV, JSON and Markdown form.

The package exports the ``__all__`` of each of its library modules.
"""

from . import complexity, errors, reliability, report, scenario, sensitivity, timeline
from .complexity import *  # noqa: F403
from .errors import *  # noqa: F403
from .reliability import *  # noqa: F403
from .report import *  # noqa: F403
from .scenario import *  # noqa: F403
from .sensitivity import *  # noqa: F403
from .timeline import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (complexity, errors, reliability, report, scenario, sensitivity,
                               timeline)
           for name in module.__all__]
