"""netqa: spatial data quality assessment for line-network datasets.

Compares a crowdsourced network against a reference network through four
metric families: density-based completeness, feature-matching
completeness, network structure, and attribute coverage, plus grid-level
spatial autocorrelation of every local metric.
"""

import time as _time

# when the package began to load: a run's import_seconds count from here
_import_start = _time.perf_counter()

__version__ = "0.1.0"
