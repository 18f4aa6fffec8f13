"""Experiment reproductions: one module per paper table/figure group.

:class:`repro.experiments.context.ExperimentContext` is the figure layer
over one :class:`repro.api.Session`, which runs the full measurement
pipeline once (topology → scans → filters → alias sets → fingerprints)
and caches every intermediate; the table/figure functions are cheap
projections over it.  ``repro.experiments.report`` renders the
whole evaluation as text — the benchmark harness prints the same rows and
series the paper reports.
"""

from repro.experiments.context import ExperimentContext

__all__ = ["ExperimentContext"]
