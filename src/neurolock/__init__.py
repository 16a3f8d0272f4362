"""Cancellable EEG-template toolkit.

Signal ingestion, phase-synchronization graph features, a key-driven
non-invertible template transform with encrypted-domain matching, and the
evaluation/attack harness around it.
"""

__version__ = "0.1.0"

import ctypes
import sys


def _fix_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at the ceiling its own rule reaches.

    glibc raises both thresholds from the sizes of the blocks freed so far, so
    whether a freed 1.3 MB recording array stays in the heap or is handed back
    to the kernel, to be page-faulted afresh by the next read, hung on the
    heap's layout: EDF reads ran at one speed or half of it from one process
    to the next. Fixed values make every process behave alike.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_fix_heap_thresholds()

from . import (attacks, baseline_features, connectivity, dsp, errors,
               graph_features, ingest, matching_eval, pipeline, sl_eval,
               system, transform)

__all__ = [
    "attacks", "baseline_features", "connectivity", "dsp", "errors",
    "graph_features", "ingest", "matching_eval", "pipeline", "sl_eval",
    "system", "transform", "__version__",
]
