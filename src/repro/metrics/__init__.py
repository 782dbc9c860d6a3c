"""Measurement utilities mirroring the paper's instrumentation.

Figure 4 plots userland CPU usage and Figure 5 context-switch rates, both
"gathered by vmstat over a sixty second period at one second intervals".
:class:`~repro.metrics.vmstat.VmstatSampler` is that tool for simulated
machines.  :mod:`repro.metrics.telemetry` generalises it: a process-wide
but injectable registry of gauges/histograms and live-read component
counters, plus a sim-clock tracer (:mod:`repro.metrics.trace`) with
Chrome ``trace_event`` export, feeding the
:class:`~repro.metrics.telemetry.PipelineReport` every benchmark consumes.
"""

from repro.metrics.vmstat import VmstatSample, VmstatSampler
from repro.metrics.report import ascii_table, percent, ratio, series_summary
from repro.metrics.telemetry import (
    NULL,
    ChannelReport,
    Gauge,
    Histogram,
    PipelineReport,
    Telemetry,
    get_telemetry,
    log_buckets,
    set_default,
)
from repro.metrics.trace import Tracer

__all__ = [
    "VmstatSampler",
    "VmstatSample",
    "ascii_table",
    "percent",
    "ratio",
    "series_summary",
    "Telemetry",
    "Tracer",
    "Gauge",
    "Histogram",
    "PipelineReport",
    "ChannelReport",
    "NULL",
    "get_telemetry",
    "set_default",
    "log_buckets",
]
