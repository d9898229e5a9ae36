"""repro.stream — online re-tuning over streaming traces.

The paper tunes once from a static profile; this package keeps tuning
as the workload drifts.  It streams events in bounded-memory chunks,
maintains the windowed cache-usage metrics of eqns 1-2 incrementally
(prefix sums — O(1) amortized per event, bit-identical to a full
per-window recompute), detects drift over the vectorized window
statistics, and re-invokes the Fig-2 decision flow with hysteresis so
the active communication model flips only on sustained change.  Each
committed flip runs :meth:`Framework.retune` and carries its own
:class:`~repro.obs.report.TuneReport`.  N co-resident apps decide
through a :class:`~repro.stream.contention.ContentionModel`
fixed-point pass where one app's ZC choice shifts the others'
thresholds.

See ``docs/streaming.md`` for the architecture and bench methodology.
"""

from repro.model.decision import proposed_model
from repro.stream.contention import (
    AppWindow,
    ContendedDecision,
    ContentionConfig,
    ContentionModel,
    ContentionResult,
)
from repro.stream.drift import DriftConfig, DriftDetector
from repro.stream.engine import (
    AppStreamResult,
    FlipEvent,
    MultiAppStreamTuner,
    MultiStreamResult,
    StreamConfig,
    StreamResult,
    StreamTuner,
)
from repro.stream.sources import (
    COUNTER_COLUMNS,
    TRACE_COLUMNS,
    CounterWindowSource,
    CpuSideModel,
    LocalityModel,
    TraceWindowSource,
)
from repro.stream.window import SlidingWindow, WindowSpec, sliding_window_sums

__all__ = [
    "AppStreamResult",
    "AppWindow",
    "COUNTER_COLUMNS",
    "ContendedDecision",
    "ContentionConfig",
    "ContentionModel",
    "ContentionResult",
    "CounterWindowSource",
    "CpuSideModel",
    "DriftConfig",
    "DriftDetector",
    "FlipEvent",
    "LocalityModel",
    "MultiAppStreamTuner",
    "MultiStreamResult",
    "SlidingWindow",
    "StreamConfig",
    "StreamResult",
    "StreamTuner",
    "TRACE_COLUMNS",
    "TraceWindowSource",
    "WindowSpec",
    "proposed_model",
    "sliding_window_sums",
]
