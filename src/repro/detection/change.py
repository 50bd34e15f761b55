"""Threshold-based min-RTT change detection (paper §5.2, Fig 8).

The collection server's algorithm: compute the minimum RTT over windows
of N consecutive raw samples (N = 8 in the paper); when the windowed
minimum rises abruptly relative to the established baseline, *suspect*
an attack, and *confirm* it when the rise sustains for one further
window.  A fall back to baseline before confirmation clears the
suspicion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.analytics import MinFilterAnalytics, WindowMinimum
from ..core.samples import RttSample


class DetectionState(enum.Enum):
    LEARNING = "learning"    # establishing the baseline
    NORMAL = "normal"
    SUSPECTED = "suspected"
    CONFIRMED = "confirmed"


@dataclass(frozen=True)
class DetectionEvent:
    """A state transition emitted by the detector."""

    state: DetectionState
    window_index: int
    timestamp_ns: int
    min_rtt_ns: int
    baseline_ns: int


@dataclass
class DetectorConfig:
    window_samples: int = 8        # paper: windows of 8 raw samples
    rise_factor: float = 2.0       # "abrupt" = min RTT at least doubles
    baseline_windows: int = 3      # windows used to establish a baseline


class InterceptionDetector:
    """Consumes RTT samples, emits suspicion/confirmation events.

    Feed it raw samples with :meth:`add` (it windows them internally via
    :class:`MinFilterAnalytics`), or drive :meth:`on_window` directly
    from an existing analytics instance.
    """

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config or DetectorConfig()
        self.state = DetectionState.LEARNING
        self.baseline_ns: Optional[int] = None
        self.events: List[DetectionEvent] = []
        self.windows: List[WindowMinimum] = []
        self._learning: List[int] = []
        self._analytics = MinFilterAnalytics(
            window_samples=self.config.window_samples,
            key_fn=lambda sample: "all",
            on_window=self.on_window,
        )

    # -- inputs ---------------------------------------------------------------

    def add(self, sample: RttSample) -> None:
        """Feed one raw RTT sample."""
        self._analytics.add(sample)

    # -- windowed logic ----------------------------------------------------------

    def on_window(self, window: WindowMinimum) -> None:
        """Process one closed min-RTT window."""
        self.windows.append(window)
        if self.state is DetectionState.LEARNING:
            self._learning.append(window.min_rtt_ns)
            if len(self._learning) >= self.config.baseline_windows:
                self.baseline_ns = min(self._learning)
                self._transition(DetectionState.NORMAL, window)
            return
        assert self.baseline_ns is not None
        elevated = window.min_rtt_ns >= self.baseline_ns * self.config.rise_factor
        if self.state is DetectionState.NORMAL:
            if elevated:
                self._transition(DetectionState.SUSPECTED, window)
        elif self.state is DetectionState.SUSPECTED:
            if elevated:
                self._transition(DetectionState.CONFIRMED, window)
            else:
                self._transition(DetectionState.NORMAL, window)
        # CONFIRMED is terminal for one attack episode; callers may reset().

    def _transition(self, state: DetectionState, window: WindowMinimum) -> None:
        self.state = state
        self.events.append(
            DetectionEvent(
                state=state,
                window_index=len(self.windows) - 1,
                timestamp_ns=window.closed_at_ns,
                min_rtt_ns=window.min_rtt_ns,
                baseline_ns=self.baseline_ns or 0,
            )
        )

    def reset(self) -> None:
        """Re-arm after a confirmed episode (baseline re-learned)."""
        self.state = DetectionState.LEARNING
        self.baseline_ns = None
        self._learning.clear()

    # -- outcomes -----------------------------------------------------------------

    def first_event(self, state: DetectionState) -> Optional[DetectionEvent]:
        for event in self.events:
            if event.state is state:
                return event
        return None

    @property
    def suspected_at_ns(self) -> Optional[int]:
        event = self.first_event(DetectionState.SUSPECTED)
        return event.timestamp_ns if event else None

    @property
    def confirmed_at_ns(self) -> Optional[int]:
        event = self.first_event(DetectionState.CONFIRMED)
        return event.timestamp_ns if event else None


def packets_between(records, start_ns: int, end_ns: int) -> int:
    """Packets observed in [start_ns, end_ns] — the paper's headline
    "attack confirmed within 63 packets" is this count between the
    attack taking effect and confirmation."""
    return sum(1 for r in records if start_ns <= r.timestamp_ns <= end_ns)


def run_over_windows(
    windows: Sequence[WindowMinimum],
    config: Optional[DetectorConfig] = None,
) -> InterceptionDetector:
    """Run a fresh detector over already-closed windows, in close order.

    The fleet collector's entry point: it holds merged windows from many
    vantage points rather than raw samples, so the detector is driven
    through :meth:`InterceptionDetector.on_window` directly.  Windows
    are sorted by ``closed_at_ns`` here — merged histories interleave
    agents' streams, and detection state transitions only make sense in
    close-time order.
    """
    detector = InterceptionDetector(config)
    for window in sorted(windows, key=lambda w: w.closed_at_ns):
        detector.on_window(window)
    return detector
