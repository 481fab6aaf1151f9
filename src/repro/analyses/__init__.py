"""Dynamic analyses (DBR tools) usable standalone or under Aikido.

* :mod:`repro.analyses.fasttrack` — the FastTrack happens-before race
  detector and its Aikido-accelerated form (the paper's system).
* :mod:`repro.analyses.djit` — plain DJIT+ vector-clock detection (the
  baseline FastTrack's epoch optimization is measured against).
* :mod:`repro.analyses.eraser` — an Eraser-style LockSet detector
  (related-work comparison; may report false positives).
* :mod:`repro.analyses.atomicity` — an AVIO-style atomicity checker
  (the paper's second motivating analysis class).
* :mod:`repro.analyses.sampling` — a LiteRace-style sampling wrapper
  (related-work comparison; trades false negatives for speed).
* :mod:`repro.analyses.generic_tool` — run any detector under full
  instrumentation or under Aikido.
* :mod:`repro.analyses.record` — trace recording, offline replay and
  the one sync-event table every adapter dispatches through.
"""

from repro.analyses.atomicity import AVIOChecker
from repro.analyses.djit import DjitDetector
from repro.analyses.eraser import EraserDetector
from repro.analyses.fasttrack.aikido_tool import AikidoFastTrack
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.generic_tool import (
    FullInstrumentationTool,
    GenericAnalysis,
)
from repro.analyses.record import TraceRecorder, replay, replay_into
from repro.analyses.sampling import SamplingDetector

__all__ = [
    "AVIOChecker",
    "AikidoFastTrack",
    "DjitDetector",
    "EraserDetector",
    "FastTrackDetector",
    "FullInstrumentationTool",
    "GenericAnalysis",
    "SamplingDetector",
    "TraceRecorder",
    "replay",
    "replay_into",
]
