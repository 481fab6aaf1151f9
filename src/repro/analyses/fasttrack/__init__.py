"""The FastTrack race detection algorithm (Flanagan & Freund, PLDI'09).

FastTrack computes a happens-before relation with vector clocks, using the
*epoch* optimization: while a variable's accesses are totally ordered,
only the last access (one word: clock ⊗ tid) is tracked; the full vector
clock is materialized only for read-shared variables.

This package contains the algorithm (:mod:`detector`), its metadata
(:mod:`vectorclock`, :mod:`epoch`, :mod:`metadata`), race records
(:mod:`reports`), and the Aikido-accelerated analysis
(:mod:`aikido_tool`). The paper's conservative instrument-everything
baseline is the detector under
:class:`~repro.analyses.generic_tool.FullInstrumentationTool`.
"""

from repro.analyses.fasttrack.vectorclock import VectorClock
from repro.analyses.fasttrack.epoch import (
    EPOCH_NONE,
    epoch_clock,
    epoch_tid,
    make_epoch,
)
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.fasttrack.reports import RaceReport
from repro.analyses.fasttrack.aikido_tool import AikidoFastTrack

__all__ = [
    "AikidoFastTrack",
    "EPOCH_NONE",
    "FastTrackDetector",
    "RaceReport",
    "VectorClock",
    "epoch_clock",
    "epoch_tid",
    "make_epoch",
]
