"""Epochs: FastTrack's one-word access summaries.

An epoch ``c@t`` packs a thread id and that thread's clock into a single
integer (``clock << TID_BITS | tid``), exactly the trick that lets
FastTrack's fast paths be O(1) instead of O(threads).
"""

from __future__ import annotations

#: Bits reserved for the thread id; supports up to 255 threads.
TID_BITS = 8
TID_MASK = (1 << TID_BITS) - 1

#: The "never accessed" epoch (clock 0 of the impossible tid 0).
EPOCH_NONE = 0


def make_epoch(tid: int, clock: int) -> int:
    """Pack ``clock @ tid`` into one integer."""
    if not 0 < tid <= TID_MASK:
        raise ValueError(f"tid {tid} out of epoch range")
    return (clock << TID_BITS) | tid


def epoch_tid(epoch: int) -> int:
    return epoch & TID_MASK


def epoch_clock(epoch: int) -> int:
    return epoch >> TID_BITS


def epoch_leq_vc(epoch: int, vc) -> bool:
    """Does the epoch happen-before-or-equal the vector clock?

    The reference form of the check the detector inlines on its hot
    paths (``FastTrackDetector.on_read``/``on_write``);
    ``tests/analyses/test_fasttrack_detector.py`` asserts the two agree.
    """
    if epoch == EPOCH_NONE:
        return True
    return (epoch >> TID_BITS) <= vc.get(epoch & TID_MASK)


def format_epoch(epoch: int) -> str:
    """Human-readable ``c@t`` form for reports."""
    if epoch == EPOCH_NONE:
        return "⊥"
    return f"{epoch >> TID_BITS}@t{epoch & TID_MASK}"
