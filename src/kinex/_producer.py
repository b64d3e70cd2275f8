"""The draw producer of particle._run: one forked child that draws batches ahead of the event loop.

From particle._IN_PLACE_AGENTS agents on, it also puts some chunks of each
batch in round order: rounds depend only on which agents each event pairs,
never on a balance, so they can be found before the loop gets there. This
sits apart from particle so that only runs that fork a producer compile it
(ROADMAP.md, item 1).
"""

from __future__ import annotations

import itertools
import mmap
import os

import numpy as np

from . import particle as pt
from ._fork import _in_child


def _produced(batches, n: int, cut_times: np.ndarray):
    """Yield the batches (particle._draws) from one forked producer, two slots ahead.

    The producer is _fork._in_child's child. A slot of the shared mapping
    is refilled only after one byte on the "free" pipe, sent when the loop
    asks for the next batch; one byte on "ready" hands a filled slot over.
    EOF on "ready" means the producer ended, and wait() raises why.
    Closing the generator kills and reaps the producer.

    Each batch comes with counts and ends for particle._apply_rounds. In a
    batch that holds no cut (cut_times, found as particle._run finds them)
    of a run in rounds, _schedule sets them; every count of another batch is 0.
    """
    chunk = pt._chunk(n)
    chunks = pt._BATCH // chunk
    plan = chunks + pt._BATCH  # int16: a count per chunk, then at most one round end per event
    shared = mmap.mmap(-1, 2 * (4 * 8 * pt._BATCH + 2 * plan))
    slots = [[np.frombuffer(shared, kind, pt._BATCH, 8 * pt._BATCH * (4 * s + k))
              for k, kind in enumerate((np.float64, np.int64, np.int64, np.float64))]
             + np.split(np.frombuffer(shared, np.int16, plan, 8 * 8 * pt._BATCH + 2 * plan * s), [chunks])
             for s in (0, 1)]
    fds = ready_r, ready_w, free_r, free_w = *os.pipe(), *os.pipe()

    def produce():
        first = np.full(n, pt._ROUND_EVENTS, np.int32) if n >= pt._IN_PLACE_AGENTS else None
        due = 0
        for k, batch in enumerate(batches):
            if k > 1:
                os.read(free_r, 1)
            slot = slots[k % 2]
            for part, values in zip(slot, batch):
                part[:] = values
            slot[4][:] = 0
            # particle._run cuts this batch where a cut falls before its last event
            cuts, due = due, int(np.searchsorted(cut_times, batch[0][-1]))
            if first is not None and due == cuts:
                _schedule(*slot[1:], first, chunk, pt._PRODUCER_STRIDE)
            os.write(ready_w, b"r")

    try:
        with _in_child(produce) as wait:
            os.close(ready_w)  # so the producer's end is the last: EOF once it ends
            fds = ready_r, free_r, free_w
            for k in itertools.count():
                if not os.read(ready_r, 1):
                    wait()  # produce never returns: this raises its exception, or one KinexError
                yield slots[k % 2]
                os.write(free_w, b"f")  # this process holds free_r: no BrokenPipeError
    finally:
        for fd in fds:
            os.close(fd)


def _schedule(ii: np.ndarray, jj: np.ndarray, uu: np.ndarray, counts: np.ndarray, ends: np.ndarray,
              first: np.ndarray, chunk: int, stride: int) -> None:
    """Put every stride-th chunk of one batch in round order, in place, for particle._apply_rounds.

    Chunk c (c % stride == stride - 1) of chunk events becomes the
    concatenation of its pieces from particle._rounds (its rounds, then
    its tail), counts[c] their number, and their ends (positions in the
    chunk, the last one its length) follow those of the chunks before it
    in ends. counts holds 0 for every other chunk on entry.
    """
    at = 0
    for lo in range((stride - 1) * chunk, len(ii), stride * chunk):
        parts = ii[lo : lo + chunk], jj[lo : lo + chunk], uu[lo : lo + chunk]
        rounds = list(pt._rounds(*parts, first))
        for part, pieces in zip(parts, zip(*rounds)):
            part[:] = np.concatenate(pieces)
        counts[lo // chunk] = len(rounds)
        ends[at : at + len(rounds)] = np.cumsum([len(r[0]) for r in rounds])
        at += len(rounds)
