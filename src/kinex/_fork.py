"""The forked parts of the studies in experiments (POSIX fork).

_in_child runs one part of a study in one forked child while this process
runs the rest; _from_both_ends splits the chaos study's replicas between
this process and that child. They sit apart from experiments, whose
source is compiled on every run where no bytecode is cached, to keep that
module's compile small (ROADMAP.md, item 1). particle._produced is the one
other fork site.
"""

from __future__ import annotations

import contextlib
import os
import pickle

import numpy as np

from .diagnostics import wasserstein1
from .errors import KinexError
from .kinetic1d import Grid1D, GridDensity1D


@contextlib.contextmanager
def _in_child(fn, *args):
    """Run fn(*args) in one forked child while the with-body runs in this process.

    Yields wait(): it reads the child's pickled outcome from a pipe, reaps
    the child, and returns fn's result or raises fn's exception, with its
    type and message. A child that ends without a whole outcome (killed, or
    with an outcome that does not pickle) is one KinexError. If the body
    raises before wait() has reaped the child, the child is killed and
    reaped, so no run leaves a process behind. The child sees this
    process's state as of the fork, module constants included, and leaves
    through os._exit: it never returns into the caller's frames, runs no
    exit handlers and flushes no inherited stdio buffer. Fork on the main
    thread, before any thread of kinex runs. Its users are the contraction
    study (its first coupled run) and the chaos study (the replicas it
    claims from the back).

    wait() reads to the end of the pipe with no time bound, so a child that
    hangs hangs this process too; a timeout would make a run's outcome
    depend on the host. The child inherits only the forking thread, and a
    lock that another thread held at the fork stays held in the child. So
    fn must never call BLAS, import a module, log, or start a thread. It
    may fork a draw producer (a chaos replica with a long --t): its one
    import, mmap, meets no held lock, as no other Python thread runs.

    Where os has no fork, wait() runs fn(*args) in this process: the
    forked parts are seeded, so they return the same values either way.
    """
    if not hasattr(os, "fork"):
        yield lambda: fn(*args)
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(*args))
            except BaseException as exc:  # sent to the parent, whose wait() raises it
                outcome = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
            code = 0  # only a child that wrote its whole outcome exits 0
        finally:
            os._exit(code)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    reaped = False

    def wait():
        nonlocal reaped
        with pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code != 0:
            how = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise KinexError(f"the forked run ended without a result ({how})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield wait
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, 9)  # SIGKILL, without importing signal for it
            os.waitpid(pid, 0)


def _from_both_ends(replica, n_jobs: int, grid: Grid1D, solved) -> list:
    """[replica(k, q_t) for k in range(n_jobs)] with q_t = solved(), from two processes.

    One child forked by _in_child takes jobs from the back while this
    process runs solved(), then this process takes them from the front.
    Each writes only its own claim in a shared map (claims[0]: this
    process's next job, [1]: the child's last) and stops at the other's,
    so a stale read may run the job where they meet on both sides, never
    skip one; the two results must then be equal. q_t reaches the child
    through the same map, a flag ([2]) and one byte on "ready". Until then
    the child keeps replica(k, None) = (w1_t0, final balances) and takes
    W1 at t once q_t is there; it waits on "ready" only when it has no job
    left, and a dead parent is EOF there.
    """
    import mmap  # as in particle._produced

    shared = mmap.mmap(-1, 8 * (3 + grid.n_cells))
    claims = np.frombuffer(shared, np.int64, 3)
    claims[1] = n_jobs
    q_values = np.frombuffer(shared, np.float64, offset=24)
    ready_r, ready_w = os.pipe()
    parent = os.getpid()

    def back() -> dict:
        if os.getpid() != parent:
            os.close(ready_w)  # so a dead parent is EOF on "ready"
        done, q_t, k = {}, None, n_jobs - 1
        while True:
            if q_t is None and (claims[2] or k < claims[0]):
                if not os.read(ready_r, 1):
                    os._exit(1)
                q_t = GridDensity1D(grid, q_values)
                done = {j: (w, wasserstein1(final, q_t)) for j, (w, final) in done.items()}
            if k < claims[0]:
                return done
            if os.getpid() != parent and os.getppid() != parent:
                os._exit(1)
            claims[1] = k
            done[k] = replica(k, q_t)
            k -= 1

    try:
        with _in_child(back) as theirs:
            q_t = solved()
            q_values[:] = q_t.values
            claims[2] = 1
            os.write(ready_w, b"r")  # this process holds ready_r: no BrokenPipeError
            mine, k = {}, 0
            while k < claims[1]:
                claims[0] = k + 1
                mine[k] = replica(k, q_t)
                k += 1
            for k, pair in theirs().items():
                if mine.setdefault(k, pair) != pair:
                    raise KinexError(f"replica {k} gave {mine[k]} in this process but {pair} in the forked child")
    finally:
        os.close(ready_r)
        os.close(ready_w)
    return [mine[k] for k in range(n_jobs)]
