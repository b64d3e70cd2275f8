"""The forked parts of kinex (POSIX fork).

_in_child is the one place that forks. It serves the contraction study,
_from_both_ends (the chaos study) and _producer._produced (the draw
producer). It sits apart from experiments to keep that module's compile
small where no bytecode is cached (ROADMAP.md, item 1).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import warnings

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
    ends before wait() has reaped the child, the child is killed and
    reaped. The child leaves through os._exit, never into the caller.

    The orphan rule: this process holds the only write end of an "alive"
    pipe; a daemon thread of the child calls os._exit(1) at EOF there, when
    this process closed it or died (SIGKILL included). The thread rule: fn
    and every thread of the child call no BLAS, import nothing and take no
    lock held at the fork; fn never forks. Fork on the main thread while no
    other Python thread runs.

    wait() has no time bound. Where os has no fork, wait() runs fn(*args)
    in this process: the forked parts are seeded, so the values agree.
    """
    if not hasattr(os, "fork"):
        yield lambda: fn(*args)
        return
    fds = read_fd, write_fd, alive_r, alive_w = *os.pipe(), *os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns, as OpenBLAS's pool is alive: the child calls no BLAS,
            # and no other Python thread runs at any fork site
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            os.close(alive_w)
            # the orphan rule: nothing writes to "alive", so this read returns only at EOF
            threading.Thread(target=lambda: os.read(alive_r, 1) or os._exit(1), daemon=True).start()
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
    os.close(alive_r)
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
        os.close(alive_w)
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
    left.
    """
    import mmap  # only the chaos study loads it here; the draw producer loads it with _producer

    shared = mmap.mmap(-1, 8 * (3 + grid.n_cells))
    claims = np.frombuffer(shared, np.int64, 3)
    claims[1] = n_jobs
    q_values = np.frombuffer(shared, np.float64, offset=24)
    ready_r, ready_w = os.pipe()

    def back() -> dict:
        done, q_t, k = {}, None, n_jobs - 1
        while True:
            if q_t is None and (claims[2] or k < claims[0]):
                os.read(ready_r, 1)
                q_t = GridDensity1D(grid, q_values)
                done = {j: (w, wasserstein1(final, q_t)) for j, (w, final) in done.items()}
            if k < claims[0]:
                return done
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
