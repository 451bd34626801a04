"""Work split between this process and one forked child, through
``fork_join``, the package's one ``os.fork`` site: ``cli.write_csv`` formats
a large table's tail rows there, and ``vapor``'s frequency walk walks a large
grid's later blocks there (``fork_columns``)."""

from __future__ import annotations

import os
import tempfile
import threading
import warnings

import numpy as np


def fork_join(child, parent, cause: str | None = None) -> int | None:
    """Run ``child()`` in a forked process while ``parent()`` runs in this one,
    then reap the child and return its exit code: 0 if ``child`` returned, 1
    if it raised.  None, with neither run, where no child can be forked: where
    ``os.fork`` is missing, where another Python thread runs or where the fork
    fails; the caller then does both parts itself.

    The child leaves by ``os._exit`` whatever happens, so it never unwinds
    into its caller's handlers or flushes this process's buffers; what it
    hands back goes through a file the caller opened before.  A child that
    raises writes ``cause: Type: message`` straight to stderr, unless
    ``cause`` is None.  The child is reaped even if ``parent()`` raises."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    try:
        with warnings.catch_warnings():
            # from Python 3.12 a fork beside native threads warns; those are
            # a BLAS pool's, and neither child calls BLAS
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            child()
            status = 0
        except BaseException as exc:
            if cause is not None:
                # the cause, straight to the descriptor past every buffer
                os.write(2, f"{cause}: {type(exc).__name__}: {exc}\n".encode(errors="replace"))
        finally:
            # never unwinds into the caller's handlers or flushes its buffers
            os._exit(status)
    try:
        parent()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return status


def fork_columns(work, out: np.ndarray, blocks: list):
    """``work(blocks)`` into ``out``, C-contiguous zeros whose last axis the
    ``blocks``, (start, stop) column ranges in order, cover: the later half
    of the blocks in a forked child while this process works the first.  The
    child runs with warnings and numpy's floating-point warnings raised as
    exceptions, and writes its columns to an unnamed temporary file one
    contiguous row at a time; they are read back into place.  If the child
    fails or warns, or its rows come back short, this process works its
    blocks after its own, so every result, warning and exception is that of
    ``work(blocks)`` in one process.  Where no child can be forked or no
    temporary file opened, this process works every block."""
    head, tail = blocks[: len(blocks) // 2], blocks[len(blocks) // 2 :]
    rows = out.reshape(-1, out.shape[-1])[:, tail[0][0] :]
    try:
        returned = tempfile.TemporaryFile()
    except OSError:
        return work(blocks)
    with returned:

        def child():
            strict = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
            with warnings.catch_warnings(), np.errstate(**strict):
                warnings.simplefilter("error")
                work(tail)
            for row in rows:
                returned.write(row)
            returned.flush()

        status = fork_join(child, lambda: work(head))
        if status is None:
            return work(blocks)
        returned.seek(0)
        if status or any(returned.readinto(row) < row.nbytes for row in rows):
            rows[...] = 0  # as handed over, before a short read filled some
            work(tail)
