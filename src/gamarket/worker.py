"""A second process that trains the rows `neural.train` hands it.

`TrainingWorker` forks this process, so the child already holds numpy and
`neural` and is ready at once.  A job is one pickle of `neural.train_rows`'
arguments on one pipe; the reply, on another, is one pickle of the trained
(weights, errors) or the text of the child's exception.  Both pickles are
written by this package's own processes.  The child closes the pipe ends
it does not use, so its loop ends as soon as the parent closes the job
pipe or dies, and it leaves only through `os._exit`: it never returns into
the caller's code, runs no `atexit` handler and flushes no buffer it
inherited.  A worker that died, or whose job raised, is a
`TrainingWorkerError`.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal

from .errors import TrainingWorkerError
from .neural import train_rows


class TrainingWorker:
    """One forked worker process, owned by a `with` block."""

    def __init__(self) -> None:
        jobs_read, jobs_write = os.pipe()
        replies_read, replies_write = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:
            for fd in (jobs_read, jobs_write, replies_read, replies_write):
                os.close(fd)
            raise
        if self._pid == 0:
            code = 1
            try:
                os.close(jobs_write)
                os.close(replies_read)
                _serve(os.fdopen(jobs_read, "rb"), os.fdopen(replies_write, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(jobs_read)
        os.close(replies_write)
        self._jobs, self._replies = os.fdopen(jobs_write, "wb"), os.fdopen(replies_read, "rb")
        self._status = None

    def submit(self, *job) -> None:
        """Send `neural.train_rows`' arguments; `result` returns what it returned."""
        try:
            pickle.dump(job, self._jobs, protocol=pickle.HIGHEST_PROTOCOL)
            self._jobs.flush()
        except BrokenPipeError:
            self._stopped()

    def result(self):
        """Wait for the reply to the job `submit` sent."""
        try:
            reply = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            self._stopped()
        if isinstance(reply, str):
            raise TrainingWorkerError(f"training worker failed: {reply}")
        return reply

    def _stopped(self):
        os.kill(self._pid, signal.SIGKILL)  # a no-op once it has exited
        raise TrainingWorkerError(
            f"training worker stopped (exit status {self._reap()}) before returning its rows"
        )

    def _reap(self) -> int:
        """Wait for the child to exit, once; its exit status."""
        if self._status is None:
            self._status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        return self._status

    def close(self) -> None:
        """End the child's loop and reap it; a job still running finishes first."""
        with contextlib.suppress(BrokenPipeError):  # a job left unsent when the child died
            self._jobs.close()
        self._replies.close()
        self._reap()

    def __enter__(self) -> TrainingWorker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve(jobs, replies) -> None:
    """The child's loop: answer each job until the job pipe closes."""
    while True:
        try:
            job = pickle.load(jobs)
        except EOFError:
            return
        try:
            reply = train_rows(*job)
        except Exception as exc:  # reported to the parent, which raises it by name
            reply = f"{type(exc).__name__}: {exc}"
        pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()
