"""A second process that trains the rows `neural.train` hands it.

`TrainingWorker` starts a fresh interpreter (`python -c`, so the parent's
`__main__` is never run again) that imports this module and `neural` from
the parent's copy of the package, writes one ready byte and then serves
jobs until its stdin closes.  A job is one pickle of `neural.train_rows`' arguments on the
worker's stdin; the reply is one pickle on its stdout, the trained
(weights, errors) or the text of the worker's exception.  Both pickles
are written by this package's own processes.  The worker's fd 1 is
pointed at its stderr, so nothing it prints can mix with a reply.

`ready` never blocks; `submit` and `result` do.  A worker that died,
whether before it was ready or during a job, or whose job raised, is a
`TrainingWorkerError`.  `close` kills and reaps the worker.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import subprocess
import sys

from .errors import TrainingWorkerError
from .neural import train_rows

# The worker skips `site` and takes the parent's `sys.path` instead, and it
# imports only this module and `neural`, not the package's `__init__`: on an
# idle 2-vCPU host that made it ready 40-70 ms sooner.
_BOOT = (
    "import sys, types; package = types.ModuleType('gamarket'); package.__path__ = [sys.argv[1]]; "
    "sys.modules['gamarket'] = package; sys.path[:0] = sys.argv[2:]; "
    "from gamarket.worker import serve; serve()"
)
_READY = b"R"


class TrainingWorker:
    """One worker process, owned by a `with` block."""

    def __init__(self) -> None:
        package = os.path.dirname(os.path.abspath(__file__))
        self._process = subprocess.Popen(
            [sys.executable, "-S", "-c", _BOOT, package, *sys.path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._ready = False

    def ready(self) -> bool:
        """Whether the worker has said it is ready; never waits for it."""
        if not self._ready and select.select([self._process.stdout], [], [], 0)[0]:
            if self._process.stdout.read(1) != _READY:
                self._stopped()
            self._ready = True
        return self._ready

    def submit(self, *job) -> None:
        """Send `neural.train_rows`' arguments; `result` returns what it returned."""
        try:
            self._process.stdin.write(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL))
            self._process.stdin.flush()
        except BrokenPipeError:
            self._stopped()

    def result(self):
        """Wait for the reply to the job `submit` sent."""
        try:
            reply = pickle.load(self._process.stdout)
        except (EOFError, pickle.UnpicklingError):
            self._stopped()
        if isinstance(reply, str):
            raise TrainingWorkerError(f"training worker failed: {reply}")
        return reply

    def _stopped(self):
        self._process.kill()  # a no-op once it has exited
        code = self._process.wait()
        raise TrainingWorkerError(
            f"training worker stopped (exit status {code}) before returning its rows"
        )

    def close(self) -> None:
        self._process.kill()
        self._process.wait()
        self._process.stdout.close()
        with contextlib.suppress(BrokenPipeError):  # a job left unsent when the worker died
            self._process.stdin.close()

    def __enter__(self) -> TrainingWorker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    """The worker's loop: say ready, then answer each job until stdin closes."""
    jobs, replies = sys.stdin.buffer, os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    replies.write(_READY)
    replies.flush()
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
