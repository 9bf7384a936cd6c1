"""A csv or json table's blocks rendered on several processes.

`render` cuts the blocks of a cli table into one contiguous range per
process and forks a worker for each range after the first, which the
parent renders itself; each process runs on one core of its own. A
worker evaluates and renders its range (`emit.iter_parts`), writes the
text block by block into an anonymous file (`os.memfd_create`) and its
warnings, after their count, into another, and ends through `os._exit`:
it never returns into the caller. The parent then reaps every worker and
writes every warning, its own and then each worker's, in block order. The
call's text is the parent's parts and then each worker's file, read in
chunks as it is written out, so the parent never holds a worker's text.
Consecutive ranges render into consecutive pieces of the whole table's
text, so the bytes are those of one process.

Any failure on either side (a model or config error, a worker that does
not exit 0, an interrupted worker, a fork that fails) kills and reaps
every worker and drops the warnings held, and `render` returns None: the
caller renders the table again on one process, which gives the failure's
warnings and error as they are. An interrupt of the parent kills and reaps
every worker too, and is raised.
"""

from __future__ import annotations

import os
import signal
from functools import partial
from typing import IO, Iterator, List, NoReturn, Optional, Sequence

from .emit import Table, iter_parts

CHUNK = 1 << 16  # characters of a worker's text read at a time


def ranges(blocks: int, processes: int) -> List[range]:
    """`range(blocks)` cut into `processes` consecutive ranges, as even as
    they come."""
    cuts = [blocks * p // processes for p in range(processes + 1)]
    return [range(start, stop) for start, stop in zip(cuts, cuts[1:])]


def _anonymous() -> IO[str]:
    """An anonymous file for text, open to write and read back."""
    return open(os.memfd_create("qaplan"), "w+", encoding="utf-8", newline="")


def _chunks(file: IO[str]) -> Iterator[str]:
    """The text of `file` from where it stands, `CHUNK` characters at a time."""
    return iter(partial(file.read, CHUNK), "")


class Text:
    """A call's text as `writelines` reads it: the parent's parts, then each
    worker's file in chunks. `close` closes the files."""

    def __init__(self, parts: Sequence[str], files: Sequence[IO[str]]) -> None:
        self.parts, self.files = parts, files

    def __iter__(self) -> Iterator[str]:
        yield from self.parts
        for file in self.files:
            file.seek(0)
            yield from _chunks(file)

    def close(self) -> None:
        for file in self.files:
            file.close()


def _work(table: Table, fmt: str, span: range, warnings, text: IO[str],
          warned: IO[str]) -> None:
    """A worker's part: the text of `span`, and then the warnings it gives,
    after their count."""
    warnings.count = 0  # those before the fork are the parent's
    text.writelines(iter_parts(table, fmt, span))
    text.flush()
    warned.write(f"{warnings.count}\n")
    warned.writelines(warnings.held)
    warned.flush()


def _pin(cores) -> None:
    """Run this process on `cores`, where the system allows it: the place
    of a process is a hint, never a failure."""
    try:
        os.sched_setaffinity(0, cores)
    except OSError:
        pass


def _worker(mask, core: int, *args) -> NoReturn:
    """Restore the signal mask `mask`, run on `core`, do `_work(*args)` and
    end through `os._exit`: 0 where it returned, 1 where it raised or was
    interrupted."""
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _pin({core})
        _work(*args)
        code = 0
    finally:
        os._exit(code)


def render(table: Table, fmt: str, cores: Sequence[int], warnings) -> Optional[Text]:
    """The text of `table` in `fmt` (csv or json), rendered on one process
    per core of `cores`, or None where any of them fails. `warnings` is the
    sink the table's blocks write to, holding them (`held`) and their
    `count`: they are held while the blocks render, and on success the
    workers' are counted in and all are written in block order (`release`)
    before the text is returned; on a failure they are dropped. Every
    worker is reaped before this returns, or raises: an interrupt kills
    them and is raised. Each process runs on its own core (a forked
    process left to the scheduler may share its parent's); this one is
    given back the cores it had."""
    spans = ranges(table.rows.blocks, len(cores))
    home, count = os.sched_getaffinity(0), warnings.count
    warnings.held = []
    workers: List[int] = []  # those not yet reaped
    texts: List[IO[str]] = []
    warned: List[IO[str]] = []
    try:
        for core, span in zip(cores[1:], spans[1:]):
            texts.append(_anonymous())
            warned.append(_anonymous())
            # An interrupt waits until the worker is inside `_worker` and
            # its pid is kept here, so each side meets it where it is handled.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(mask, core, table, fmt, span, warnings, texts[-1], warned[-1])
                workers.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _pin({cores[0]})  # after the forks, so no worker starts behind this one
        parts = list(iter_parts(table, fmt, spans[0]))
        while workers:
            _, status = os.waitpid(workers[0], 0)
            del workers[0]
            if status:
                return None
        for file in warned:
            file.seek(0)
            warnings.count += int(file.readline())
        warnings.release(chunk for file in warned for chunk in _chunks(file))
        text, texts = Text(parts, texts), []  # the text closes its files
        return text
    except Exception:  # any failure is met again, and reported, on one process
        return None
    finally:
        if warnings.held is not None:  # not written: dropped
            warnings.held, warnings.count = None, count
        for pid in workers:  # those left running on a failure
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for file in texts + warned:
            file.close()
        _pin(home)
