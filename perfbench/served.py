"""The served regime: a ``repro serve`` process and a closed-loop load.

:class:`ServerProcess` launches ``python -m repro serve --port 0`` in its
own session (so the whole process tree, worker pools included, can be
measured and killed as one), under hard timeouts.  :func:`closed_loop`
drives a server from client threads of this process: each connection
sends its next query only after the previous reply arrived, because
the protocol allows one query in flight per connection and callers wait
for their result.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.client import Client
from repro.common.errors import ExecutionError
from repro.net.protocol import ProtocolError

#: The set-up probe: cheap, uncacheable by the workloads, and it runs a
#: real batch, so a lazily started worker pool starts inside set-up.
WARMUP_SQL = "select count(*) as n from nation"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """A run that cannot produce trustworthy numbers."""


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open("/proc/%d/stat" % pid) as fh:
            raw = fh.read()
    except OSError:
        return None
    # Fields after the parenthesised command name (which may hold spaces).
    return raw[raw.rindex(")") + 2:].split()


def session_pids(sid: int) -> List[int]:
    """Live processes of session ``sid`` (the server and its workers)."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None and fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(name))
    return pids


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, machine-wide (the
    ``steal`` column of /proc/stat): a diagnostic for noisy runs."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / _CLK_TCK if len(fields) > 8 else 0.0


def thread_cpu_seconds(pids: Sequence[int]) -> Dict[int, float]:
    """Thread id -> CPU seconds run, for every live thread of ``pids``.

    Read from the scheduler's nanosecond account
    (``/proc/PID/task/TID/schedstat``).  The tick counters of
    ``/proc/PID/stat`` are too coarse for a server that mostly waits on
    timers: it wakes on the timer tick, so the tick charges it unevenly.
    """
    out: Dict[int, float] = {}
    for pid in pids:
        try:
            tids = os.listdir("/proc/%d/task" % pid)
        except OSError:
            continue
        for tid in tids:
            try:
                with open("/proc/%d/task/%s/schedstat" % (pid, tid)) as fh:
                    out[int(tid)] = int(fh.read().split()[0]) / 1e9
            except (OSError, ValueError, IndexError):
                continue
    return out


def cpu_between(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU seconds run between two :func:`thread_cpu_seconds` readings
    by the threads alive at the second (a thread born in between counts
    from zero)."""
    return sum(t - before.get(tid, 0.0) for tid, t in after.items())


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the processes' peak resident set sizes (VmHWM), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open("/proc/%d/status" % pid) as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def tidy_workdir(path: str) -> None:
    """Remove a run's work directory unless a server left a log there."""
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if os.path.isfile(full) and os.path.getsize(full) == 0:
            os.remove(full)
    try:
        os.rmdir(path)
    except OSError:
        pass  # not empty: keep it for diagnosis


def split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """(server CPUs, load-generator CPUs), or (None, None) on one CPU.

    The server gets the last CPU this process may use and the load
    generator the others.  The vCPUs of a shared machine can differ in
    speed by a quarter (a neighbour on one host core); left to the
    scheduler, which one the server lands on would decide a whole run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


class ServerProcess:
    """One ``repro serve`` process tree, launched from ``root`` and
    bound to ``cpus`` when given."""

    def __init__(self, root: str, scale: float, extra_args: Sequence[str],
                 workdir: str, timeout_s: float = 120.0,
                 cpus: Optional[Set[int]] = None):
        self.root = root
        self.scale = scale
        self.extra_args = list(extra_args)
        self.workdir = workdir
        self.timeout_s = timeout_s
        self.cpus = cpus
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._stderr = None
        #: An operator's connection, opened at set-up and idle until
        #: it sends the shutdown frame (so shutdown never races the
        #: server accepting a fresh connection).
        self._admin: Optional[Client] = None
        self._watcher: Optional[threading.Thread] = None
        self._shutdown_sent = 0.0
        self._exited: Optional[float] = None

    def launch(self) -> float:
        """Start the server; returns set-up seconds, from launch until
        one warm-up query has been answered."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        # Spill files land under the run's work directory.
        env["TMPDIR"] = self.workdir
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--scale", repr(self.scale),
        ] + self.extra_args
        self._stderr = open(os.path.join(self.workdir, "server.err"), "ab")
        started = time.perf_counter()
        cpus = self.cpus
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, start_new_session=True,
            # Runs in the child before exec; no other thread is alive
            # while servers are launched.
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus))
            if cpus else None,
        )
        self.port = self._read_port(started + self.timeout_s)
        with Client(port=self.port, timeout=self.timeout_s) as client:
            client.query(WARMUP_SQL).require()
        elapsed = time.perf_counter() - started
        self._admin = Client(port=self.port, timeout=self.timeout_s)
        return elapsed

    def _read_port(self, deadline: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        buffered = b""
        try:
            while b"\n" not in buffered:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise BenchError("server did not report its port in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError(
                        "server exited during start-up (exit %s)"
                        % self.proc.poll()
                    )
                buffered += chunk
        finally:
            selector.close()
        line = buffered.split(b"\n", 1)[0].decode("utf-8", "replace")
        # "repro server listening on 127.0.0.1:PORT (protocol v2) ..."
        try:
            address = line.split(" listening on ", 1)[1].split()[0]
            return int(address.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            raise BenchError("unexpected server banner %r" % line) from None

    def pids(self) -> List[int]:
        return session_pids(self.proc.pid)

    def begin_shutdown(self) -> None:
        """Send the shutdown frame.  A watcher thread notes when the
        process exits, so the caller may do other work meanwhile (see
        :meth:`shutdown_seconds`)."""
        self._exited = None
        self._shutdown_sent = time.perf_counter()
        self._admin.shutdown_server()
        self._watcher = threading.Thread(
            target=self._watch_exit, name="perfbench-exit-watch", daemon=True,
        )
        self._watcher.start()

    def _watch_exit(self) -> None:
        try:
            self.proc.wait(timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            return
        self._exited = time.perf_counter()

    def shutdown_seconds(self) -> float:
        """Seconds from the shutdown frame until the server exited."""
        self._watcher.join()
        if self._exited is None:
            raise BenchError("server did not exit after shutdown")
        self.kill()  # reap stragglers; a no-op after a clean exit
        return self._exited - self._shutdown_sent

    def kill(self) -> None:
        """Kill the whole session and wait until every member is gone."""
        if self._admin is not None:
            self._admin.close()
            self._admin = None
        if self.proc is None:
            return
        sid = self.proc.pid
        try:
            os.killpg(sid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        deadline = time.monotonic() + 30
        while session_pids(sid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None
        self.proc = None


# -- the closed loop ---------------------------------------------------------

OK = "ok"
ERROR = "error"
SHED = "shed"
TIMEOUT = "timeout"


@dataclass
class Record:
    """One request as the client saw it."""

    index: int
    sent: float
    done: float
    status: str
    cached: bool = False
    #: Reply rows; None when equal to the first reply for the same SQL.
    rows: Optional[list] = None

    @property
    def latency(self) -> float:
        return self.done - self.sent


@dataclass
class LoopResult:
    records: List[Record] = field(default_factory=list)
    #: Wall window: first send to last reply.
    started: float = 0.0
    finished: float = 0.0
    #: SQL text -> rows of its first reply (see :attr:`Record.rows`).
    first_rows: Dict[str, list] = field(default_factory=dict)
    #: (time, probe reading) before the first send and after every
    #: ``round_size``-th reply; empty without a probe.
    marks: List[Tuple[float, object]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.finished - self.started


def closed_loop(port: int, stream, clients: int, seconds: float,
                round_size: int, first_index: int = 0, min_rounds: int = 1,
                timeout_s: float = 60.0,
                probe: Optional[Callable[[], object]] = None) -> LoopResult:
    """Drive ``stream[first_index:]`` from ``clients`` connections.

    Requests are handed out in stream order.  Once ``seconds`` have
    passed and at least ``min_rounds`` rounds were issued, no new round
    is started: the load stops at the next multiple of ``round_size``,
    so every run measures whole rounds and the same mix of query shapes.
    With a ``probe`` (say, the server's CPU seconds), it is read into
    :attr:`LoopResult.marks` at the start and after every
    ``round_size``-th reply, so the window can be cut into blocks.
    """
    lock = threading.Lock()
    state = {"next": first_index, "stop": False, "replies": 0}
    #: SQL text -> rows of its first reply.  A later reply equal to it
    #: (a cheap list compare) keeps no rows of its own, so a long
    #: cache-hit run holds one copy per distinct query.
    first_rows: Dict[str, list] = {}
    out = LoopResult()
    errors: List[BaseException] = []
    deadline = time.perf_counter() + seconds

    def take() -> Optional[int]:
        with lock:
            index = state["next"]
            if state["stop"]:
                return None
            if index >= len(stream):
                raise BenchError("the stream ran out before the deadline")
            issued = index - first_index
            if (issued >= min_rounds * round_size
                    and issued % round_size == 0
                    and time.perf_counter() >= deadline):
                state["stop"] = True
                return None
            state["next"] = index + 1
            return index

    def worker() -> None:
        client = None
        records: List[Record] = []
        try:
            while True:
                index = take()
                if index is None:
                    break
                if client is None:
                    client = Client(port=port, timeout=timeout_s)
                query = stream[index]
                sent = time.perf_counter()
                try:
                    result = client.query(
                        query.sql, strategy=query.strategy,
                        label="q%d" % index,
                    )
                except ExecutionError:
                    records.append(Record(index, sent, time.perf_counter(),
                                          ERROR))
                    replied()
                    continue
                except (OSError, ProtocolError):
                    # A timed-out or broken connection: count it and
                    # reconnect for the next request.
                    records.append(Record(index, sent, time.perf_counter(),
                                          TIMEOUT))
                    replied()
                    client.close()
                    client = None
                    continue
                done = time.perf_counter()
                if result.status == SHED:
                    records.append(Record(index, sent, done, SHED))
                    replied()
                    continue
                rows = result.rows
                with lock:
                    first = first_rows.setdefault(query.sql, rows)
                records.append(Record(
                    index, sent, done, OK, cached=result.cached,
                    rows=rows if first is rows or rows != first else None,
                ))
                replied()
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
        finally:
            if client is not None:
                client.close()
            with lock:
                out.records.extend(records)

    def replied() -> None:
        if probe is None:
            return
        with lock:
            state["replies"] += 1
            if state["replies"] % round_size == 0:
                out.marks.append((time.perf_counter(), probe()))

    threads = [
        threading.Thread(target=worker, name="perfbench-client-%d" % i,
                         daemon=True)
        for i in range(clients)
    ]
    if probe is not None:
        out.marks.append((time.perf_counter(), probe()))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout_s * 4)
        if thread.is_alive():
            raise BenchError("a client thread did not finish")
    if errors:
        raise BenchError("client failed: %r" % (errors[0],))
    out.records.sort(key=lambda r: r.index)
    out.first_rows = first_rows
    if out.records:
        out.started = min(r.sent for r in out.records)
        out.finished = max(r.done for r in out.records)
    return out
