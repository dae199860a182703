"""Served-regime benchmark for the repro query server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spill-stream --seed 1 --seconds 40 --trace 0

``--trace 0`` launches ``repro serve --port 0`` as its own process, drives
it over two connections in a closed loop for ``--seconds`` (rounded up
to whole stream rounds), checks every result against an in-process
oracle, and prints the end-to-end metrics.  ``--trace 1`` hosts the
server in this process instead, records spans around each layer's
public functions (see ``tracing.py``), and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON object of details (provenance, stream digest, counts).
Exits non-zero on any row mismatch or when the run cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Everything the benchmark writes stays under the checkout.
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: TPC-H scale factor of every workload (see README.md for the choice).
SCALE = 0.002
#: Closed-loop connections; one query in flight on each.
CLIENTS = 2
#: Extra server launches before and after the one that serves the
#: load; ``setup_s`` is the median of all seven.  Spread over the run,
#: they meet more of the shared machine's changing speed than back to
#: back launches, which all land in the same second or two.
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 3
#: Enforced engine budget of spill-stream, below the stream's peak
#: per-batch operator state, so operators spill and reload pages.
SPILL_BUDGET = "384k"

#: name -> (stream kind, extra ``repro serve`` arguments)
WORKLOADS = {
    "stream-mix": ("mix", []),
    "hot-cache": ("hot", []),
    "spill-stream": ("mix", ["--memory-budget", SPILL_BUDGET]),
}

#: Hard wall-clock limit of one invocation, in seconds.
RUN_LIMIT_S = 170

#: Stream lengths, in rounds: far more than one run can serve.
MIX_ROUNDS = 40
HOT_ROUNDS = 2000
#: Rounds per block of the timed window (see :func:`measure`): one
#: 15-query stream round, or ten 6-query hot rounds (about 1.4 s).
BLOCK_ROUNDS = {"mix": 1, "hot": 10}
#: Rounds every timed window serves at least, whatever the speed.  The
#: tail percentile is chosen for the samples of the quieter half of
#: these rounds' blocks (3 x 15 = 45 -> p75, 2 x 60 = 120 -> p90), so
#: it stays the same percentile across runs and versions.
MIN_ROUNDS = {"mix": 6, "hot": 40}

END_TO_END_UNITS = {
    "qps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "success_rate": "ratio",
    "setup_s": "s",
    "shutdown_s": "s",
    "server_cpu_s_per_query": "s",
    "server_rss_mb": "MB",
    "virtual_s": "s",
    "peak_state_mb": "MB",
}


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(args, stream_digest: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "scale_factor": SCALE,
        "seed": args.seed,
        "clients": CLIENTS,
        "load": "closed loop",
        "workload": args.workload,
        "seconds": args.seconds,
        "stream_sha256": stream_digest,
    }


def make_stream(kind: str, seed: int):
    from perfbench import streams

    if kind == "hot":
        return streams.hot_stream(seed, HOT_ROUNDS), len(streams.HOT_SLOTS)
    return (streams.mix_stream(seed, MIX_ROUNDS),
            len(streams.FAMILIES) * len(streams.STRATEGIES))


def run_untraced(args, kind, serve_args, stream, round_size) -> tuple:
    from perfbench.oracle import check_results, outcome_counts, replay
    from perfbench.served import (
        ServerProcess, closed_loop, peak_rss_mb, split_cpus, steal_seconds,
        thread_cpu_seconds, tidy_workdir,
    )
    from perfbench.stats import median
    from repro.data.tpch import cached_tpch

    workdir = os.path.join(OUT_DIR, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    server_cpus, own_cpus = split_cpus()
    if own_cpus:
        os.sched_setaffinity(0, own_cpus)

    def probe_setups(count):
        for _ in range(count):
            probe = ServerProcess(ROOT, SCALE, serve_args, workdir,
                                  cpus=server_cpus)
            try:
                setups.append(probe.launch())
            finally:
                probe.kill()

    setups = []
    probe_setups(SETUP_PROBES_BEFORE)
    server = ServerProcess(ROOT, SCALE, serve_args, workdir,
                           cpus=server_cpus)
    try:
        setups.append(server.launch())
        loops = []
        first = 0
        if kind == "hot":
            # Round 0 fills the result cache; it is checked, not timed.
            loops.append(closed_loop(server.port, stream, CLIENTS, 0.0,
                                     round_size))
            first = round_size
        pids = server.pids()
        steal_before = steal_seconds()
        loop = closed_loop(server.port, stream, CLIENTS, args.seconds,
                           round_size, first_index=first,
                           min_rounds=MIN_ROUNDS[kind],
                           probe=lambda: thread_cpu_seconds(pids))
        steal = steal_seconds() - steal_before
        rss_mb = peak_rss_mb(server.pids())
        # The results are checked while the server shuts down.
        server.begin_shutdown()
        loops.append(loop)
        catalog = cached_tpch(scale_factor=SCALE)
        check = check_results(catalog, stream, loops)
        virtual_s, peak_mb, per_query = replay(catalog, stream[:round_size])
        shutdown_s = server.shutdown_seconds()
        probe_setups(SETUP_PROBES_AFTER)
    finally:
        server.kill()
        tidy_workdir(workdir)

    counts = outcome_counts(loop.records, check["mismatched"])
    window, window_detail = measure(loop, kind, round_size)
    good = counts["ok"] - counts["mismatch"]
    metrics = {
        "qps": window["qps"] * good / counts["attempted"],
        "latency_p50_s": window["latency_p50_s"],
        "latency_tail_s": window["latency_tail_s"],
        "success_rate": good / counts["attempted"],
        "setup_s": median(setups),
        "shutdown_s": shutdown_s,
        "server_cpu_s_per_query": window["server_cpu_s_per_query"],
        "server_rss_mb": rss_mb,
        "virtual_s": virtual_s,
        "peak_state_mb": peak_mb,
    }
    detail = {
        "counts": counts,
        "window_s": loop.wall_s,
        "machine_steal_s": steal,
        "setup_samples_s": setups,
        "oracle": {k: v for k, v in check.items() if k != "mismatched"},
        "mismatched_requests": check["mismatched"],
        "replay": per_query,
    }
    detail.update(window_detail)
    return metrics, END_TO_END_UNITS, counts, detail


def measure(loop, kind: str, round_size: int) -> tuple:
    """(metrics, details): throughput, latency and server CPU of the
    quieter half of the timed window, and the figures they come from.

    The window's marks (one per round of replies) are cut into blocks
    of :data:`BLOCK_ROUNDS` rounds, so every block holds the same mix
    of query shapes.  The machine is shared: load from elsewhere slows
    the blocks it falls in, and they cost the server more CPU seconds
    per reply.  The metrics come from the half of the blocks that cost
    least, and from the replies that arrived in them.
    """
    from perfbench.served import OK, BenchError, cpu_between
    from perfbench.stats import (
        blocks, median, quantile, quieter_half, tail_percentile,
    )

    marks = loop.marks
    cuts = blocks(len(marks) - 1, BLOCK_ROUNDS[kind])
    if not cuts:
        raise BenchError("the window holds no whole block")
    replies = BLOCK_ROUNDS[kind] * round_size
    seconds = [marks[b][0] - marks[a][0] for a, b in cuts]
    cpu = [cpu_between(marks[a][1], marks[b][1]) for a, b in cuts]
    kept = quieter_half(cpu)
    spans = [(marks[cuts[i][0]][0], marks[cuts[i][1]][0]) for i in kept]
    latencies = [r.latency for r in loop.records if r.status == OK
                 and any(t0 < r.done <= t1 for t0, t1 in spans)]
    min_samples = (MIN_ROUNDS[kind] // BLOCK_ROUNDS[kind] // 2
                   * replies)
    tail_pct = tail_percentile(min_samples)
    return {
        "qps": len(kept) * replies / sum(seconds[i] for i in kept),
        "latency_p50_s": median(latencies),
        "latency_tail_s": quantile(latencies, tail_pct / 100.0),
        "server_cpu_s_per_query": sum(cpu[i] for i in kept)
        / (len(kept) * replies),
    }, {
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "latency_min_samples": min_samples,
        "blocks_kept": kept,
        "block_seconds": seconds,
        "block_cpu_s": cpu,
        "window_qps": len(loop.records) / loop.wall_s,
        "window_cpu_s_per_query": cpu_between(marks[0][1], marks[-1][1])
        / (len(marks) - 1) / round_size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = os.path.join(ROOT, "src")
    try:
        import repro  # the program under test
    except ImportError as exc:
        print("error: cannot import the repro package from %s: %s"
              % (src, exc), file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print("error: repro was imported from %s, not from %s"
              % (repro.__file__, src), file=sys.stderr)
        return 2
    from perfbench.served import BenchError
    from perfbench.streams import digest

    def stop(signum, frame):
        # Unwinds through every `finally`, which kill the server trees.
        raise BenchError("stopped by signal %d after at most %d s"
                         % (signum, RUN_LIMIT_S))

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(RUN_LIMIT_S)

    kind, serve_args = WORKLOADS[args.workload]
    stream, round_size = make_stream(kind, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            from perfbench.tracing import run_traced

            metrics, units, counts, detail = run_traced(
                args, kind, serve_args, stream, round_size,
                scale=SCALE, clients=CLIENTS, out_dir=OUT_DIR,
            )
        else:
            metrics, units, counts, detail = run_untraced(
                args, kind, serve_args, stream, round_size,
            )
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    detail = dict(provenance(args, digest(stream)), **detail)
    detail["units"] = units
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    sys.stdout.flush()
    return 1 if counts["mismatch"] or counts.get("trace_check_failed") else 0


if __name__ == "__main__":
    sys.exit(main())
