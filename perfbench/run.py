"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <paper-report|observatory|query-history> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  Each workload drives the program from
``src/`` through its public entry points in fresh child processes,
checks every output and prints two JSON lines: first the details of the
run (``nproc``, seed, workload parameters, sample counts, check results,
generator lag), then the result ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` makes one untraced and one traced pass
and reports the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator

import checks
import loadgen
from layers import PER_LAYER

HERE = Path(__file__).resolve().parent

#: Hard limit on one benchmark invocation; children get what is left.
BUDGET_S = 170.0

#: Sizes of each workload (see README.md for why).  ``scale`` is the
#: divisor of the paper's Internet: 500 means 1/500 of its populations.
PARAMS = {
    "paper-report": {"scale": 500.0},
    "observatory": {"scale": 1000.0, "firings": 6, "rate": 20.0},
    "query-history": {
        "scale": 1000.0, "firings": 6, "connections": 2, "batch": 48,
        "addresses": 3000, "server_starts": 3, "history_checks": 8,
        "traced_batches": 3,
        # The tail is the highest percentile with at least 10 requests
        # beyond it; 7 batches (336 requests) leave 10 beyond p97, so a
        # run sends at least that many even when ``--seconds`` is spent.
        "tail": 0.97, "min_batches": 7,
    },
}

#: Every workload reports these; README.md says what each means there.
#: The median unit (``p50_ms``) goes to the details line only: the host's
#: speed drifts between runs by more than its bound (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Bench:
    """State of one invocation: parameters, children, tallies."""

    def __init__(self, args: argparse.Namespace, root: Path, work: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.params = dict(PARAMS[args.workload])
        self.root = root
        self.source = source_digest(root)
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.details: dict = {}
        self.children: list[subprocess.Popen] = []
        self._serial = 0

    # -- tallies -----------------------------------------------------------

    def op(self, ok: bool, message: str = "", count: int = 1) -> None:
        """``count`` operations (reports, firings, requests, server starts
        and stops) that all succeeded or all failed."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(message)

    def check(self, name: str, failures: "list[str]") -> None:
        """One output check; it fails if it reports anything."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(f"{name}: {f}" for f in failures)

    def checks(self, results: dict) -> None:
        for name, failures in results.items():
            self.check(name, failures)

    # -- children ----------------------------------------------------------

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def spawn(self, argv: "list[str]", name: str) -> "tuple[subprocess.Popen, Path, Path]":
        self._serial += 1
        out = self.work / f"{self._serial:03d}-{name}.out"
        err = out.with_suffix(".err")
        with out.open("wb") as stdout, err.open("wb") as stderr:
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                                    env=self.env, cwd=self.root)
        self.children.append(proc)
        return proc, out, err

    def reap(self, proc: subprocess.Popen) -> "tuple[int, float]":
        """Wait for a child; returns its exit code and peak RSS in MB."""
        if proc.returncode is not None:  # already reaped by poll(); no usage left
            self.children.remove(proc)
            return proc.returncode, 0.0
        timer = threading.Timer(self.remaining(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def worker(self, unit: str, **extra: object) -> "tuple[dict | None, float]":
        """Run one worker unit; returns its result (None if it failed)
        and its peak RSS in MB."""
        params = {**self.params, "seed": self.seed, "trace": False, **extra}
        if params["trace"]:
            params["trace_out"] = str(self.root / ".perfbench" / "traces"
                                      / f"{self.workload}-{self.seed}.json")
        argv = [sys.executable, str(HERE / "worker.py"), unit]
        params["t0"] = time.monotonic()
        proc, out, err = self.spawn(argv + [json.dumps(params)], unit)
        code, rss = self.reap(proc)
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        if code != 0 or not lines:
            tail = err.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"worker {unit} exited {code}:\n{tail}", file=sys.stderr)
            return None, rss
        return json.loads(lines[-1]), rss

    def stop_all(self) -> None:
        for proc in list(self.children):
            proc.kill()
            self.reap(proc)

    def recorded(self, label: str, value: object) -> None:
        """Compare with the value recorded by an earlier run of the same
        program sources, workload, scale and seed in this checkout."""
        key = (f"{self.workload}-scale{self.params['scale']:g}-seed{self.seed}"
               f"-src{self.source[:16]}")
        path = self.root / ".perfbench" / "recorded" / f"{key}.json"
        self.check(f"{label} across runs", checks.check_recorded(path, label, value))


def source_digest(root: Path) -> str:
    """sha256 over the program's sources, so that each version of the
    program records and checks its own outputs."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def pass_plan(bench: Bench) -> Iterator[bool]:
    """Whether each pass is traced: a traced run makes one untraced and
    one traced pass; a timed run makes untraced passes until ``--seconds``
    is spent."""
    if bench.trace:
        yield from (False, True)
        return
    started = time.monotonic()
    while True:
        yield False
        if time.monotonic() - started >= bench.seconds:
            return


def traced_layers(passes: list, wall: str) -> "dict | None":
    """The traced pass's per-layer metrics plus the tracing overhead."""
    plain = [r for r, _ in passes if "layers" not in r]
    traced = [r for r, _ in passes if "layers" in r]
    if not plain or not traced:
        return None
    return dict(traced[0]["layers"], **{
        "trace.overhead_ratio": traced[0][wall] / plain[0][wall]})


# -- paper-report ----------------------------------------------------------


def paper_report(bench: Bench) -> "dict | None":
    """Full ``repro report`` passes, one fresh process each."""
    passes = []
    for traced in pass_plan(bench):
        result, rss = bench.worker("report", trace=traced)
        bench.op(result is not None, "a report process failed")
        if result is not None:
            bench.checks(result["checks"])
            passes.append((result, rss))
    if not passes:
        return None
    bench.check("report sha256", checks.check_same(
        "report sha256", [r["sha256"] for r, _ in passes]))
    bench.recorded("report sha256", passes[0][0]["sha256"])
    reports = [r["report_s"] for r, _ in passes]
    bench.details.update(reports=len(passes), report_sha256=passes[0][0]["sha256"],
                         report_s=reports, p50_ms=statistics.median(reports) * 1e3)
    if bench.trace:
        return traced_layers(passes, "report_s")
    return {
        "setup_s": statistics.median(r["setup_s"] for r, _ in passes),
        "tail_ms": max(reports) * 1e3,
        "peak_rss_mb": max(rss for _, rss in passes),
    }


# -- observatory -----------------------------------------------------------


def observatory(bench: Bench) -> "dict | None":
    """Scheduler loops with an open-loop reader, one fresh process each."""
    params = bench.params
    passes = []
    for traced in pass_plan(bench):
        store = bench.work / f"observatory-{len(passes)}"
        result, rss = bench.worker("observatory", dir=str(store), trace=traced)
        shutil.rmtree(store, ignore_errors=True)
        if result is None:
            bench.op(False, "an observatory process failed")
            continue
        errors = result["request_errors"]
        bench.op(True, count=len(result["fingerprints"]) + len(result["latency_ms"]) - len(errors))
        for error in errors:
            bench.op(False, error)
        bench.checks(result["checks"])
        passes.append((result, rss))
    if not passes:
        return None
    fingerprints = [r["fingerprints"] for r, _ in passes]
    bench.check("firing fingerprints", checks.check_same("firing fingerprints", fingerprints))
    bench.recorded("firing fingerprints", fingerprints[0])
    lags = [lag for r, _ in passes for lag in r["lag_ms"]]
    latencies = [lat for r, _ in passes for lat in r["latency_ms"]]
    period_ms = 1e3 / params["rate"]
    loops = [r["loop_s"] for r, _ in passes]
    bench.details.update(
        loop_s=loops,
        p50_ms=statistics.median(loops) * 1e3,
        sweep_s=[s for r, _ in passes for s in r["sweep_s"]],
        reprobe_s=[s for r, _ in passes for s in r["reprobe_s"]],
        reader_requests=len(latencies),
        reader_latency_ms={"p50": statistics.median(latencies),
                           "p95": loadgen.percentile(latencies, 0.95)},
        generator_lag_ms={"p50": statistics.median(lags),
                          "p95": loadgen.percentile(lags, 0.95), "max": max(lags)},
        # Share of requests sent more than one period late: queued
        # behind the reader's own cold rebuilds.
        reader_queued_ratio=sum(lag > period_ms for lag in lags) / len(lags),
        # The generator fell behind when the typical request went out
        # more than one period late: the offered rate was not held.
        generator_behind=statistics.median(lags) > period_ms,
    )
    if bench.trace:
        return traced_layers(passes, "loop_s")
    return {
        "setup_s": statistics.median(r["setup_s"] for r, _ in passes),
        "tail_ms": max(loops) * 1e3,
        "peak_rss_mb": max(rss for _, rss in passes),
    }


# -- query-history ---------------------------------------------------------

SERVING = re.compile(rb"on http://([0-9.]+):([0-9]+)/")


def _healthy(host: str, port: int) -> bool:
    connection = http.client.HTTPConnection(host, port, timeout=5)
    try:
        connection.request("GET", "/healthz")
        return connection.getresponse().status == 200
    except OSError:
        return False
    finally:
        connection.close()


def start_server(bench: Bench, store: Path) -> "tuple[subprocess.Popen, str, int, float]":
    """Start ``repro serve``; returns it with its address and the seconds
    from spawn until it answered ``/healthz``."""
    t0 = time.monotonic()
    proc, out, _ = bench.spawn(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--store", str(store),
         "--port", "0"], "serve")
    while True:
        match = SERVING.search(out.read_bytes())
        if match and _healthy(match.group(1).decode(), int(match.group(2))):
            return proc, match.group(1).decode(), int(match.group(2)), time.monotonic() - t0
        if proc.poll() is not None or time.monotonic() - t0 > 60:
            raise RuntimeError("repro serve did not come up")
        time.sleep(0.005)


def stop_server(bench: Bench, proc: subprocess.Popen) -> float:
    proc.send_signal(signal.SIGTERM)
    code, rss = bench.reap(proc)
    bench.op(code == 0, f"repro serve exited {code}")
    return rss


def query_history(bench: Bench) -> "dict | None":
    """Distinct-address history lookups against ``repro serve``."""
    params = bench.params
    store = bench.work / "history-store"
    expected_path = bench.work / "expected.json"
    build, _ = bench.worker("build-store", dir=str(store), expected=str(expected_path))
    bench.op(build is not None, "the store build failed")
    if build is None:
        return None
    bench.checks(build["checks"])
    bench.details.update(store_rows=build["rows"], store_segments=build["segments"],
                         build_s=build["setup_s"])
    if bench.trace:
        result, _ = bench.worker("serve-traced", dir=str(store),
                                 expected=str(expected_path), trace=True,
                                 batches=params["traced_batches"])
        bench.op(result is not None, "the traced server process failed")
        if result is None:
            return None
        bench.op(True, count=result["requests"])
        bench.checks(result["checks"])
        return result["layers"]

    data = json.loads(expected_path.read_text(encoding="utf-8"))
    addresses, expected = data["addresses"], data["expected"]
    batches = loadgen.batches(addresses, params["batch"])
    ready = []
    for start in range(params["server_starts"]):
        try:
            proc, host, port, seconds = start_server(bench, store)
        except RuntimeError as error:
            bench.op(False, str(error))
            return None
        bench.op(True)
        ready.append(seconds)
        if start < params["server_starts"] - 1:
            stop_server(bench, proc)
    walls, latencies = [], []
    started = time.monotonic()
    try:
        for batch in batches:
            wall, answers = loadgen.closed_loop(host, port, batch, params["connections"])
            walls.append(wall)
            for answer in answers:
                problems = checks.check_answer(answer, expected)
                bench.op(not problems, "; ".join(problems))
                latencies.append(answer[3] * 1e3)
            if (time.monotonic() - started >= bench.seconds
                    and len(walls) >= params["min_batches"]):
                break
    finally:
        rss = stop_server(bench, proc)
    tail = params["tail"]
    bench.details.update(
        server_ready_s=ready, batch_s=walls,
        queries_per_s=sum(len(b) for b in batches[:len(walls)]) / sum(walls),
        requests=len(latencies), p50_ms=statistics.median(latencies),
        tail_percentile=tail * 100,
        tail_samples_beyond=loadgen.beyond(len(latencies), tail),
    )
    return {
        "setup_s": build["setup_s"] + statistics.median(ready),
        "tail_ms": loadgen.percentile(latencies, tail),
        "peak_rss_mb": rss,
    }


WORKLOADS = {
    "paper-report": paper_report,
    "observatory": observatory,
    "query-history": query_history,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} has no src/repro; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args, root, work)
    # A terminated run still stops and reaps its children (``finally``).
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        values = WORKLOADS[args.workload](bench)
    finally:
        bench.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)
    if values is None:
        print("error: no unit of the workload completed; " + "; ".join(bench.failures[:5]),
              file=sys.stderr)
        return 1

    if bench.trace:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    cpus = os.cpu_count()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bench.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": cpus,
        "python": sys.version.split()[0],
        "params": bench.params,
        "source_sha256": bench.source,
        **bench.details,
        "failures": bench.failures[:20],
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
