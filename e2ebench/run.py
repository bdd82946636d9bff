"""End-to-end benchmark of the routing service: one workload per process.

    python3 e2ebench/run.py --workload churn --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload actors --seed 1 --seconds 30 --trace 1
    python3 e2ebench/run.py --workload shm_reads --repeat 10 --seconds 30

The first form prints every end-to-end metric of ``BENCHMARK.json`` and,
as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` prints the per-layer metrics instead, from a
run whose odd ticks (with their requests) run traced: the ledger table
goes to standard output and the Chrome trace-event file to
``e2ebench/results/``.  ``--repeat K`` runs seeds 1..K in fresh processes
and prints each end-to-end metric's spread (interquartile distance over
median) against its bound.

Inputs come from ``inputs.py`` and depend on the seed alone.  The program
is imported from ``src/`` of the checkout the benchmark sits in; without
it the command fails before measuring anything.

Noise found while sizing, on a 2-CPU shared VM: the machine runs fast or
slow for minutes at a time, moving every timing of a run together by up
to 50%, and its two CPUs need not slow together; on seeded random
topologies the work a link failure causes differed up to 20% between
seeds.  So timings are scaled by the run's machine-speed factor
(``reference.py``; raw values are kept in the result file), the
topology is fixed per workload (jittered points on a torus) while the
seed draws churn and requests, medians are taken over hundreds of ticks
and thousands of requests, set-up runs nine times and reports its
median, and wire bytes are counted over a fixed number of ticks so that
they repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

TRACE_KEEP = 50_000  # trace events written to the Chrome file, at most
MIN_REQUESTS = 1000  # p99 needs 10 requests beyond it; also its window
OVERTIME = 3.0  # a run may stretch to this many --seconds to reach its minimums


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _stamp(args, samples: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "samples": samples,
    }


def measure(args) -> dict:
    """One run: set up, loop ticks and requests, check, report."""
    from reference import Reference

    with Reference() as reference:  # stops its helper processes however the run ends
        return _measure(args, reference)


def _measure(args, reference) -> dict:
    from ledger import Ledger
    from repro import obs
    from stats import percentile, windowed_percentile
    from workloads import WORKLOADS, Probe, edge_events, peak_rss_mb

    work = WORKLOADS[args.workload]
    edges, churn, requests, check_pairs = work.inputs(args.seed)

    # The machine can change speed within seconds, so each set-up is scaled
    # by the reference sampled just before and just after it.
    setups, setup_factors = [], []
    live = None
    for _ in range(work.setups):
        if live is not None:
            live.close()
            live = None
        gc.collect()
        reference.sample()
        t0 = time.perf_counter()
        live = work.build(edges)
        setups.append(time.perf_counter() - t0)
        reference.sample()
        setup_factors.append(reference.factor(last=2))

    try:
        tracer = obs.tracer()
        probe = Probe()
        ledger = Ledger(("tick", "request"))
        kept: "list[dict]" = []  # the first traced ticks, for the Chrome file
        if args.trace:
            live.probe(probe)
        wire0 = live.wire_bytes()
        wire = None  # (bytes, events) over the first work.min_ticks ticks: exact per seed
        tick_s = {False: [], True: []}  # keyed by "traced"
        req_s = {False: [], True: []}
        hops = {False: 0, True: 0}
        events = 0
        attempted = failed = 0
        gc.collect()
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            now = time.perf_counter()
            enough = args.trace or (len(tick_s[False]) >= work.min_ticks and len(req_s[False]) >= MIN_REQUESTS)
            if (now >= deadline and enough) or now >= start + OVERTIME * args.seconds:
                break
            traced = bool(args.trace) and len(tick_s[False]) > len(tick_s[True])
            tick = edge_events(churn.next_tick())
            batch = requests.batch(work.requests_per_tick)
            if traced:
                probe.install()
                tracer.clear()
                offset_us = (time.perf_counter() - start) * 1e6
                tracer.start()
            attempted += 1
            try:
                with obs.Span("tick", None, tracer if traced else None):
                    t0 = time.perf_counter()
                    live.apply(tick)
                    tick_s[traced].append(time.perf_counter() - t0)
            except Exception as exc:  # a failed repair leaves no state to go on from
                failed += 1
                print(f"tick failed: {exc!r}", file=sys.stderr)
                break
            events += len(tick)
            if len(tick_s[False]) + len(tick_s[True]) == work.min_ticks:
                wire = (live.wire_bytes() - wire0, events)
            for s, t in batch:
                attempted += 1
                try:
                    with obs.Span("request", None, tracer if traced else None):
                        t0 = time.perf_counter()
                        result = live.route(s, t)
                        req_s[traced].append(time.perf_counter() - t0)
                except Exception as exc:  # a starved or refused query
                    failed += 1
                    print(f"request {s}->{t} failed: {exc!r}", file=sys.stderr)
                    continue
                failed += live.journey_mismatch(s, t, result)
                hops[traced] += result.hops
            if not args.trace:
                reference.sample()
            if traced:
                tracer.stop()
                probe.remove()
                # Fold each traced tick into the ledger at once, so memory stays
                # flat however many lookups a run traces.
                batch_events = tracer.trace_events()
                ledger.add(batch_events)
                if len(kept) < TRACE_KEEP:
                    for event in batch_events:
                        event["ts"] += offset_us
                    kept.extend(batch_events)
                tracer.clear()
        rss = peak_rss_mb(live.pids())
        extra = live.layer_counters() if args.trace else {}

        try:
            checks = live.checks(check_pairs)
        except Exception as exc:  # a stack left broken by a failed tick
            checks = [(f"final checks ran (raised {exc!r})", False)]
        if args.trace:
            checks += ledger_checks(ledger, tick_s[True], req_s[True])
        for label, ok in checks:
            print(f"check {'ok  ' if ok else 'FAIL'} {label}")
        attempted += len(checks)
        failed += sum(not ok for _, ok in checks)
    finally:
        live.close()  # stops pool workers and actor transports

    ticks, reqs = tick_s[False], req_s[False]
    samples = {"setups": len(setups), "ticks": len(ticks), "requests": len(reqs),
               "traced_ticks": len(tick_s[True]), "traced_requests": len(req_s[True])}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if not args.trace:
        try:
            if wire is None:
                raise ValueError(f"wire bytes need {work.min_ticks} ticks, got {len(ticks)}")
            # Timings are divided, and rates multiplied, by how much slower
            # than nominal the machine ran during this run (reference.py).
            f = reference.factor()
            setup = statistics.median(setups)
            fs = setup / statistics.median(t / g for t, g in zip(setups, setup_factors))
            raw = {
                "setup_s": (setup, "s", fs),
                "tick_p50_ms": (percentile(ticks, 50) * 1e3, "ms", f),
                "tick_p90_ms": (percentile(ticks, 90) * 1e3, "ms", f),
                "events_per_s": (events / sum(ticks), "ev/s", 1 / f),
                "request_p50_us": (percentile(reqs, 50) * 1e6, "us", f),
                "request_p99_us": (windowed_percentile(reqs, 99, MIN_REQUESTS) * 1e6, "us", f),
                "requests_per_s": (len(reqs) / sum(reqs), "q/s", 1 / f),
                "peak_rss_mb": (rss, "MB", 1.0),
                "wire_bytes_per_event": (wire[0] / wire[1], "B/ev", 1.0),
                "ops_ok_pct": (100.0 * (attempted - failed) / attempted, "%", 1.0),
            }
            metrics = {name: (value / scale, unit) for name, (value, unit, scale) in raw.items()}
            samples["machine"] = {"factor": f, "setup_factor": fs,
                                  "reference_samples": len(reference.samples["serial"])}
            samples["raw"] = {name: value for name, (value, _unit, _scale) in raw.items()}
        except ValueError as exc:  # too few samples for a guarded percentile
            print(f"error: {exc}", file=sys.stderr)
            result["correct"] = False
            metrics = {}
    else:
        metrics = layer_metrics(work, ledger, probe, tick_s, req_s, hops, extra)
        print(ledger.format())
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{args.workload}-seed{args.seed}.trace.json"
        path.write_text(json.dumps({"traceEvents": kept, "displayTimeUnit": "ms",
                                    "otherData": _stamp(args, samples)}))
        print(f"trace: {len(kept)} events -> {path.relative_to(ROOT)}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stamp = _stamp(args, samples)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, **result}, indent=1)
    )
    print("stamp:", json.dumps(stamp))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34}{value:>16.6g} {unit}")
    return result


def ledger_checks(ledger, tick_s, req_s) -> "list[tuple[str, bool]]":
    """Self times must add up to the wall time of their roots, and the
    roots' wall time to the ticks and requests timed from outside."""
    out = []
    for root, timed in (("tick", tick_s), ("request", req_s)):
        wall = ledger.wall[root]
        out.append((f"{root} self times add up to {root} wall time",
                    abs(ledger.unbalanced(root)) <= 1e-6 * wall))
        # The root span also covers the two clock reads around the call.
        out.append((f"traced {root} wall matches the timed {root}s within 2%",
                    abs(wall * 1e-6 - sum(timed)) <= 0.02 * sum(timed)))
    return out


def layer_metrics(work, ledger, probe, tick_s, req_s, hops, extra) -> dict:
    """The per-layer metrics of a traced run (0 for a layer not driven)."""
    ticks = max(ledger.roots["tick"], 1)
    tick_wall = ledger.wall["tick"]
    req_wall = ledger.wall["request"]
    ms = 1e-3 / ticks  # trace µs summed over ticks -> ms per tick
    serve = probe.results.get("serving.apply") or probe.results.get("actors.feed") or []
    repairs = probe.results.get("maintainer.repair", [])
    n = work.n
    lookups = ledger.count("request", "routing.next_hop") + ledger.count("request", "routing.distance")
    lookup_us = ledger.self_us("request", "routing.next_hop", "routing.distance")
    other_us = ledger.self_us("tick", "serving.apply", "actors.feed")
    feed_us = ledger.self_us(
        "tick", "actors.feed", "maintainer.repair", "maintainer.ball",
        "serving.recompute_rows", "serving.project_tables",
    )
    pool_us = ledger.self_us("tick", "pool.run")
    sharded = work.name == "shm_reads"
    actors = work.name == "actors"
    untraced = statistics.median(tick_s[False]) + work.requests_per_tick * statistics.median(req_s[False])
    traced = statistics.median(tick_s[True]) + work.requests_per_tick * statistics.median(req_s[True])
    unattributed = ledger.self_us("tick", "tick") + other_us
    return {
        "maintainer.repair_ms": (ledger.self_us("tick", "maintainer.repair", "maintainer.ball") * ms, "ms"),
        "maintainer.dirty_ball": (statistics.fmean(r.dirty for r in repairs) if repairs else 0.0, "count"),
        "maintainer.rebuilds": (float(sum(r.rebuilt for r in repairs)), "count"),
        "serving.recompute_rows_ms": (ledger.self_us("tick", "serving.recompute_rows") * ms, "ms"),
        "serving.project_tables_ms": (ledger.self_us("tick", "serving.project_tables") * ms, "ms"),
        "serving.other_ms": (other_us * ms, "ms"),
        "serving.rows_recomputed": (statistics.fmean(r.dirty_rows for r in serve) if serve else 0.0, "count"),
        "serving.tables_reprojected": (statistics.fmean(r.dirty_tables for r in serve) if serve else 0.0, "count"),
        "serving.useful_cell_ratio": (
            sum(r.entries_updated for r in serve) / max(1, sum(r.dirty_tables for r in serve) * n), "ratio"),
        "routing.hops_per_request": (hops[False] / len(req_s[False]), "count"),
        "routing.us_per_hop": (1e6 * sum(req_s[False]) / max(1, hops[False]), "us"),
        "parallel.pool_run_ms": (pool_us * ms if sharded else 0.0, "ms"),
        "parallel.driver_ms": ((tick_wall - pool_us) * ms if sharded else 0.0, "ms"),
        "parallel.reader_us_per_lookup": (lookup_us / max(1, lookups) if sharded else 0.0, "us"),
        # Per 1000 requests: seqlock captures the reader discarded and retried.
        "parallel.torn_retries_per_1k": (
            1e3 * extra.get("torn_retries", 0) / (len(req_s[False]) + len(req_s[True])), "count"),
        "parallel.pool_retries": (float(extra.get("pool_retries", 0)), "count"),
        "actors.feed_ms": (feed_us * ms if actors else 0.0, "ms"),
        "actors.recompute_ms": (ledger.self_us("tick", "actors.recompute") * ms, "ms"),
        "actors.quiesce_rounds": (statistics.fmean(probe.results.get("actors.quiesce") or [0]), "count"),
        "actors.messages_per_tick": (extra.get("messages_per_tick", 0.0), "count"),
        "actors.rounds_per_request": (extra.get("rounds_per_request", 0.0), "count"),
        "actors.messages_per_request": (extra.get("messages_per_request", 0.0), "count"),
        "actors.matrix_bytes_per_actor": (extra.get("matrix_bytes_per_actor", 0.0), "B"),
        "trace.overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
        "trace.unattributed_pct": (100.0 * unattributed / max(1e-9, tick_wall + req_wall), "%"),
    }


def repeat(args) -> int:
    """Run seeds 1..K in fresh processes; print each metric's spread."""
    from stats import spread

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: "dict[str, list[float]]" = {}
    raw: "dict[str, list[float]]" = {}
    for seed in range(1, args.repeat + 1):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:], sep="\n")
            return 1
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        for name, metric in doc["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        run = json.loads((RESULTS / f"{args.workload}-seed{seed}-trace0.json").read_text())
        for name, value in run["stamp"]["samples"]["raw"].items():
            raw.setdefault(name, []).append(value)
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"repeat-{args.workload}.json").write_text(
        json.dumps({"metrics": values, "raw": raw}, indent=1)
    )
    worst = (0.0, "")
    for name, vals in values.items():
        bound = bounds.get(name)
        sp = spread(vals)
        share = sp / bound if bound else float("nan")
        worst = max(worst, (share, name))
        print(f"{name:<24} median {statistics.median(vals):>12.5g}  spread {sp:7.4f}  "
              f"bound {bound}  spread/bound {share:5.2f}  raw spread {spread(raw[name]):7.4f}")
    print(f"worst spread/bound: {worst[0]:.2f} ({worst[1]})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("churn", "shm_reads", "actors"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run seeds 1..K, print spreads")
    args = parser.parse_args(argv)
    _import_program()
    if args.repeat:
        return repeat(args)
    try:
        result = measure(args)
    finally:
        _stop_processes()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _stop_processes() -> None:
    """Stop every process the run left, and wait for each to end.

    Pool workers are closed by the workloads; any a failed run left alive
    are stopped here.  Shared memory starts multiprocessing's resource
    tracker, which would otherwise outlive this process by up to a second
    (it exits once it reads end-of-file on a pipe that every worker holds
    too), so it is stopped after the workers and waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)  # CPython >= 3.8
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
