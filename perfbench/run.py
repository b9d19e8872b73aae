"""Benchmark of the multiorder package: closed-loop workloads, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload witness-narrow --seed 1 --seconds 20 --trace 0

One caller issues each operation after the previous one returns.  With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it runs
the same operations untraced and then traced, and reports per-layer
metrics and the tracing overhead.  The last line of standard output is
the result object `{"correct", "attempted", "failed", "metrics"}`; the line
before it is the full record with provenance.  `--workload all` runs every
workload in its own process and prints a table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SETUP_REPEATS = 5
# A run that has not finished its round by this multiple of --seconds stops
# mid-round, so a much slower program still ends in bounded time.
HARD_STOP = 2.5
TAIL_BEYOND = 10
# ops_per_s averages the rates of this many blocks of a run, leaving out the
# fastest and the slowest, so a burst of load from elsewhere on the machine
# or one rare slow op moves at most one dropped block, not the result.
BLOCKS = 10
EXIT_USAGE = 2


def load_library(root: Path):
    """Import multiorder from the checkout's `src`, and only from there."""
    src = root / "src"
    if not (src / "multiorder" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import multiorder

    if Path(multiorder.__file__).resolve().parent != (src / "multiorder").resolve():
        return None
    return multiorder


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "multiorder").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, args) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def cold_import(root: Path) -> None:
    """Import the package in a fresh interpreter, as every CLI call does."""
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import multiorder"],
        cwd=root,
        check=True,
        timeout=120,
    )


def _run_op(op):
    a = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # a failed op is counted, not fatal
        out, err = None, exc
    return op, time.perf_counter() - a, out, err


def run_loop(rounds, seconds: float):
    """Closed loop over whole rounds until `seconds` have passed.

    Returns (records, wall, rates): one (op, latency_s, output, error)
    record per operation, and the ops per second of each block of
    consecutive whole rounds that lasted at least seconds / BLOCKS.
    """
    clock = time.perf_counter
    records, rates = [], []
    r = 0
    t0 = block_start = clock()
    block_ops = 0
    while True:
        for op in rounds[r % len(rounds)]:
            records.append(_run_op(op))
            if clock() - t0 > HARD_STOP * seconds:
                return records, clock() - t0, rates
        r += 1
        # Outputs are kept for the checks; move them out of the collector's
        # younger generations so its passes stay as short as the library's
        # own garbage makes them.
        gc.freeze()
        now = clock()
        if now - block_start >= seconds / BLOCKS:
            rates.append((len(records) - block_ops) / (now - block_start))
            block_start, block_ops = now, len(records)
        if now - t0 >= seconds:
            return records, now - t0, rates


def replay(records, tracer):
    """Run exactly the operations of `records` again under the tracer."""
    replayed = []
    for i, (op, _, _, _) in enumerate(records):
        tracer.op = i
        replayed.append(_run_op(op))
    return replayed


def check_records(records) -> list[bool]:
    results = []
    for op, _, out, err in records:
        if err is not None:
            results.append(False)
            continue
        try:
            results.append(bool(op.check(out)))
        except Exception:
            results.append(False)
    return results


def latency_summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    if n > TAIL_BEYOND:
        tail = ordered[n - TAIL_BEYOND - 1]
        pct = 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {
        "p50_s": statistics.median(ordered),
        "tail_s": tail,
        "tail_percentile": pct,
        "samples": n,
    }


def _trimmed_rate(rates: list[float], overall: float) -> float:
    """Mean block rate without the fastest and the slowest block."""
    if len(rates) < 3:
        return overall
    return statistics.fmean(sorted(rates)[1:-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def run_workload(args, root: Path) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            # Drop the previous set-up's inputs first, so that collecting
            # them is not charged to the next one.
            rounds = None
            gc.collect()
            t0 = time.perf_counter()
            if not args.trace:
                cold_import(root)
            rounds = workload.setup(args.seed, args.tiny, workdir)
            setup_times.append(time.perf_counter() - t0)
        # Warm-up: one op, untimed, so lazy imports and caches are settled.
        rounds[0][0].run()
        # The inputs live until the end; keep them out of the collector's
        # full passes, which would otherwise land as pauses on random ops.
        gc.collect()
        gc.freeze()

        if not args.trace:
            records, wall, rates = run_loop(rounds, args.seconds)
            return _end_to_end_result(workload, records, wall, rates, setup_times)
        return _traced_result(args, workload, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _verdict(workload, records) -> tuple[int, int]:
    checks = check_records(records)
    checks += workload.extra_checks([(op, out) for op, _, out, _ in records])
    return len(checks), checks.count(False)


def _end_to_end_result(workload, records, wall, rates, setup_times) -> dict:
    attempted, failed = _verdict(workload, records)
    lat = latency_summary([r[1] for r in records])
    n = lat["samples"]
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": _metric(_trimmed_rate(rates, len(records) / wall), "1/s", len(rates) or 1),
        "op_p50_ms": _metric(lat["p50_s"] * 1e3, "ms", n),
        "op_tail_ms": _metric(lat["tail_s"] * 1e3, "ms", n),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB", 1),
    }
    kinds: dict[str, list[float]] = {}
    for op, latency, _, _ in records:
        kinds.setdefault(op.kind, []).append(latency)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "op_tail_percentile": lat["tail_percentile"],
        "timed_wall_s": wall,
        "mean_ops_per_s": len(records) / wall,
        "block_ops_per_s": rates,
        "setup_samples_s": setup_times,
        "per_kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(kinds.items())},
        "per_kind_ops": {k: len(v) for k, v in sorted(kinds.items())},
        "tracing_overhead": None,
    }


def _traced_result(args, workload, rounds) -> dict:
    from tracing import LAYER_METRICS, ROOT, Tracer

    untraced, untraced_wall, _ = run_loop(rounds, args.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.enter(ROOT)
        traced = replay(untraced, tracer)
        tracer.exit(root)
    finally:
        tracer.uninstall()
    traced_wall = root.self_s + root.child
    if args.spans:
        tracer.dump_spans(args.spans)

    attempted, failed = _verdict(workload, untraced + traced)
    values = tracer.layer_metrics()
    values["bench.ops"] = len(traced)
    values["bench.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    metrics = {
        name: _metric(values[name], unit, len(traced)) for name, unit in LAYER_METRICS.items()
    }
    layer_self = sum(
        v["value"]
        for k, v in metrics.items()
        if k.endswith(".self_s") and k.count(".") == 2
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "layer_self_plus_remainder_s": layer_self,
        "spans_logged": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "tracing_overhead": {
            "seconds": values["trace.overhead_s"],
            "share": values["trace.overhead_share"],
        },
    }


def contract_line(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()
        },
    }


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is per workload."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-2])
    for name, result in results.items():
        print(f"== {name}  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={result['fail_ratio']:.4f}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:42s} {m['value']:>14.6g} {m['unit']:6s} (n={m['samples']})")
        if "op_tail_percentile" in result:
            print(f"   {'op_tail_ms percentile':42s} {result['op_tail_percentile']:>14.3f} %")
    combined = {"results": results}
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n")
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs (smoke test)")
    p.add_argument("--out", help="also write the full result record to this file")
    p.add_argument("--spans", help="traced run: write the span log as JSON lines")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if load_library(root) is None:
        print(f"error: no multiorder sources under {root / 'src'}", file=sys.stderr)
        return EXIT_USAGE
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return EXIT_USAGE
    result = run_workload(args, root)
    result["provenance"] = provenance(root, args)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    print(json.dumps(contract_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
