"""syminv benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

With ``--trace 0`` a run measures the end-to-end metrics of
BENCHMARK.json with tracing off; with ``--trace 1`` it runs the workload
with every call made twice, traced and untraced, and then the per-layer
probes, and reports the per-layer metrics.  Both check every output and
print one JSON object as the last line of stdout.  ``--smoke`` runs every
workload for a second at small orders in both modes and checks that each
metric of BENCHMARK.json is printed with its unit.

The library runs from the checkout's ``src`` directory; without it the
benchmark exits with status 2 and prints no result.  BLAS is pinned to
one thread.  Inputs, spans and per-run records go to ``perfbench/out``.
"""

import os
import sys

# Pinned before numpy is first imported, here and in every child process.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 3
SMOKE_TIMEOUT = 170


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small orders; without --workload, run every workload "
                   "in both modes and check the printed metrics")
    args = p.parse_args(argv)
    if args.workload is None and not args.smoke:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


def check_names(metrics, expected):
    """Problems with a metrics dict {name: (value, unit)} against {name: unit}."""
    problems = [f"missing {n}" for n in expected if n not in metrics]
    problems += [f"unexpected {n}" for n in metrics if n not in expected]
    problems += [f"{n} has unit {metrics[n][1]}, expected {expected[n]}"
                 for n in expected if n in metrics and metrics[n][1] != expected[n]]
    return problems


# The helpers below import the benchmark's modules, which import syminv,
# only once main() has found the sources and put them on sys.path.

def untraced(workload, seconds):
    from harness import median, tail
    from workloads import METHOD_METRIC, measure

    tally = workload.tally
    elapsed = measure(workload, seconds)
    calls = tally.call_seconds or [0.0]
    tail_s, pct, beyond = tail(calls)
    metrics = {
        "call_p50_s": (median(calls), "s"),
        "call_tail_s": (tail_s, "s"),
        "calls_per_s": (len(tally.call_seconds) / elapsed, "1/s"),
    }
    notes = {
        "call_p50_s": f"{len(tally.call_seconds)} calls",
        "call_tail_s": f"p{pct:g} of {len(tally.call_seconds)} calls, {beyond} beyond",
        "calls_per_s": f"over {elapsed:.3f} s of run time",
    }
    info = [(name, median(times), "s", f"median of {len(times)} calls")
            for method, name in METHOD_METRIC.items()
            if (times := tally.method_seconds.get(method))]
    return metrics, notes, info, bool(tally.call_seconds)


def traced(workload, seconds, ctx, seed):
    from layers import probe_layers
    from spans import Instrumentation, Tracer, layer_self_times
    from workloads import measure_traced

    tally = workload.tally
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    t_sum, u_sum, pairs = measure_traced(workload, seconds / 2, tracer, instrumentation)
    loop = list(tracer.spans)
    calls = sum(1 for s in loop if s[3] == "bench.call") or 1
    metrics, notes = probe_layers(ctx, seed, tracer, instrumentation, tally)
    for layer, total in layer_self_times(loop).items():
        metrics[f"layer_self_s.{layer}"] = (total / calls, "s")
    notes["layer_self_s.bench"] = (f"per traced call over {calls} calls; bench is the "
                                   "harness and, on the CLI, the child process outside syminv")
    pairs_ok = pairs > 0
    pairs = pairs or 1
    metrics["trace.overhead_s"] = ((t_sum - u_sum) / pairs, "s")
    metrics["trace.overhead_ratio"] = ((t_sum / u_sum - 1.0) if u_sum else 0.0, "ratio")
    metrics["trace.spans_per_call"] = (len(loop) / calls, "count")
    notes["trace.overhead_ratio"] = (f"traced / untraced - 1 over {pairs} pairs "
                                     "of the same call")
    metrics["complexity.count_mismatches"] = (tally.count_mismatches, "count")
    notes["complexity.count_mismatches"] = f"over {tally.counted} pivot-free counted calls"
    metrics["symmetric.robust_fallback_ratio"] = (
        tally.robust_fallbacks / max(tally.robust_calls, 1), "ratio")
    notes["symmetric.robust_fallback_ratio"] = (
        f"{tally.robust_fallbacks} fallbacks / {tally.robust_calls} robust calls")
    tracer.dump(os.path.join(OUT, f"{workload.name}-seed{seed}-spans.json"))
    return metrics, notes, pairs_ok


def run_one(args, spec):
    from harness import environment, median, subprocess_seconds, Tally
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    ctx = Context(ROOT, SRC, OUT, args.smoke)
    tally = Tally()
    workload = WORKLOADS[args.workload](ctx, tally)
    setup = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess_seconds([sys.executable, "-c", "import syminv"], ctx.env, ROOT)
        workload.setup(args.seed)
        setup.append(time.perf_counter() - t0)
    info = []
    if args.trace:
        metrics, notes, ran = traced(workload, args.seconds, ctx, args.seed)
    else:
        metrics, notes, info, ran = untraced(workload, args.seconds)
        metrics["setup_s"] = (median(setup), "s")
        notes["setup_s"] = (f"median of {SETUP_REPEATS}: fresh 'import syminv', "
                            "input generation and input files")
    problems = check_names(metrics, spec[args.trace])
    if problems:
        print("perfbench: metrics do not match BENCHMARK.json: " + "; ".join(problems),
              file=sys.stderr)
        return 3
    env = environment(ROOT, SRC, args.seed, PINNED)
    error_ratio = tally.failed / max(tally.attempted, 1)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name in spec[args.trace]:
        value, unit = metrics[name]
        note = notes.get(name)
        print(f"{name} {value!r} {unit}" + (f"  ({note})" if note else ""))
    for name, value, unit, note in info:
        print(f"{name} {value!r} {unit}  ({note}; printed only)")
    print(f"error_ratio {error_ratio!r} ratio  ({tally.failed} failed / "
          f"{tally.attempted} attempted; printed only)")
    for failure in tally.failures[:10]:
        print(f"# failed: {failure}")
    correct = ran and tally.failed == 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes, "error_ratio": error_ratio,
              "per_method": {name: {"value": v, "unit": u, "note": n} for name, v, u, n in info},
              "call_seconds": tally.call_seconds, "failures": tally.failures[:100]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in spec[args.trace]},
    }))
    return 0


def smoke_all(spec):
    """Run every workload briefly in both modes; check names, units and correctness."""
    bad = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SMOKE_TIMEOUT)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0 or not lines:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-500:]}")
            else:
                result = json.loads(lines[-1])
                got = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
                problems += check_names(got, spec[trace])
                printed = {tuple(line.split()[:3:2]) for line in lines[:-1]}
                problems += [f"{n} not printed with unit {u}"
                             for n, u in spec[trace].items() if (n, u) not in printed]
                if not result["correct"] or result["failed"]:
                    problems.append(f"not correct: {result['failed']} failed")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload} trace={trace} "
                  f"{time.perf_counter() - t0:.1f}s {status}")
            bad += bool(problems)
    print("smoke passed" if not bad else f"smoke: {bad} runs failed")
    return 1 if bad else 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "syminv", "__init__.py")):
        print(f"perfbench: {SRC} holds no syminv package; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC):
        print(f"perfbench: {SPEC} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import syminv

    if not os.path.abspath(syminv.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported syminv from {syminv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.smoke and args.workload is None:
        return smoke_all(spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
