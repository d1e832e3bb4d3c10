"""pedbank benchmark: one workload per run, or all three in turn.

    python3 bench/run.py --workload build|proposals|queries|all \
        --seed N --seconds S --trace 0|1

Run it from anywhere; it builds nothing and imports the package from the
checkout's ``src``. Inputs are drawn from ``--seed`` and written under
``.bench_work/`` in the checkout, which is removed again at exit except
for ``.bench_work/results/`` (full result and, when traced, the spans).

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. Lines before
it are a human-readable report. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy

import workloads
from spans import END, ID, NAME, PARENT, REQUEST, START, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 9
SAMPLE_NAMES = {
    "build_s": "build-bank command",
    "inspect_s": "inspect command",
    "complement_s": "complement command",
    "forward_s": "warm cross_attend",
    "backward_s": "warm attention_gradients",
    "forward_backward_s": "warm cross_attend + attention_gradients",
    "feature_batch_s": "warm FeatureBatch construction",
    "layer_norm_s": "layer_norm on trace.pre_norm",
    "query_s": "query (FeatureBatch + cross_attend)",
}


def import_program():
    """Import ``pedbank`` from the checkout's ``src``; exit 2 without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pedbank", "cli.py")):
        print(f"error: program sources not found at {src}/pedbank", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import pedbank
    import pedbank.cli

    if not os.path.abspath(pedbank.__file__).startswith(src + os.sep):
        print(f"error: imported pedbank from {pedbank.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return pedbank


def _openblas():
    """Thread count and config string of NumPy's bundled OpenBLAS, if found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    return threads(), config().decode()
    return None, None


def environment() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, config = _openblas()
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads": threads,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "load": "one process, closed loop with one caller",
        "threads_within_nproc": threads is None or threads <= nproc,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    pedbank = import_program()
    env = environment()
    os.makedirs(os.path.join(ROOT, ".bench_work", "results"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        wl = workloads.WORKLOADS[name](pedbank, ROOT, work, seed)
        wl.prepare()
        tracer = Tracer() if trace else None

        setup = []
        for _ in range(SETUP_REPS):
            if tracer is None:
                setup.append(wl.setup())
            else:
                tracer.request = -1
                with tracer.patched(pedbank):
                    setup.append(wl.setup())

        # Warm-up: traced when tracing, so the cold first call is on record.
        index = 0
        wl.record_samples = False
        wl.tracer = tracer
        for _ in range(wl.warmup_iterations):
            if tracer is not None:
                tracer.request = index
            wl.iteration(index)
            index += 1
        wl.record_samples = True

        # Timed loop; a traced run alternates traced and untraced iterations.
        measured, walls = set(), {True: [], False: []}
        start, done = perf_counter(), 0
        while perf_counter() - start < seconds or done < wl.min_iterations:
            traced = tracer is not None and done % 2 == 0
            wl.tracer = tracer if traced else None
            if traced:
                tracer.request = index
                measured.add(index)
            before = len(wl.samples.get(wl.primary, []))
            wl.iteration(index)
            walls[traced] += wl.samples.get(wl.primary, [])[before:]
            index += 1
            done += 1
        wl.tracer = None
        elapsed = perf_counter() - start

        wl.finish()
        self_test = wl.self_test()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gates_ok = all(g["ok"] for g in wl.gates.values())
    correct = wl.failed == 0 and gates_ok and all(self_test.values())
    primary_s, secondary_s = wl.headline()

    if trace:
        untraced = workloads.median(walls[False])
        overhead = workloads.median(walls[True]) / untraced - 1.0 if untraced else 0.0
        values = workloads.layer_metrics(tracer, measured, overhead)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in workloads.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": workloads.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "primary_ms": {"value": 1e3 * primary_s, "unit": "ms"},
            "secondary_ms": {"value": 1e3 * secondary_s, "unit": "ms"},
        }

    report = {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "measured_s": elapsed, "iterations": done,
        "environment": env, "setup_samples_s": setup, "peak_rss_mb": peak_rss_mb,
        "samples_s": wl.samples, "summary": wl.summary(), "gates": wl.gates,
        "self_test": self_test, "hashes": wl.hashes, "probes": wl.probes,
        "errors": wl.errors, "attempted": wl.attempted, "failed": wl.failed,
        "correct": correct, "metrics": metrics,
    }
    stem = os.path.join(ROOT, ".bench_work", "results", f"{name}-seed{seed}-trace{int(trace)}")
    if tracer is not None:
        tracer.write(stem + "-spans.json")
        report["spans_file"] = stem + "-spans.json"
        report["self_time_breakdown"] = breakdown(tracer, measured)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return report


def breakdown(tracer, measured) -> dict:
    """For each traced top-level operation, the call with the median wall
    time, split exactly into its self time and its direct children."""
    selfs = tracer.self_times()
    children: dict[int, list] = {}
    for s in tracer.spans:
        children.setdefault(s[PARENT], []).append(s)
    tops: dict[str, list] = {}
    for top in children.get(-1, []):
        if top[REQUEST] in measured:
            tops.setdefault(top[NAME], []).append(top)
    out = {}
    for name, calls in sorted(tops.items()):
        calls.sort(key=lambda s: s[END] - s[START])
        mid = calls[len(calls) // 2]
        parts: dict[str, float] = {}
        for s in children.get(mid[ID], []):
            parts[s[NAME]] = parts.get(s[NAME], 0.0) + s[END] - s[START]
        out[name] = {"calls": len(calls), "wall_s": mid[END] - mid[START],
                     "self_s": selfs[mid[ID]], "children_s": dict(sorted(parts.items()))}
    return out


def print_report(r: dict) -> None:
    median, tail = workloads.median, workloads.tail
    env = r["environment"]
    print(f"== {r['workload']} (seed {r['seed']}, {r['seconds']} s, trace {r['trace']})")
    print(f"why: {r['why']}")
    print(f"environment: Python {env['python']}, NumPy {env['numpy']}, "
          f"BLAS {env['blas']} {env['blas_version']} with {env['blas_threads']} threads, "
          f"nproc {env['nproc']}; load: {env['load']}")
    print(f"measured {r['measured_s']:.1f} s over {r['iterations']} iterations; "
          f"attempted {r['attempted']}, failed {r['failed']}")
    print(f"setup_s: {median(r['setup_samples_s']):.6f} s (median of {len(r['setup_samples_s'])})")
    print(f"peak_rss_mb: {r['peak_rss_mb']:.1f} MB")
    for key, values in sorted(r["samples_s"].items()):
        t = tail(values)
        extra = f", p{t[0]:.2f} {t[1]:.6f} s" if t else ""
        label = SAMPLE_NAMES.get(key, key)
        print(f"  {key} ({label}): median {median(values):.6f} s, "
              f"p90 {workloads.percentile(values, 90):.6f} s{extra}, n={len(values)}")
    for label, value, unit in r["summary"]:
        print(f"{label}: {value:.6g} {unit}")
    for gate, g in sorted(r["gates"].items()):
        status = "ok" if g["ok"] else f"FAIL ({g['detail']})"
        print(f"gate: {gate}: {status} [{g['checked']} checks]")
    for test, caught in sorted(r["self_test"].items()):
        print(f"gate self-test: {test}: {'caught' if caught else 'NOT CAUGHT'}")
    for name, digest in sorted(r["hashes"].items()):
        print(f"sha256 {name}: {digest}")
    for name, probe in sorted(r["probes"].items()):
        print(f"probe {name}: {json.dumps(probe, sort_keys=True)}")
    for err in r["errors"][:5]:
        print(f"error: {err}")
    for top, b in r.get("self_time_breakdown", {}).items():
        print(f"trace {top} (median of {b['calls']} traced calls): wall {b['wall_s']:.6f} s "
              f"= self {b['self_s']:.6f} s + children {sum(b['children_s'].values()):.6f} s")
        for child, seconds in b["children_s"].items():
            print(f"    {child}: {seconds:.6f} s")
    if r["trace"]:
        print(f"spans: {r['spans_file']}")
    for key, m in r["metrics"].items():
        print(f"metric {key}: {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Run every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("build", "proposals", "queries", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        import_program()  # fail fast, before starting any child
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
