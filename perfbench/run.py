#!/usr/bin/env python3
"""End-to-end benchmark of the irlm CLI.

Usage, from the root of an irlm checkout:

    python3 perfbench/run.py --workload trace_replay --seed 1 --seconds 58 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
is the separate traced run: it wraps the library's layer functions, reports
per-layer self time and counts, and writes its spans to
``.perfbench_work/spans-<workload>-seed<seed>.json``.  Metric names and units
come from ``BENCHMARK.json``.  Human-readable lines go to stdout first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and rules.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = tuple(workloads.build())
MIN_SAMPLES = measure.TAIL_BEYOND + 1  # so a tail percentile exists
HARD_CAP_S = 120.0  # stop adding passes past this, whatever --seconds says
SETUP_REPEATS = 3
# Every workload runs on one BLAS thread.  With OpenBLAS's default two
# threads on 2 cores, a lemmaA trace used about twice its wall time in
# CPU (the second thread spins at barriers on small matrices), and took 2-3
# times as long once one other busy process shared the machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def fresh_import_s(src: Path) -> float:
    """Wall seconds for a new interpreter to start and import ``irlm.cli``:
    what every CLI run pays before it does any work."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import irlm.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=str(src)))
    return time.perf_counter() - t


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    a = numpy.ones((512, 512))
    a @ a  # make sure the BLAS thread pool is up before counting threads
    threads = re.search(r"^Threads:\s+(\d+)", _read("/proc/self/status"), re.M)
    mem = re.search(r"^MemTotal:\s+(\d+) kB", _read("/proc/meminfo"), re.M)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_mb": int(mem.group(1)) // 1024 if mem else None,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "process_threads_after_matmul": int(threads.group(1)) if threads else None,
    }


def run_pass(wl, work, seed, refs, seen, ops) -> tuple[float, float, list]:
    """One untraced pass; returns its wall and CPU seconds and its calls."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    calls = wl.run(work, seed)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    ops.extend(wl.check(work, seed, calls, refs, seen))
    return wall, cpu, calls


def timed_run(wl, work, seed, seconds, refs):
    """Closed loop with tracing off: one untimed warm-up pass (checked like
    the others), then passes until ``seconds`` would be exceeded by one more
    median pass, and at least MIN_SAMPLES passes."""
    seen, ops, walls, cpus = {}, [], [], []
    op_walls = {label: [] for label in wl.op_labels}
    run_pass(wl, work, workloads.pass_seed(seed, -1), refs, seen, ops)
    t0 = time.perf_counter()
    k = 0
    while True:
        wall, cpu, calls = run_pass(wl, work, workloads.pass_seed(seed, k), refs, seen, ops)
        walls.append(wall)
        cpus.append(cpu)
        for label, call in zip(wl.op_labels, calls):
            op_walls[label].append(call.seconds)
        k += 1
        elapsed = time.perf_counter() - t0
        if elapsed > HARD_CAP_S:
            break
        if k >= MIN_SAMPLES and elapsed + statistics.median(walls) > seconds:
            break
    phase = time.perf_counter() - t0
    tail, pct, count = measure.tail_percentile(walls)
    # Wall and CPU time per pass are declared as means over the timed phase:
    # slow spells of the host split a run's passes into two clusters, and a
    # median that jumps between them spread wider across runs (README.md).
    values = {
        "work_per_s": k * wl.units_per_pass / phase,
        "pass_tail_s": tail,
        "cpu_per_pass_s": statistics.fmean(cpus),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"passes {k} over {phase:.3f} s",
        f"pass_p50_s {statistics.median(walls):.6g} s (printed, not declared)",
        f"pass_tail_s {tail:.6g} s: p{pct:.1f} of {count} passes",
        f"work_per_s counts {wl.unit}/s",
    ]
    notes += [f"call {label}: median {statistics.median(v):.4f} s" for label, v in op_walls.items()]
    return values, ops, notes


def traced_run(wl, work, seed, seconds, refs):
    """For each pool input: an untraced pass, then the same pass traced.
    Whole cycles over the pool repeat while time remains, so per-pass counts
    are averages over the same inputs in every run."""
    rec = spans.Recorder()
    seen, ops = {}, []
    base, traced, roots = [], [], []
    t0 = time.perf_counter()
    k = 0
    while True:
        cycle_start = time.perf_counter()
        for _ in workloads.POOL_SEEDS:
            s = workloads.pass_seed(seed, k)
            base.append(run_pass(wl, work, s, refs, seen, ops)[0])
            patched = spans.install(rec)
            rec.pass_id = k
            root = rec.open("pass")
            try:
                calls = wl.run(work, s)
            finally:
                rec.close(root)
                spans.uninstall(patched)
            roots.append(root)
            traced.append(rec.spans[root].end - rec.spans[root].start)
            ops.extend(wl.check(work, s, calls, refs, seen))
            k += 1
        now = time.perf_counter()
        if now - t0 + (now - cycle_start) > seconds:
            break

    own = measure.self_times(rec.spans)
    by_name = measure.self_time_by_name(rec.spans)
    root_ids = set(roots)
    accounted = sum(own.values())
    if abs(accounted - sum(traced)) > 1e-6 * max(1.0, sum(traced)):
        raise RuntimeError(f"self times sum to {accounted}, traced passes to {sum(traced)}")
    n = len(traced)
    values = {f"{name}.self_s": total / n for name, total in by_name.items() if name != "pass"}
    totals: dict = {}
    for counts in rec.counts.values():
        for key, v in counts.items():
            totals[key] = totals.get(key, 0.0) + v
    values.update({key: v / n for key, v in totals.items()})
    values["trace.pass_s"] = sum(traced) / n
    values["trace.uncovered_s"] = sum(own[i] for i in root_ids) / n
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(base)
    notes = [f"traced passes {n}, untraced passes {len(base)}"]
    shares = sorted(((t, name) for name, t in by_name.items()), reverse=True)[:6]
    notes += [f"self share {name}: {t / sum(traced):.3f}" for t, name in shares]
    return values, ops, notes, rec


def write_spans(path: Path, env: dict, wl_name: str, seed: int, rec) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "env": env,
        "workload": wl_name,
        "seed": seed,
        "spans": [vars(s) for s in rec.spans],
        "counts": {str(p): dict(c) for p, c in rec.counts.items()},
    }
    path.write_text(json.dumps(doc))


def pick(declared: list[dict], values: dict, traced: bool) -> dict:
    """The declared metrics, in BENCHMARK.json order, with their units."""
    known_prefixes = {name for name, *_ in spans.targets()}
    out = {}
    for m in declared:
        name = m["name"]
        if name not in values:
            if not traced or name.rsplit(".", 1)[0] not in known_prefixes:
                raise KeyError(f"metric {name} is declared but not measured")
            values[name] = 0.0  # a layer this workload never calls
        out[name] = {"value": float(values[name]), "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "irlm" / "__init__.py").is_file():
        print(f"error: no irlm sources under {src}; run from an irlm checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # read once, when numpy loads OpenBLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import irlm.cli  # noqa: F401  (imports every layer module)

    import_s = time.perf_counter() - _START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "references.json").read_text())
    wl = workloads.build()[args.workload]

    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        imports, prep = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(fresh_import_s(src))
            t = time.perf_counter()
            wl.prepare(work)
            prep.append(time.perf_counter() - t)
        setup_s = statistics.median(i + p for i, p in zip(imports, prep))
        if args.trace:
            values, ops, notes, rec = traced_run(wl, work, args.seed, args.seconds, refs)
        else:
            values, ops, notes = timed_run(wl, work, args.seed, args.seconds, refs)
            values["setup_s"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    if args.trace:
        out = ROOT / ".perfbench_work" / f"spans-{wl.name}-seed{args.seed}.json"
        write_spans(out, env, wl.name, args.seed, rec)
        notes.append(f"spans written to {out.relative_to(ROOT)}")
    metrics = pick(spec["per_layer" if args.trace else "end_to_end"], values, bool(args.trace))
    counted = measure.tally(ops)

    print("env " + json.dumps(env))
    print(f"workload {wl.name}: {wl.describe()}; seed {args.seed}; "
          f"matrix seeds {list(workloads.POOL_SEEDS)}")
    print(f"setup: {SETUP_REPEATS} repeats, fresh-process import median "
          f"{statistics.median(imports):.3f} s, prepare median {statistics.median(prep):.3f} s; "
          f"this process's own import {import_s:.3f} s")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {counted.failed_ratio:.6g}: {counted.failed} of {counted.attempted} "
          f"operations failed, {counted.unexpected} of them outside the known defects")
    for detail in sorted({f"{op.name}: {op.detail}" for op in ops if not op.ok})[:8]:
        print(f"failed {detail}")
    print(json.dumps({
        "correct": counted.unexpected == 0,
        "attempted": counted.attempted,
        "failed": counted.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
