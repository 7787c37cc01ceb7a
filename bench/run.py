"""Benchmark of ttrec: end-to-end figures per workload, or a traced layer split.

    python3 bench/run.py --workload m6-cv --seed 1 --seconds 55 --trace 0

Runs one workload (see ``workloads.py``) in this process against the
sources under ``src/``, as a batch closed loop: one operation at a time,
passes over input instances drawn from the seed, as many as fit in
``--seconds`` (at least two instances).  Every result is checked.  The
last line of stdout is the result object; the line before it records the
environment stamp and the per-operation result fingerprints of the first
instance, which depend only on the seed (the same record goes to
``.bench_out/``).

``--trace 0`` reports the end-to-end figures: ``pass_s``, ``setup_s``
(median of five set-ups, each an import, input generation and one short
warm-up call per operation; four of them run in fresh processes) and
``peak_rss_mb``.  The first round of passes runs fresh instances while
``ROUNDS`` rounds of them still fit in ``--seconds``; the later rounds
repeat them in the same order, as far as the time allows, and must
reproduce their results.  An instance's time is the sum over operations of
the best time over rounds, and ``pass_s`` is the median of that over
instances.  On a shared 2-core VM the host's speed dropped by up to a half
for seconds at a time; the best of rounds that lie half a run apart keeps
those drops out, and the median over instances covers the spread between
inputs.

``--trace 1`` runs every instance twice, untraced and traced, checks
that tracing left the results unchanged, and reports the layer metrics of
``layers.py`` from the traced passes, the per-operation figures from the
untraced ones, and the tracing overhead as the median of traced minus
untraced pass time on the same instance.  A metric of a layer or operation
the workload does not run reads 0.

BLAS is pinned to one thread before numpy loads.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("m6-cv", "darcy-m20")
SETUP_REPEATS = 5
MIN_PASSES = 2      # at least: first-round instances untraced, passes traced
ROUNDS = 2
CHILD_TIMEOUT_S = 150


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(args, workdir):
    """Import, generate the first instance and warm up; returns the workload
    and the seconds this took."""
    t0 = time.perf_counter()
    import workloads
    workload = workloads.make(args.workload, args.seed, workdir)
    workload.warm_up()
    return workload, time.perf_counter() - t0


def set_up_in_child(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(workload, inst, tracer):
    """One pass over the workload's operations; a failing operation is
    recorded and the pass goes on."""
    rec = {"ops": {}, "fingerprints": {}, "errors": []}
    if tracer:
        tracer.reset()
    for op in workload.ops:
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            result = op.run(inst)
            rec["ops"][op.name] = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            rec["errors"].append(f"{op.name}: raised")
            continue
        finally:
            if tracer:
                tracer.uninstall()
        try:
            fp, err = op.check(inst, result)
        except Exception:
            traceback.print_exc()
            fp, err = None, f"{op.name}: check raised"
        rec["fingerprints"][op.name] = fp
        if err:
            rec["errors"].append(err)
    rec["wall"] = sum(rec["ops"].values())
    if tracer:
        rec["layers"] = tracer.layer_metrics()
    return rec


def blas_libraries():
    """OpenBLAS builds loaded in this process, with their thread counts."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("", "64_"):
            for prefix in ("openblas", "scipy_openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry.update(threads=threads(), config=config().decode())
        out.append(entry)
    return out


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ttrec").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp():
    import numpy
    import scipy
    from ttrec import sparse_solver
    return {
        "cd_engine": "numba" if sparse_solver.HAVE_NUMBA else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "blas": blas_libraries(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def op_figures(workload, passes):
    figures = {}
    for op in workload.ops:
        t = median(p["ops"][op.name] for p in passes if op.name in p["ops"])
        figures[op.name] = op.work / t if op.work and t else t
    return figures


def _fits(t_start, passes, seconds, factor=1):
    """Whether one more pass of average length, repeated ``factor`` times,
    still fits in ``seconds``."""
    elapsed = time.perf_counter() - t_start
    return elapsed * (len(passes) + 1) / len(passes) * factor <= seconds


def measure(args, workload):
    """Untraced rounds over the same instances (see the module docstring)."""
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or _fits(t_start, passes, args.seconds, ROUNDS):
        rec = run_pass(workload, workload.instance(len(passes)), None)
        rec["instance"] = len(passes)
        passes.append(rec)
    first = list(passes)
    # repeat: the full rounds, then as far as the time allows
    while (len(passes) < ROUNDS * len(first)
           or _fits(t_start, passes, args.seconds)):
        j = len(passes) % len(first)
        rec = run_pass(workload, workload.instance(j), None)
        rec["instance"] = j
        if rec["fingerprints"] != first[j]["fingerprints"]:
            rec["errors"].append(f"instance {j} gave another result when repeated")
        passes.append(rec)
    for rec in passes:
        rec["traced"] = False
    return passes


def measure_traced(args, workload):
    import layers
    tracer = layers.Tracer()
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or _fits(t_start, passes, args.seconds):
        k = len(passes)
        j = k // 2
        # odd instances run traced first, so that neither side of the
        # overhead is always the first pass after set-up
        traced = k % 2 != j % 2
        rec = run_pass(workload, workload.instance(j), tracer if traced else None)
        rec["traced"] = traced
        if k % 2 == 1 and rec["fingerprints"] != passes[-1]["fingerprints"]:
            rec["errors"].append("tracing changed a result")
        passes.append(rec)
    return passes


def instance_times(passes):
    """Per instance, the sum over operations of the best time over rounds."""
    best = {}
    for p in passes:
        ops = best.setdefault(p["instance"], {})
        for name, t in p["ops"].items():
            ops[name] = min(t, ops.get(name, t))
    return [sum(ops.values()) for _, ops in sorted(best.items())]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ttrec" / "__init__.py").is_file():
        print(f"bench: no ttrec sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            if args.setup_only:
                print(json.dumps({"setup_s": set_up(args, Path(tmp))[1]}))
                return 0
            setups = [set_up_in_child(args) for _ in range(SETUP_REPEATS - 1)]
            workload, own = set_up(args, Path(tmp))
            setups.append(own)
            passes = (measure_traced if args.trace else measure)(args, workload)
    finally:
        try:
            tmp_root.rmdir()
        except OSError:
            pass   # another run still uses it

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        import layers
        import workloads
        traced = [p for p in passes if p["traced"]]
        figures = dict.fromkeys(workloads.OP_FIGURES, 0.0)
        figures.update(op_figures(workload, plain))
        metrics = {name: (median(p["layers"][name] for p in traced), unit)
                   for name, (unit, *_) in layers.LAYER_METRICS.items()}
        metrics.update({name: (figures[name], unit)
                        for name, unit in workloads.OP_FIGURES.items()})
        overhead = [(p["wall"] - q["wall"]) * (1 if p["traced"] else -1)
                    for q, p in zip(passes[::2], passes[1::2])]
        metrics["trace.overhead_s"] = (median(overhead), "s")
    else:
        metrics = {
            "pass_s": (median(instance_times(passes)), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(len(workload.ops) for _ in passes)
    fingerprint = passes[0]["fingerprints"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "stamp": stamp(),
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_instances": [p.get("instance") for p in passes],
        "setup_samples_s": setups,
        "ops": op_figures(workload, plain),
        "errors": errors,
        "fingerprint_sha256": hashlib.sha256(
            json.dumps(fingerprint, sort_keys=True).encode()).hexdigest(),
        "fingerprint": fingerprint,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
