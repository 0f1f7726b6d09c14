#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name, outputs checked.

    python3 benchmarks/e2e/run.py [--seed N] [--out FILE] [--traced]
        every workload, each in fresh subprocesses; prints each metric with
        its unit, quartiles and sample count; appends the pass to FILE

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last line of stdout is one JSON object
        {"correct", "attempted", "failed", "metrics"} (the pipeline's form)

    python3 benchmarks/e2e/run.py compare A.json B.json
        one row per (end-to-end metric, workload) with a verdict

End-to-end numbers (``--trace 0``) are measured with no wrapper installed;
``--trace 1`` / ``--traced`` is a separate, shorter traced run that yields
the per-layer numbers.  declare.py says what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import declare  # noqa: E402  (script directory is on sys.path)
import stats  # noqa: E402

#: fresh processes whose set-up time is taken; ``setup_s`` is their median
N_SETUPS = 3
#: one invocation must end well inside the pipeline's 180 s
DEADLINE_S = 170.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

UNITS = {n: u for n, u, *_ in declare.END_TO_END}
UNITS.update({n: u for n, u, *_ in declare.PER_LAYER})
BOUNDS = {n: (better, bound) for n, _, better, bound, _ in declare.END_TO_END}


class WorkloadFailed(RuntimeError):
    """A child crashed, timed out, or printed no result."""


def spawn(workload, seed, seconds, trace, scale, workdir, deadline, setup_only=False):
    """Run child.py once; its last stdout line is the result object."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", str(scale), "--workdir", str(workdir),
        "--spawned-at", repr(time.time()),
    ] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkloadFailed(f"{workload}: timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadFailed(f"{workload}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, scale=1.0, spans_dir=None) -> dict:
    """``N_SETUPS`` fresh processes; the last one also measures.

    The others stop after set-up: ``setup_s`` is the median over all of
    them, which one cold start (bytecode, page cache) cannot move.
    """
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        runs = [
            spawn(workload, seed, seconds, trace, scale, workdir / f"p{i}", deadline,
                  setup_only=i < N_SETUPS - 1)
            for i in range(N_SETUPS)
        ]
        result = runs[-1]
        if spans_dir and result.get("spans_file"):
            Path(spans_dir).mkdir(parents=True, exist_ok=True)
            shutil.copy(result["spans_file"], spans_dir)
    finally:
        # .bench_work itself stays: removing it races with a concurrent run
        shutil.rmtree(workdir, ignore_errors=True)
    setups = [r["setup_s"] for r in runs]
    if not trace:
        result["metrics"]["setup_s"] = stats.summary(setups)
    infos = [r["setup_info"].get("warmup_losses") for r in runs]
    if infos[0] is not None:
        same = all(i == infos[0] for i in infos)
        result["checks"].append(
            ["identical across same-seed processes", same, f"{len(infos)} processes"])
        result["attempted"] += 1
        result["failed"] += 0 if same else 1
    result["correct"] = result["failed"] == 0
    for m, v in result["metrics"].items():
        v["unit"] = UNITS[m]
    return result


def print_result(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}) ==")
    for name, v in result["metrics"].items():
        spread = (f"  [q1 {v['q1']:.6g}  q3 {v['q3']:.6g}]  n={v['n']}"
                  if "q1" in v else "")
        print(f"  {name:32s} {v['value']:>14.6g} {v['unit']:6s}{spread}")
    for name, ok, detail in result["checks"]:
        print(f"  gate {'pass' if ok else 'FAIL'}: {name} ({detail})")
    share = result["failed"] / result["attempted"]
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_share {share:.6g}")


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": SINGLE_THREAD["OMP_NUM_THREADS"],
        "load_1min_at_start": os.getloadavg()[0],
    }


def one(args) -> int:
    """The pipeline's form: one workload, result object on the last line."""
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.scale, args.spans_dir)
    print_result(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                    for m, v in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def full_pass(args) -> int:
    """Every workload; a crashed one is reported as failed and the rest run."""
    sys.path.insert(0, str(SRC))
    from repro.obs.jsonio import write_json

    this = {"fingerprint": fingerprint(), "seed": args.seed, "traced": args.traced,
            "seconds": args.seconds, "workloads": {}}
    t0 = time.monotonic()
    for name in declare.WORKLOADS:
        try:
            result = run_workload(name, args.seed, args.seconds, int(args.traced),
                                  args.scale, args.spans_dir)
        except WorkloadFailed as exc:
            print(f"== {name} == FAILED: {exc}")
            result = {"workload": name, "seed": args.seed, "correct": False,
                      "attempted": 1, "failed": 1, "metrics": {}, "checks": []}
        else:
            print_result(result)
        result.pop("setup_info", None)
        result.pop("spans_file", None)
        this["workloads"][name] = result
    print(f"pass took {time.monotonic() - t0:.1f} s")
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {"passes": []}
        doc["passes"].append(this)
        write_json(out, doc)
    return 0 if all(w["correct"] for w in this["workloads"].values()) else 1


# -- compare --------------------------------------------------------------------


def _series(doc: dict, workload: str, metric: str) -> list:
    """One value per pass that measured this (metric, workload)."""
    return [
        p["workloads"][workload]["metrics"][metric]
        for p in doc["passes"]
        if metric in p["workloads"].get(workload, {}).get("metrics", {})
    ]


def _spread(entries: list) -> tuple:
    """(median, q1, q3, lowest, highest): across passes, or within the only pass."""
    if len(entries) == 1:
        e = entries[0]
        q1, q3 = e.get("q1", e["value"]), e.get("q3", e["value"])
        return e["value"], q1, q3, q1, q3
    values = [e["value"] for e in entries]
    q1, med, q3 = stats.quartiles(values)
    return med, q1, q3, min(values), max(values)


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """(ratio B/A, verdict) for one (end-to-end metric, workload) pair.

    ``unresolved``: a run-to-run spread wider than the bound while the two
    sets overlap — not the same thing as unchanged.
    """
    med_a, q1_a, q3_a, lo_a, hi_a = _spread(a)
    med_b, q1_b, q3_b, lo_b, hi_b = _spread(b)
    worse_by = (med_b - med_a) / med_a * (1.0 if better == "lower" else -1.0)
    spread_a = (q3_a - q1_a) / med_a
    overlap = lo_a <= hi_b and lo_b <= hi_a
    if max(spread_a, (q3_b - q1_b) / med_b) > bound and overlap:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif not overlap and -worse_by > spread_a:
        word = "better"
    else:
        word = "within"
    return med_b / med_a, word


def compare(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    print(f"A = {args.a} ({len(a['passes'])} passes)   "
          f"B = {args.b} ({len(b['passes'])} passes)   ratio = B/A")
    print(f"{'workload':14s} {'metric':16s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B/A':>7s} {'bound':>6s}  verdict")
    bad = 0
    for workload in declare.WORKLOADS:
        for metric, (better, bound) in BOUNDS.items():
            sa, sb = _series(a, workload, metric), _series(b, workload, metric)
            if not sa or not sb:
                print(f"{workload:14s} {metric:16s} missing on one side")
                bad += 1
                continue
            ratio, word = verdict(sa, sb, better, bound)
            fa, fb = ("{:.5g} [{:.5g}, {:.5g}]".format(*_spread(s)[:3]) for s in (sa, sb))
            print(f"{workload:14s} {metric:16s} {fa:>34s} {fb:>34s} "
                  f"{ratio:7.3f} {bound:6.2f}  {word}")
            bad += word in ("worse", "unresolved")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("a")
        ap.add_argument("b")
        return compare(ap.parse_args(argv[1:]))
    if not (SRC / "repro").is_dir():
        sys.exit(f"run.py: {SRC}/repro not found; run from a checkout of the repo")
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(declare.WORKLOADS))
    ap.add_argument("--seed", type=int, default=declare.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(declare.RUN_SECONDS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="full pass of traced runs (per-layer metrics)")
    ap.add_argument("--out", help="append this pass to a result JSON file")
    ap.add_argument("--spans-dir", help="keep the traced runs' span files here")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink segment sizes (harness self-test only)")
    args = ap.parse_args(argv)
    if args.workload:
        try:
            return one(args)
        except WorkloadFailed as exc:
            sys.exit(f"run.py: {exc}")
    return full_pass(args)


if __name__ == "__main__":
    sys.exit(main())
