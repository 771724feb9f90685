"""projlab benchmark: seeded CLI workloads timed end to end, one fresh
process per invocation, with an optional traced run that measures each layer.

Usage (from the checkout root):

    python3 perfbench/run.py --workload incidence --seed 2026 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

A run invokes the workload's CLI config closed loop, one process at a time,
on a new seed derived from --seed each time, until --seconds have passed.
Every invocation gets the same emptied output directory, and invocations of
one seed must write identical canonical report bytes.  Before the result,
stdout carries a table of each metric's median, quartiles and sample count,
a JSON environment record and the per-invocation measurements; the last
line is the result object.  With --trace 1 each seed runs untraced and then
traced, and the run reports per-layer metrics plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_report, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench_work"
SEED_STRIDE = 100_003
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def canonical_digest(out: Path) -> str | None:
    """sha256 over the raw CSV and the canonical report JSON, names
    excluded (they carry the timestamp)."""
    files = sorted(p for p in out.iterdir()
                   if (p.name.startswith("report_") and not p.name.endswith(".meta.json"))
                   or p.name.startswith("raw_"))
    if not files:
        return None
    h = hashlib.sha256()
    for p in files:
        h.update(p.read_bytes())
    return h.hexdigest()


def invoke(root: Path, work: Path, trace: bool, run_id: str) -> dict:
    """Launch one child process, wait for it and measure it."""
    rel = work.relative_to(root)
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(rel / "config.ini"),
           str(rel / "out"), str(rel / "result.json")]
    if trace:
        cmd += [str(rel / "spans.npz"), run_id]
    with open(work / "child.log", "ab") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = {
        "traced": trace,
        "wall_s": ended - launched,
        "setup_s": None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "digest": canonical_digest(out),
        "problems": [],
    }
    if proc.returncode != 0:
        inv["problems"].append(f"exit code {proc.returncode}")
    try:
        child = json.loads(result_path.read_text())
    except FileNotFoundError:
        inv["problems"].append("child wrote no result")
        return inv
    if child["driver_entered"] is not None:
        inv["setup_s"] = child["driver_entered"] - launched
    inv["layers"] = child.get("layers")
    inv["module_self_s"] = child.get("module_self_s")
    reports = [p for p in out.glob("report_*.json") if not p.name.endswith(".meta.json")]
    if len(reports) != 1:
        inv["problems"].append(f"{len(reports)} reports written")
    else:
        inv["problems"] += check_report(json.loads(reports[0].read_text()))
    return inv


def run_workload(name: str, workload: dict, seed: int, seconds: float, trace: bool,
                 root: Path = ROOT) -> list[dict]:
    """Closed-loop invocations until `seconds` have passed.

    Invocation k runs projlab seed `seed + SEED_STRIDE * k`, so a run
    averages over inputs instead of timing one draw of them.  The first
    seed runs twice (with --trace 1 every seed runs untraced, then traced),
    and invocations of one seed must write identical canonical bytes.  Each
    invocation is checked against the contract.
    """
    work = root / WORK / name
    work.mkdir(parents=True, exist_ok=True)
    (work / "child.log").unlink(missing_ok=True)
    invs: list[dict] = []
    deadline = time.monotonic() + seconds
    k = 0
    while k == 0 or time.monotonic() < deadline:
        projlab_seed = seed + SEED_STRIDE * k
        (work / "config.ini").write_text(config_text(workload, projlab_seed))
        if trace:
            modes = (False, True)
        else:
            modes = (False, False) if k == 0 else (False,)
        for traced in modes:
            inv = invoke(root, work, traced, f"{name}-{projlab_seed}-{len(invs)}")
            invs.append({"seed": projlab_seed, **inv})
        k += 1
    first: dict[int, str | None] = {}
    for inv in invs:
        digest = first.setdefault(inv["seed"], inv["digest"])
        if inv["digest"] is None or inv["digest"] != digest:
            inv["problems"].append("canonical report bytes differ between runs of one seed")
    return invs


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def end_to_end(invs: list[dict]) -> dict:
    untraced = [i for i in invs if not i["traced"]]
    out = {}
    for key, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")):
        values = [i[key] for i in untraced if i[key] is not None]
        if values:
            out[key] = {"unit": unit, **spread(values)}
    return out


def per_layer(invs: list[dict]) -> dict:
    """Per-layer medians over the traced invocations, plus the tracing
    overhead as the median of traced minus untraced wall time per seed."""
    traced = [i["layers"] for i in invs if i["traced"] and i.get("layers")]
    if not traced:
        return {}
    out = {key: {"unit": first["unit"], **spread([t[key]["value"] for t in traced])}
           for key, first in traced[0].items()}
    for flag, key in ((False, "trace.untraced_wall_s"), (True, "trace.traced_wall_s")):
        out[key] = {"unit": "s", **spread([i["wall_s"] for i in invs if i["traced"] is flag])}
    pairs = zip(invs[0::2], invs[1::2])
    out["trace.overhead_s"] = {"unit": "s", **spread([t["wall_s"] - u["wall_s"]
                                                      for u, t in pairs])}
    return out


def layer_shares(invs: list[dict]) -> dict:
    """Median self seconds per module over the traced invocations, as a
    share of the median traced wall time."""
    traced = [i for i in invs if i["traced"] and i.get("module_self_s")]
    wall = statistics.median(i["wall_s"] for i in traced)
    modules = sorted({m for i in traced for m in i["module_self_s"]})
    return {m: statistics.median(i["module_self_s"].get(m, 0.0) for i in traced) / wall
            for m in modules}


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path, seed: int, load_start) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        return cfg(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas(numpy.show_config), "scipy": blas(scipy.show_config)},
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(root),
        "seed": seed,
    }


def print_table(name: str, seed: int, table: dict, invs: list[dict]) -> None:
    failed = sum(1 for i in invs if i["problems"])
    print(f"== {name} (seed {seed}): {len(invs)} invocations")
    print(f"{'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
    for key, s in table.items():
        print(f"{key:44s} {s['unit']:6s} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['n']:3d}")
    print(f"{'fail_rate':44s} {'1':6s} {failed / len(invs):12.6g} "
          f"{'':>12s} {'':>12s} {len(invs):3d}")
    for i, inv in enumerate(invs):
        for problem in inv["problems"]:
            print(f"invocation {i}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "projlab" / "cli.py").is_file():
        print(f"perfbench: no projlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, every = {}, []
    for name in names:
        invs = run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        every += invs
        table = per_layer(invs) if args.trace else end_to_end(invs)
        print_table(name, args.seed, table, invs)
        if args.trace:
            print(json.dumps({"layer_shares": {name: layer_shares(invs)}}))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": s["median"], "unit": s["unit"]}
                        for k, s in table.items()})
    print(json.dumps({"env": environment(ROOT, args.seed, load_start)}))
    print(json.dumps({"invocations": [
        {k: inv[k] for k in ("seed", "traced", "wall_s", "setup_s", "cpu_s", "peak_rss_mb",
                             "digest")}
        for inv in every]}))
    failed = sum(1 for i in every if i["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(every), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
