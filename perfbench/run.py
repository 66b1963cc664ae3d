#!/usr/bin/env python3
"""Serving benchmark: raw sensor rows -> scaler -> ApDeepSense -> predictive.

    python3 perfbench/run.py --workload <stream_b1|offline_b64|mcdrop50_b1>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
repository's libraries plus the benchmark binary (perfbench/CMakeLists.txt)
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs reuse the build. Models are trained per seed outside every timed phase
and cached beside the build.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(and writes the benchmark's spans). Both print a report header, every
metric by name and unit, the correctness checks, and as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. A failed check
or a failed request makes the exit code non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("stream_b1", "offline_b64", "mcdrop50_b1")
BINARY = "perfbench_serving"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure once, then (re)build the benchmark target."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", BINARY,
                  "-j", jobs])
    with open(bdir / "build.log", "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = (bdir / "build.log").read_text()[-3000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}")
    return bdir / BINARY


def source_identity():
    """(git sha or 'unavailable', sha256 prefix over src/ contents)."""
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def fmt(v):
    return "null" if v is None else f"{v:.6g}"


def print_report(report, sha, digest):
    h = report["header"]
    print(f"perfbench {h['workload']}: seed {int(h['seed'])}, "
          f"trace {int(h['trace'])}, {h['seconds']:g} s, closed loop, "
          f"1 caller")
    print(f"header: git_sha {sha}; src_digest {digest}; kernel_tier "
          f"{h['kernel_tier']}; precision {h['precision']}; pool_width "
          f"{int(h['pool_width'])}; nproc {int(h['nproc'])}; seed "
          f"{int(h['seed'])}; perf_counters {h['perf_counters']}; model "
          f"{h['model']}; batch {int(h['batch'])}; heldout_rows "
          f"{int(h['heldout_rows'])}")
    for section in ("metrics", "info", "constants"):
        label = {"metrics": "metric", "info": "info",
                 "constants": "const"}[section]
        for e in report[section]:
            note = f"  ({e['note']})" if e["note"] else ""
            print(f"{label} {e['name']} = {fmt(e['value'])} {e['unit']}{note}")
    for c in report["checks"]:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'}  "
              f"({c['detail']})")
    for n in report["notes"]:
        print(f"note: {n}")


def paper_shape_line(results_dir, seed):
    """The stream_b1 vs mcdrop50_b1 p50 saving, once both have run."""
    p50 = {}
    for w in ("stream_b1", "mcdrop50_b1"):
        f = results_dir / f"{w}-seed{seed}.json"
        if not f.is_file():
            return None
        p50[w] = json.loads(f.read_text())["latency_p50_ms"]
    saved = 100.0 * (1.0 - p50["stream_b1"] / p50["mcdrop50_b1"])
    return (f"paper shape (information only): stream_b1 p50 "
            f"{p50['stream_b1']:.4g} ms vs mcdrop50_b1 p50 "
            f"{p50['mcdrop50_b1']:.4g} ms at seed {seed}: ApDeepSense saves "
            f"{saved:.1f}% of MCDrop-50's time; the paper reports ~83.6% "
            f"for Tanh")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # For the benchmark's own tests: overwrite response N with a NaN.
    ap.add_argument("--corrupt-response", type=int, default=-1,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    binary = build(bdir)
    out_dir = bdir / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = out_dir / f"{stem}.json"
    spans_path = out_dir / f"{stem}-spans.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache", str(bdir / "cache"),
           "--out", str(report_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    if args.corrupt_response >= 0:
        cmd += ["--corrupt-response", str(args.corrupt_response)]
    err_path = out_dir / f"{stem}.stderr"
    with open(err_path, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=err, stderr=subprocess.STDOUT,
                                  cwd=ROOT, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{BINARY} exceeded {RUN_TIMEOUT_S} s", 1)
    if proc.returncode not in (0, 1) or not report_path.is_file():
        fail(f"{BINARY} failed (exit {proc.returncode}):\n"
             f"{err_path.read_text()[-3000:]}", 1)

    report = json.loads(report_path.read_text())
    sha, digest = source_identity()
    print_report(report, sha, digest)

    metrics = {e["name"]: {"value": e["value"], "unit": e["unit"]}
               for e in report["metrics"]}
    expected = expected_metrics(args.trace)
    if sorted(metrics) != sorted(expected) or len(metrics) != len(
            report["metrics"]):
        fail(f"metrics {sorted(set(metrics) ^ set(expected))} differ from "
             f"BENCHMARK.json", 3)
    if any(m["value"] is None for m in metrics.values()):
        fail("a metric is not a finite number", 3)

    if args.trace:
        print(f"spans: {spans_path}")
    else:
        results = bdir / "results"
        results.mkdir(exist_ok=True)
        (results / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({k: v["value"] for k, v in metrics.items()}))
        line = paper_shape_line(results, args.seed)
        if line:
            print(f"note: {line}")
    print(f"report: {report_path}")

    correct = (proc.returncode == 0 and report["failed"] == 0 and
               all(c["ok"] for c in report["checks"]))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
