#!/usr/bin/env python3
"""Entry point of the layered serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload skewed-zipf --seed 1 --seconds 20 --trace 0

It builds the benchmark binary from source (into $CARGO_TARGET_DIR, default
.bench_build), passes it the frozen parameters of the workload from
perfbench/spec.json (nominal rate, rate ladder, latency limit, batch,
warmup, set-up repetitions and the input fingerprint it must reproduce),
writes the full result record with the host description to
.bench_out/result-<workload>-seed<seed>-trace<trace>.json, prints every
metric by name and unit, and prints as its last line the summary:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the summary holds the end_to_end metrics of BENCHMARK.json,
with --trace 1 the per_layer ones. Exit status: 0 when every answer was
correct, 1 when the correctness gate failed (the summary is still printed),
anything else when the run could not be made (nothing is printed then).

    python3 perfbench/run.py --workload fleet-drift --fingerprint

prints the input fingerprint for the workload's recorded guard seed, for a
deliberate update of spec.json after a generator change.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    exe = target / "release" / "perfbench"
    before = exe.stat().st_mtime_ns if exe.exists() else None
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"), "--target-dir", str(target)]
    rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
    if rc != 0:
        fail(f"build failed ({' '.join(cmd)})", rc)
    if exe.stat().st_mtime_ns != before:
        # A fresh build leaves its output to be written back; flushed here,
        # it does not compete with the store's fsyncs in the first run.
        os.sync()
    return exe


def read(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_hash():
    """Revision stand-in for checkouts that are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host(w, record, workload, seed, trace):
    cpu = ""
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        l2 = "unknown"
    rev = read(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "l2_size": l2,
        "rustc": read(["rustc", "--version"]),
        "git_revision": rev or None,
        "source_hash": source_hash(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "workers": record["workers"],
        "nominal_rate_qps": w["nominal_rate_qps"],
        "ladder_qps": w["ladder_qps"],
        "latency_limit_ms": w["latency_limit_ms"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fingerprint", action="store_true",
                    help="print the input fingerprint for the guard seed and stop")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    w = spec["workloads"].get(args.workload)
    if w is None:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(spec['workloads'])}")
    fp = w["fingerprint"]
    exe = build()
    common = ["--workload", args.workload,
              "--batch", str(w["closed_batch_units"]),
              "--warmup", str(w["warmup_units"]),
              "--setup-reps", str(w["setup_reps"]),
              "--out-dir", str(OUT)]
    if args.fingerprint:
        p = subprocess.run([str(exe), *common, "--seed", str(fp["seed"]), "--fingerprint"],
                           cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(p.stdout.strip())
        sys.exit(p.returncode)
    if args.seed is None or args.seconds is None:
        fail("--seed and --seconds are required")

    cmd = [str(exe), *common,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--rate", str(w["nominal_rate_qps"]),
           "--ladder", ",".join(str(r) for r in w["ladder_qps"]),
           "--limit-ms", str(w["latency_limit_ms"]),
           "--guard-seed", str(fp["seed"]),
           "--guard-structure", fp["structure"],
           "--guard-hash", fp["stream_hash"]]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode not in (0, 1):
        fail(f"benchmark exited with status {p.returncode}", p.returncode)
    record = json.loads(p.stdout.strip().splitlines()[-1])

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"the run did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    OUT.mkdir(exist_ok=True)
    result = {"host": host(w, record, args.workload, args.seed, args.trace), "record": record}
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (samples: {m['samples']})")
    if record.get("first_violation"):
        print(f"first violation: {record['first_violation']}")
    print(f"result record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if record["correct"] else 1)


if __name__ == "__main__":
    main()
