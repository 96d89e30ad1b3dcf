#!/usr/bin/env python3
"""Benchmark self-test: validates BENCHMARK.json, then runs every workload
at smoke size, untraced and traced, through run.py (which checks that every
metric BENCHMARK.json names appears with its unit and that the correctness
checks pass).

    python3 perfbench/selftest.py
"""
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def spec_errors(spec):
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append(f"keys {sorted(spec)} != {sorted(keys)}")
    cmd = spec.get("command", [])
    if not (1 <= len(cmd) <= 32) or any(len(c) > 200 for c in cmd):
        errors.append("command must be 1-32 strings of at most 200 chars")
    paths = spec.get("paths", [])
    if not 1 <= len(paths) <= 16:
        errors.append("paths must list 1-16 directories")
    for p in paths:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"bad path {p!r}")
    rs = spec.get("run_seconds")
    if not isinstance(rs, int) or not 1 <= rs <= 60:
        errors.append("run_seconds must be a whole number in 1..60")
    wl = spec.get("workloads", [])
    if not 2 <= len(wl) <= 8:
        errors.append("need 2-8 workloads")
    for w in wl:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) \
                or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"bad workload {w}")
    e2e = spec.get("end_to_end", [])
    if not 1 <= len(e2e) <= 16:
        errors.append("need 1-16 end_to_end metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            errors.append(f"bad end_to_end entry {m}")
        elif not (0 < m["bound"] <= 0.25):
            errors.append(f"{m['name']}: bound must be in (0, 0.25]")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        errors.append("setup_s must carry the largest bound")
    layers = spec.get("per_layer", [])
    if not 1 <= len(layers) <= 128:
        errors.append("need 1-128 per_layer metrics")
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"bad per_layer entry {m}")
    names = [m.get("name", "") for m in e2e + layers] + [w.get("name", "")
                                                         for w in wl]
    for m in e2e + layers:
        if not NAME.match(m.get("name", "")) or not UNIT.match(m.get("unit", "")) \
                or m.get("better") not in ("lower", "higher"):
            errors.append(f"bad metric {m}")
    dup = {n for n in names if names.count(n) > 1}
    if dup:
        errors.append(f"names used twice: {sorted(dup)}")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = spec_errors(spec)
    for e in errors:
        print(f"selftest: BENCHMARK.json: {e}", file=sys.stderr)
    failed = bool(errors)
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   w["name"], "--seed", "7", "--seconds", "3", "--trace",
                   str(trace), "--smoke", "1"]
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 cwd=ROOT)
            last = res.stdout.strip().splitlines()[-1:] or [""]
            ok = res.returncode == 0 and last[0].startswith('{"correct": true')
            print(f"selftest: {w['name']} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'}")
            failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
