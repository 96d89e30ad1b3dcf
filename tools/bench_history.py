#!/usr/bin/env python3
"""Perf-history bookkeeping for the tlrwse benchmarks.

Each benchmark emits JSON-lines (one header object carrying "bench" +
schema_version 2 metadata, then one object per data row). This script
folds such run files into per-bench history documents named
BENCH_<name>.json so a trajectory of runs — across commits, compilers,
machines — lives in one reviewable file that bench_compare.py can diff.

Commands:
  append RUN_FILE [--dir DIR]
      Appends the run to DIR/BENCH_<name>.json (default DIR: cwd),
      creating the history file on first use. The run's header metadata
      (git sha, compiler, threads) and a UTC timestamp are stored with
      every entry. A run whose git sha reads "unknown" gets
      $TLRWSE_GIT_SHA, else `git rev-parse HEAD` of this checkout.
  show HISTORY_FILE [--metric KEY]
      Prints one line per recorded run: timestamp, git sha, and either
      the row count or — with --metric — each row's value of KEY.

Exit status: 0 on success, 1 on malformed input. Stdlib only.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys


def read_run(path):
    """Parses a JSON-lines bench run into (header, data_rows)."""
    with open(path, "r", encoding="utf-8") as fh:
        objs = [json.loads(ln) for ln in fh if ln.strip()]
    if not objs or "bench" not in objs[0]:
        raise ValueError(f"{path}: first line must be a bench header")
    return objs[0], objs[1:]


def history_path(directory, bench):
    return os.path.join(directory, f"BENCH_{bench}.json")


def load_history(path, bench):
    if not os.path.exists(path):
        return {"bench": bench, "runs": []}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("bench") != bench:
        raise ValueError(
            f"{path}: history is for bench {doc.get('bench')!r}, not {bench!r}"
        )
    return doc


def resolve_git_sha(sha):
    """Replaces an "unknown" sha with $TLRWSE_GIT_SHA or this checkout's HEAD."""
    if sha not in (None, "", "unknown"):
        return sha
    env = os.environ.get("TLRWSE_GIT_SHA")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cmd_append(args):
    header, data = read_run(args.run_file)
    meta = header.setdefault("meta", {})
    meta["git_sha"] = resolve_git_sha(meta.get("git_sha"))
    bench = header["bench"]
    path = history_path(args.dir, bench)
    doc = load_history(path, bench)
    doc["runs"].append(
        {
            "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
            .replace(microsecond=0)
            .isoformat(),
            "meta": meta,
            "header": header,
            "data": data,
        }
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{path}: appended run #{len(doc['runs'])} ({len(data)} row(s))")
    return 0


def cmd_show(args):
    with open(args.history_file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    print(f"bench: {doc.get('bench')}  runs: {len(doc.get('runs', []))}")
    for i, run in enumerate(doc.get("runs", [])):
        meta = run.get("meta", {})
        stamp = run.get("recorded_utc", "?")
        sha = meta.get("git_sha", "unknown")[:12]
        if args.metric:
            values = [
                f"{row[args.metric]:g}" if isinstance(row.get(args.metric), float)
                else str(row.get(args.metric))
                for row in run.get("data", [])
                if args.metric in row
            ]
            detail = f"{args.metric}=[{', '.join(values)}]" if values else (
                f"{args.metric}: absent"
            )
        else:
            detail = f"{len(run.get('data', []))} row(s)"
        print(f"  #{i + 1}  {stamp}  {sha}  {detail}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_append = sub.add_parser("append", help="append a run file to its history")
    p_append.add_argument("run_file")
    p_append.add_argument("--dir", default=".", help="history directory")
    p_show = sub.add_parser("show", help="print the trajectory of a history file")
    p_show.add_argument("history_file")
    p_show.add_argument("--metric", help="print this metric's per-row values")
    args = parser.parse_args(argv[1:])
    try:
        return {"append": cmd_append, "show": cmd_show}[args.command](args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
