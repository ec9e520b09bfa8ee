"""Run the benchmark.

    python3 bench/run.py [--workload NAME ...] --seed N [--seconds S]
                         [--trace 0|1] [--smoke] [--out FILE]

(``PYTHONPATH=src:. python -m bench.run ...`` is the same program.)
Each workload runs in a fresh subprocess (``bench/workloads.py``)
against the ``repro`` sources under ``src/`` of this checkout. Every
metric is printed as ``workload metric value unit n=<samples>``; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and the metrics ``BENCHMARK.json`` declares -- the end-to-end ones, or
with ``--trace 1`` the per-layer ones. ``--out FILE`` appends the whole
run (every metric, the failures, and the machine's fingerprint) to the
result set in FILE. The exit status is 0 only when every operation and
every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: A workload subprocess is stopped after this long (the whole command
#: must finish within 180 s).
CHILD_TIMEOUT_S = 165.0


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def fingerprint() -> Dict[str, object]:
    """The machine and tree a result was measured on."""
    def version(package: str) -> Optional[str]:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(name: str, args: argparse.Namespace) -> dict:
    """One workload in a fresh interpreter; its JSON result."""
    command = [
        sys.executable, "-m", "bench.workloads", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)  # the child stops its servers
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        return {"error": f"{name} did not finish within {CHILD_TIMEOUT_S:g}s"}
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{name} exited with status {proc.returncode}"}
    return json.loads(lines[-1])


def declared(spec: dict, trace: int) -> List[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def summary(spec: dict, trace: int, results: Dict[str, dict]) -> dict:
    """The final line: the declared metrics of every workload (keyed
    ``workload/metric`` when several ran)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, result in results.items():
        if "error" in result:
            correct = False
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for entry in declared(spec, trace):
            found = result["metrics"].get(entry["name"])
            if found is None or found["unit"] != entry["unit"]:
                print(f"{name}: metric {entry['name']} missing or not in {entry['unit']}", file=sys.stderr)
                correct = False
                continue
            key = entry["name"] if len(results) == 1 else f"{name}/{entry['name']}"
            metrics[key] = {"value": found["value"], "unit": found["unit"]}
    correct = correct and failed == 0 and attempted > 0
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def print_result(name: str, result: dict) -> None:
    if "error" in result:
        print(f"{name} error {result['error']}")
        return
    for metric_name, record in sorted(result["metrics"].items()):
        extra = "".join(
            f" {key}={value}" for key, value in record.items() if key not in ("value", "unit", "n")
        )
        print(f"{name} {metric_name} {record['value']:.6g} {record['unit']} n={record['n']}{extra}")
    print(f"{name} attempted {result['attempted']} failed {result['failed']}")
    for message in result["failures"]:
        print(f"{name} FAILED {message}")


def append_run(path: Path, record: dict) -> None:
    """Add ``record`` to the result set in ``path`` (one run per line)."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    lines = ",\n".join(json.dumps(run, separators=(",", ":")) for run in runs)
    path.write_text('{"runs": [\n' + lines + "\n]}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run the repository's benchmark.")
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="1-2 s phases; every check, no timing value")
    parser.add_argument("--out", type=Path, help="append the full run to this result-set file")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 2.0)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = fingerprint()
    print(
        f"# cpus={machine['cpu_count']} affinity={len(machine['sched_getaffinity'])} "
        f"load={machine['loadavg_before'][0]:.2f} python={machine['python']} "
        f"numpy={machine['numpy']} scipy={machine['scipy']} git={machine['git_sha']} dirty={machine['git_dirty']}"
    )
    results: Dict[str, dict] = {}
    for name in args.workload or names:
        results[name] = run_child(name, args)
        print_result(name, results[name])
    machine["loadavg_after"] = list(os.getloadavg())
    final = summary(spec, args.trace, results)
    if args.out is not None:
        append_run(
            args.out,
            {
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "fingerprint": machine,
                "workloads": results,
            },
        )
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
