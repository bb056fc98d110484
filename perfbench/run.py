#!/usr/bin/env python3
"""stylokit benchmark: seeded workloads run as a closed loop, one child process per op.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # paper, wide and ward in turn

Run it from the repository root (it finds ``src/stylokit`` beside this
directory). Inputs are generated from ``--seed``; ops repeat, one cycle at
a time, while the next cycle is expected to end within ``--seconds`` (at
least one cycle runs). With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` each cycle runs once untraced and once traced
and the JSON carries the per-layer metrics. The exit code is 1 when any
op failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from driver import FAMILIES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("paper", "wide", "ward")
THREADS = "2"
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0
SCALES = ("full", "tiny")

END_TO_END = {"cycle_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "corpus.load_s": "s",
    "corpus.filter_s": "s",
    "corpus.tokens": "count",
    "corpus.docs": "count",
    "corpus.tokens_per_s": "tokens/s",
    "corpus.rss_mb": "MB",
    "corpus.bytes_per_token": "bytes/token",
    "corpus.normalize_calls": "count",
    "corpus.normalize_distinct": "count",
    "corpus.normalize_useful_ratio": "ratio",
    **{f"features.build_s.{f}": "s" for f in FAMILIES},
    **{f"features.n_features.{f}": "count" for f in FAMILIES},
    "features.build_calls": "count",
    "selection.select_s": "s",
    "selection.kept_ratio": "ratio",
    "metrics.delta_s": "s",
    "metrics.minmax_s": "s",
    "metrics.pairs_per_s": "pairs/s",
    "cluster.ward_s": "s",
    "cluster.ward_calls": "count",
    "cluster.cut_s": "s",
    "evaluate.eta_s": "s",
    "evaluate.sweep_self_s": "s",
    "evaluate.purity": "ratio",
    "pipeline.run_calls": "count",
    "pipeline.self_s": "s",
    "render.svg_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}
# Span name -> per-layer metric that sums the span's self time.
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "corpus.load_manifest": "corpus.load_s",
    "corpus.filter_corpus": "corpus.filter_s",
    "selection.select_reliable": "selection.select_s",
    "selection.select_top_frequency": "selection.select_s",
    "cluster.ward_cluster": "cluster.ward_s",
    "cluster.cut": "cluster.cut_s",
    "evaluate.eta_table": "evaluate.eta_s",
    "evaluate.robustness_sweep": "evaluate.sweep_self_s",
    "pipeline.run_pipeline": "pipeline.self_s",
    "pipeline.apply_selection": "pipeline.self_s",
    "pipeline.shortest_document_length": "pipeline.self_s",
    "render.dendrogram_svg": "render.svg_s",
}


def fail(message: str) -> None:
    print(f"benchmark cannot run: {message}", file=sys.stderr)
    sys.exit(2)


CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "STYLO_THREADS": THREADS}


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: relative path and content, sorted by path."""
    outer = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        outer.update(path.relative_to(root).as_posix().encode() + b"\0")
        outer.update(hashlib.sha256(path.read_bytes()).digest())
    return outer.hexdigest()


@dataclass
class Op:
    name: str
    cli_args: list[str] | None  # stylokit CLI arguments, or None for a driver op
    driver_args: list[str]
    check_args: list[str]  # checks.py arguments; the output directory is appended
    same_as: str | None = None  # an earlier op whose outputs this op's check compares against


@dataclass
class OpRecord:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    output_bytes: int = 0
    spans: str = ""


class Run:
    """One benchmark run: its work directory, its ops and what they produced."""

    def __init__(self, workload: str, scale: str, seed: int, trace: bool) -> None:
        self.started = time.perf_counter()
        self.work = ROOT / ".bench_work" / f"{workload}-{scale}-s{seed}-t{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "ops").mkdir(parents=True)
        (self.work / "spans").mkdir()
        self.records: list[OpRecord] = []
        self.last_out: dict[str, Path] = {}

    # -- child processes -------------------------------------------------
    def spawn(self, argv: list[str], cwd: Path) -> tuple[float, int, float, float]:
        """Run a child to completion; return wall seconds, exit code, peak RSS in MB and CPU seconds."""
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=CHILD_ENV, stdout=out, stderr=err)
            killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime

    def helper(self, script: str, args: list[str]) -> str:
        """Run one of the benchmark's own scripts in a child; return its last stdout line."""
        cwd = self.work / "helper"
        cwd.mkdir(exist_ok=True)
        code = self.spawn([sys.executable, str(BENCH / script), *args], cwd)[1]
        stdout = (cwd / "stdout.txt").read_text().strip().splitlines()
        if code != 0 or not stdout:
            raise RuntimeError(f"{script} exited with {code}: {(cwd / 'stderr.txt').read_text()[-400:]}")
        return stdout[-1]

    def setup_times(self) -> list[float]:
        """Wall time of a fresh interpreter importing stylokit.cli, several times."""
        cwd = self.work / "setup"
        cwd.mkdir()
        times = []
        for _ in range(SETUP_REPEATS):
            wall, code, _, _ = self.spawn([sys.executable, "-c", "import stylokit.cli"], cwd)
            if code != 0:
                fail(f"importing stylokit.cli exits with {code}: {(cwd / 'stderr.txt').read_text()}")
            times.append(wall)
        return times

    def run_op(self, op: Op, mode: str) -> OpRecord:
        record, out = self.execute(op, mode)
        self.inspect(op, record, out)
        return record

    def execute(self, op: Op, mode: str) -> tuple[OpRecord, Path]:
        """Run one op in a child. mode "cli" runs the stylokit command itself;
        "driver" and "traced" go through driver.py, the latter with spans."""
        seq = len(self.records)
        cwd = self.work / "ops" / f"{seq:03d}-{op.name}-{mode}"
        cwd.mkdir()
        if mode == "cli" and op.cli_args is not None:
            argv = [sys.executable, "-m", "stylokit.cli", *op.cli_args]
        else:
            argv = [sys.executable, str(BENCH / "driver.py"), *op.driver_args]
        span_file = self.work / "spans" / f"op-{seq:03d}.json"
        if mode == "traced":
            argv[2:2] = ["--trace", str(span_file), "--op-id", str(seq)]
        wall, code, rss, cpu = self.spawn(argv, cwd)
        record = OpRecord(op.name, wall, cpu, rss, code)
        if code != 0:
            tail = (cwd / "stderr.txt").read_text(errors="replace")[-400:]
            record.problems.append(f"{op.name} exited with {code}: {tail}")
        if mode == "traced":
            if span_file.is_file():
                record.spans = str(span_file)
            else:
                record.problems.append(f"{op.name}: the traced op wrote no spans")
        return record, cwd / "out"

    def inspect(self, op: Op, record: OpRecord, out: Path) -> None:
        """Check an op's outputs, digest them, and count the op as attempted."""
        if record.exit_code == 0:
            args = [*op.check_args, str(out)]
            if op.same_as in self.last_out:
                args += ["--same-as", str(self.last_out[op.same_as])]
            try:
                record.problems += json.loads(self.helper("checks.py", args))
            except (RuntimeError, ValueError) as exc:  # a malformed output counts as a failure
                record.problems.append(f"{op.name}: output check failed: {exc}")
        if out.is_dir():
            record.digest = tree_digest(out)
            record.output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            self.last_out[op.name] = out
        self.records.append(record)

    def counts(self) -> tuple[int, int]:
        """Ops attempted and ops failed so far."""
        return len(self.records), sum(1 for r in self.records if r.problems)

    def check_determinism(self) -> None:
        """Ops of one kind in one run must write byte-identical outputs."""
        first: dict[str, str] = {}
        for record in self.records:
            if not record.digest:
                continue
            expected = first.setdefault(record.name, record.digest)
            if record.digest != expected:
                record.problems.append(f"{record.name}: outputs differ from the run's first {record.name} op")

    def clean(self) -> None:
        for name in ("inputs", "ops", "setup", "helper"):
            shutil.rmtree(self.work / name, ignore_errors=True)


def workload_ops(workload: str, data: dict, inputs: Path) -> list[Op]:
    rel = Path("..", "..", "inputs")  # op directories sit at work/ops/<op>/
    tokens = ["--min-tokens", str(data["min_tokens"])]
    k = str(data["k"])
    if workload == "paper":
        cluster_args = ["cluster", "--manifest", str(rel / "manifest.csv"), "--features", "affix",
                        "--distance", "delta", *tokens, "--out", "out"]
        families_args = ["families", "--manifest", str(rel / "manifest.csv"),
                         "--fw-list", str(rel / "function_words.txt"), *tokens, "--k", k, "--out", "out"]
        return [
            Op("cluster", cluster_args, ["cli", "--out", "out", "--", *cluster_args],
               ["cluster", "--k", k, "--docs", str(data["docs"])]),
            Op("families", None, families_args, ["families"], same_as="cluster"),
        ]
    if workload == "wide":
        sweep_args = ["sweep", "--manifest", str(rel / "manifest.csv"), "--features", "fw",
                      "--fw-list", str(rel / "function_words.txt"), "--distance", "delta",
                      *tokens, "--out", "out"]
        return [Op("sweep", sweep_args, ["cli", "--out", "out", "--", *sweep_args], ["sweep"])]
    stress_args = ["stress", "--matrix", str(rel / "matrix.npy"), "--groups", str(rel / "groups.npy"),
                   "--k", k, "--out", "out"]
    return [Op("stress", None, stress_args, ["stress", "--matrix", str(inputs / "matrix.npy"), "--k", k])]


def run_cycles(run: Run, ops: list[Op], seconds: float, modes: tuple[str, ...]) -> list[dict[str, list[OpRecord]]]:
    """Closed loop: each cycle runs every op once per mode. Another cycle starts only
    if, judged by the last one, it will end within ``seconds`` of the first's start."""
    cycles = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        cycles.append({mode: [run.run_op(op, mode) for op in ops] for mode in modes})
        now = time.perf_counter()
        if now + (now - began) > start + seconds:
            return cycles


# -- per-layer metrics from spans ----------------------------------------------
def self_times(spans: list[dict]) -> list[float]:
    """A span's duration minus the time its child spans cover (children never overlap)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_metrics(traces: list[dict], traced: list[OpRecord], untraced: list[OpRecord]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle; zero where the workload never calls the layer."""
    m: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    imports, coverage, purities, loads = [], [], [], []
    kept = total = pairs = 0
    for trace in traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        root = spans[0]
        coverage.append(1.0 - selfs[0] / (root["end"] - root["start"]))
        m["trace.spans"] += len(spans)
        for span, own in zip(spans, selfs):
            name, attrs = span["name"], span["attrs"]
            if name in SELF_TIME_METRIC:
                m[SELF_TIME_METRIC[name]] += own
            elif name.startswith("write."):
                m["cli.write_s"] += own
            elif name == "cli.import":
                imports.append(own)
            elif name == "features.build_matrix":
                m[f"features.build_s.{attrs['family']}"] += own
                m[f"features.n_features.{attrs['family']}"] = attrs["n_features"]
                m["features.build_calls"] += 1
            elif name == "metrics.compute_distance" and attrs["measure"] in ("delta", "minmax"):
                m[f"metrics.{attrs['measure']}_s"] += own
                pairs += attrs["n"] * (attrs["n"] - 1) // 2
            elif name == "evaluate.cluster_purity":
                purities.append(attrs["purity"])
            if name.startswith("selection.select_"):
                kept, total = kept + attrs["kept"], total + attrs["total"]
            m["cluster.ward_calls"] += name == "cluster.ward_cluster"
            m["pipeline.run_calls"] += name == "pipeline.run_pipeline"
        m["corpus.normalize_calls"] += trace["normalize_calls"]
        m["corpus.normalize_distinct"] += trace["normalize_distinct"]
        loads += trace["loads"]
    m["cli.import_s"] = statistics.median(imports)
    m["cli.output_bytes"] = sum(r.output_bytes for r in traced)
    if loads:
        m["corpus.tokens"] = max(load["tokens"] for load in loads)
        m["corpus.docs"] = max(load["docs"] for load in loads)
        m["corpus.tokens_per_s"] = sum(load["tokens"] for load in loads) / m["corpus.load_s"]
        m["corpus.rss_mb"] = statistics.median(load["rss_growth"] for load in loads) / 2**20
        m["corpus.bytes_per_token"] = statistics.median(load["rss_growth"] / load["tokens"] for load in loads)
    if m["corpus.normalize_calls"]:
        m["corpus.normalize_useful_ratio"] = m["corpus.normalize_distinct"] / m["corpus.normalize_calls"]
    if total:
        m["selection.kept_ratio"] = kept / total
    distance_s = m["metrics.delta_s"] + m["metrics.minmax_s"]
    if distance_s:
        m["metrics.pairs_per_s"] = pairs / distance_s
    if purities:
        m["evaluate.purity"] = statistics.median(purities)
    traced_s = sum(r.wall_s for r in traced)
    untraced_s = sum(r.wall_s for r in untraced)
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_ratio"] = m["trace.overhead_s"] / untraced_s
    m["trace.coverage"] = min(coverage)
    return m


def span_table(traces: list[dict]) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for trace in traces:
        for span, own in zip(trace["spans"], self_times(trace["spans"])):
            row = table[span["name"]]
            row["calls"] += 1
            row["total_s"] += span["end"] - span["start"]
            row["self_s"] += own
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


# -- one workload ----------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    run = Run(workload, scale, seed, trace)
    inputs = run.work / "inputs"
    generated = time.perf_counter()
    data = json.loads(run.helper("inputs.py", ["--workload", workload, "--scale", scale,
                                               "--seed", str(seed), "--out", str(inputs)]))
    facts = {"workload": workload, "scale": scale, "seed": seed, **data,
             "inputs_sha256": tree_digest(inputs), "generate_s": time.perf_counter() - generated}
    setup = run.setup_times()
    ops = workload_ops(workload, data, inputs)

    report: dict[str, tuple[float, str, int]] = {}  # name -> (value, unit, samples)
    if trace:
        cycles = run_cycles(run, ops, seconds, ("driver", "traced"))
        per_cycle, traces_all = [], []
        for cycle in cycles:
            traced = cycle["traced"]
            if all(r.spans for r in traced):
                traces = [json.loads(Path(r.spans).read_text()) for r in traced]
                traces_all += traces
                per_cycle.append(layer_metrics(traces, traced, cycle["driver"]))
        for name, unit in PER_LAYER.items():
            values = [c[name] for c in per_cycle] or [0.0]
            report[name] = (statistics.median(values), unit, len(per_cycle))
        facts["span_files"] = sorted(str(p.relative_to(ROOT)) for p in (run.work / "spans").iterdir())
        facts["self_times"] = span_table(traces_all)
    else:
        cycles = run_cycles(run, ops, seconds, ("cli",))
        walls = [sum(r.wall_s for r in c["cli"]) for c in cycles]
        report["cycle_s"] = (statistics.median(walls), "s", len(walls))
        report["peak_rss_mb"] = (max(r.rss_mb for r in run.records), "MB", len(run.records))
        report["setup_s"] = (statistics.median(setup), "s", len(setup))

    run.check_determinism()
    attempted, failed = run.counts()
    by_op: dict[str, list[float]] = defaultdict(list)
    for r in run.records:
        by_op[r.name].append(r.wall_s)
    # Per-op times, printed for people; the JSON line carries the metrics BENCHMARK.json lists.
    extra = {f"{name}_s": (statistics.median(w), "s", len(w)) for name, w in by_op.items()}
    cli_op = {"paper": "cluster", "wide": "sweep"}.get(workload)
    if cli_op and not trace:
        extra["tokens_per_s"] = (data["tokens"] / extra[f"{cli_op}_s"][0], "tokens/s", len(by_op[cli_op]))
    extra["setup_s"] = (statistics.median(setup), "s", len(setup))
    extra["error_rate"] = (failed / attempted, "ratio", attempted)

    result = {
        **facts,
        "trace": trace,
        "ops": [vars(r) for r in run.records],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in report.items()},
        "summary": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extra.items()},
    }
    (run.work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    run.clean()

    print(f"# {workload} seed={seed} scale={scale} docs={data['docs']} tokens={data['tokens']} "
          f"inputs_sha256={facts['inputs_sha256']} ops={len(run.records)} "
          f"results={run.work.relative_to(ROOT)}")
    for name, (value, unit, n) in {**extra, **report}.items():
        print(f"{workload}.{name} = {value:.6g} {unit} (n={n})")
    for r in run.records:
        print(f"op {r.name}: {r.wall_s:.3f} s, {r.rss_mb:.1f} MB, exit {r.exit_code}, outputs {r.digest[:16]}")
        for problem in r.problems:
            print(f"  FAILED: {problem}")
    if trace:
        for name, row in list(facts["self_times"].items())[:12]:
            print(f"span {name}: calls={row['calls']} self={row['self_s']:.3f} s total={row['total_s']:.3f} s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in report.items()},
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "stylokit" / "cli.py").is_file():
        fail(f"no stylokit sources at {SRC}; run from a checkout of the repository")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="input sizes; 'tiny' is for the benchmark's self-tests")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.scale) for w in names}
    if len(results) == 1:
        combined = results[names[0]]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
