"""The mvmodal benchmark: CLI workloads, verdict checks, a traced run.

    python3 bench/run.py --workload decide-frames --seed 1 --seconds 10 --trace 0
    python3 bench/run.py            # every workload, one table of all metrics

One process, one client, closed loop: each query is one in-process call
to mvmodal.cli.main(argv) with stdout captured, or a direct call for the
intuitionistic layer, which has no subcommand.  A run cycles through the
workload's queries until --seconds of query time have elapsed, then
checks every answer against bench/reference.py.  The last stdout line is
one JSON object; --trace 0 reports the end-to-end metrics and --trace 1
the per-layer ones.  Each workload runs in a fresh process with
PYTHONHASHSEED fixed and MVK_ENUM_CEILING removed.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINNED = "MVMODAL_BENCH_PINNED"
SETUP_REPEATS = 25
WARM_UP_S = 1.0
WORKLOAD_NAMES = ("decide-exhaustive", "decide-frames", "refute-scan", "model-check")


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        else:
            commit = ref
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": commit}


def pinned_exec(argv: list[str]) -> None:
    """Re-run this script in a fresh interpreter with a fixed environment."""
    compileall.compile_dir(str(SRC / "mvmodal"), quiet=1)
    env = {k: v for k, v in os.environ.items()
           if k not in ("MVK_ENUM_CEILING", "PYTHONDONTWRITEBYTECODE")}
    env.update({"PYTHONHASHSEED": "0", PINNED: "1"})
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, str(Path(__file__)), *argv], env)


def import_mvmodal():
    for name in [m for m in sys.modules if m == "mvmodal" or m.startswith("mvmodal.")]:
        del sys.modules[name]
    mv = importlib.import_module("mvmodal")
    importlib.import_module("mvmodal.cli")
    return mv


class Runner:
    """Executes queries and keeps their answers for the later check."""

    def __init__(self, mv, queries, tracer=None):
        self.cli = mv.cli
        self.queries = queries
        self.tracer = tracer
        self.starts: list[list[float]] = [[] for _ in queries]  # per query
        self.latencies: list[list[float]] = [[] for _ in queries]
        self.answers: dict = {}  # (query index, exit code, output) -> times seen

    def execute(self, query):
        if query.argv is None:
            return 0, query.call()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(query.argv)
        return code, out.getvalue()

    def run_query(self, index: int, query_id: int = 0) -> float:
        tracer = self.tracer
        query = self.queries[index]
        start = perf_counter()
        if tracer is not None:
            tracer.query = query_id
            frame = tracer.open(0)
        try:
            code, out = self.execute(query)
        except Exception as exc:  # a crash is a wrong answer, not a stop
            code, out = None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.close(frame)
        took = perf_counter() - start
        self.starts[index].append(start)
        self.latencies[index].append(took)
        key = (index, code, out)
        self.answers[key] = self.answers.get(key, 0) + 1
        return took

    def run_pass(self, first_query_id: int = 0) -> float:
        return sum(self.run_query(index, first_query_id + index)
                   for index in range(len(self.queries)))

    def verify(self) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        reasons = []
        for (index, code, out), seen in self.answers.items():
            attempted += seen
            query = self.queries[index]
            reason = (f"exit {code}: {out}" if code is None
                      else query.check(code, out))
            if reason is not None:
                failed += seen
                reasons.append(f"query {index} ({query.kind}): {reason}")
        return attempted, failed, reasons


def set_up(workload: str, seed: int, directory: Path):
    """Import mvmodal and write the workload's inputs; the timed set-up."""
    import workloads

    shutil.rmtree(directory, ignore_errors=True)
    gc.collect()  # free the copy a repeated set-up made, before timing
    start = perf_counter()
    mv = import_mvmodal()
    queries = workloads.WORKLOADS[workload](
        random.Random(seed), workloads.Inputs(directory), mv)
    took = perf_counter() - start
    # One fixed interleaving for every seed: each kind of query is spread
    # over the whole pass, so no kind is timed only in one stretch of it.
    random.Random(0).shuffle(queries)
    if Path(mv.__file__).resolve().parent != SRC / "mvmodal":
        raise SystemExit(f"mvmodal imported from {mv.__file__}, not {SRC}")
    return (start, took), mv, queries


def repeat_set_up(workload: str, seed: int, directory: Path) -> tuple[float, float]:
    """Time the set-up once more, then put back the modules the queries use."""
    kept = {name: module for name, module in sys.modules.items()
            if name == "mvmodal" or name.startswith("mvmodal.")}
    try:
        return set_up(workload, seed, directory)[0]
    finally:
        for name in [m for m in sys.modules if m == "mvmodal" or m.startswith("mvmodal.")]:
            del sys.modules[name]
        sys.modules.update(kept)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(mv, queries, seconds, repeat_setup):
    """Queries in a closed loop for `seconds`, with set-up repeats spread over it.

    Queries first run untimed for WARM_UP_S.  The timed run stops between
    queries once `seconds` of query time have passed and every query has
    run at least once.  The host's speed drifts from second to second, so
    every time is scaled to a reference host speed (see hostspeed.py) and
    every figure is a median: set-up time over SETUP_REPEATS set-ups made
    at even intervals of the run; throughput, p50 and p90 from each
    query's median latency, so a partial last pass weighs no query more
    than another.  The unscaled figures are printed as notes.
    """
    from hostspeed import HostSpeed

    host = HostSpeed()
    runner = Runner(mv, queries)
    warm = 0.0
    for index in range(len(queries)):
        if warm >= WARM_UP_S:
            break
        warm += runner.run_query(index)
    # Answers of the warm-up stay, for the check; its times go.
    runner.starts = [[] for _ in queries]
    runner.latencies = [[] for _ in queries]
    setups = []  # (start, seconds) of each set-up
    elapsed = 0.0
    done = 0
    while done < len(queries) or elapsed < seconds:
        if len(setups) < SETUP_REPEATS and \
                elapsed >= seconds * len(setups) / SETUP_REPEATS:
            host.sample()
            setups.append(repeat_setup())
            host.sample()
        host.sample_if_due()
        elapsed += runner.run_query(done % len(queries))
        done += 1
    while len(setups) < SETUP_REPEATS:
        host.sample()
        setups.append(repeat_setup())
    host.sample()
    attempted, failed, reasons = runner.verify()

    def figures(adjust):
        per_query = [[adjust(s, x) for s, x in zip(starts, lats)]
                     for starts, lats in zip(runner.starts, runner.latencies)]
        medians = [statistics.median(xs) for xs in per_query]
        return {
            "setup_s": statistics.median(adjust(s, x) for s, x in setups),
            "queries_per_s": len(medians) / sum(medians),
            "query_s.p50": statistics.median(medians),
            "query_s.p90": statistics.quantiles(medians, n=10, method="inclusive")[8],
        }, medians

    scaled, medians = figures(host.adjust)
    unscaled, _ = figures(lambda start, seconds: seconds)
    units = {"setup_s": "s", "queries_per_s": "1/s", "query_s.p50": "s",
             "query_s.p90": "s"}
    metrics = {name: metric(value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = {"error_rate": failed / attempted,
             "queries_per_pass": len(queries),
             "latency_samples": sum(map(len, runner.latencies)),
             "queries_beyond_p90": sum(x > scaled["query_s.p90"] for x in medians),
             "host_reference_s.p50": statistics.median(host.took),
             "host_reference_samples": len(host.took),
             **{f"unscaled.{name}": value for name, value in unscaled.items()}}
    return attempted, failed, reasons, metrics, notes


def per_layer(mv, queries, seconds, directory, env):
    from spans import Tracer

    runner = Runner(mv, queries)
    tracer = Tracer()
    traced = Runner(mv, queries, tracer)
    plain_s = traced_s = 0.0
    passes = 0
    counts = calls = None
    while plain_s + traced_s < seconds or passes == 0:
        plain_s += runner.run_pass()
        tracer.install()
        try:
            traced_s += traced.run_pass(passes * len(queries))
        finally:
            tracer.uninstall()
        passes += 1
        if counts is None:  # work counts of one pass, so they never depend on timing
            counts, calls = dict(tracer.counts), dict(tracer.calls)
    attempted, failed, reasons = runner.verify()
    t_attempted, t_failed, t_reasons = traced.verify()

    def self_s(layer):
        return metric(tracer.self_time[tracer.ids[layer]] / passes, "s")

    def count(name, source=counts):
        return metric(source.get(name, 0), "count")

    def ratio(num, den, unit):
        return metric(counts.get(num, 0) / counts[den] if counts.get(den) else 0.0, unit)

    metrics = {
        "cli.calls": count("cli", calls), "cli.self_s": self_s("cli"),
        "parser.calls": count("parser", calls), "parser.self_s": self_s("parser"),
        "semantics.eval.calls": count("semantics.eval", calls),
        "semantics.eval.self_s": self_s("semantics.eval"),
        "semantics.model_build.count": count("semantics.model_build", calls),
        "semantics.model_build.self_s": self_s("semantics.model_build"),
        "semantics.frame_check.calls": count("semantics.frame_check", calls),
        "semantics.frame_check.self_s": self_s("semantics.frame_check"),
        "decision.relations.generated": count("decision.relations.generated"),
        "decision.relations.kept": count("decision.relations.kept"),
        "decision.relations.kept_ratio": ratio(
            "decision.relations.kept", "decision.relations.generated", "ratio"),
        "decision.models.examined": count("decision.models.examined"),
        "decision.models.hyp_rejected": count("decision.models.hyp_rejected"),
        "decision.self_s": self_s("decision"),
        "duality.tables.scanned": count("duality.tables.scanned"),
        "duality.models_per_table": ratio(
            "duality.models", "duality.tables.scanned", "models/table"),
        "duality.self_s": self_s("duality"),
        "filtration.calls": count("filtration", calls),
        "filtration.self_s": self_s("filtration"),
        "filtration.classes_per_world": ratio(
            "filtration.classes", "filtration.worlds", "classes/world"),
        "proofs.derivations.checked": count("proofs.derivations.checked"),
        "proofs.steps.checked": count("proofs.steps.checked"),
        "proofs.self_s": self_s("proofs"),
        "intuitionistic.calls": count("intuitionistic", calls),
        "intuitionistic.self_s": self_s("intuitionistic"),
        "trace.overhead_ratio": metric(traced_s / plain_s - 1, "ratio"),
    }
    tracer.write(directory, {"env": env, "passes": passes,
                             "queries_per_pass": len(queries)})
    notes = {"passes": passes, "spans": len(tracer.span_name),
             "hooks_found": len(tracer.found), "hooks_absent": tracer.absent,
             "query_self_s": tracer.self_time[0] / passes}
    return (attempted + t_attempted, failed + t_failed, reasons + t_reasons,
            metrics, notes)


def measure(args) -> int:
    sys.path.insert(0, str(SRC))
    env = environment()
    directory = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _, mv, queries = set_up(args.workload, args.seed, directory / "inputs")
    if args.trace:
        result = per_layer(mv, queries, args.seconds, directory, env)
    else:
        result = end_to_end(mv, queries, args.seconds, lambda: repeat_set_up(
            args.workload, args.seed, directory / "set-up"))
    attempted, failed, reasons, metrics, notes = result
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    for reason in reasons[:20]:
        print("WRONG " + reason)
    for key, value in notes.items():
        print(f"note {key} {value}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (directory / "result.json").write_text(json.dumps(dict(summary, env=env), indent=1))
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    status = 0
    rows = []
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            print(f"{workload}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            continue
        summary = json.loads(lines[-1])
        metrics = dict(summary["metrics"])
        if not args.trace:
            metrics["error_rate"] = metric(summary["failed"] / summary["attempted"],
                                           "ratio")
        for name, m in metrics.items():
            rows.append(f"{workload:18} {name:32} {m['value']:>14.6g} {m['unit']}")
    print(f"{'workload':18} {'metric':32} {'value':>14} unit")
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mvmodal" / "__init__.py").is_file():
        print(f"error: no mvmodal sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if os.environ.get(PINNED) != "1":
        pinned_exec(argv)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
