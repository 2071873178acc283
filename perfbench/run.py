"""End-to-end benchmark of the ``cait`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload childes-annotate --seed 1 \\
        --seconds 35 --trace 0

The benchmark generates its inputs from ``--seed``, then runs the
workload's ``cait`` subcommands one after another as a user would: each
step is a fresh ``python -m cait.cli`` process with ``PYTHONPATH`` set to
the checkout's ``src/``, one client, closed loop, never more than two
processes at once.  It repeats the whole sequence while ``--seconds``
last and reports medians over these passes.  Every output is checked; a
check that fails is counted in ``failed`` and, unless the failure is a
documented defect of the program, makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
sequence three times: as processes (per-step wall and CPU time from
``os.wait4``), then in-process through ``cait.cli.main`` untraced, then
in-process with spans around the public functions of each layer; it
reports per-layer metrics and the tracing overhead.

Timings are wall-clock times of the benchmark's own processes only, with
no CPU pinning, cache dropping or system-wide tracing.  The last line of
standard output is one JSON object; the lines before it are a readable
summary and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from steps import (ROOT, SETUP_LAUNCHES, SRC, Step, StepRun, run_inprocess, run_step,
                   setup_seconds, step_env)

TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"
JOBS = 2  # the most processes any step may use


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

_UNIT_SUFFIXES = (
    ("tokens_per_s", "tokens/s"), ("calls_per_pair", "calls/pair"),
    ("cpu_per_wall", "ratio"), ("_ratio", "ratio"), ("_us", "us"), ("_ms", "ms"),
    ("_s", "s"), (".s", "s"), ("_mb", "MB"), ("bytes", "bytes"),
)


def unit_of(name: str) -> str:
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    k = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[k]


def layer_metrics(tracer, steps: list[Step], step_walls: dict[str, float],
                  workload) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from the spans of one traced pass."""
    spans = tracer.spans
    self_times = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def secs(name: str) -> float:
        return sum(self_times[i] for i in by_name.get(name, []))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def durations(name: str) -> list[float]:
        return [spans[i].end - spans[i].start for i in by_name.get(name, [])]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    read_tokens = sum(spans[i].size for i in by_name.get("conllu.read_conllu", []))
    read_total = sum(durations("conllu.read_conllu"))
    m["conllu.read_conllu.s"] = secs("conllu.read_conllu")
    m["conllu.read_conllu.calls"] = calls("conllu.read_conllu")
    m["conllu.read_conllu.tokens"] = read_tokens
    m["conllu.read_conllu.tokens_per_s"] = ratio(read_tokens, read_total)
    m["conllu.validate.s"] = secs("conllu.validate")
    m["conllu.validate.calls"] = calls("conllu.validate")
    norm = [spans[i].note for i in by_name.get("conllu.normalize", [])]
    m["conllu.normalize.s"] = secs("conllu.normalize")
    m["conllu.normalize.calls"] = len(norm)
    m["conllu.normalize.repairs"] = sum(norm)
    m["conllu.normalize.unchanged_ratio"] = ratio(sum(n == 0 for n in norm), len(norm))
    m["conllu.write_conllu.s"] = secs("conllu.write_conllu")
    m["conllu.write_conllu.bytes"] = sum(
        spans[i].size for i in by_name.get("conllu.write_conllu", []))

    tag_us = [d * 1e6 for d in durations("cxntag.tag_utterance")]
    stripped = [spans[i].note for i in by_name.get("cxntag.strip_tag_question", [])]
    m["cxntag.tag_utterance.s"] = secs("cxntag.tag_utterance")
    m["cxntag.tag_utterance.calls"] = len(tag_us)
    m["cxntag.tag_utterance.p50_us"] = percentile(tag_us, 0.50)
    m["cxntag.tag_utterance.p99_us"] = percentile(tag_us, 0.99)
    m["cxntag.strip_tag_question.s"] = secs("cxntag.strip_tag_question")
    m["cxntag.strip_tag_question.stripped_ratio"] = ratio(sum(stripped), len(stripped))
    m["cxntag.tag_ud.s"] = secs("cxntag.tag_ud")
    m["cxntag.tag_pos.s"] = secs("cxntag.tag_pos")
    m["cxntag.errors"] = sum(spans[i].error for i in by_name.get("cxntag.tag_utterance", []))
    for backend, n_rules in (("ud", 12), ("pos", 9)):
        fired = workload.fired_rules(backend)
        for rule in range(n_rules + 1):
            m[f"cxntag.rule.{backend}.{rule}"] = fired.get(rule, 0)

    n_pairs = workload.eval_pairs
    m["evaluation.align.s"] = secs("evaluation.align")
    m["evaluation.align.calls_per_pair"] = ratio(
        sum(1 for i in by_name.get("evaluation.align", []) if spans[i].step == "eval"),
        n_pairs)
    for name in ("evaluate_treebanks", "tag_accuracy", "per_label_error_rates",
                 "confusion", "paired_ttest"):
        m[f"evaluation.{name}.s"] = secs(f"evaluation.{name}")

    m["lint.lint_all.s"] = secs("lint.lint_all")
    m["lint.findings"] = sum(spans[i].note for i in by_name.get("lint.lint_all", []))
    m["lint.apply_fixes.s"] = secs("lint.apply_fixes")
    m["casestudy.bin_by_age.s"] = secs("casestudy.bin_by_age")
    m["casestudy.emit_curves.s"] = secs("casestudy.emit_curves")
    m["casestudy.unbinned"] = sum(spans[i].note for i in by_name.get("casestudy.bin_by_age", []))

    parse_ms = [(spans[i].size, (spans[i].end - spans[i].start) * 1e3)
                for i in by_name.get("baseline.parse", [])]
    short = [ms for n, ms in parse_ms if n < workload.long_tokens]
    long_ = [ms for n, ms in parse_ms if n >= workload.long_tokens]
    parse_total = sum(ms for _, ms in parse_ms) / 1e3
    m["baseline.train_parser.s"] = secs("baseline.train_parser")
    m["baseline.train_parser.transitions"] = tracer.counts.get("baseline.static_oracle", 0)
    m["baseline.train_parser.nonprojective_skipped"] = sum(
        spans[i].note for i in by_name.get("baseline.train_parser", []))
    m["baseline.train_tagger.s"] = secs("baseline.train_tagger")
    m["baseline.parse.s"] = secs("baseline.parse")
    m["baseline.parse.tokens_per_s"] = ratio(sum(n for n, _ in parse_ms), parse_total)
    m["baseline.parse.short.p50_ms"] = percentile(short, 0.50)
    m["baseline.parse.short.p99_ms"] = percentile(short, 0.99)
    m["baseline.parse.long.p50_ms"] = percentile(long_, 0.50)
    m["baseline.parse.long.max_ms"] = max(long_, default=0.0)
    m["baseline.parse.invalid_ratio"] = workload.parse_invalid_ratio
    m["baseline.tag.s"] = secs("baseline.tag")
    m["baseline.save_model.s"] = secs("baseline.save_model")
    m["baseline.load_model.s"] = secs("baseline.load_model")
    m["baseline.model_bytes"] = workload.model_bytes

    samples = {
        "cxntag.tag_utterance": len(tag_us),
        "baseline.parse.short": len(short),
        "baseline.parse.long": len(long_),
    }
    # cli.<step>.self_s: traced step time not covered by any layer span.
    covered: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s.parent is None:
            covered[s.step] = covered.get(s.step, 0.0) + s.end - s.start
    for step in steps:
        m[f"cli.{step.name}.self_s"] = step_walls[step.name] - covered.get(step.name, 0.0)
    return m, samples


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def run_pass(steps: list[Step], work: Path, env: dict) -> dict[str, StepRun]:
    return {step.name: run_step(step, work, env) for step in steps}


def pass_digests(steps: list[Step], work: Path) -> dict[str, str]:
    from checks import digest

    return {step.name: digest(work / f"{step.name}.stdout",
                              *(work / o for o in step.outputs)) for step in steps}


def check_exit_codes(checker, steps, runs: dict[str, StepRun], label: str) -> None:
    for step in steps:
        code = runs[step.name].code
        checker.check(code == step.exit_code,
                      f"{label} {step.name} exited {code}, expected {step.exit_code}")


def check_outputs(workload, checker) -> None:
    """The workload's output checks; outputs too broken to read fail the
    run instead of stopping it."""
    try:
        workload.check(checker)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checker.check(False, f"outputs could not be checked: {exc!r}")


def measure(workload, steps: list[Step], work: Path, env: dict, seconds: float,
            checker) -> tuple[dict, dict]:
    """--trace 0: passes while ``seconds`` last, each followed by two
    set-up launches, so that set-up time samples the whole run."""
    setup_seconds(env, work)  # warm-up: compiles the bytecode
    setup: list[float] = []
    passes: list[dict[str, StepRun]] = []
    first_digests = None
    start = time.perf_counter()
    while True:
        runs = run_pass(steps, work, env)
        passes.append(runs)
        check_exit_codes(checker, steps, runs, f"pass {len(passes)}")
        if first_digests is None:
            check_outputs(workload, checker)
            first_digests = pass_digests(steps, work)
        else:
            for name, d in pass_digests(steps, work).items():
                checker.check(d == first_digests[name],
                              f"pass {len(passes)} {name} output differs from pass 1")
        setup += [setup_seconds(env, work) for _ in range(2)]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    while len(setup) < SETUP_LAUNCHES:
        setup.append(setup_seconds(env, work))
    step_median = {s.name: statistics.median(p[s.name].wall for p in passes)
                   for s in steps}
    metrics = {
        "setup_s": statistics.median(setup),
        "tokens_per_s": sum(s.tokens_read for s in steps) / sum(step_median.values()),
        "peak_rss_mb": statistics.median(
            max(r.maxrss_kb for r in p.values()) / 1024 for p in passes),
    }
    info = {"passes": len(passes), "setup_launches": len(setup),
            "output_digests": first_digests,
            "step_median_s": {f"cli.{k}_s": v for k, v in step_median.items()},
            "step_pass_s": {s.name: [p[s.name].wall for p in passes] for s in steps}}
    return metrics, info


def measure_traced(workload, steps: list[Step], work: Path, env: dict,
                   checker) -> tuple[dict, dict]:
    """--trace 1: one pass as processes, one in-process untraced, one
    in-process traced."""
    from spans import Tracer
    from workloads import STEP_NAMES

    runs = run_pass(steps, work, env)
    check_exit_codes(checker, steps, runs, "process pass")
    check_outputs(workload, checker)
    digests = pass_digests(steps, work)

    os.chdir(work)
    try:
        plain = {}
        for step in steps:
            plain[step.name], code = run_inprocess(step, work, "plain")
            checker.check(code == step.exit_code,
                          f"in-process {step.name} exited {code}, expected {step.exit_code}")
        tracer = Tracer()
        tracer.install()
        traced = {}
        try:
            for step in steps:
                tracer.step = step.name
                traced[step.name], code = run_inprocess(step, work, "traced")
                checker.check(code == step.exit_code,
                              f"traced {step.name} exited {code}, expected {step.exit_code}")
        finally:
            tracer.uninstall()
    finally:
        os.chdir(ROOT)
    for name, d in pass_digests(steps, work).items():
        checker.check(d == digests[name], f"traced {name} output differs from process pass")

    metrics, samples = layer_metrics(tracer, steps, traced, workload)
    for name in STEP_NAMES:
        r = runs.get(name)
        metrics[f"cli.{name}_s"] = r.wall if r else 0.0
        metrics[f"cli.{name}.cpu_s"] = r.cpu if r else 0.0
        metrics[f"cli.{name}.cpu_per_wall"] = r.cpu / r.wall if r else 0.0
        metrics.setdefault(f"cli.{name}.self_s", 0.0)
    metrics["trace.overhead_ratio"] = sum(traced.values()) / sum(plain.values())

    # Self times of all spans plus the cli self times make up each traced
    # step; a gap means a span was lost or counted twice.
    accounted = sum(tracer.self_times()) + sum(
        metrics[f"cli.{s.name}.self_s"] for s in steps)
    checker.check(abs(accounted - sum(traced.values())) < 1e-6,
                  f"span self times account for {accounted:.6f} s of "
                  f"{sum(traced.values()):.6f} s traced")
    checker.check(min(tracer.self_times(), default=0.0) >= 0.0,
                  "a span has negative self time")
    metrics["failed_ratio"] = checker.failed / max(1, checker.attempted)
    info = {"spans": len(tracer.spans), "percentile_samples": samples,
            "output_digests": digests}
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in (SRC / "cait" / "cli.py",
                                                  TESTS / "synth.py")
               if not p.exists()]
    if missing:
        sys.stderr.write("perfbench: run from the root of a cait checkout; missing "
                         + ", ".join(missing) + "\n")
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    import numpy
    from checks import Checker
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = step_env()
    checker = Checker()
    try:
        workload = WORKLOADS[args.workload](args.seed, work, env, JOBS)
        steps = workload.steps
        if args.trace:
            metrics, info = measure_traced(workload, steps, work, env, checker)
        else:
            metrics, info = measure(workload, steps, work, env, args.seconds, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(), "jobs": JOBS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "inputs": workload.inputs,
        "timing": "wall-clock times of the benchmark's own processes only; "
                  "no CPU pinning, cache dropping or system-wide tracing",
        **info,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for msg in checker.messages:
        print(f"check failed: {msg}")
    print(f"checks: {checker.attempted} attempted, {checker.failed} failed "
          f"({checker.known_defect_failed} from known defects), "
          f"failed_ratio {checker.failed / max(1, checker.attempted):.6f}")
    for name, detail in sorted(info.get("step_median_s", {}).items()):
        print(f"{name:<28} {detail:12.4f} s")
    for name, value in sorted(metrics.items()):
        print(f"{name:<44} {value:16.6f} {unit_of(name)}")
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
