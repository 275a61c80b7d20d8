"""Exact-solve benchmark for simplegames: certified instances per second on two corpora.

    python3 bench/run.py --workload games --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all        # every workload, one after another

One run measures one workload as a closed loop with one client: inputs are
solved one at a time, each after the previous one returns.  The corpus has a
fixed number of instances; the seed relabels a fixed draw of structures, so
every seed brings new inputs of the same difficulty (see ``workloads.py``).

- Set-up: a fresh interpreter imports the package from ``src/`` and
  generates the corpus from ``--seed``; this runs ``SETUP_REPEATS`` times.
  Generation runs in its own process so the subset tables it fills never
  reach the timed process.  Each set-up time is scaled like the instance
  times below, by the reference kernel timed just before and after it, and
  ``setup_s`` is the median.
- ``--trace 0``: the corpus is solved in passes, each pass in a fresh
  process, at least ``MIN_PASSES`` and as many as end within ``--seconds``.
  The first pass checks every output exactly, outside the timed region;
  every later pass must give the same answers.  Before each instance (and
  after the last) the pass times a fixed reference kernel that never
  touches the package (``worker.reference``).  The host this was built on
  slows every process on it by up to a third for a minute or more at a
  time, which no run of a minute can average out; the kernel slows down
  with it.  So each pass's instance times are scaled by ``REF_NOMINAL_S``
  over the kernel's mean time in that pass, an instance's time is its
  median over the passes, and the end-to-end metrics come from those times.
  The times as measured are printed next to them.
- ``--trace 1``: the fixed prefix of the corpus is solved in fresh
  processes, ``TRACE_PAIRS`` times plain and as often with the outside-in
  tracer (``tracer.py``), in turn.  The first traced pass is checked, and
  its spans give the per-layer metrics and are written to ``.bench_runs/``;
  the median scaled times of either kind give ``trace_overhead_frac``.

The exact alphas of the corpus are hashed.  Relabeling keeps every alpha, so
the hash must match the digest in ``design.json`` for every seed.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
(instances) and ``metrics``.  Exit codes: 0 all answers correct, 1 a wrong
answer, a failed input or a digest mismatch, 2 the benchmark could not run
(no result is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from worker import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RUNS = ROOT / ".bench_runs"
DESIGN = BENCH / "design.json"

WORKLOADS = ("games", "graph-cuts")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
SETUP_REF_CALLS = 10  # reference kernel calls before and after each set-up
MIN_PASSES = 2
# the reference kernel's mean time (worker.reference) on the machine the
# benchmark was built on, in its quieter stretches; instance times are
# reported as if every pass had run at that speed
REF_NOMINAL_S = 0.0022
TRACE_PAIRS = 3  # plain and traced passes over the prefix in a traced run
RUN_BUDGET_S = 170.0  # a run must end within 180 s, set-up and checks included
TAIL_BEYOND = 10  # the tail percentile keeps this many instances beyond it
WINDOW_SHARE = 0.2  # solve_s_p50 and solve_s_tail average this share of the instances around their rank


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker(args: list[str], deadline: float, stdin: bytes | None = None) -> tuple[dict, float]:
    """Run one worker process to completion; returns its JSON and its wall time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("the run used up its time budget")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            input=stdin,
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {args[0]} exceeded the run's time budget") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise HarnessError(f"worker {args[0]} failed: {proc.stderr.decode(errors='replace').strip()}")
    return json.loads(proc.stdout), elapsed


def _setup(workload: str, seed: int, scale: str, repeats: int, trace: bool, deadline: float):
    """Generate the corpus `repeats` times.

    Returns the corpus bytes, (wall time, mean reference kernel time) of
    each set-up, and the spans of the last.
    """
    args = ["gen", "--workload", workload, "--seed", str(seed), "--scale", scale]
    if trace:
        args.append("--trace")
    corpus, times, spans = None, [], []
    for _ in range(repeats):
        refs = [reference() for _ in range(SETUP_REF_CALLS)]
        result, elapsed = _worker(args, deadline)
        refs += [reference() for _ in range(SETUP_REF_CALLS)]
        times.append((elapsed, statistics.fmean(refs)))
        spans = result.pop("spans")
        encoded = json.dumps(result).encode()
        if corpus is not None and encoded != corpus:
            raise HarnessError("corpus generation is not deterministic for this seed")
        corpus = encoded
    return corpus, times, spans


def _solve(workload: str, scale: str, corpus: bytes, prefix: bool, check: bool, trace: bool, deadline: float):
    """One pass over the corpus, or over its fixed prefix, in a fresh process."""
    args = ["solve", "--workload", workload, "--scale", scale]
    if prefix:
        args.append("--prefix")
    if check:
        args.append("--check")
    if trace:
        args.append("--trace")
    result, elapsed = _worker(args, deadline, stdin=corpus)
    return result, elapsed


def _normalized(result: dict) -> list[float]:
    """The pass's instance times, scaled to a machine that runs the reference kernel in REF_NOMINAL_S."""
    factor = REF_NOMINAL_S / statistics.fmean(result["ref_times"])
    return [t * factor for t in result["times"]]


def _instance_times(passes: list[dict]) -> list[float]:
    """Each instance's normalized time, the median over the passes."""
    return [statistics.median(column) for column in zip(*map(_normalized, passes))]


def _failures(checked: dict, others: list[dict]) -> dict[int, str]:
    """Instances that raised or failed the check, or that a later pass answered differently."""
    failures = {i: e for i, e in enumerate(checked["errors"]) if e is not None}
    for other in others:
        for i, (expected, got) in enumerate(zip(checked["answers"], other["answers"])):
            if i in failures:
                continue
            if other["errors"][i] is not None:
                failures[i] = other["errors"][i]
            elif got != expected:
                failures[i] = f"one pass answered {got}, the checked pass {expected}"
    return failures


def _digest_status(workload: str, scale: str, kind: str, result: dict) -> tuple[str, bool]:
    """Hash the exact alphas of the solved instances and compare with design.json."""
    tokens = result["tokens"]
    if None in tokens:
        return "mismatch: an instance failed, so its alpha is missing", False
    digest = hashlib.sha256("\n".join(tokens).encode()).hexdigest()
    stored = json.loads(DESIGN.read_text())["digests"].get(workload, {}).get(kind)
    if scale != "full" or stored is None:
        return f"{digest} over {len(tokens)} instances (stored only at full scale)", True
    if digest != stored:
        return f"mismatch: {digest} over {len(tokens)} instances, stored {stored}", False
    return f"ok: {digest} over {len(tokens)} instances", True


def _quantile(times: list[float], position: int) -> tuple[float, int]:
    """The time at 0-based `position` of the sorted times, smoothed.

    The instances mix kinds and sizes, so a single order statistic can sit
    in a gap between two of them and jump from one run to the next.  This
    returns the mean of the sorted times within WINDOW_SHARE / 2 of the
    instances on either side of `position`, and how many it averages.
    """
    ordered = sorted(times)
    half = round(len(ordered) * WINDOW_SHARE / 2)
    window = ordered[max(0, position - half) : position + half + 1]
    return sum(window) / len(window), len(window)


def _median(times: list[float]) -> tuple[float, int]:
    """solve_s_p50: the smoothed median (the mean of the two middle windows for an even count)."""
    n = len(times)
    (lo, k), (hi, _) = _quantile(times, (n - 1) // 2), _quantile(times, n // 2)
    return (lo + hi) / 2, k


def _tail(times: list[float]) -> tuple[float, float, int]:
    """solve_s_tail: the smoothed time at the highest percentile with TAIL_BEYOND instances beyond it.

    With N sorted times that is the (TAIL_BEYOND + 1)-th largest, at
    percentile 100 (N - TAIL_BEYOND) / N.  Shorter runs fall back to the maximum.
    """
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100.0, 1
    value, k = _quantile(times, n - TAIL_BEYOND - 1)
    return value, 100.0 * (n - TAIL_BEYOND) / n, k


def _report(workload: str, lines: list[str], digest: str, failures: dict[int, str]) -> None:
    lines.append(f"{workload:<19} alpha digest {digest}")
    for i, error in list(failures.items())[:5]:
        lines.append(f"{workload:<19} instance {i} failed: {error}")


def run_end_to_end(workload: str, seed: int, seconds: float, scale: str, lines: list[str]) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    corpus, setup_times, _ = _setup(workload, seed, scale, SETUP_REPEATS, False, deadline)
    passes, pass_walls = [], []
    start = time.perf_counter()
    # another pass starts while it should end within --seconds
    while len(passes) < MIN_PASSES or time.perf_counter() - start + statistics.median(pass_walls) <= seconds:
        # a pass that would not fit in the rest of the budget is not started
        if passes and time.monotonic() + 1.5 * max(pass_walls) > deadline:
            break
        result, elapsed = _solve(workload, scale, corpus, False, not passes, False, deadline)
        passes.append(result)
        pass_walls.append(elapsed)
    checked = passes[0]
    failures = _failures(checked, passes[1:])
    scaled = _instance_times(passes)
    ok_times = [t for i, t in enumerate(scaled) if i not in failures]
    attempted = len(scaled)
    raw_s = sum(statistics.median(column) for column in zip(*(p["times"] for p in passes)))
    slowdown = statistics.median(statistics.fmean(p["ref_times"]) for p in passes) / REF_NOMINAL_S
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{workload}-seed{seed}-passes.json").write_text(
        json.dumps([{k: p[k] for k in ("indices", "times", "ref_times", "wall_s")} for p in passes])
    )
    completed = len(ok_times)
    digest, digest_ok = _digest_status(workload, scale, "all", checked)
    # with no certified instance, the timings describe the failed ones
    ok_times = ok_times or scaled
    tail, tail_pct, tail_count = _tail(ok_times)
    p50, p50_count = _median(ok_times)
    metrics = {
        "instances_per_s": {"value": completed / sum(ok_times), "unit": "1/s"},
        "solve_s_p50": {"value": p50, "unit": "s"},
        "solve_s_tail": {"value": tail, "unit": "s"},
        "setup_s": {"value": statistics.median(t * REF_NOMINAL_S / ref for t, ref in setup_times), "unit": "s"},
        "peak_rss_mb": {"value": max(p["peak_rss_kb"] for p in passes) / 1024, "unit": "MB"},
    }
    notes = {
        "instances_per_s": (
            f"{completed} certified instances in {sum(ok_times):.2f} s, each its median of {len(passes)} "
            f"passes ({sum(pass_walls):.1f} s in all); {raw_s:.2f} s as measured, with the "
            f"reference kernel {slowdown:.3f} x its nominal time"
        ),
        "solve_s_p50": f"median of {completed} instances, smoothed over {p50_count}",
        "solve_s_tail": (
            f"p{tail_pct:.1f} of {completed} instances, {TAIL_BEYOND} beyond it, smoothed over {tail_count}"
            if completed > TAIL_BEYOND
            else f"maximum: only {completed} instances"
        ),
        "setup_s": f"median of {SETUP_REPEATS}; as measured " + ", ".join(f"{t:.3f}" for t, _ in setup_times),
        "peak_rss_mb": "largest solving process, before its checks",
    }
    for name, m in metrics.items():
        lines.append(f"{workload:<19} {name:<16} {m['value']:12.6g} {m['unit']:<4} {notes[name]}")
    failed = len(failures)
    lines.append(f"{workload:<19} {'error_rate':<16} {failed / attempted:12.6g} {'':<4} {failed} of {attempted} instances failed")
    _report(workload, lines, digest, failures)
    return {"correct": not failures and digest_ok, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(workload: str, seed: int, seconds: float, scale: str, lines: list[str]) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    corpus, _, setup_spans = _setup(workload, seed, scale, 1, True, deadline)
    # plain and traced passes alternate, and each instance counts at its
    # median plain and its median traced time, so that drift during the run
    # does not show as tracing overhead; the spans come from the first traced pass
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(_solve(workload, scale, corpus, True, False, False, deadline)[0])
        traced.append(_solve(workload, scale, corpus, True, not traced, True, deadline)[0])
    plain_s, traced_s = (sum(_instance_times(passes)) for passes in (plain, traced))
    first, traced = traced[0], traced[1:]
    RUNS.mkdir(exist_ok=True)
    spans_path = RUNS / f"{workload}-seed{seed}-spans.json"
    spans_path.write_text(
        json.dumps(
            {
                "fields": ["name", "start", "end", "parent", "instance", "child_s", "counters"],
                "wall_s": first["wall_s"],
                "setup": setup_spans,
                "solve": first["spans"],
            }
        )
    )
    metrics = tracer.layer_metrics(first["spans"], setup_spans)
    metrics["trace_overhead_frac"] = {"value": traced_s / plain_s - 1, "unit": "frac"}
    failures = _failures(first, plain + traced)
    digest, digest_ok = _digest_status(workload, scale, "prefix", first)
    for name, m in metrics.items():
        lines.append(f"{workload:<19} {name:<44} {m['value']:12.6g} {m['unit']}")
    attempted = len(first["times"])
    lines.append(
        f"{workload:<19} traced {attempted} instances: {traced_s:.3f} s against {plain_s:.3f} s plain, "
        f"median of {TRACE_PAIRS} passes each; spans in {spans_path.relative_to(ROOT)}"
    )
    _report(workload, lines, digest, failures)
    return {"correct": not failures and digest_ok, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every corpus, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("the in-solver certificate checks are asserts: do not run under python -O", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        lines: list[str] = []
        try:
            results[name] = run(name, args.seed, args.seconds, args.scale, lines)
        except HarnessError as exc:
            if lines:
                print("\n".join(lines), flush=True)
            print(f"benchmark error ({name}): {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
