"""Child process of the benchmark: generates a corpus, or makes one pass over it.

    python3 bench/worker.py gen --workload W --seed S --scale full [--trace]
    python3 bench/worker.py solve --workload W --scale full [--prefix] [--check] [--trace] < corpus.json

``gen`` prints the corpus as one JSON object.  ``solve`` reads that object
from stdin, parses every instance, then solves them one at a time, in corpus
order (only the workload's fixed prefix with ``--prefix``).  It prints one JSON
object with the time and the answer of each instance; with ``--check`` it
also checks every output exactly, after all of them are solved, and adds the
digest token and the error (or null) of each.  A solve process makes one
pass, so every pass starts with the caches of a fresh process.  With
``--trace`` both commands also return the spans of the package's layer
functions.

The package is always imported from the ``src/`` directory next to
``bench/``; a worker that cannot import it from there exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


REF_STEPS = 2000
_REF_MOD = (1 << 89) - 1


def _ref_step(x: int, y: int) -> int:
    return (x ^ y) + math.gcd(x, y)


def reference() -> float:
    """Time one call of a fixed pure-Python kernel that never touches the package.

    Big-integer arithmetic and Python-level calls, like the package's exact
    arithmetic, on ints only: ints are not tracked by the garbage collector,
    so the program's heap does not change the kernel's cost.  The solve
    loop calls it between instances, and run.py around each set-up; its
    timings tell how fast the machine ran at that moment.
    """
    t0 = time.perf_counter()
    a, b = 0x9E3779B97F4A7C15, 0x2545F4914F6CDD1D
    for i in range(REF_STEPS):
        a = (a * b + i) % _REF_MOD
        b = _ref_step(b, a)
    return time.perf_counter() - t0


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import simplegames
    except ImportError as exc:
        sys.exit(f"cannot import simplegames from {SRC}: {exc}")
    if Path(simplegames.__file__).resolve().parent.parent != SRC:
        sys.exit(f"simplegames was imported from {simplegames.__file__}, not from {SRC}")


def _gen(args) -> dict:
    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    instances = workloads.generate(args.workload, args.seed, args.scale)
    if tracer:
        tracer.uninstall()
    return {"instances": instances, "spans": tracer.spans if tracer else []}


def _solve(args) -> dict:
    import workloads
    from tracer import Tracer

    load, solve, answer, check = workloads.load, workloads.solve, workloads.answer, workloads.check
    corpus = json.load(sys.stdin)["instances"]
    if args.prefix:
        corpus = corpus[: workloads.SIZES[args.scale][args.workload]["prefix"]]
    problems = [load(inst) for inst in corpus]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    outputs, times, errors, refs = [], [], [], []
    start = time.perf_counter()
    for index, problem in enumerate(problems):
        if tracer:
            tracer.instance = index
        refs.append(reference())
        t0 = time.perf_counter()
        try:
            out, err = solve(problem), None
        except Exception as exc:  # a failing instance counts as failed, the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
    refs.append(reference())
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    answers = [None if err else answer(p, out) for p, out, err in zip(problems, outputs, errors)]
    tokens = [None] * len(problems)
    if args.check:
        for index, (problem, out) in enumerate(zip(problems, outputs)):
            if errors[index] is None:
                try:
                    tokens[index], errors[index] = check(problem, out)
                except Exception as exc:
                    errors[index] = f"check raised {type(exc).__name__}: {exc}"
    return {
        "indices": [inst["index"] for inst in corpus],
        "times": times,
        "ref_times": refs,
        "answers": answers,
        "tokens": tokens,
        "errors": errors,
        "wall_s": wall,
        "peak_rss_kb": rss_kb,
        "spans": tracer.spans if tracer else [],
    }


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("gen", "solve"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--prefix", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("the in-solver certificate checks are asserts: do not run under python -O")
    _import_package()
    result = _gen(args) if args.command == "gen" else _solve(args)
    json.dump(result, sys.stdout, separators=(",", ":"))


if __name__ == "__main__":
    main(sys.argv[1:])
