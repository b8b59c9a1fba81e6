"""Benchmark of the threesquares toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/`
in this process; one workload runs round after round, each round one
call into an entry point with the program's caches cleared, until S
seconds have passed and at least two rounds have run.  Every round's
output is checked against the independent counter in `oracle.py` at
points drawn from the seed.  The last line of standard output is one
JSON object: with `--trace 0` the end-to-end metrics, with `--trace 1`
the per-layer metrics of traced rounds, which alternate with untraced
ones.  The spans of a traced run are written to `bench/out/`.  See
README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A `genus73` round (about 25 s) outlasts the run length; two rounds at
# least give it a median of two, as the shorter workloads have.
MIN_ROUNDS = 2
SETUP_SAMPLES = 3  # per round, and once more after the last round
MODULES = ("qseries", "lattice", "forms", "genera", "catalog", "verify", "cli")


def _is_program(name: str) -> bool:
    return name == "threesquares" or name.startswith("threesquares.")


def import_seconds() -> float:
    """Time to import the package and its CLI afresh, numpy already loaded.

    The modules the workload uses are set aside and put back afterwards,
    so the fresh copies are timed and then dropped.
    """
    saved = {k: sys.modules.pop(k) for k in list(sys.modules) if _is_program(k)}
    try:
        t0 = perf_counter()
        importlib.import_module("threesquares.cli")
        return perf_counter() - t0
    finally:
        for k in [k for k in sys.modules if _is_program(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


def load_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    # `threesquares.catalog` is shadowed by the function of that name,
    # so modules are reached through importlib.
    return SimpleNamespace(
        **{m: importlib.import_module(f"threesquares.{m}") for m in MODULES}
    )


def clear_caches() -> None:
    """Empty every memo of the program: lru caches and module-level *_CACHE dicts."""
    programs = [m for name, m in sys.modules.items() if _is_program(name)]
    for module in programs:
        for attr, value in list(vars(module).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


@dataclass
class Round:
    tracer: object  # the round's Tracer, None when untraced
    verdict_s: float
    cpu_s: float
    record: object  # what the workload's checks read; None after an error
    error: str | None
    layers: dict | None  # per-layer figures of a traced round


def run_round(workload, ts, tracing=None) -> Round:
    clear_caches()
    gc.collect()
    tracer = tracing.Tracer() if tracing else None
    wiring = tracing.Wiring(tracer) if tracing else contextlib.nullcontext()
    raw = error = None
    with wiring:
        t0, c0 = perf_counter(), process_time()
        try:
            if tracer:
                raw = tracer.call(tracing.ROOT, workload.call, (), {})
            else:
                raw = workload.call()
        except (Exception, SystemExit):
            error = traceback.format_exc()
        t1, c1 = perf_counter(), process_time()
    layers = None
    if tracer:
        layers = tracer.metrics()
        # Every distinct (expr, order) the evaluator computed must have
        # passed through the wrapper, or some caller escaped the wiring.
        memo = len(ts.catalog._CACHE)
        if layers["catalog.memo_misses"] != memo:
            raise RuntimeError(
                f"trace saw {layers['catalog.memo_misses']} memo misses, "
                f"memo holds {memo}: a caller of evaluate is not wired"
            )
    record = None
    if error is None:
        try:
            record = workload.extract(raw)
        except Exception:
            error = traceback.format_exc()
    return Round(tracer, t1 - t0, c1 - c0, record, error, layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not (SRC / "threesquares" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2

    ts = load_program()
    workload = WORKLOADS[args.workload](ts, random.Random(args.seed))

    rounds: list[Round] = []
    setup: list[float] = []
    peak_rss_mb = None
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < args.seconds:
        # Set-up samples are spread over the run, as the rounds are.
        setup += [import_seconds() for _ in range(SETUP_SAMPLES)]
        rounds.append(run_round(workload, ts))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            rounds.append(run_round(workload, ts, tracing))

    setup += [import_seconds() for _ in range(SETUP_SAMPLES)]

    failed = 0
    correct = True
    for i, r in enumerate(rounds):
        if r.error is not None:
            failed += 1
            print(f"round {i}: error\n{r.error}", file=sys.stderr)
            continue
        try:
            bad = workload.problems(r.record)
        except Exception:
            bad = [f"output could not be checked\n{traceback.format_exc()}"]
        if bad:
            failed += 1
            correct = False
            for line in bad[:20]:
                print(f"round {i}: {line}", file=sys.stderr)
        print(
            f"round {i}: {'traced' if r.tracer else 'untraced'} "
            f"verdict {r.verdict_s:.3f} s, cpu {r.cpu_s:.3f} s, "
            f"{'fail' if bad else 'ok'}",
            file=sys.stderr,
        )

    plain = [r for r in rounds if not r.tracer]
    if args.trace:
        traced = [r for r in rounds if r.tracer]
        metrics = {
            name: {
                "value": statistics.median(r.layers[name] for r in traced),
                "unit": unit,
            }
            for name, unit in tracing.LAYER_METRICS.items()
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r.verdict_s for r in traced)
            - statistics.median(r.verdict_s for r in plain),
            "unit": "s",
        }
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
        with open(path, "w") as fh:
            json.dump([r.tracer.dump(i) for i, r in enumerate(traced)], fh)
        print(f"spans written to {path}", file=sys.stderr)
    else:
        metrics = {
            "verdict_s": {
                "value": statistics.median(r.verdict_s for r in plain),
                "unit": "s",
            },
            "cpu_s": {"value": statistics.median(r.cpu_s for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({
        "correct": correct,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
