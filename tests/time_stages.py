"""Time the stages of one query in process.

    python tests/time_stages.py [SRC]

Builds the seed-1 ``values`` and ``structure`` datasets with
``perfbench/gen.py``, loads each once, and runs the ops of two shapes of
their mixes: ``lookup`` (``LOOKUP w OF node:x AT t=n``) on ``values`` and
``connected`` (``CONNECTED(node:a, node:b) AT t=n``) on ``structure``, with
each workload's own config. Every op is split into the stages a
``run_query`` call and the CLI's print go through: tokenize, parse and
validate, canonical text (``pp``), plan, execute (``PlannedQuery.run``) and
serialise (``json.dumps``). Prints one JSON line: shape -> median
microseconds per stage over every op of every pass, and the median of their
sum.

``SRC`` is the ``src`` directory whose ``tgq`` is timed (this checkout's by
default), so the same script times another checkout of the package.
Nothing under ``perfbench/`` is written. Pytest does not collect this file.
"""

import gc
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
PASSES = 20
SHAPES = (("values", "lookup"), ("structure", "connected"))
STAGES = ("tokenize", "parse", "pp", "plan", "execute", "serialize")


def main(argv: list) -> int:
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import gen
    import tgq
    from run import WORKLOADS
    from tgq.dsl.parser import _Parser, tokenize
    from tgq.dsl.planner import _PLAN_HANDLERS, PlannedQuery, _Planner
    from tgq.dsl.validate import validate

    if Path(tgq.__file__).resolve().parent != src / "tgq":
        print(f"imported tgq from {tgq.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, shape in SHAPES:
            wl = WORKLOADS[workload]
            data = gen.make_dataset(wl.scale, 1)
            path = Path(tmp) / f"{workload}.jsonl"
            path.write_text("\n".join(data.lines()) + "\n")
            graph = tgq.load_path(str(path))
            cfg = tgq.Config(**wl.config)
            texts = [op.text for ops in gen.make_ops(workload, data, 1, wl.rounds)
                     for op in ops if op.shape == shape]
            samples = {stage: [] for stage in STAGES + ("total",)}
            for _ in range(PASSES):
                gc.collect()
                for text in texts:
                    t0 = perf_counter_ns()
                    tokens = tokenize(text)
                    t1 = perf_counter_ns()
                    node = _Parser(tokens).parse_query()
                    validate(node)
                    t2 = perf_counter_ns()
                    canonical = node.pp()
                    t3 = perf_counter_ns()
                    runner = _PLAN_HANDLERS[type(node)](_Planner(graph, cfg), node)
                    t4 = perf_counter_ns()
                    envelope = PlannedQuery(canonical, runner).run()
                    t5 = perf_counter_ns()
                    json.dumps(envelope)
                    t6 = perf_counter_ns()
                    marks = (t0, t1, t2, t3, t4, t5, t6)
                    for stage, start, end in zip(STAGES, marks, marks[1:]):
                        samples[stage].append(end - start)
                    samples["total"].append(t6 - t0)
            out[shape] = {stage: round(statistics.median(ns) / 1000, 2)
                          for stage, ns in samples.items()}
            out[shape]["ops"] = len(samples["total"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
