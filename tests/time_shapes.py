"""Time each query shape of the ``structure`` benchmark workload in process.

    python tests/time_shapes.py [SRC]

Builds the seed-1 ``structure`` dataset with ``perfbench/gen.py`` (140
nodes, 280 edges, 30 time points), takes each shape's queries from two
rounds of that workload's mix, runs every query once to warm the snapshot
cache, and then times 15 passes over each shape's queries, the shapes
taking turns within a pass. Prints one JSON line: shape -> median ms per
op over the passes.

``SRC`` is the ``src`` directory whose ``tgq`` is timed (this checkout's by
default), so the same script times another checkout of the package.
Nothing under ``perfbench/`` is written. Pytest does not collect this file.
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PASSES = 15


def main(argv: list) -> int:
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import gen
    import tgq

    if Path(tgq.__file__).resolve().parent != src / "tgq":
        print(f"imported tgq from {tgq.__file__}, not from {src}", file=sys.stderr)
        return 2
    data = gen.make_dataset(gen.Scale(140, 280, 30), 1)
    graph, cfg = tgq.load(data.lines()), tgq.Config()
    shapes: dict = {}
    for op in (op for ops in gen.make_ops("structure", data, 1, 2) for op in ops):
        shapes.setdefault(op.shape, []).append(op.text)
    for texts in shapes.values():
        for text in texts:
            tgq.run_query(text, graph, cfg)
    samples: dict = {shape: [] for shape in shapes}
    for _ in range(PASSES):
        for shape, texts in shapes.items():
            start = perf_counter()
            for text in texts:
                tgq.run_query(text, graph, cfg)
            samples[shape].append((perf_counter() - start) * 1000 / len(texts))
    print(json.dumps({shape: round(statistics.median(ms), 4)
                      for shape, ms in sorted(samples.items())}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
