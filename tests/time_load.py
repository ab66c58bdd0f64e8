"""Time ingest on the three benchmark datasets in process.

    python tests/time_load.py [SRC]

Builds the seed-1 ``values``, ``structure`` and ``cold_query`` datasets
with ``perfbench/gen.py`` and writes each as a JSONL file to a temporary
directory. Each pass then times, dataset by dataset, one ``load_path`` of
the file and one ``tgq query`` call made through ``cli.main`` in process,
which loads the file again and answers one query of the ``cold_query`` mix
drawn over that dataset (the queries take turns from pass to pass). Prints
one JSON line: dataset -> median ``load_ms`` and ``query_ms`` over the
passes.

``SRC`` is the ``src`` directory whose ``tgq`` is timed (this checkout's by
default), so the same script times another checkout of the package.
Nothing under ``perfbench/`` is written. Pytest does not collect this file.
"""

import gc
import io
import json
import statistics
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PASSES = 15


def main(argv: list) -> int:
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import gen
    import tgq
    import tgq.cli
    from run import WORKLOADS

    if Path(tgq.__file__).resolve().parent != src / "tgq":
        print(f"imported tgq from {tgq.__file__}, not from {src}", file=sys.stderr)
        return 2
    samples: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        datasets = {}
        for name, workload in WORKLOADS.items():
            data = gen.make_dataset(workload.scale, 1)
            path = Path(tmp) / f"{name}.jsonl"
            path.write_text("\n".join(data.lines()) + "\n")
            datasets[name] = str(path), [op.text for op in gen.make_ops("cold_query", data, 1, 1)[0]]
            samples[name] = {"load_ms": [], "query_ms": []}
        for i in range(PASSES):
            for name, (path, texts) in datasets.items():
                gc.collect()
                start = perf_counter()
                tgq.load_path(path)
                samples[name]["load_ms"].append((perf_counter() - start) * 1000)
                gc.collect()
                with redirect_stdout(io.StringIO()):
                    start = perf_counter()
                    code = tgq.cli.main(["query", path, texts[i % len(texts)]])
                    samples[name]["query_ms"].append((perf_counter() - start) * 1000)
                if code != 0:
                    print(f"{name}: query {texts[i % len(texts)]!r} exited {code}", file=sys.stderr)
                    return 1
    print(json.dumps({name: {key: round(statistics.median(ms), 2) for key, ms in times.items()}
                      for name, times in samples.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
