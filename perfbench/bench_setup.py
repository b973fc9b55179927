"""Time one set-up in a fresh process: import tabgen, load the corpus, build the backend.

The benchmark runs this several times per run and reports the fastest,
so that `setup_s` sees a cold import each time. It reads the corpus files
the benchmark already wrote and writes nothing.

    python3 perfbench/bench_setup.py --workload many-small --corpus DIR

prints one JSON object with `import_s`, `load_s`, `construct_s` and
`setup_s`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--corpus", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    # The imports are what the first interval measures.
    started = time.perf_counter()
    import bench_backend  # noqa: E402  (imports tabgen)

    imported = time.perf_counter()
    loaded = bench_backend.load(args.workload, Path(args.corpus))
    load_done = time.perf_counter()
    bench_backend.make_backend(args.workload, loaded)
    done = time.perf_counter()
    print(json.dumps({
        "import_s": imported - started,
        "load_s": load_done - imported,
        "construct_s": done - load_done,
        "setup_s": done - started,
    }))


if __name__ == "__main__":
    main()
