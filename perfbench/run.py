"""Entry point of the mulcom benchmark.

    python3 perfbench/run.py --workload planted-wr --seed 1 --seconds 20 --trace 0

Runs one workload in this process against the sources under ``src/`` of
the checkout that holds this file, with numeric threads capped at 1.
The last line of standard output is the JSON result.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def bootstrap() -> bool:
    """Put the checkout's sources first on the path and cap numeric threads.

    Must run before numpy is imported. Returns False, after saying why on
    stderr, when the checkout holds no mulcom sources.
    """
    if not os.path.isfile(os.path.join(SRC, "mulcom", "__init__.py")):
        print(f"perfbench: no mulcom sources in {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    from mulcom.cli import THREAD_ENV_VARS  # imports no numeric library

    for var in THREAD_ENV_VARS:
        os.environ[var] = "1"
    import mulcom

    if not os.path.abspath(mulcom.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported mulcom from {mulcom.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def main() -> int:
    if not bootstrap():
        return 2
    import mulcom_bench

    return mulcom_bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
