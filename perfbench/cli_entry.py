"""The `frickelab` console script, optionally traced.

Usage: python3 perfbench/cli_entry.py [--trace-to PATH] COMMAND [ARGS...]

Without --trace-to this does exactly what the installed `frickelab` entry
point does (`frickelab.cli:main`).  With it, every public function is
wrapped first and the spans are written to PATH.json / PATH.bin on exit.
"""

import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] != ["--trace-to"]:
        from frickelab.cli import main as cli_main

        return cli_main(argv)
    path, argv = argv[1], argv[2:]
    t0 = time.perf_counter()
    import frickelab.cli

    import_s = time.perf_counter() - t0
    import tracer

    spans = tracer.install()
    try:
        return frickelab.cli.main(argv)
    finally:
        spans.write(path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
