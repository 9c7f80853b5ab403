"""Child process for one benchmark operation.

Usage: python3 runner.py RESULT_JSON probe
       python3 runner.py RESULT_JSON cli ARGS...
       python3 runner.py RESULT_JSON paths SEED

It imports ``walklimits.cli`` (the console script's own import), notes
the monotonic clock when the import is done, runs the operation and
writes ``{"ready", "rc", "maxrss_kb", ...}`` to RESULT_JSON.  The parent
notes the same clock just before launching, so ``ready - launch`` is the
process's start-up time.  ``probe`` only starts up and reports versions.
"""

import json
import resource
import sys
import time
import traceback


def main(argv: list) -> int:
    result_path, mode, args = argv[0], argv[1], argv[2:]
    import walklimits.cli

    if mode == "paths":
        import paths
    ready = time.monotonic()
    result = {"ready": ready}
    rc = 1
    try:
        if mode == "cli":
            rc = walklimits.cli.main(args)
        elif mode == "paths":
            result["values"] = paths.run(int(args[0]))
            rc = 0
        elif mode == "probe":
            import numpy
            import scipy

            result["versions"] = {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            }
            rc = 0
    except Exception:  # reported as a failed operation, with the traceback
        traceback.print_exc()
    result["rc"] = rc
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
