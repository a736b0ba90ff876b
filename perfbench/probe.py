"""Set-up probe: import semidirac from the given source directory and parse
every given config with ``cli.parse_config``, as each CLI invocation does,
then print ``time.perf_counter()``.  That clock is system-wide on Linux, so
the caller subtracts its own reading from just before the spawn.

    python3 perfbench/probe.py src config1.json [config2.json ...]
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

from semidirac.cli import parse_config  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_config(json.load(fh))
print(time.perf_counter())
