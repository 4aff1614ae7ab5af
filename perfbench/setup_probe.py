"""Set-up of a fresh interpreter: import perpsim.cli, load and classify configs.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG.json [CONFIG.json ...]

Prints one JSON object with the time.perf_counter() reading at which the
configs are classified ("ready"; the clock is system-wide, so the caller
can subtract its own start time) and the duration of each stage.
"""

import json
import sys
import time

t_import = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import perpsim.cli  # noqa: E402,F401  (numpy, scipy.special and every layer)
from perpsim.config import load_config  # noqa: E402
from perpsim.models import analytic_moments, classify  # noqa: E402

t_load = time.perf_counter()
configs = [load_config(path) for path in sys.argv[2:]]
t_classify = time.perf_counter()
for cfg in configs:
    classify(analytic_moments(cfg.model), cfg.model)
ready = time.perf_counter()
print(json.dumps({
    "ready": ready,
    "setup.import_s": t_load - t_import,
    "config.load_s": t_classify - t_load,
    "models.classify_s": ready - t_classify,
}))
