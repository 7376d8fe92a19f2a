"""Time one cold set-up of a bfl cell in this fresh interpreter.

    python3 bench/setup_probe.py '<cell config as JSON>'

numpy is imported first and left out of the time: bfl cannot change what
numpy's import costs, and on a shared machine that import is the noisiest
part of start-up (0.05 to 0.16 s from one interpreter to the next).  The
clock then covers importing bfl, parsing the config and everything
`run_experiment` does before its first round: dataset and partition build,
model init and role assignment.  The cell runs with `rounds: 0`, so the
only other work is one evaluation of the initial model.  Prints
{"setup_s": seconds} on one line.
"""

import json
import os
import sys
import time

import numpy  # noqa: F401

started = time.perf_counter()

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from bfl import config, orchestrator  # noqa: E402

cell = json.loads(sys.argv[1])
cell["rounds"] = 0
orchestrator.run_experiment(config.config_from_dict(cell))
print(json.dumps({"setup_s": time.perf_counter() - started}))
