"""``import repro`` stays light: numpy is its one third-party import.

The library and its CLI must load without pulling in heavy optional
packages (scipy is imported only by ``repro.model``).  The check runs in
a fresh interpreter so that modules other tests loaded do not hide an
import.
"""

import json
import os
import subprocess
import sys

import repro

SCRIPT = """
import json, sys
before = set(sys.modules)
import repro, repro.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(n for n in added if n not in sys.stdlib_module_names)))
"""


def test_import_adds_only_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["numpy", "repro"]
