"""The package runs on the standard library alone: the test-only packages
are blocked in a fresh interpreter, which then imports every module of the
package and certifies D18 end to end, in one process: `multiprocessing`
is never imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import ncrainbow

SCRIPT = """
import json, sys
for name in ("networkx", "hypothesis", "numpy", "pytest"):
    sys.modules[name] = None  # any import of it now raises ImportError
import importlib, pkgutil
import ncrainbow
names = [m.name for m in pkgutil.iter_modules(ncrainbow.__path__)]
for name in names:
    importlib.import_module("ncrainbow." + name)
from ncrainbow.cli import main
out = sys.argv[1]
print(json.dumps(names))
codes = [
    main(["group", "build", "--family", "dihedral", "--params", "9",
          "--out", out + "/d18.cay"]),
    main(["ncgraph", "--group", out + "/d18.cay", "--out", out + "/d18.graph"]),
    main(["search", "--graph", out + "/d18.graph", "--k", "2", "--attempts", "1000",
          "--seed", "1", "--out", out + "/d18.col"]),
    main(["verify", "--graph", out + "/d18.graph", "--coloring", out + "/d18.col",
          "--k", "2", "--cert", out + "/d18.cert.json"]),
]
print(json.dumps(codes))
print(json.dumps("multiprocessing" in sys.modules))
"""


def test_certifies_d18_without_test_packages(tmp_path):
    src = Path(ncrainbow.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.strip().splitlines()
    package = Path(ncrainbow.__file__).resolve().parent
    assert sorted(json.loads(lines[0])) == sorted(
        p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert json.loads(lines[-2]) == [0, 0, 0, 0]
    assert json.loads(lines[-1]) is False
    assert json.loads((tmp_path / "d18.cert.json").read_text())["k"] == 2
