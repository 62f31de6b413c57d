"""Golden sha256 digests of the CLI artifacts on the shipped scenarios.

The digests in ``golden_digests.json`` are specific to the numpy and scipy
builds they were recorded with, so the test skips the digest comparison when
those versions differ; every command must exit with its recorded code and
every JSON artifact must parse as RFC 8259 JSON (no NaN or Infinity) either
way.  Re-record (only when an artifact is meant to change) with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of every digest it changes and how many it leaves
unchanged.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy

import kinbench
from conftest import reject_json_constant

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_digests.json"

COMMANDS = {
    "run_appendix2a": ["run", "appendix2a.json", "--grid-n", "201"],
    "run_appendix2a_alpha0": ["run", "appendix2a_alpha0.json", "--grid-n", "201"],
    "run_absorbing": ["run", "absorbing.json"],
    "invariant_appendix2a": ["invariant", "appendix2a.json", "--grid-n", "201"],
    "hcurve_appendix2a_alpha0": ["hcurve", "appendix2a_alpha0.json", "--grid-n", "201"],
    "pawula_k3": ["pawula", "pawula_k3.json"],
    "pawula_appendix2a": ["pawula", "pawula_appendix2a.json"],
    "oracle_compare_ou": ["oracle-compare", "ou_oracle_small.json", "--grid-n", "200"],
}

# every command in one interpreter; prints {name: exit code}
RUNNER = """
import json, sys
from kinbench.cli import main
codes = {}
for name, out, argv in json.loads(sys.argv[1]):
    codes[name] = main([*argv, "--out", out])
print(json.dumps(codes))
"""


def _digest(path):
    """sha256 of an artifact; summary.json without its absolute scenario path.
    A JSON artifact must parse without NaN or Infinity."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text(), parse_constant=reject_json_constant)
    if path.name == "summary.json":
        doc.pop("scenario", None)
        data = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def artifact_digests(workdir):
    """Run every command single-threaded; exit codes and artifact digests."""
    workdir = pathlib.Path(workdir)
    small = json.loads((SCENARIOS / "ou_oracle.json").read_text())
    small["oracle"].update(particles=3000, snapshot_times=[0.3], moment_points=[0.0])
    (workdir / "ou_oracle_small.json").write_text(json.dumps(small) + "\n")
    jobs = []
    for name, (cmd, scenario, *rest) in COMMANDS.items():
        folder = workdir if scenario == "ou_oracle_small.json" else SCENARIOS
        jobs.append([name, str(workdir / name), [cmd, str(folder / scenario), *rest]])
    src = os.path.dirname(os.path.dirname(os.path.abspath(kinbench.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(jobs)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    digests = {
        f"{name}/{path.name}": _digest(path)
        for name in COMMANDS for path in sorted((workdir / name).iterdir())
    }
    return codes, digests


def test_artifacts_match_golden_digests(tmp_path):
    codes, digests = artifact_digests(tmp_path)  # every JSON artifact parses strictly
    golden = json.loads(GOLDEN.read_text())
    assert codes == golden["exit_codes"]
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if golden["versions"] != versions:
        pytest.skip(f"digests recorded with {golden['versions']}, running {versions}")
    assert digests == golden["digests"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        codes, digests = artifact_digests(tmp)
    old = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
    changed = sorted(name for name in digests.keys() | old.keys()
                     if digests.get(name) != old.get(name))
    for name in changed:
        print(f"changed: {name}")
    doc = {"versions": {"numpy": np.__version__, "scipy": scipy.__version__},
           "exit_codes": codes, "digests": digests}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}; "
          f"{len(changed)} changed, {len(digests) - len(changed)} unchanged")
