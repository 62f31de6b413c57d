"""Golden sha256 digests of the CLI artifacts on the shipped scenarios.

The digests in ``golden_digests.json`` are specific to the numpy and scipy
builds they were recorded with, so the test skips the digest comparison when
those versions differ; every command must exit with its recorded code and
every JSON artifact must parse as RFC 8259 JSON (no NaN or Infinity) either
way.  Re-record (only when an artifact is meant to change) with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of every digest it changes and how many it leaves
unchanged.  For each changed CSV it also prints the columns that differ
from the same artifact made by the source committed at git HEAD, run here,
and their largest absolute change.
"""

import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile

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
    "oracle_compare_absorbing": ["oracle-compare", "absorbing_oracle.json"],
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


def artifact_digests(workdir, src=None):
    """Run every command single-threaded, importing kinbench from ``src``
    (default: the one imported here); exit codes and artifact digests."""
    workdir = pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    small = json.loads((SCENARIOS / "ou_oracle.json").read_text())
    small["oracle"].update(particles=3000, snapshot_times=[0.3], moment_points=[0.0])
    (workdir / "ou_oracle_small.json").write_text(json.dumps(small) + "\n")
    jobs = []
    for name, (cmd, scenario, *rest) in COMMANDS.items():
        folder = workdir if scenario == "ou_oracle_small.json" else SCENARIOS
        jobs.append([name, str(workdir / name), [cmd, str(folder / scenario), *rest]])
    src = src or os.path.dirname(os.path.dirname(os.path.abspath(kinbench.__file__)))
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


def committed_source(dest):
    """The ``src`` tree committed at git HEAD, extracted under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD", "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return str(pathlib.Path(dest) / "src")


def column_changes(old_csv, new_csv):
    """{column: largest absolute change} for each column of two headed CSV
    files that differs; inf where a column is missing, changes length or
    holds a cell that is not a number.  NaN against NaN is no change."""
    def columns(path):
        header, *rows = csv.reader(pathlib.Path(path).read_text().splitlines())
        return {name: [row[j] for row in rows] for j, name in enumerate(header)}

    old, new = columns(old_csv), columns(new_csv)
    changes = {}
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) == new.get(name):
            continue
        changes[name] = np.inf
        try:
            a, b = (np.array(cells[name], dtype=float) for cells in (old, new))
        except (KeyError, ValueError):  # missing on one side, or not numbers
            continue
        if a.shape == b.shape:
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            change = np.where(same, 0.0, np.nan_to_num(np.abs(a - b), nan=np.inf))
            changes[name] = float(change.max())
    return changes


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        codes, digests = artifact_digests(tmp / "new")
        old = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
        changed = sorted(name for name in digests.keys() | old.keys()
                         if digests.get(name) != old.get(name))
        csvs = [name for name in changed if name.endswith(".csv") and name in digests]
        if csvs:
            artifact_digests(tmp / "head", committed_source(tmp / "checkout"))
        for name in changed:
            print(f"changed: {name}")
            if name in csvs and (tmp / "head" / name).exists():
                for column, change in column_changes(tmp / "head" / name,
                                                     tmp / "new" / name).items():
                    print(f"  {column}: largest |change| {change:.3g} against HEAD")
    doc = {"versions": {"numpy": np.__version__, "scipy": scipy.__version__},
           "exit_codes": codes, "digests": digests}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}; "
          f"{len(changed)} changed, {len(digests) - len(changed)} unchanged")
