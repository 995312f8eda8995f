"""Regenerate ``golden_outputs.json`` from the checkout's current outputs.

Run from the repository root after an intended change of outputs:

    PYTHONPATH=src python tests/golden_update.py

It prints the jobs whose record changed, and the jobs added or removed,
against the record it overwrites.  List in the change's notes every job whose
record changed, with the largest numeric change and its reason.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_golden import GOLDEN, run_jobs, versions  # noqa: E402


def differences(old: dict, new: dict) -> list[str]:
    """One line per job whose record changed, was added or was removed."""
    lines = [f"changed: {name}" for name in sorted(old.keys() & new.keys()) if old[name] != new[name]]
    lines += [f"added: {name}" for name in sorted(new.keys() - old.keys())]
    lines += [f"removed: {name}" for name in sorted(old.keys() - new.keys())]
    return lines


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"versions": None, "jobs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        jobs = run_jobs(Path(tmp))
    GOLDEN.write_text(json.dumps({"versions": versions(), "jobs": jobs}, indent=1, sort_keys=True) + "\n")
    if old["versions"] != versions():
        print(f"versions: {old['versions']} -> {versions()}")
    print("\n".join(differences(old["jobs"], jobs)) or "no job changed")
    print(f"wrote {len(jobs)} jobs to {GOLDEN}")
