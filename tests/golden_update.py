"""Regenerate ``golden_outputs.json`` from the checkout's current outputs.

Run from the repository root after an intended change of outputs:

    PYTHONPATH=src python tests/golden_update.py

and list in the change's notes every job whose record changed, with the
largest numeric change and its reason.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_golden import GOLDEN, run_jobs, versions  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        jobs = run_jobs(Path(tmp))
    GOLDEN.write_text(json.dumps({"versions": versions(), "jobs": jobs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(jobs)} jobs to {GOLDEN}")
