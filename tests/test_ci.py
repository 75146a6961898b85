"""CI runs Tier-1, then ci/checks.sh as its only further step.

The workflow is read as text, since pyyaml is not a dependency.
"""

import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ci_runs_tier1_then_the_check_script_alone():
    subprocess.run(["bash", "-n", str(ROOT / "ci" / "checks.sh")], check=True)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert 'python-version: ["3.10", "3.11"]' in workflow
    steps = re.split(r"^\s*- (?=name:|uses:)", workflow, flags=re.M)[1:]
    tier1 = next(i for i, step in enumerate(steps) if step.startswith("name: Tier-1 tests"))
    assert "python -m pytest" in steps[tier1]
    (after,) = steps[tier1 + 1:]
    assert re.search(r"^\s*run: bash ci/checks\.sh$", after, flags=re.M)
