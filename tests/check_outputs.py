"""Write the report files pinned in ``outputs.sha256`` and check each
against its pin.

The pinned plans are the 3000-trial plan (200 scenes per tier, with its 3 s
and 5 s bin-delay summaries) at one job and at two, and the stack policy's
all_on_one_bowl mode against random at one job, each at ``p_fail`` 0 and
0.2.  They run through ``declutter bench``'s own entry, so every file must
be byte-identical on every Python version and at every job count.

Run from the repository root: ``python tests/check_outputs.py [OUT]``.  The
plans are written under OUT (a temporary directory when none is given), at
``jobs-<n>/<pinned path>``.  Each file's sum is printed next to its pin, and
the exit status is 1 when any differs.  ``outputs.sha256`` is in
``sha256sum -c`` format, relative to one ``jobs-<n>`` directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from declutter.cli import main

PINS = Path(__file__).with_name("outputs.sha256")

# Each pinned plan, by the directory its pins sit under, and its job counts.
PLANS = {
    "plan3000": (
        {
            "tiers": ["t0_cups", "t0_bowls", "t0_utensils", "t1", "t2"],
            "scenes_per_tier": 200,
            "policies": ["random", "pull", "stack"],
            "base_seed": 7,
            "bin_delays": [0, 3, 5],
        },
        (1, 2),
    ),
    "all_on_one_bowl": (
        {
            "tiers": ["t0_utensils", "t1", "t2"],
            "scenes_per_tier": 200,
            "policies": ["random", {"kind": "stack", "utensil_stacking": "all_on_one_bowl"}],
            "base_seed": 7,
        },
        (1,),
    ),
}


def check(out: Path) -> int:
    """Write every pinned plan under ``out`` and print each file's sum next
    to its pin; returns the number of files that differ from their pins."""
    out.mkdir(parents=True, exist_ok=True)
    for name, (plan, jobs) in PLANS.items():
        for p_fail in (0.0, 0.2):
            plan_file = out / f"{name}-{p_fail}.json"
            plan_file.write_text(json.dumps({**plan, "p_fail": p_fail}))
            for n in jobs:
                args = ["bench", "--plan", str(plan_file), "--jobs", str(n),
                        "--out", str(out / f"jobs-{n}" / name / str(p_fail))]
                with contextlib.redirect_stdout(io.StringIO()):
                    if main(args):
                        raise SystemExit(f"declutter {' '.join(args)} failed")
    wrong = 0
    for line in PINS.read_text().splitlines():
        pin, path = line.split(maxsplit=1)
        for n in PLANS[path.split("/")[0]][1]:
            written = out / f"jobs-{n}" / path
            got = hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else "missing"
            wrong += got != pin
            print(f"{'ok' if got == pin else 'DIFFERS':7s} {got}  {pin}  jobs-{n}/{path}")
    return wrong


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(1 if check(Path(sys.argv[1])) else 0)
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(1 if check(Path(tmp)) else 0)
