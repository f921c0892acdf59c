"""The CLI's reports against the golden files under tests/golden/.

Every edge case of tools/report_diff.py must give the recorded exit code,
stdout and stderr byte for byte, and every benchmark plan invocation at
seeds 3 and 4 an outcome with the recorded sha256.  The reports run in a
fresh interpreter with PYTHONHASHSEED=0 through `report_diff._worker`.
A deliberate change of outcome regenerates the files with

    python3 tools/report_diff.py --write-golden
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))
import report_diff  # noqa: E402


def test_reports_match_the_golden_files():
    got = report_diff.golden_documents()
    for name, entries in got.items():
        want = json.loads((report_diff.GOLDEN / name).read_text())
        assert len(entries) == len(want), f"{name}: the invocation list changed"
        differing = [
            (new.get("argv") or new["invocation"],
             [key for key in new if new[key] != old.get(key)])
            for new, old in zip(entries, want) if new != old
        ]
        assert differing == [], f"{name}: outcomes differ from the golden file"
