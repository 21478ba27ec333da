"""docs/SURFACE.md keeps one row per module of src/repro.

The table is ``python docs/surface.py``'s output, which runs every bench
area and example under ``trace``; this reads the committed file instead,
so a module added or deleted without regenerating the table fails here.
"""

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ROW = re.compile(r"^\| `(?P<module>[^`]+\.py)` \|.*\| (?P<verdict>[^|]+) \|$")


def rows() -> dict[str, str]:
    found = [ROW.match(line) for line in (ROOT / "docs" / "SURFACE.md").read_text().splitlines()]
    modules = [match["module"] for match in found if match]
    assert not [module for module, count in Counter(modules).items() if count > 1]
    return {match["module"]: match["verdict"] for match in found if match}


def test_one_row_per_module():
    modules = {path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*.py")}
    assert set(rows()) == modules


def test_every_row_has_a_verdict_and_the_kept_candidates_name_their_consumer():
    verdicts = rows()
    assert all(verdict.strip() for verdict in verdicts.values())
    assert "_offload_stream" in verdicts["complet/marshal.py"]
    assert "examples/replicated_catalog.py" in verdicts["apps/catalog.py"]
    assert "examples/wan_deployment.py" in verdicts["viewer/timeline.py"]
    assert "paper artifact" in verdicts["shell/complet.py"]
    assert "explorer" in verdicts["analysis/interaction.py"]
