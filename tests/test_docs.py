"""Every markdown file the code cites exists at the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SCANNED = ("src", "tests", "benchmarks", "results", "examples")
_CITATION = re.compile(r"\b([A-Za-z0-9_]+\.md)\b")


def _citations():
    """``{cited name: first file citing it}`` over the scanned trees."""
    cited = {}
    for directory in _SCANNED:
        for path in sorted((ROOT / directory).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            text = path.read_text(encoding="utf-8", errors="ignore")
            for name in _CITATION.findall(text):
                cited.setdefault(name, str(path.relative_to(ROOT)))
    return cited


def test_every_cited_markdown_file_exists():
    cited = _citations()
    assert "DESIGN.md" in cited
    missing = {
        name: where for name, where in cited.items() if not (ROOT / name).is_file()
    }
    assert not missing, f"cited but missing at the repo root: {missing}"
