import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_citations_resolve():
    # every `README, "<title>"` in the code names a heading of README.md; a
    # title may wrap onto the next docstring or comment line
    headings = {m.group(1).strip() for m in
                re.finditer(r"^#+ (.+)$", (ROOT / "README.md").read_text(), re.M)}
    cited = []
    for top in ("src", "tests", "tools", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            for m in re.finditer(r'README, "([^"]+)"', path.read_text()):
                cited.append((path.name, re.sub(r"\s*\n\s*#?\s*", " ", m.group(1))))
    assert len(cited) >= 8
    assert [c for c in cited if c[1] not in headings] == []
