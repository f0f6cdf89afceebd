import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# what follows `README` in a citation `README, "<title>"`; the title may start
# on, or wrap onto, the next docstring or comment line
TITLE = r',(?:\s|#)*"([^"]+)"'


def code_files():
    for top in ("src", "tests", "tools", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != Path(__file__).resolve():
                yield path


def test_readme_citations_resolve():
    # every `README, "<title>"` in the code names a heading of README.md
    headings = {m.group(1).strip() for m in
                re.finditer(r"^#+ (.+)$", (ROOT / "README.md").read_text(), re.M)}
    cited = []
    for path in code_files():
        for m in re.finditer("README" + TITLE, path.read_text()):
            cited.append((path.name, re.sub(r"\s*\n\s*#?\s*", " ", m.group(1))))
    assert len(cited) >= 8
    assert [c for c in cited if c[1] not in headings] == []


def test_no_bare_readme_citation():
    # a mention that names no section ("see README") cannot be checked
    bare = []
    for path in code_files():
        text = path.read_text()
        for m in re.finditer(rf"\bREADME\b(?!\.md|{TITLE})", text):
            bare.append((path.name, text.count("\n", 0, m.start()) + 1))
    assert bare == []
