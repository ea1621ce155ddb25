"""README's "Library use" example runs as written, so a renamed public
function fails here instead of going stale in the docs, and its links to its
own sections name headings that exist."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_use_example_runs_on_the_demo_corpus(mini_corpus_path):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    assert '"records.csv"' in block
    code = block.replace('"records.csv"', repr(str(mini_corpus_path)))
    scope: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), scope)
    assert len(scope["corpus"]) == 58  # of 60, the phrase filter keeps 58
    inertia = float(printed.getvalue().split()[0])
    assert round(inertia, 4) == 2.6011


def github_slug(heading: str) -> str:
    """The anchor GitHub gives a heading: lowercased, with every character
    but letters, digits, ``_``, ``-`` and spaces dropped, and spaces made ``-``."""
    return re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")


def test_internal_links_name_headings_that_exist():
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    headings = re.findall(r"^#+ (.+)$", text, re.M)
    assert headings
    flat = " ".join(text.split())  # a section name may wrap across lines
    for anchor in re.findall(r"\]\(#([^)]*)\)", text):
        assert anchor in map(github_slug, headings), anchor
    for section in re.findall(r'see "([^"]+)"', flat):
        assert section in headings, section
