"""Every ``repro`` import shown in the docs must resolve.

Scans the fenced ``python`` blocks of README.md, DESIGN.md and docs/*.md
for ``import repro...`` / ``from repro... import ...`` statements
(parenthesised multi-line imports included) and runs each one in a fresh
interpreter, so a renamed or deleted public name fails here rather than in
a reader's first session.
"""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```python[ \t]*\n(.*?)^```", re.S | re.M)
_IMPORT = re.compile(r"(import|from)\s+repro\b")


def repro_imports(text: str) -> list[str]:
    """The ``repro`` import statements inside ``text``'s python fences."""
    statements = []
    for block in _FENCE.finditer(text):
        lines = iter(block.group(1).splitlines())
        for line in lines:
            stmt = line.strip()
            if not _IMPORT.match(stmt):
                continue
            if "(" in stmt:
                while ")" not in stmt:
                    stmt += " " + next(lines).strip()
            statements.append(stmt)
    return statements


def test_extractor_joins_parenthesised_imports():
    text = (
        "```python\n"
        "import repro\n"
        "with x:\n"
        "    from repro.access import (\n"
        "        DB_BTREE,\n"
        "        db_open,\n"
        "    )\n"
        "print('from repro import nothing')\n"
        "```\n"
        "```sh\nimport repro.not_python\n```\n"
    )
    assert repro_imports(text) == [
        "import repro",
        "from repro.access import ( DB_BTREE, db_open, )",
    ]


def test_doc_repro_imports_resolve():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    statements = [
        (doc.relative_to(ROOT), stmt)
        for doc in DOCS
        for stmt in repro_imports(doc.read_text(encoding="utf-8"))
    ]
    assert statements, "no repro imports found in the docs' python blocks"
    failures = []
    for doc, stmt in statements:
        result = subprocess.run(
            [sys.executable, "-c", stmt], capture_output=True, text=True, env=env, timeout=60
        )
        if result.returncode != 0:
            last = (result.stderr.strip().splitlines() or ["?"])[-1]
            failures.append(f"{doc}: {stmt!r} -> {last}")
    assert not failures, "\n".join(failures)
