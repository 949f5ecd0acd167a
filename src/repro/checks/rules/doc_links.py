"""doc-links: internal markdown links in docs/ and README.md resolve.

Scans every ``*.md`` under ``docs/`` plus the top-level ``README.md``
for inline markdown links ``[text](target)`` and verifies each
*internal* target:

* relative file targets must exist on disk (resolved against the
  linking file's directory);
* fragment targets (``file.md#section`` or bare ``#section``) must
  match a heading in the target file, using GitHub's anchor convention
  (lowercase, punctuation stripped, spaces to hyphens);
* external targets (``http://``, ``https://``, ``mailto:``) are
  skipped — CI must not depend on the network.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator

from repro.checks.lint import Finding, Rule

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def github_anchor(heading: str) -> str:
    """GitHub's heading → anchor slug (lowercase, strip, hyphenate)."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_in(markdown: str) -> set[str]:
    return {github_anchor(match) for match in HEADING_RE.findall(markdown)}


def check_file(path: Path, root: Path) -> Iterator[Finding]:
    """All broken internal links in one markdown file."""
    rel = path.relative_to(root).as_posix()
    text = path.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        line = text.count("\n", 0, match.start()) + 1
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        file_part, _, fragment = target.partition("#")
        if file_part:
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                yield Finding(
                    rule=DocLinksRule.name,
                    path=rel,
                    line=line,
                    message=f"broken link -> {target} (no such file)",
                )
                continue
        else:
            resolved = path
        if fragment:
            if resolved.suffix != ".md" or not resolved.is_file():
                continue  # fragments into non-markdown: out of scope
            if fragment not in anchors_in(
                resolved.read_text(encoding="utf-8")
            ):
                yield Finding(
                    rule=DocLinksRule.name,
                    path=rel,
                    line=line,
                    message=f"broken anchor -> {target}",
                )


def find_problems(root: Path) -> list[str]:
    """String-form report, one ``path: message`` line per broken link."""
    rule = DocLinksRule()
    return [
        f"{finding.path}: {finding.message}"
        for finding in rule.check_project(root)
    ]


class DocLinksRule(Rule):
    name = "doc-links"
    description = "internal markdown links in docs/ and README.md resolve"

    def check_project(self, root: Path) -> Iterator[Finding]:
        sources = sorted((root / "docs").glob("*.md")) + [root / "README.md"]
        for source in sources:
            if source.exists():
                yield from check_file(source, root)
