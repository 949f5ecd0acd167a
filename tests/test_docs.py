"""The narrative docs stay navigable: internal links must resolve.

Drives the same ``doc-links`` rule CI runs (``python -m repro.checks``)
so a renamed doc, a dropped section, or a typo'd relative path fails the
suite locally before it fails the analysis job.
"""

from __future__ import annotations

from pathlib import Path

from repro.checks.rules import doc_links as checker

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_docs_exist_and_are_linked_from_readme():
    for name in ("architecture.md", "shard.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} missing"
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in readme
    assert "docs/shard.md" in readme


def test_internal_doc_links_resolve():
    problems = checker.find_problems(REPO_ROOT)
    assert not problems, "\n".join(problems)


def test_checker_flags_broken_links(tmp_path):
    """The checker itself works — a fabricated broken link is caught."""
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.md").write_text(
        "# Title\nsee [missing](nope.md) and [gone](#no-such-heading)\n",
        encoding="utf-8",
    )
    (tmp_path / "README.md").write_text("[ok](docs/a.md)\n", encoding="utf-8")
    problems = checker.find_problems(tmp_path)
    assert len(problems) == 2
    assert any("nope.md" in p for p in problems)
    assert any("no-such-heading" in p for p in problems)


def test_github_anchor_convention():
    assert checker.github_anchor("The async ingest queue") == (
        "the-async-ingest-queue"
    )
    assert checker.github_anchor("Split and rebalance (range "
                                 "partitioning only)") == (
        "split-and-rebalance-range-partitioning-only"
    )
    assert checker.github_anchor("`code` *em* heading") == "code-em-heading"
