"""The change record stays readable: CHANGES.md holds one short paragraph
per change, and the full entries live in docs/changes-archive.md.

Fails when CHANGES.md grows past 80 KB or any one line past 3 000
characters, so an over-long entry is moved to the archive (verbatim,
linked from a one-paragraph summary) when it is written, not later.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHANGES = ROOT / "CHANGES.md"
ARCHIVE = ROOT / "docs" / "changes-archive.md"

MAX_BYTES = 80 * 1024
MAX_LINE_CHARS = 3_000


def test_changes_fits_its_byte_budget():
    size = CHANGES.stat().st_size
    assert size <= MAX_BYTES, f"CHANGES.md is {size} bytes (budget {MAX_BYTES})"


def test_no_changes_line_is_over_long():
    lines = CHANGES.read_text(encoding="utf-8").splitlines()
    long = [
        (number, len(line))
        for number, line in enumerate(lines, 1)
        if len(line) > MAX_LINE_CHARS
    ]
    assert not long, f"CHANGES.md (line, length) over {MAX_LINE_CHARS}: {long}"


def test_every_archive_link_names_a_section():
    """A summary's link lands on its entry: each anchor CHANGES.md names
    is a heading of the archive."""
    headings = {
        re.sub(r"[^\w\- ]", "", line[3:].lower()).replace(" ", "-")
        for line in ARCHIVE.read_text(encoding="utf-8").splitlines()
        if line.startswith("## ")
    }
    anchors = re.findall(
        r"docs/changes-archive\.md#([\w-]+)", CHANGES.read_text(encoding="utf-8")
    )
    assert anchors
    assert sorted(set(anchors) - headings) == []
