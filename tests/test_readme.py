"""The README's "Library use" examples run as written.

Every fenced ``python`` block under the "## Library use" heading is
executed in a fresh namespace, so each one imports what it uses from
the module that defines it.  Run from outside the checkout with no
PYTHONPATH, the blocks import the installed package.
"""

from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

import mindec

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks():
    """(first line number, source) of each python block in the section."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("## Library use")
    blocks, body, opened = [], None, None
    for number, line in enumerate(lines[start + 1 :], start + 2):
        if body is None and line.startswith("## "):
            break
        if body is None and line == "```python":
            body, opened = [], number + 1
        elif body is not None and line == "```":
            blocks.append((opened, "\n".join(body) + "\n"))
            body = None
        elif body is not None:
            body.append(line)
    return blocks


def block_ids(blocks):
    """Each block named by its first nonblank line, and the k-th block
    to repeat a name by that name and " #k": ids that no paragraph
    added above a block can change."""
    seen = Counter()
    ids = []
    for _, source in blocks:
        name = next(line for line in source.splitlines() if line.strip())
        seen[name] += 1
        ids.append(name if seen[name] == 1 else f"{name} #{seen[name]}")
    return ids


_BLOCKS = library_use_blocks()


def test_section_has_examples():
    assert len(_BLOCKS) >= 3


@pytest.mark.parametrize("opened,source", _BLOCKS, ids=block_ids(_BLOCKS))
def test_example_runs(opened, source):
    exec(compile(source, f"README.md:{opened}", "exec"), {"__name__": "readme_example"})


def test_package_root_exports_only_submodules_and_version():
    exported = [name for name in vars(mindec) if not name.startswith("_")]
    assert all(isinstance(getattr(mindec, name), ModuleType) for name in exported), exported
    assert mindec.__version__ == "0.1.0"
