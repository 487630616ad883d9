"""The README's Python examples run as written and print what they say.

Each ```python block runs in a fresh namespace.  A ``print(...)`` line
with a trailing ``# ...`` comment must print exactly that comment.  The CI
workflow, the other document that runs code, runs no Python of its own.
"""

import re
import sys
from pathlib import Path

import pytest

import simpson3
from simpson3.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"
TEXT = README.read_text(encoding="utf-8")

# (first line number, source) of each ```python block.
BLOCKS = [
    (TEXT[: m.start(1)].count("\n") + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]

# Calls the README documents; a changed signature must change the README too.
DOCUMENTED_CALLS = [
    "classify_exact(table)",
    "detect_conversion(table, table.scaled(3))",
    "search_witness((1, 2), SamplerConfig(seed=0))",
    "witness.induced_ids()",
    "witness.verify()",
]


def printed_comments(source):
    """Line number (1-based, in the block) -> the comment of each print line."""
    out = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = re.match(r"print\(.*\)\s+#\s?(.*)$", line)
        if m:
            out[lineno] = m.group(1).rstrip()
    return out


def run_block(source):
    """Run a block; return the text printed by each line, by line number."""
    printed = {}

    def record(*args, sep=" ", end="\n", **_):
        lineno = sys._getframe(1).f_lineno
        printed[lineno] = printed.get(lineno, "") + sep.join(map(str, args)) + end

    exec(compile(source, str(README), "exec"), {"print": record, "__name__": "readme"})
    return {lineno: text.rstrip("\n") for lineno, text in printed.items()}


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2
    assert sum(len(printed_comments(src)) for _, src in BLOCKS) >= 4


# Named by ordinal, so that an edit above a block does not rename its test.
BLOCK_IDS = [f"block{k}" for k in range(1, len(BLOCKS) + 1)]


@pytest.mark.parametrize("start, source", BLOCKS, ids=BLOCK_IDS)
def test_block_prints_its_comments(start, source):
    expected = printed_comments(source)
    printed = run_block(source)
    for lineno, comment in expected.items():
        assert printed.get(lineno) == comment, f"README.md line {start + lineno - 1}"


@pytest.mark.parametrize("call", DOCUMENTED_CALLS)
def test_documented_call_is_an_example(call):
    assert any(call in source for _, source in BLOCKS)


def documented_entry_points():
    """The backticked names of the README's "Library entry points" list."""
    section = TEXT.split("## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- .*?(?=^- |\Z)", section, re.M | re.S)
    return [name for item in items for name in re.findall(r"`(\w+)`", item)]


def test_root_exports_the_documented_api():
    names = documented_entry_points()
    assert len(names) == len(set(names)) == 34
    assert len(simpson3.__all__) == len(set(simpson3.__all__))
    assert set(names) == set(simpson3.__all__)
    assert all(hasattr(simpson3, name) for name in names)


# A Python program written into a workflow step.
INLINE_PYTHON = re.compile(
    r"python[\d.]*\s(?:[^\n]*\s)?-c\b"  # given with -c
    r"|python[\d.]*\s+-(?:\s|$)"  # read from stdin
    r"|<<",  # a heredoc
    re.M,
)


def test_workflow_runs_no_inline_python():
    # A check belongs in a tier-1 test, which runs here and in CI alike.
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "pytest" in text
    assert INLINE_PYTHON.findall(text) == []


def documented_options():
    """Command -> the ``--`` options of the README's "Options of the
    sampling commands" table."""
    table = TEXT.split("Options of the sampling commands", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M)
    return {command: set(re.findall(r"--[\w-]+", options)) for command, options in rows}


def parser_options(command):
    """The options ``build_parser()`` gives a subcommand, ``--help`` left out."""
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    actions = subparsers.choices[command]._actions
    return {s for action in actions for s in action.option_strings} - {"-h", "--help"}


def test_sampling_options_table_lists_the_parser_options():
    documented = documented_options()
    assert sorted(documented) == ["montecarlo", "reversal", "search"]
    for command, options in documented.items():
        assert options == parser_options(command), command
