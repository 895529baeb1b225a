"""The README states what the code does.

"What is computed" and "What is proved" are read from README.md and
each number in them is checked against the function it describes, so a
change of the suite or of a threshold that leaves the text behind fails.
Each line of the CLI section's example block parses, and the block uses
every subcommand the parser defines.
"""

import argparse
import re
import shlex
from pathlib import Path

from ncrainbow.bounds import coarse_bound_holds, lemma_threshold
from ncrainbow.cli import build_parser
from ncrainbow.reproduce import standard_suite

README = Path(__file__).resolve().parent.parent / "README.md"


def bullet(label: str) -> str:
    """The README bullet that starts with `label`, on one line."""
    text = README.read_text()
    match = re.search(rf"^- {label}:(.*?)(?=^- |^\S|\Z)", text, re.M | re.S)
    assert match, f"no '{label}' bullet in README.md"
    return " ".join(match.group(1).split())


def number(pattern: str, text: str) -> tuple[int, ...]:
    match = re.search(pattern, text)
    assert match, f"{pattern!r} not in {text!r}"
    return tuple(map(int, match.groups()))


def test_computed_bullet_matches_the_suite_and_the_lemma_threshold():
    computed = bullet("What is computed")
    suite = standard_suite()
    assert number(r"the suite, (\d+) non-abelian groups", computed) == (len(suite),)
    assert number(r"of orders (\d+) through (\d+)", computed) == (
        min(g.order for g in suite), max(g.order for g in suite))
    assert not any(g.is_abelian for g in suite)
    (top,) = number(r"\(D/Q\) groups through order (\d+)", computed)
    assert top == lemma_threshold(2) - 1


def test_proved_bullet_matches_the_lemma_threshold_and_the_coarse_chain():
    proved = bullet("What is proved")
    assert number(r"of order (\d+) or more", proved) == (lemma_threshold(2),)
    fails, holds = number(r"fails at (\d+) and holds at (\d+)", proved)
    assert (fails, holds) == (108, 114)
    assert not coarse_bound_holds(fails) and coarse_bound_holds(holds)
    assert (holds + 1) ** 18 < 2 * holds ** 18  # the induction step the bullet cites
    assert number(r"proves it from order (\d+) on", proved) == (holds,)


def cli_examples() -> list[str]:
    """The lines of the fenced block in README's "## CLI" section."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    match = re.search(r"^```\n(.*?)^```", section, re.M | re.S)
    assert match, "no code block in README's CLI section"
    return match.group(1).splitlines()


def subcommands(parser: argparse.ArgumentParser, prefix: str = "") -> list[str]:
    """Every leaf subcommand of parser, as it is typed: `color j62`, `scan`."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        return [prefix.strip()]
    return [name for action in actions for word, child in action.choices.items()
            for name in subcommands(child, f"{prefix}{word} ")]


def test_cli_examples_parse_and_use_every_subcommand():
    parser = build_parser()
    lines = cli_examples()
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "ncrainbow", line
        parser.parse_args(words[1:])  # a usage error exits 2 and fails the test
    leaves = subcommands(parser)
    assert len(leaves) == 10
    for leaf in leaves:
        assert any(f"{line} ".startswith(f"ncrainbow {leaf} ") for line in lines), leaf
