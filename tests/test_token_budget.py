"""Every module of the package stays under CPython's 8,192-token parser step.

CPython 3.11's parser doubles its token array when a module passes 8,192
tokens, which raises the memory peak of compiling it.  The package is
compiled on every benchmark pass, so a module that crosses the step reads
as a ``peak_rss_mb`` regression on every workload, whatever it runs.
Comments and blank lines are not parser tokens.
"""

import io
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weavent"
STEP = 8192


def parser_tokens(source: str) -> int:
    """The tokens of ``source`` the parser reads: all but comments and
    non-logical newlines."""
    return sum(1 for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type not in (tokenize.COMMENT, tokenize.NL))


def test_counter_skips_comments_and_blank_lines():
    # x, =, 1, NEWLINE, ENDMARKER
    assert parser_tokens("x = 1  # one\n\n# none\n") == 5


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_under_the_parser_step(path):
    count = parser_tokens(path.read_text(encoding="utf-8"))
    assert count < STEP, (
        f"{path.name} has {count} parser tokens, past the {STEP}-token step at which "
        "the parser doubles its token array; see the FOUND line on peak_rss_mb and the "
        "source size of rewrite.py in CHANGES.md: move code out of the module")
