import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tlcond import automata, cea, cli  # noqa: E402


@pytest.fixture(autouse=True)
def _empty_memos():
    """Start every test with the process-wide memos empty, so that no test
    sees entries another left, and a spy on a memoized stage sees its call."""
    for memo in (automata.event_text, automata.leaf_classes,
                 automata.minimal_machine, cea.reduce_present, cli._parse_expr,
                 cli._read_dist):
        memo.cache_clear()
    automata._SHAPES.clear()  # the machines kept per shape
