"""The one property of the tolerance table: every (program path, oracle) row
of ``oracles.TOLERANCES`` holds on its drawn arguments and its examples."""

import pytest
from hypothesis import example, given, settings

import oracles
from oracles import TOLERANCES


@pytest.mark.parametrize("key", list(TOLERANCES), ids=" against ".join)
def test_program_path_agrees_with_its_oracle(key):
    row = TOLERANCES[key]

    @settings(max_examples=row.draws, deadline=None, derandomize=True, database=None)
    @given(args=row.draw)
    def holds(args):
        oracles.check(key, **args)

    for args in row.examples:
        holds = example(args=args)(holds)
    holds()


def test_every_row_has_a_property():
    # a row without its comparison, or a comparison without a row, fails here
    compared = {key for key, row in TOLERANCES.items() if None not in (row.draw, row.program, row.oracle, row.measure)}
    assert compared == set(TOLERANCES)
