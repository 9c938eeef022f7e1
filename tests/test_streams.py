"""Stream contract: one block of uniforms is the rows drawn one by one.

The exact oracle's (len(b), n) draw block and the Metropolis kernel's
(nv, n) sweep block each take one ``random((P, n))`` call where P calls of
``random(n)`` are the reference.  If numpy ever filled a block otherwise,
every estimate would change without any other test noticing.
"""

import numpy as np
import pytest

from gibbs_partition import stage_stream

SEED = 1811


@pytest.mark.parametrize("rows,n", [(1, 1), (5, 7), (16, 64), (28, 7217)])
def test_one_uniform_block_is_rows_drawn_one_by_one(rows, n):
    by_block = stage_stream(SEED, "uniform-block", n)
    by_row = stage_stream(SEED, "uniform-block", n)
    block = by_block.random((rows, n))
    assert block.tolist() == [by_row.random(n).tolist() for _ in range(rows)]
    assert by_block.bit_generator.state == by_row.bit_generator.state
