"""The package's echelon elimination against two reference eliminations:
plain Gaussian elimination over Fraction and fraction-free Bareiss."""

from __future__ import annotations

import pytest

from curvetorsion.linalg import Echelon, integer_determinant, integer_rank
from oracles import (bareiss_determinant, bareiss_rank, echelon_extend,
                     fraction_determinant, fraction_rank)

MATRICES = [
    [],
    [[0, 0, 0]],
    [[1, 0], [0, 1]],
    [[2, 4], [1, 2]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[3, -1, 0], [1, 1, -1], [-1, 2, -1], [0, 2, 0]],
    [[2, -1, 0], [1, 1, -1], [-2, 0, 2]],
    [[5]],
    [[0, 7], [0, 0], [3, 0]],
    [[10, -3], [-3, 10], [7, 7], [1, -1]],
    [[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 64]],
]


@pytest.mark.parametrize("matrix", MATRICES)
def test_rank_matches_fraction_elimination(matrix):
    assert integer_rank(matrix) == fraction_rank(matrix)


@pytest.mark.parametrize("matrix", MATRICES)
def test_rank_matches_bareiss_elimination(matrix):
    assert integer_rank(matrix) == bareiss_rank(matrix)


def test_pinned_ranks():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 2], [3, 4]]) == 2
    assert integer_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    # rank never exceeds either dimension
    assert integer_rank([[1, 2, 3]]) == 1
    assert integer_rank([[1], [2], [3]]) == 1


SQUARE = [
    [[7]],
    [[1, 2], [3, 4]],
    [[2, 4], [1, 2]],
    [[1, 1, 1], [1, 2, 4], [1, 3, 9]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[0, 2], [3, 0]],
    [[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 64]],
    [[4, -2, 0, 1], [3, 0, 0, -5], [-1, -1, 2, 2], [0, 6, 1, 0]],
]


@pytest.mark.parametrize("matrix", SQUARE)
def test_determinant_matches_fraction_elimination(matrix):
    assert bareiss_determinant(matrix) == fraction_determinant(matrix)
    assert integer_determinant(matrix) == fraction_determinant(matrix)


def test_pinned_determinants():
    assert bareiss_determinant([]) == 1
    assert integer_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[2, 4], [1, 2]]) == 0
    # Vandermonde on 1, 2, 3, 4
    assert bareiss_determinant(SQUARE[-2]) == 12
    # swapping two rows flips the sign
    assert bareiss_determinant([[3, 4], [1, 2]]) == 2


def test_determinant_requires_square_input():
    with pytest.raises(ValueError):
        bareiss_determinant([[1, 2, 3], [4, 5, 6]])


def test_rank_handles_zero_leading_columns():
    assert integer_rank([[0, 0, 5], [0, 3, 0]]) == 2
    assert integer_rank([[0, 1], [1, 0], [1, 1]]) == 2


def test_full_rank_stop_skips_later_rows():
    # once the rank equals the width, the third row cannot raise it
    assert integer_rank([[1, 0], [0, 1], [5, 7]]) == 2
    assert Echelon().absorb([[1, 0], [0, 1], [5, 7]]).rank == 2

    class Unreadable(tuple):
        def __getitem__(self, index):
            raise AssertionError("reduced a row past full rank")

    def rows():
        yield (2, 3)
        yield (0, 0)
        yield (1, 1)
        yield Unreadable((5, 7))
        raise AssertionError("read a row past full rank")

    assert Echelon().absorb(rows()).rank == 2


def test_zero_rows_add_no_rank():
    assert integer_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert integer_rank([[0, 0], [3, 4], [0, 0], [6, 8]]) == 1
    assert Echelon().absorb([[0, 0, 0]]).rank == 0
    assert echelon_extend(Echelon(), [0, 0]) is None


def test_absorb_continues_an_echelon_without_changing_it():
    start = Echelon().absorb([[1, 2, 3]])
    grown = start.absorb([[2, 4, 6], [0, 1, 1]])
    assert (start.rank, grown.rank) == (1, 2)
    assert grown.absorb([[1, 3, 4]]).rank == 2
    assert grown.absorb([[0, 0, 1]]).rank == 3
