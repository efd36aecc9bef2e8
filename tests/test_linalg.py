"""Integer elimination against a Fraction-based reference implementation."""

from __future__ import annotations

import pytest

from curvetorsion.linalg import integer_rank
from oracles import bareiss_determinant, fraction_determinant, fraction_rank

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


def test_pinned_determinants():
    assert bareiss_determinant([]) == 1
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
