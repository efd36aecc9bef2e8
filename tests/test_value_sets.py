"""The value-set layer, computed on bitmasks, against the set loops."""

from __future__ import annotations

from curvetorsion import enumerate_by_genus, from_generators
from oracles import check_value_sets, large_conductor_generators


def test_value_sets_match_the_set_references():
    # every curve through genus 8, then the large-conductor list
    curves = list(enumerate_by_genus(8)) + [
        from_generators(g) for g in large_conductor_generators()]
    assert check_value_sets(curves) == 156 + 259
