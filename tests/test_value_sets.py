"""The value-set layer, computed on bitmasks, against the set loops."""

from __future__ import annotations

from curvetorsion import (blowup, colength_via_derivative_spans,
                          complementary_module, enumerate_by_genus,
                          exactness_defect, from_generators,
                          genus_via_derivative_spans, inverse,
                          kaehler_different, presentation_of, value_set_of)
from curvetorsion.oracle import _derivative_values, _span_values
from oracles import (large_conductor_generators, reference_complementary_module,
                     reference_derivative_values, reference_inverse,
                     reference_span_values)


def _bits(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def _pair(V):
    return V.members, V.tail_start


def test_value_sets_match_the_set_references():
    # every curve through genus 8, then the large-conductor list
    curves = list(enumerate_by_genus(8)) + [
        from_generators(g) for g in large_conductor_generators()]
    assert len(curves) == 156 + 259
    for S in curves:
        gens, c = S.min_generators, S.conductor
        S1 = blowup(S).transformed
        span = reference_span_values(gens, 2 * c + 2)
        plain = reference_derivative_values(gens, 2 * c + 2)
        assert _bits(_span_values(S, 2 * c + 2)) == span, S
        assert _bits(_derivative_values(S, 2 * c + 2)) == plain, S
        assert exactness_defect(S) == len(span - plain), S
        small = reference_span_values(gens, c + 1)
        big = reference_span_values(S1.min_generators, c + 1)
        assert genus_via_derivative_spans(S) == len(set(range(c + 1)) - small)
        assert colength_via_derivative_spans(S, S1) == len(big - small), S

        C = complementary_module(S)
        ref_c = reference_complementary_module(gens)
        assert _pair(C) == ref_c, S
        for V in (C, kaehler_different(S, presentation_of(S)),
                  value_set_of(S)):
            assert _pair(inverse(V)) == reference_inverse(gens, _pair(V)), \
                (S, V)
        assert _pair(inverse(inverse(C))) == \
            reference_inverse(gens, reference_inverse(gens, ref_c)), S
