"""Exact symbolic Jones polynomials from the diagram algebra.

Walks through the pieces of the exact oracle: braid words, the defining
relations of the diagram algebra, the trace Tr (one factor of d per closure
loop), and the normalized Jones polynomial in both the Kauffman variable A
and the Jones variable t = A^-4.
"""

from tljones import (
    LOOP_WEIGHT,
    TLElement,
    convert_to_t,
    jones_polynomial,
    jones_rep,
    markov_trace,
    parse_braid_word,
    writhe,
)
from tljones.checks import check_tl_relations

print("=== Defining relations, symbolically exact ===")
report = check_tl_relations(n_max=5)
print(f"  n=2..5: {report.cases} relation/associativity checks, all pass: {report.passed}")

print()
print("=== Generator arithmetic ===")
e1 = TLElement.generator(2, 1)
print(f"  E1 * E1 == d * E1: {e1 * e1 == e1.scaled(LOOP_WEIGHT)}  (d = {LOOP_WEIGHT.format()})")
print(f"  Tr(identity on 3 strands) = d^3 = {markov_trace(TLElement.identity(3)).format()}")
print(f"  Tr(E1 on 3 strands)       = d^2 = {markov_trace(TLElement.generator(3, 1)).format()}")

print()
print("=== From braid words to knot polynomials ===")
examples = [
    ("unknot       ", "1", 2),
    ("Hopf link    ", "1 1", 2),
    ("trefoil      ", "1 1 1", 2),
    ("figure-eight ", "1 -2 1 -2", 3),
]
for name, text, strands in examples:
    word = parse_braid_word(text, strands)
    image = jones_rep(word)
    poly = jones_polynomial(word)
    print(f"  {name} word='{text}' strands={strands} writhe={writhe(word):+d}")
    print(f"    image has {len(image.terms)} diagram terms")
    print(f"    V(A) = {poly.format('A')}")
    try:
        print(f"    V(t) = {convert_to_t(poly).format('t')}")
    except ValueError as exc:
        print(f"    V(t): {exc}")

print()
print("=== Mirror symmetry ===")
trefoil = parse_braid_word("1 1 1", 2)
mirror = parse_braid_word("-1 -1 -1", 2)
left, right = jones_polynomial(trefoil), jones_polynomial(mirror)
print(f"  V(trefoil)(A)        = {left.format('A')}")
print(f"  V(mirror trefoil)(A) = {right.format('A')}")
print(f"  related by A <-> A^-1: {right == left.substitute_inverse()}")

fig8 = jones_polynomial(parse_braid_word("1 -2 1 -2", 3))
print(f"  figure-eight is amphichiral: V == V(A <-> A^-1) is {fig8 == fig8.substitute_inverse()}")
