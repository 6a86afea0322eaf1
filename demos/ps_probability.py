#!/usr/bin/env python3
"""Product-space probabilities, three equivalent ways.

The product-space algebra scores a conjunction by rerunning the experiment
until every condition has come up ("Russian roulette").  Embedded into
temporal conditionals, the same number falls out of a Markov-chain limit,
whether each simple conditional is read as "the first defined value was 1",
"the most recent defined value was 1", or the sparse variant that is simply
undefined between resolutions.  ``prob_ps`` gives that one number,
solving only what shares events.
"""
from fractions import Fraction

from tlcond import (algebra, cond_asymptotic, embed_ps, parse_cea, prob_ps,
                    prob_present)
from tlcond.markov import ProbAssignment

alg = algebra("a b c d")
half = ProbAssignment.independent(alg, {e: Fraction(1, 2) for e in "abcd"})

e = parse_cea("(a|b) and (c|d)", alg)
print("(a|b) and (c|d), all events independent at 1/2:")
for which in ("first", "reverse", "sparse"):
    print(f"  {which:8s} {cond_asymptotic(embed_ps(e, which), half)}")
print(f"  {'prob_ps':8s} {prob_ps(e, half)}")

print("\nCompare the present-tense algebras on the same expression:")
for which in ("sac", "gnw", "sch"):
    print(f"  {which:8s} {prob_present(e, half, which)}")

print("\nIndependent arguments multiply only in the product space:")
left = parse_cea("(a|b)", alg)
right = parse_cea("(c|d)", alg)
product = prob_ps(left, half) * prob_ps(right, half)
print(f"  Pr(a|b) * Pr(c|d) = {product},  ps conjunction = {prob_ps(e, half)}")

shared = parse_cea("(a|b) and (c|b)", alg)
print(f"\nShared condition (a|b) and (c|b): both resolve at the first b, "
      f"so the value is\nPr(a and c | b) = {prob_ps(shared, half)}")

skew = ProbAssignment.independent(
    alg, {"a": Fraction(9, 10), "b": Fraction(1, 100),
          "c": Fraction(1, 3), "d": Fraction(1, 4)})
print(f"\nRare condition b (1/100): ps still waits for it, exactly: "
      f"{prob_ps(e, skew)}")
