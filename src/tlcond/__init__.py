"""Temporal conditionals: three-valued past-time logic, Moore machines and
exact conditional-event probabilities."""

from .trivalue import (ConnectiveId, Value3, apply_binary, apply_unary,
                       eval_cea_valuation)
from .syntax import (Atom, And, CeaAnd, CeaCond, CeaExpr, CeaNeg, CeaOr,
                     CeaSimple, CeaVar, CondObject, Const, EventAlgebra,
                     FALSE, Iff, Implies, Not, Or, ParseError, Prev, Since,
                     TLFormula, TRUE, algebra, hist, once, parse_cea,
                     parse_cond, parse_tl, pretty)
from .evaluate import Word, cond_output, eval_cond, eval_tl, reverse_word, word
from .automata import (MooreMachine3, canonical_key, compile_cond,
                       event_mask, event_text, is_counter_free, isomorphic,
                       minimal_machine, minimize, product, to_dot)
from .markov import (MarkovChain3, PeriodicChainError, ProbAssignment,
                     SingularMatrixError, asymptotic, chain_from_machine,
                     limiting_label_masses, pr_n, pr_n_ratio, pr_series)
from .cea import (cond_asymptotic, embed_ps, first_machine, first_resolution,
                  latest_resolution, lift_defined, present_indep,
                  present_machine, prob_present, prob_ps, reduce_present,
                  simple_to_cond, strong_indep, weak_tautology)
from .oracle import (BudgetExceededError, brute_joint, brute_pr_n,
                     brute_pr_series, brute_reverse_check)

__version__ = "0.1.0"
