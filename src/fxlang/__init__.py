"""fxlang: an interpreter workbench for a small effectful language.

A pure fine-grain call-by-value core, its effect-handler and
reference-cell extensions, two evaluators (substitution-based small-step
and an instrumented CEK machine), decision-tree extraction for black-box
predicates, and a library of generic counting/searching algorithms whose
costs are measured in exact machine transitions.
"""

__version__ = "0.1.0"
