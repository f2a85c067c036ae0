"""repro — Space-Efficient Bounded Model Checking.

A reproduction of Katz, Hanna & Dershowitz, "Space-Efficient Bounded
Model Checking" (DATE 2005): QBF formulations of bounded reachability
that avoid unrolling the transition relation, and the special-purpose
jSAT decision procedure, together with every substrate they need (CDCL
SAT solver, QDPLL QBF solver, transition-system modelling, benchmark
designs and the evaluation harness).

Quickstart
----------
>>> from repro.models import counter
>>> from repro.bmc import BmcSession
>>> from repro.spec import Invariant, Reachable
>>> system, final, depth = counter.make(width=4, target=9)
>>> with BmcSession(system, properties={"hit": Reachable(final),
...                                     "safe": Invariant(~final)}) as s:
...     results = s.check_properties(9)
>>> results["hit"].verdict.name, results["safe"].verdict.name
('HOLDS', 'VIOLATED')
"""

# Kept in sync with pyproject.toml.
__version__ = "0.9.0"
