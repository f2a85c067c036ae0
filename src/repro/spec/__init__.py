"""First-class specifications: Property objects, bounded-LTL
compilation, and multi-property checking over one shared unrolling.

Entry points
------------
* :class:`Property` AST — :class:`Invariant` / :class:`Reachable` plus
  the bounded-LTL combinators :class:`Globally` (G), :class:`Finally`
  (F), :class:`Next` (X), :class:`Until` (U), :class:`Release` (R)
  (:mod:`repro.spec.property`);
* :func:`parse_spec` — the spec-string grammar, e.g.
  ``parse_spec("G !(req0 & req1)")`` (:mod:`repro.spec.parse`);
* :class:`PropertyChecker` — N named properties, one shared unrolling,
  one incremental solver (:mod:`repro.spec.checker`) — the engine
  behind :meth:`repro.bmc.session.BmcSession.check_properties`;
* :func:`check_explicit` — explicit-state ground truth for the
  differential tests (:mod:`repro.spec.eval`).
"""

from .property import (And, Atom, F, Finally, G, Globally, Invariant, Next,
                       Not, Or, Property, R, Reachable, Release, U, Until,
                       Verdict, X, as_property, iff, implies, nnf,
                       reachability_target, search_plan)
from .ltl import compile_search, needs_loop_closure
from .parse import SpecError, parse_spec
from .eval import check_explicit, holds_on_path, witness_exists
from .checker import (OnPropertyBound, PropertyChecker, PropertyResult,
                      normalize_properties)

__all__ = [
    # AST
    "Property", "Atom", "Not", "And", "Or", "Next", "Finally", "Globally",
    "Until", "Release", "Invariant", "Reachable",
    "G", "F", "X", "U", "R", "implies", "iff", "as_property",
    # Plans and verdicts
    "nnf", "search_plan", "reachability_target", "Verdict",
    # Compilation
    "compile_search", "needs_loop_closure",
    # Parsing
    "parse_spec", "SpecError",
    # Explicit ground truth
    "check_explicit", "holds_on_path", "witness_exists",
    # The multi-property engine
    "PropertyChecker", "PropertyResult", "normalize_properties",
    "OnPropertyBound",
]
