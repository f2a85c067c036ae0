"""Bounded model checking: the paper's encodings, jSAT, and the engine.

The public API is object-based: a pluggable :class:`Backend` registry
(:mod:`repro.bmc.backend`) and the stateful :class:`BmcSession` front
end (:mod:`repro.bmc.session`).  A reachability query is
``BmcSession(system, properties={"target": final}).check(k, method=m)``;
``sweep`` and ``find_reachable`` are methods of the same session.
"""

from .allsat import AllSatReachability
from .backend import (ALL_METHODS, METHODS, Backend, BackendOptions,
                      BmcResult, MethodsView, backend_class, create_backend,
                      register_backend, registered_backends,
                      unregister_backend, validate_method)
from .completeness import (UnboundedResult, longest_simple_path_reached,
                           verify_unbounded)
from .incremental import BoundResult, IncrementalBmc, SweepResult
from .induction import InductionResult, prove_by_induction
from .interpolation import InterpolationResult, prove_by_interpolation
from .jsat import JsatSolver, JsatStats
from .metrics import (TimeBreakdown, encoding_sizes, growth_table,
                      jsat_resident_size, measure_time)
from .provers import (DiameterBackend, InterpolationBackend,
                      KInductionBackend, validate_invariant)
from .qbf_encoding import QbfEncoding, encode_qbf
from .session import BmcSession
from .squaring import SquaringEncoding, encode_squaring
from .unroll import UnrolledEncoding, encode_unrolled

__all__ = [
    # Object-based API
    "BmcSession",
    "Backend",
    "BackendOptions",
    "register_backend",
    "unregister_backend",
    "registered_backends",
    "backend_class",
    "create_backend",
    "validate_method",
    "MethodsView",
    # Results and sweep machinery
    "BmcResult",
    "SweepResult",
    "BoundResult",
    "IncrementalBmc",
    "verify_unbounded",
    "UnboundedResult",
    "longest_simple_path_reached",
    "AllSatReachability",
    "prove_by_induction",
    "InductionResult",
    "prove_by_interpolation",
    "InterpolationResult",
    "KInductionBackend",
    "InterpolationBackend",
    "DiameterBackend",
    "validate_invariant",
    "METHODS",
    "ALL_METHODS",
    "JsatSolver",
    "JsatStats",
    "TimeBreakdown",
    "measure_time",
    "encode_unrolled",
    "UnrolledEncoding",
    "encode_qbf",
    "QbfEncoding",
    "encode_squaring",
    "SquaringEncoding",
    "encoding_sizes",
    "growth_table",
    "jsat_resident_size",
]
