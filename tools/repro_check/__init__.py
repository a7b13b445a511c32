"""repro-check: domain-invariant static analysis for the repro codebase.

The generic gates (``mypy --strict``, ruff) check what any Python
project needs checked.  This package checks what only *this* project
needs checked — the structural invariants of the paper's dispatch design
and of the plan-and-execute engine that no general-purpose tool can
know about:

RPR001
    Kernel-registry completeness: every (sparse|dense) x (sparse|dense)
    x output-kind combination has a registered kernel (paper section
    III-A: 2**3 = 8 kernels).
RPR002
    Plan determinism: no wall-clock reads, ambient randomness,
    ``id()``-keyed containers or set-iteration-order dependence in the
    modules whose output is cached under a plan key.
RPR003
    Locking discipline: classes that own a ``threading.Lock`` mutate
    their ``__init__``-assigned state only under ``with self._lock``.
RPR005
    Observability coverage: public kernel/executor functions that loop
    over tile pairs open a span.
RPR006
    Annotation completeness: every function in ``src/repro`` is fully
    annotated (the AST-level proxy for the ``mypy --strict`` gate,
    runnable without mypy installed).

The whole-program passes see every ``src/repro`` module at once through
a project index (``graph.py``) and an interprocedural dataflow layer
(``flow.py``):

RPR009
    Lock-order consistency: no cycles in the project's lock-acquisition
    graph, no non-reentrant lock re-acquired while already held.
RPR010
    No blocking calls (sync I/O, ``time.sleep``, ``subprocess``, sync
    ``CheckpointStore``/``JobStore`` methods) reachable from ``async
    def`` service handlers without ``run_in_executor``/``to_thread``.
RPR011
    Determinism taint: plan/fingerprint construction must not *reach*
    wall-clock, ambient RNG, ``id()`` keys or unordered-set iteration
    in any module it calls into.
RPR012
    Shared mutable state: module globals and lock-less instance
    attributes must not be written on thread paths outside a lock.

A runtime twin (``sanitize.py``, enabled with ``REPRO_SANITIZE=1``)
records actual lock acquisition orders during the test suite and
cross-checks them against RPR009's static graph.

Run ``python -m tools.repro_check src tests`` from the repository root.
Violations are suppressed per line with ``# repro-lint: disable=RPRxxx``
(anywhere within the statement), per file with ``# repro-lint:
disable-file=RPRxxx``, or tracked in ``.repro-lint-baseline.json``
(``--baseline``).
"""

from .core import (
    CheckResult,
    Violation,
    apply_baseline,
    check_paths,
    check_source,
    load_baseline,
    write_baseline,
)
from .graph import ProjectIndex
from .project_rules import PROJECT_RULES, PROJECT_RULES_BY_CODE
from .rules import ALL_RULES, RULES_BY_CODE

__all__ = [
    "ALL_RULES",
    "PROJECT_RULES",
    "PROJECT_RULES_BY_CODE",
    "RULES_BY_CODE",
    "CheckResult",
    "ProjectIndex",
    "Violation",
    "apply_baseline",
    "check_paths",
    "check_source",
    "load_baseline",
    "write_baseline",
]
