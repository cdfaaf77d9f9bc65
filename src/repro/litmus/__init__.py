"""End-to-end litmus-testing framework for transactional protocols (§5).

Litmus tests are small transactions crafted so that the *values* of the
objects reveal consistency violations (application-observable state,
after Crooks et al.), avoiding heavyweight history collection. Combined
with random crash injection they validate both the online protocol and
the recovery protocol end-to-end — this framework reproduces the six
FORD bugs of Table 1 and shows Pandora passing all tests.
"""

from repro.litmus.checker import SerializabilityChecker, check_history
from repro.litmus.runner import LitmusReport, LitmusRunner
from repro.litmus.specs import (
    LITMUS_SUITE,
    LitmusSpec,
    litmus1_direct_write,
    litmus1_insert_delete,
    litmus2_read_write,
    litmus3_indirect_write,
    litmus3_extended,
    compound_litmus,
    stretched_litmus,
)

__all__ = [
    "LITMUS_SUITE",
    "LitmusReport",
    "LitmusRunner",
    "LitmusSpec",
    "SerializabilityChecker",
    "check_history",
    "compound_litmus",
    "litmus1_direct_write",
    "litmus1_insert_delete",
    "litmus2_read_write",
    "litmus3_extended",
    "litmus3_indirect_write",
    "stretched_litmus",
]
