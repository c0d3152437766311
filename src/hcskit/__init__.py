"""hcskit: hierarchical control sequences for collision-free slot access.

Build multi-level slot schedules in which every user of a TDMA frame hops
pseudo-randomly through its slots while no two users ever collide, check the
capacity bound and the generated sets, drive a central sequence allocator,
and measure what the hopping buys under partial-band interference.
"""

__version__ = "0.1.0"

from .bound import (
    BoundReport,
    EnumerationCapError,
    Rosters,
    UserCountTuple,
    check_bound,
    enumerate_user_counts,
)
from .construction1 import DriverSequences, construct1
from .construction2 import construct2
from .core import (
    ConfigError,
    HcsError,
    HcsSequence,
    HcsSet,
    LevelSpec,
    SchemaError,
    SystemConfig,
    dumps_document,
    from_document,
    hamming_correlation,
    load_set,
    save_set,
    to_document,
)
from .sac import Audit, SacEvent, SacState, run_script
from .simulator import (
    ComparisonReport,
    ComparisonRow,
    FixedScheme,
    HcsScheme,
    SerCurve,
    SerPoint,
    SimConfig,
    compare_schemes,
    interference_hit_fraction,
    simulate_ser,
)
from .verification import VerificationReport, verify

__all__ = [
    "__version__",
    "Audit",
    "BoundReport",
    "ComparisonReport",
    "ComparisonRow",
    "ConfigError",
    "DriverSequences",
    "EnumerationCapError",
    "FixedScheme",
    "HcsError",
    "HcsScheme",
    "HcsSequence",
    "HcsSet",
    "LevelSpec",
    "Rosters",
    "SacEvent",
    "SacState",
    "SchemaError",
    "SerCurve",
    "SerPoint",
    "SimConfig",
    "SystemConfig",
    "UserCountTuple",
    "VerificationReport",
    "check_bound",
    "compare_schemes",
    "construct1",
    "construct2",
    "dumps_document",
    "enumerate_user_counts",
    "from_document",
    "hamming_correlation",
    "interference_hit_fraction",
    "load_set",
    "run_script",
    "save_set",
    "simulate_ser",
    "to_document",
    "verify",
]
