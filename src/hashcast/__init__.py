"""Hash-directed multicast chain: protocol library and network simulator.

The package splits a chain deployment into a routed backbone that carries
all traffic and a verification layer that picks, per item, a small random
set of nodes to verify it.  A deterministic discrete-event simulator runs
full scenarios of either this design or a broadcast baseline and collects
overhead, processing, and delay metrics.
"""

from .config import ConfigError, ScenarioConfig, SweepSpec, load_config, load_sweep
from .core import (
    ALPHABET,
    Block,
    Ed25519Signer,
    Endorsement,
    KeyPair,
    PublicKey,
    SimulatedSigner,
    Transaction,
    block_digest,
    create_transaction,
    digest,
    msch,
)
from .simulation import MetricsReport, execute
from .verification import SetParams, VerificationOutcome
from .weights import RangeAllocation, build_allocation, kwm

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "Block",
    "ConfigError",
    "Ed25519Signer",
    "Endorsement",
    "KeyPair",
    "MetricsReport",
    "PublicKey",
    "RangeAllocation",
    "ScenarioConfig",
    "SetParams",
    "SimulatedSigner",
    "SweepSpec",
    "Transaction",
    "VerificationOutcome",
    "block_digest",
    "build_allocation",
    "create_transaction",
    "digest",
    "execute",
    "kwm",
    "load_config",
    "load_sweep",
    "msch",
    "__version__",
]
