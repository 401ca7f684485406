import pytest

from hashcast.core import Ed25519Signer, SimulatedSigner
from hashcast.verification import (
    audit_endorsed_block,
    expected_verifier_set,
    verify_block,
    verify_endorsements,
)


@pytest.fixture
def backend():
    return SimulatedSigner()


@pytest.fixture(params=["simulated", "ed25519"])
def any_backend(request):
    if request.param == "simulated":
        return SimulatedSigner()
    return Ed25519Signer()


def make_keypairs(backend, count, tag="k"):
    return [backend.keypair(f"{tag}:{i}".encode()) for i in range(count)]


def endorsement_verdict(block, alloc, params, backend):
    """`verify_endorsements` against the block's verifier set under `alloc`."""
    return verify_endorsements(block, expected_verifier_set(block, alloc, params), backend)


def audit(endorsed, alloc, params, backend, auditor):
    """The auditor's verdict and report: the block first, its endorsements once it passes."""
    outcome = verify_block(endorsed, alloc, backend)
    if outcome.ok:
        outcome = endorsement_verdict(endorsed, alloc, params, backend)
    return outcome, audit_endorsed_block(endorsed, auditor, outcome)
