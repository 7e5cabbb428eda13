import pytest

from mjls.fixtures import demo_model, example_model
from mjls.model import compose_integrated
from mjls.synthesis import Scheme, synthesize

# Gains for the bundled demo model are synthesized once per session; the
# decay shift gives the closed loop a visible contraction rate for the
# simulation-facing tests.
DEMO_DECAY = 1.5


@pytest.fixture(scope="session")
def paper_model():
    return example_model()

@pytest.fixture(scope="session")
def paper_integrated(paper_model):
    return compose_integrated(paper_model)


@pytest.fixture(scope="session")
def demo():
    return demo_model()


@pytest.fixture(scope="session")
def demo_integrated(demo):
    return compose_integrated(demo)


@pytest.fixture(scope="session")
def demo_outcome(demo):
    out = synthesize(demo, Scheme.DISTRIBUTED, decay=DEMO_DECAY)
    assert out.bank is not None, "demo model synthesis must succeed"
    return out


@pytest.fixture(scope="session")
def demo_bank(demo_outcome):
    return demo_outcome.bank
