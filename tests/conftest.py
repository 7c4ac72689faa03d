import pytest

from hypbuild import geomrender as gr
from hypbuild.chamber import validate
from hypbuild.coxeter import ChamberComplex, CoxeterBall


@pytest.fixture(scope="session")
def spec238():
    return validate(3, (2, 3, 8))


@pytest.fixture(scope="session")
def spec334():
    return validate(3, (3, 3, 4))


@pytest.fixture(scope="session")
def spec248():
    return validate(3, (2, 4, 8))


@pytest.fixture(scope="session")
def pentagon():
    return validate(5, (2, 2, 2, 2, 2))


@pytest.fixture(scope="session")
def pentagon_thick():
    return validate(5, (2, 2, 2, 2, 2), (2, 2, 2, 2, 2))


@pytest.fixture
def no_cells(monkeypatch):
    """Make building a ball's cells raise, for tests of code paths that
    must not read them."""

    def refuse(self):
        raise AssertionError("cells built for a %s" % type(self).__name__)

    monkeypatch.setattr(ChamberComplex, "_build_cells", refuse)


@pytest.fixture
def no_realize(monkeypatch):
    """Make realizing a ball raise, for tests of code paths that must
    trace and locate in chamber frames."""

    def refuse(*args, **kwargs):
        raise AssertionError("a ball was realized")

    monkeypatch.setattr(gr, "realize", refuse)
    monkeypatch.setattr(gr.RealizedBall, "__init__", refuse)


@pytest.fixture
def no_coxeter_ball(monkeypatch):
    """Make building a CoxeterBall raise, for tests of code paths whose
    apartment charts must step a Tessellation on demand."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a CoxeterBall was built")

    monkeypatch.setattr(CoxeterBall, "__init__", refuse)
