import pytest
from hypothesis import HealthCheck, settings

from spcirc import errors

# Examples run dense linear algebra of uneven cost on a shared machine;
# wall-clock deadlines would flake.
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


class Checked(Exception):
    """A capacity check passed; raised in place of the work after it."""


@pytest.fixture
def checked_only(monkeypatch):
    """``checked_only(module)`` makes the module's passing check_bytes calls
    raise Checked and returns that class, so a call just inside its bound
    can be probed without allocating."""
    def install(module):
        def check_then_stop(*args):
            errors.check_bytes(*args)
            raise Checked

        monkeypatch.setattr(module, "check_bytes", check_then_stop)
        return Checked

    return install
