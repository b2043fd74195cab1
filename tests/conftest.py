import pytest


@pytest.fixture(autouse=True, scope="session")
def private_cache_home(tmp_path_factory):
    """Point XDG_CACHE_HOME at a fresh directory for the whole session, so
    neither the tests nor the CLI processes they start read or write the
    user's prime table cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        yield
