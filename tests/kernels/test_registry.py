"""Registry behavior: selection order, unknown names, overrides."""

import pytest

from repro.errors import ConfigurationError
from repro.kernels import (
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
    get_backend,
    register_backend,
    use_backend,
)


class TestSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert get_backend().name == DEFAULT_BACKEND == "numpy"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert get_backend().name == "reference"

    def test_env_var_is_normalised(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  RefErence ")
        assert get_backend().name == "reference"

    def test_empty_env_var_means_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert get_backend().name == DEFAULT_BACKEND

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert get_backend("numpy").name == "numpy"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("does-not-exist")

    def test_instance_passthrough(self):
        backend = get_backend("reference")
        assert get_backend(backend) is backend

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_availability_listing(self):
        assert set(available_backends()) == {"numpy", "reference"}


class TestRetiredNames:
    """``"auto"`` is an unknown name like any other, explicit or from the env."""

    def test_auto_is_unknown(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("auto")
        monkeypatch.setenv(ENV_VAR, "auto")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend()


class TestOverride:
    def test_use_backend_scopes_the_override(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with use_backend("reference") as backend:
            assert backend.name == "reference"
            assert get_backend() is backend
        assert get_backend().name == DEFAULT_BACKEND

    def test_use_backend_nests(self):
        with use_backend("reference"):
            with use_backend("numpy"):
                assert get_backend().name == "numpy"
            assert get_backend().name == "reference"

    def test_use_backend_restores_on_error(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(RuntimeError):
            with use_backend("reference"):
                raise RuntimeError("boom")
        assert get_backend().name == DEFAULT_BACKEND

    def test_use_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        with use_backend("reference"):
            assert get_backend().name == "reference"


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend("numpy", lambda: None)
