import numpy as np
import pytest

from dbac_lab import cli, dbac
from dbac_lab.errors import ContractViolationError


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_density(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_unitary(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def verdict(check, arg):
    """The message ``check(arg)`` raises, or None when it passes."""
    try:
        check(arg)
    except ContractViolationError as err:
        return str(err)
    return None


def config(tmp_path, experiment, text):
    """The validated config of a run of ``experiment`` whose config file holds ``text``."""
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return cli.validate_config(path, experiment, out_override=tmp_path / "out")


def config_error(tmp_path, experiment, text):
    """The config error of a run of ``experiment`` whose config file holds
    ``text``: the checks where a run's inputs enter, which the engines do not repeat."""
    with pytest.raises(cli.ConfigError) as info:
        config(tmp_path, experiment, text)
    return str(info.value)


def counted_swaps(monkeypatch):
    """The (kernel name, plane shape) of every dbac.partial_swap and
    dbac.swap_z call made while ``monkeypatch`` is active, in order."""
    calls = []
    for name in ("partial_swap", "swap_z"):

        def counting(sig, step, name=name, kernel=getattr(dbac, name)):
            calls.append((name, np.shape(sig)))
            return kernel(sig, step)

        monkeypatch.setattr(dbac, name, counting)
    return calls
