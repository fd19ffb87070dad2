import numpy as np
import pytest

from swingcct import energy as en
from swingcct import faultstudy as fs
from swingcct.netmodel import ReducedNetwork
from swingcct.scenario import load_scenario
from swingcct.swing import GeneratorParams


@pytest.fixture(scope="session")
def wscc():
    """Bundled two-machine-infinite-bus scenario (60 Hz, static charging)."""
    return load_scenario("wscc9-tmib")


@pytest.fixture(scope="session")
def nominal_ctx(wscc):
    """Prepared pipeline for the nominal fault (bus 7, clear line 5-7)."""
    return fs.build_context(wscc)


@pytest.fixture(scope="session")
def nominal_fault_on(nominal_ctx):
    """Fault-on run of the nominal fault to 2 s, as `run_fault_study` integrates it."""
    return fault_on(nominal_ctx, 2.0)


def fault_on(ctx, horizon, **kw):
    """`energy.fault_on_trajectory` of one context; raises if the run fails."""
    (run,) = en.fault_on_trajectory([ctx.fom], [ctx.gp], [ctx.x_pre], horizon, **kw)
    if isinstance(run, Exception):
        raise run
    return run


def stable(ctx, fo, t):
    """`faultstudy.first_swing_stable` of one clearing time of one point."""
    return bool(fs.first_swing_stable([ctx], [fo], [[t]])[0][0])


def cct(ctx, fo, **kw):
    """`faultstudy.true_cct` of one point."""
    return fs.true_cct([ctx], [fo], **kw)[0]


def smib(Pm: float = 0.5, Pbar: float = 1.0, M: float = 0.1):
    """Single machine against an infinite bus, zero conductance."""
    B = np.array([[-Pbar, Pbar], [Pbar, -Pbar]])
    red = ReducedNetwork(
        n=2, G=np.zeros((2, 2)), B=B, Pbar=np.array([[0.0, Pbar], [Pbar, 0.0]]),
        E=np.ones(2),
    )
    gp = GeneratorParams(M=np.array([M, np.inf]), Pm=np.array([Pm, 0.0]), infinite_index=1)
    return red, gp


@pytest.fixture()
def pendulum():
    """Unloaded single-machine system: SEP at 0, saddle at pi."""
    return smib(Pm=0.0)
