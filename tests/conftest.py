import dataclasses

import numpy as np
import pytest

from atlc import AccParams, acc_model


@pytest.fixture(scope="session")
def params():
    return AccParams()


@pytest.fixture(scope="session")
def model(params):
    return acc_model(params)


@pytest.fixture(scope="session")
def sign_gain_model(params):
    """The case-study model with an input gain proportional to 50 - z, which
    changes sign across any event box that straddles z = 50: the robust
    rows of the two input-sign orthants then differ."""
    scale = 1.0 / (10.0 * params.M)
    return dataclasses.replace(
        acc_model(params),
        phi=lambda x: ((50.0 - x[..., 0]) * scale)[..., None],
    )


def rk4_step(f, x, dt):
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_flow(f, x0, t_end, dt):
    """Fixed-step reference integrator, independent of the package's solver."""
    x = np.asarray(x0, dtype=float).copy()
    n = int(round(t_end / dt))
    for _ in range(n):
        x = rk4_step(f, x, dt)
    rem = t_end - n * dt
    if rem > 0:
        x = rk4_step(f, x, rem)
    return x
