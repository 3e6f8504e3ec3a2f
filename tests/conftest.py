"""Shared oracle: a plain fixed-step RK4 of the charging ODE.

The library charges with the exact flow of each efficiency profile; this
integrator is a second, independent method for the same ODE.
"""

import numpy as np
import pytest

from ehpolicy.core import _efficiency_unchecked


def rk4_levels(battery, y0, b, steps):
    """Unclipped end-of-frame level of dy/dt = (b/T) eta(y), broadcast over ``y0``, ``b``.

    Time is normalized to the frame, so this integrates dy/ds = eta(y) up to s = b.
    """
    y = np.asarray(y0, dtype=float)
    h = np.asarray(b, dtype=float) / steps

    def f(yy):
        return _efficiency_unchecked(battery.efficiency, yy, battery.e_max)

    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@pytest.fixture
def rk4_charge():
    return rk4_levels
