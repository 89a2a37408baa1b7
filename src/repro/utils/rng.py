"""Random-number-generator plumbing.

Every stochastic component of the library accepts a ``random_state`` argument
that is normalized through :func:`check_random_state`, so passing the same
seed reproduces a run.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RandomStateLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def check_random_state(random_state: RandomStateLike = None) -> np.random.Generator:
    """Normalize ``random_state`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    random_state:
        ``None`` (fresh nondeterministic generator), an integer seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator (returned
        unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    if random_state is None or isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(random_state)
    raise TypeError(
        f"random_state must be None, an int, a SeedSequence or a Generator, "
        f"got {type(random_state).__name__}"
    )
