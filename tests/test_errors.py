import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from netalloc import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    GenerationError,
    InconsistencyError,
    NetallocError,
    ProjectionError,
)

CASES = [
    (NetallocError("failed"), {}),
    (ProjectionError("certificate failed", membership_violation=2e-9, sweep_change=3e-11),
     {"membership_violation": 2e-9, "sweep_change": 3e-11}),
    (ConvergenceError("cap hit", best=(1.0, 2.0), residual=0.5, iterations=7),
     {"best": (1.0, 2.0), "residual": 0.5, "iterations": 7}),
    (DivergenceError(iteration=12, norm=3e12), {"iteration": 12, "norm": 3e12}),
    (GenerationError("no instance"), {}),
    (InconsistencyError("unbalanced"), {}),
    (ConfigError("bad config"), {}),
]


def test_cases_cover_every_error_type():
    assert {type(exc) for exc, _ in CASES} == {NetallocError, *NetallocError.__subclasses__()}


@pytest.mark.parametrize("exc,attrs", CASES, ids=[type(e).__name__ for e, _ in CASES])
def test_error_survives_pickle(exc, attrs):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    for name, value in attrs.items():
        assert getattr(back, name) == value


def test_divergence_message():
    assert str(DivergenceError(iteration=3, norm=float("nan"))) == (
        "state norm nan exceeded divergence guard at iteration 3"
    )


def _diverge():
    raise DivergenceError(iteration=5, norm=float("inf"))


def test_divergence_error_crosses_process_pool():
    with ProcessPoolExecutor(max_workers=1) as pool:
        with pytest.raises(DivergenceError) as err:
            pool.submit(_diverge).result()
    assert err.value.iteration == 5 and err.value.norm == float("inf")
