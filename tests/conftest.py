"""Shared fixtures: reference jobs and systems used across the suite."""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pytest

# Keep the suite hermetic: never read or write the user's persistent
# sweep result cache (~/.cache/repro).  Cache tests opt back in with
# monkeypatch.setenv("REPRO_CACHE", "1") plus a tmp_path REPRO_CACHE_DIR.
os.environ.setdefault("REPRO_CACHE", "0")
# Nor its native kernel cache: the kernel compiles once per session into
# a temporary directory (an in-place extension build is still found
# first), removed when the session ends.
_NATIVE_DIR = None
if "REPRO_NATIVE_DIR" not in os.environ:
    _NATIVE_DIR = os.environ["REPRO_NATIVE_DIR"] = tempfile.mkdtemp(
        prefix="repro-native-"
    )

from repro import KDag, KDagBuilder, ResourceConfig  # noqa: E402


def pytest_sessionfinish(session, exitstatus):
    if _NATIVE_DIR is not None:
        shutil.rmtree(_NATIVE_DIR, ignore_errors=True)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def diamond_job() -> KDag:
    """A 2-type diamond: 0 -> {1, 2} -> 3 (types 0,1,1,0; work 1,2,3,1)."""
    return KDag(
        types=[0, 1, 1, 0],
        work=[1.0, 2.0, 3.0, 1.0],
        edges=[(0, 1), (0, 2), (1, 3), (2, 3)],
        num_types=2,
    )


@pytest.fixture
def chain_job() -> KDag:
    """A 3-type serial chain 0 -> 1 -> 2 with unit work."""
    return KDag(
        types=[0, 1, 2],
        work=[1.0, 1.0, 1.0],
        edges=[(0, 1), (1, 2)],
        num_types=3,
    )


@pytest.fixture
def fig1_job() -> KDag:
    """A job with the quoted properties of the paper's Fig. 1 example.

    3 task types, unit work, T1(J, a1) = 7, T1(J, a2) = 4,
    T1(J, a3) = 3, span T_inf(J) = 7.  (The paper shows the figure
    only as an image; this reconstruction matches every stated
    quantity.)
    """
    b = KDagBuilder(num_types=3)
    # A chain of 7 circle (type-0) tasks realizes both T1(., 0) = 7 and
    # the span of 7.
    chain = [b.add_task(0, 1.0, label=f"c{i}") for i in range(7)]
    b.chain(chain)
    # 4 squares (type 1) hang off the first four chain tasks.
    squares = [b.add_task(1, 1.0, label=f"s{i}") for i in range(4)]
    for i, s in enumerate(squares):
        b.add_edge(chain[i], s)
    # 3 triangles (type 2) consume the squares' outputs.
    triangles = [b.add_task(2, 1.0, label=f"t{i}") for i in range(3)]
    for i, t in enumerate(triangles):
        b.add_edge(squares[i], t)
    return b.build()


@pytest.fixture
def two_type_system() -> ResourceConfig:
    return ResourceConfig((2, 2))


@pytest.fixture
def three_type_system() -> ResourceConfig:
    return ResourceConfig((2, 3, 1))


def make_random_job(
    rng: np.random.Generator,
    n: int = 40,
    k: int = 3,
    edge_prob: float = 0.12,
    max_work: int = 6,
) -> KDag:
    """A random layered-ish DAG helper used by several test modules."""
    types = rng.integers(0, k, size=n)
    work = rng.integers(1, max_work + 1, size=n).astype(float)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return KDag(types=types, work=work, edges=edges, num_types=k)
