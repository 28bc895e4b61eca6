"""Property-based tests of the versioned row-delta downlink (DESIGN.md §5.1).

Hypothesis drives :class:`~repro.fl.wire.RowVersions` with arbitrary state
layouts (ndim 0-4, four dtypes, empty tensors, a 0-d
``num_batches_tracked``), arbitrary sequences of row mutations and round
token moves, arbitrary client sync schedules — clients that never
synced, that skip versions, that sync twice within one — and server
restarts from a saved table at any point, including right before a
mutation.  Whatever the draw:

- ``apply_delta(cache, payload)`` leaves the client's cache byte-equal to
  the server's full state;
- a payload is never larger on the wire than the full state;
- a client already at the current version is sent ``{}`` (4 wire bytes).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.fl.comm import Transport, payload_nbytes  # noqa: E402
from repro.fl.wire import apply_delta  # noqa: E402

SHAPES = st.sampled_from([(), (1,), (6,), (5, 3), (4, 2, 3), (3, 2, 2, 2),
                          (0,), (0, 3), (3, 0), (40, 8)])
DTYPES = st.sampled_from([np.float32, np.float16, np.int64, np.bool_])
OPS = st.lists(st.tuples(st.sampled_from(["mutate", "token", "sync",
                                          "restart"]),
                         st.integers(0, 2 ** 16)), min_size=1, max_size=30)


def _random(rng, shape, dtype):
    if dtype is np.bool_:
        return rng.integers(0, 2, size=shape).astype(np.bool_)
    if dtype is np.int64:
        return rng.integers(-9, 9, size=shape).astype(np.int64)
    return rng.normal(size=shape).astype(dtype)


def _same_bytes(cache, state):
    assert list(cache) == list(state)
    for name, value in state.items():
        got = cache[name]
        assert got.dtype == value.dtype and got.shape == value.shape, name
        assert got.tobytes() == value.tobytes(), name


@given(layout=st.lists(st.tuples(SHAPES, DTYPES), min_size=1, max_size=6),
       ops=OPS, n_clients=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_any_schedule_reconstructs_the_state(layout, ops, n_clients, seed):
    rng = np.random.default_rng(seed)
    state = {f"t{i}.weight": _random(rng, shape, dtype)
             for i, (shape, dtype) in enumerate(layout)}
    state["bn.num_batches_tracked"] = np.asarray(0, dtype=np.int64)
    names = list(state)
    transport = Transport()
    versions = transport.versions
    clients = [{"cache": {}, "base": None} for _ in range(n_clients)]
    dirty = False
    for op, arg in ops:
        if op == "mutate":
            name = names[arg % len(names)]
            arr = state[name]
            if arr.ndim == 0:
                state[name] = np.asarray(arr + 1, dtype=arr.dtype)
            elif arr.size:
                rows = rng.choice(arr.shape[0],
                                  size=1 + arg % arr.shape[0], replace=False)
                arr[rows] = _random(rng, (len(rows),) + arr.shape[1:],
                                    arr.dtype.type)
            dirty = True
        elif op == "token":
            transport.new_round()
            dirty = False
        elif op == "restart":
            # what a checkpoint does: save the table next to the state
            # (every state-changing site has moved the token) ...
            if dirty:
                transport.new_round()
                dirty = False
            versions.refresh(lambda: state)
            saved = versions.sync_state()
            # ... and load it into a new server, which adopts that state
            # before anything can change it
            transport = Transport()
            versions = transport.versions
            versions.load(saved["version"], saved["rows"], state)
            transport.new_round()
            versions.observe(state)
        else:
            if dirty:   # the state is constant within a token
                transport.new_round()
                dirty = False
            client = clients[arg % n_clients]
            payload = versions.payload(lambda: state, client["base"])
            assert payload_nbytes(payload) <= payload_nbytes(state)
            if client["base"] == versions.version:
                assert payload == {} and payload_nbytes(payload) == 4
            apply_delta(client["cache"], payload)
            _same_bytes(client["cache"], state)
            client["base"] = versions.version


def test_unchanged_state_is_an_empty_delta_across_tokens():
    transport = Transport()
    state = {"w": np.ones((4, 3), np.float32), "n": np.asarray(7, np.int64)}
    _same_bytes(transport.versions.payload(lambda: state, None), state)
    for _ in range(3):
        transport.new_round()
        assert transport.versions.payload(lambda: state, 0) == {}
    assert transport.versions.version == 0


def test_negative_zero_counts_as_changed():
    transport = Transport()
    state = {"w": np.zeros((4, 3), np.float32)}
    transport.versions.payload(lambda: state, None)
    state["w"][2, 1] = -0.0
    assert (state["w"] == 0).all()
    transport.new_round()
    payload = transport.versions.payload(lambda: state, 0)
    assert payload["w.idx"].tolist() == [2]
    assert np.signbit(payload["w.val"][0, 1])


def test_sparse_rows_only_when_strictly_smaller():
    """Two of three 1-float rows: idx + val would be larger than the
    tensor, so the tensor travels whole."""
    transport = Transport()
    state = {"b": np.zeros(3, np.float32), "w": np.zeros((8, 64), np.float32)}
    transport.versions.payload(lambda: state, None)
    state["b"][:2] = 1.0
    state["w"][5] = 1.0
    transport.new_round()
    payload = transport.versions.payload(lambda: state, 0)
    assert list(payload) == ["b", "w.idx", "w.val"]
    assert payload["w.idx"].dtype == np.int32
    assert payload_nbytes(payload) < payload_nbytes(state)


@pytest.mark.parametrize("name", ["w.idx", "w.val"])
def test_reserved_suffix_in_the_state_is_a_loud_error(name):
    transport = Transport()
    state = {"w": np.zeros(3, np.float32), name: np.zeros(3, np.float32)}
    with pytest.raises(ValueError, match="reserved"):
        transport.versions.payload(lambda: state, None)


def test_layout_change_and_foreign_base_are_loud_errors():
    transport = Transport()
    state = {"w": np.zeros((3, 2), np.float32)}
    transport.versions.payload(lambda: state, None)
    with pytest.raises(ValueError, match="not this run's client"):
        transport.versions.payload(lambda: state, 5)
    transport.new_round()
    with pytest.raises(ValueError, match="changed layout"):
        transport.versions.payload(
            lambda: {"w": np.zeros((4, 2), np.float32)}, 0)
    transport.new_round()
    with pytest.raises(ValueError, match="entries changed"):
        transport.versions.payload(
            lambda: {"w": state["w"], "v": state["w"]}, 0)
