"""Property-based tests of the versioned row-delta downlink (DESIGN.md §5.1).

Hypothesis drives :class:`~repro.fl.wire.RowVersions` with arbitrary state
layouts (ndim 0-4, four dtypes, empty tensors, a 0-d
``num_batches_tracked``), arbitrary sequences of row mutations and round
token moves, arbitrary client sync schedules — clients that never
synced, that skip versions, that sync twice within one — and server
restarts from a saved table at any point, including right before a
mutation.  Whatever the draw:

- ``apply_delta(cache, payload)`` leaves the client's cache byte-equal to
  the server's full state — starting from :func:`cold_cache`, with any
  subset of the entries declared zero-born and zero / ``-0.0`` rows in
  the draw;
- a payload is never larger on the wire than the full state;
- a client already at the current version is sent ``{}`` (4 wire bytes);
- a first contact is not sent an all-zero row of a zero-born entry, and is
  sent a ``-0.0`` one.

Below the properties: the hostile payloads ``apply_delta`` must refuse
with a typed :class:`PayloadError`.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.fl.comm import Transport, payload_nbytes  # noqa: E402
from repro.fl.wire import PayloadError, apply_delta, cold_cache  # noqa: E402

SHAPES = st.sampled_from([(), (1,), (6,), (5, 3), (4, 2, 3), (3, 2, 2, 2),
                          (0,), (0, 3), (3, 0), (40, 8)])
DTYPES = st.sampled_from([np.float32, np.float16, np.int64, np.bool_])
OPS = st.lists(st.tuples(st.sampled_from(["mutate", "token", "sync",
                                          "restart"]),
                         st.integers(0, 2 ** 16)), min_size=1, max_size=30)


def _random(rng, shape, dtype):
    """Random values with, per axis-0 row, one chance in three each of
    being all zero and of being all ``-0.0`` (False / 0 for non-floats)."""
    if dtype is np.bool_:
        arr = rng.integers(0, 2, size=shape).astype(np.bool_)
    elif dtype is np.int64:
        arr = rng.integers(-9, 9, size=shape).astype(np.int64)
    else:
        arr = rng.normal(size=shape).astype(dtype)
    if arr.ndim and arr.size:
        kind = rng.integers(0, 3, size=arr.shape[0])
        arr[kind == 1] = 0
        arr[kind == 2] = -0.0 if arr.dtype.kind == "f" else 0
    elif arr.size and rng.integers(0, 2):
        arr = np.zeros_like(arr)
    return arr


def _same_bytes(cache, state):
    assert sorted(cache) == sorted(state)
    for name, value in state.items():
        got = cache[name]
        assert got.dtype == value.dtype and got.shape == value.shape, name
        assert got.tobytes() == value.tobytes(), name


def _check_cold(payload, state, zero_born):
    """A first contact: other entries whole; of a zero-born entry, the
    rows with a non-zero byte (``-0.0`` has one) and no others."""
    for name, value in state.items():
        if not name.startswith(zero_born):
            assert payload[name] is not None
            continue
        owed = np.array([bool(row.tobytes().strip(b"\0"))
                         for row in (value if value.ndim else [value])],
                        dtype=bool)
        if name + ".idx" in payload:
            assert payload[name + ".idx"].tolist() \
                == np.flatnonzero(owed).tolist()
        elif name in payload:
            assert owed.any()      # dense: idx + val was not smaller
        else:
            assert not owed.any()


@given(layout=st.lists(st.tuples(SHAPES, DTYPES), min_size=1, max_size=6),
       ops=OPS, n_clients=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
       zero_born=st.sets(st.sampled_from(["t0.", "t1.", "t2.", "bn."])))
@settings(max_examples=150, deadline=None)
def test_any_schedule_reconstructs_the_state(layout, ops, n_clients, seed,
                                             zero_born):
    rng = np.random.default_rng(seed)
    zero_born = tuple(sorted(zero_born))
    state = {f"t{i}.weight": _random(rng, shape, dtype)
             for i, (shape, dtype) in enumerate(layout)}
    state["bn.num_batches_tracked"] = np.asarray(0, dtype=np.int64)
    names = list(state)
    transport = Transport()
    versions = transport.versions
    versions.zero_born = zero_born
    clients = [{"cache": cold_cache(state, zero_born), "base": None}
               for _ in range(n_clients)]
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
            versions.zero_born = zero_born
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
            if client["base"] is None:
                _check_cold(payload, state, zero_born)
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


# ------------------------------------------------------- first contact
def test_first_contact_is_not_sent_zero_born_zeros():
    """``c`` all zero: absent.  One row moved, one ``-0.0``: those two."""
    transport = Transport()
    transport.versions.zero_born = ("c.",)
    state = {"w": np.zeros((8, 64), np.float32),
             "c.w": np.zeros((8, 64), np.float32),
             "c.n": np.asarray(0.0, np.float32),
             "c.e": np.zeros((0, 3), np.float32)}
    payload = transport.versions.payload(lambda: state, None)
    assert list(payload) == ["w"]            # zeros elsewhere do travel
    state["c.w"][5] = 1.0
    state["c.w"][2, 7] = -0.0
    transport.new_round()
    payload = transport.versions.payload(lambda: state, None)
    assert list(payload) == ["w", "c.w.idx", "c.w.val"]
    assert payload["c.w.idx"].tolist() == [2, 5]
    assert np.signbit(payload["c.w.val"][0, 7])
    cache = cold_cache(state, ("c.",))
    assert list(cache) == ["c.w", "c.n", "c.e"]
    apply_delta(cache, payload)
    _same_bytes(cache, state)
    # a returning client is owed the same two rows by the version table
    assert transport.versions.payload(lambda: state, 0)["c.w.idx"].tolist() \
        == [2, 5]


# ---------------------------------------------------- hostile payloads
def _held():
    return {"w": np.arange(12, dtype=np.float32).reshape(4, 3),
            "n": np.asarray(3, dtype=np.int64)}


_I32 = np.int32      # what the builder sends row indices as
_ROWS = np.ones((2, 3), np.float32)
HOSTILE = {
    "index out of range": ({"w.idx": np.array([1, 4], _I32), "w.val": _ROWS},
                           "w.idx"),
    "negative index": ({"w.idx": np.array([-1, 2], _I32), "w.val": _ROWS},
                       "w.idx"),
    "duplicated index": ({"w.idx": np.array([2, 2], _I32), "w.val": _ROWS},
                         "w.idx"),
    "unsorted indices": ({"w.idx": np.array([3, 1], _I32), "w.val": _ROWS},
                         "w.idx"),
    "int64 indices": ({"w.idx": np.array([1, 2]), "w.val": _ROWS}, "w.idx"),
    "2-d indices": ({"w.idx": np.array([[1, 2]], _I32), "w.val": _ROWS},
                    "w.idx"),
    "idx without val": ({"w.idx": np.array([1, 2], _I32)}, "w.idx"),
    "val without idx": ({"w.val": _ROWS}, "w.val"),
    "val row count": ({"w.idx": np.array([1], _I32), "w.val": _ROWS},
                      "w.val"),
    "val row shape": ({"w.idx": np.array([1, 2], _I32),
                       "w.val": np.ones((2, 1), np.float32)}, "w.val"),
    "val dtype": ({"w.idx": np.array([1, 2], _I32),
                   "w.val": _ROWS.astype(np.float64)}, "w.val"),
    "rows of an entry not held": ({"v.idx": np.array([0], _I32),
                                   "v.val": _ROWS[:1]}, "v"),
    "rows of a 0-d entry": ({"n.idx": np.array([0], _I32),
                             "n.val": np.array([1])}, "n"),
    "dense shape": ({"w": np.ones((4, 2), np.float32)}, "w"),
    "dense dtype": ({"w": np.ones((4, 3), np.float64)}, "w"),
}


@pytest.mark.parametrize("case", HOSTILE)
def test_apply_delta_refuses_a_payload_the_builder_cannot_produce(case):
    payload, entry = HOSTILE[case]
    # a valid entry first: nothing of a refused payload may be applied
    payload = {"n": np.asarray(9, dtype=np.int64), **payload}
    cache = _held()
    with pytest.raises(PayloadError) as err:
        apply_delta(cache, payload)
    assert err.value.entry == entry
    _same_bytes(cache, _held())


def test_apply_delta_checks_dense_entries_against_the_cold_layout():
    layout = {"w": np.ones((2, 3), np.float32),
              "c.w": np.ones((2, 3), np.float32)}
    cache = cold_cache(layout, ("c.",))
    with pytest.raises(PayloadError) as err:
        apply_delta(cache, {"w": layout["w"],
                            "c.w": np.ones((3, 3), np.float32)})
    assert err.value.entry == "c.w" and list(cache) == ["c.w"]
    apply_delta(cache, layout)
    _same_bytes(cache, layout)
