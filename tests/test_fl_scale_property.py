"""Property tests: folds are bitwise-equal however their records are held.

Floating-point addition is not associative, so the folds in
:mod:`repro.fl.scale.fold` add in cohort order per key / per coordinate
whether the records are resident or streamed back from disk.  Hypothesis
drives arbitrary cohorts — sizes, example counts, weights, magnitudes,
duplicate and empty salient index sets — and asserts byte-for-byte
equality of the disk-spill fold against the list entry points
(``aggregate`` / ``aggregate_weighted``), ``salient_aggregate`` and a
key-outer loop oracle of the weighted mean.
"""

import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.aggregation import salient_aggregate  # noqa: E402
from repro.fl import UpdateSpill, serialize_state  # noqa: E402
from repro.fl.local import weighted_average_states  # noqa: E402
from tests.reference_agg import reference_salient_aggregate  # noqa: E402
from repro.fl.scale.fold import SPATLFold  # noqa: E402
from repro.fl.stub import make_stub  # noqa: E402

WEIGHT = st.sampled_from([0.25, 1.0, 1.0, 1.75, 3.0])
MAGNITUDE = st.sampled_from([1e-8, 1.0, 1e8])
SEED = st.integers(0, 2 ** 16)


def _states(seed, n_states, dim, magnitude):
    """Aligned mixed-dtype state dicts (float32/float64/int64 entries)."""
    rng = np.random.default_rng(seed)
    return [{"w": (magnitude
                   * rng.standard_normal(dim)).astype(np.float32),
             "b": magnitude * rng.standard_normal(2),
             "steps": np.asarray(rng.integers(0, 100), dtype=np.int64)}
            for _ in range(n_states)]


def _key_outer_mean(states, weights):
    """Loop oracle: per key, add ``w_i * state_i`` in cohort order."""
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    out = {}
    for key in states[0]:
        first = np.asarray(states[0][key])
        if first.dtype.kind in "iu":
            out[key] = first.copy()
            continue
        acc = np.zeros_like(first, dtype=np.float64)
        for wi, state in zip(w, states):
            acc += wi * np.asarray(state[key], dtype=np.float64)
        out[key] = acc.astype(first.dtype)
    return out


@given(seed=SEED, n_states=st.integers(1, 6), dim=st.integers(1, 16),
       magnitude=MAGNITUDE,
       weights=st.lists(WEIGHT, min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_stream_weighted_average_bitwise(seed, n_states, dim, magnitude,
                                         weights):
    """The one mean body, fed a one-shot stream, == the key-outer oracle."""
    states = _states(seed, n_states, dim, magnitude)
    weights = weights[:n_states]
    batch = _key_outer_mean(states, weights)
    streamed = weighted_average_states(iter(states), weights)
    assert list(streamed) == list(batch)  # same key order
    for key in batch:
        assert streamed[key].tobytes() == batch[key].tobytes(), key
        assert streamed[key].dtype == batch[key].dtype, key


@given(seed=SEED, n_updates=st.integers(1, 6), dim=st.integers(1, 12),
       ns=st.lists(st.integers(1, 500), min_size=6, max_size=6),
       weights=st.lists(WEIGHT, min_size=6, max_size=6),
       weighted=st.booleans())
@settings(max_examples=60, deadline=None)
def test_dict_mean_fold_matches_aggregate(seed, n_updates, dim, ns,
                                          weights, weighted):
    """FedAvg family: disk-spill fold == the (resident) list entry points."""
    rng = np.random.default_rng(seed)
    batch_algo = make_stub(n_clients=2, dim=dim, seed=seed)
    fold_algo = make_stub(n_clients=2, dim=dim, seed=seed)
    updates = [{"state": {"w": rng.standard_normal(dim).astype(np.float32)},
                "n": ns[i], "train_loss": 0.0, "steps": 1}
               for i in range(n_updates)]
    weights = weights[:n_updates]
    with tempfile.TemporaryDirectory() as tmp:
        fold = fold_algo.make_fold(UpdateSpill(tmp + "/u.spill"))
        if weighted:
            for u, w in zip(updates, weights):
                fold.add(u, w)
            fold.finalize(0)
            batch_algo.aggregate_weighted(updates, weights, 0)
        else:
            for u in updates:
                fold.add(u)
            fold.finalize(0)
            batch_algo.aggregate(updates, 0)
    assert serialize_state(fold_algo.global_model.state_dict()) \
        == serialize_state(batch_algo.global_model.state_dict())


# ------------------------------------------------------------- SPATL core

class _Param:
    def __init__(self, arr):
        self.data = arr


class _Encoder:
    def __init__(self, params):
        self._params = params

    def named_parameters(self):
        return list(self._params.items())

    def load_state_dict(self, state, strict=True):
        for key, value in state.items():
            self._params[key].data[...] = value


class _Model:
    def __init__(self, params):
        self.encoder = _Encoder(params)


class _MiniSPATL:
    """The minimal surface :class:`SPATLFold` reads off a SPATL instance:
    one prunable layer (Eq. 12) plus one dense parameter."""

    name = "spatl"
    use_gradient_control = False
    use_transfer = True
    lr = 0.05
    clients = ()

    def __init__(self, weight, dense, aggregation_step):
        self.global_model = _Model({"conv.weight": _Param(weight),
                                    "fc.weight": _Param(dense)})
        self.prunable = ["conv"]
        self.aggregation_step = aggregation_step


ROW_SHAPES = [(), (3,), (9,), (2, 5)]  # row widths 1/3/9/10: both add paths


def _batch_eq12(weight, uploads, step, weights):
    """Whole-cohort Eq. 12 oracle, independent of the running accumulator:
    the sequential-scatter reference when unweighted, and its weighted
    form — ``np.add.at`` row sums, one ``np.bincount(weights=...)`` over
    the concatenated indices — otherwise."""
    if weights is None:
        return reference_salient_aggregate(weight, uploads, step_size=step)
    out = np.array(weight, dtype=np.float64)
    acc = np.zeros_like(out)
    for (idx, rows), w in zip(uploads, weights):
        np.add.at(acc, idx, w * (rows.astype(np.float64) - out[idx]))
    counts = np.bincount(
        np.concatenate([idx for idx, _ in uploads]),
        weights=np.concatenate([np.full(idx.size, w)
                                for (idx, _), w in zip(uploads, weights)]),
        minlength=out.shape[0])
    covered = counts > 0
    denom = counts[covered].reshape((-1,) + (1,) * (out.ndim - 1))
    out[covered] += step * acc[covered] / denom
    return out.astype(weight.dtype)


@given(seed=SEED, n_filters=st.integers(1, 12),
       shape_idx=st.integers(0, len(ROW_SHAPES) - 1),
       magnitude=MAGNITUDE, step=st.sampled_from([1.0, 0.5]),
       n_uploads=st.integers(1, 5),
       weights=st.lists(WEIGHT, min_size=5, max_size=5),
       weighted=st.booleans(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_spatl_fold_matches_salient_aggregate(seed, n_filters, shape_idx,
                                              magnitude, step, n_uploads,
                                              weights, weighted, data):
    """Eq. 12 oracle, duplicate- and empty-index-safe, both weight modes."""
    rng = np.random.default_rng(seed)
    row_shape = ROW_SHAPES[shape_idx]
    weight = (magnitude * rng.standard_normal(
        (n_filters,) + row_shape)).astype(np.float32)
    dense = rng.standard_normal(4).astype(np.float32)
    weights = weights[:n_uploads]

    uploads, updates = [], []
    for i in range(n_uploads):
        idx = np.asarray(data.draw(st.lists(
            st.integers(0, n_filters - 1), min_size=0,
            max_size=n_filters + 2)), dtype=np.int64)
        rows = (magnitude * rng.standard_normal(
            (len(idx),) + row_shape)).astype(np.float32)
        uploads.append((idx, rows))
        updates.append({"salient": {"conv": (idx, rows)},
                        "dense": {"fc.weight":
                                  rng.standard_normal(4).astype(np.float32)},
                        "predictor_state": {}, "n": 1 + i})

    expected = _batch_eq12(weight, uploads, step,
                           weights if weighted else None)
    assert salient_aggregate(
        weight, uploads, step_size=step,
        weights=weights if weighted else None).tobytes() == expected.tobytes()
    dense_weights = [u["n"] * w for u, w in zip(updates, weights)] \
        if weighted else [u["n"] for u in updates]
    expected_dense = weighted_average_states(
        [u["dense"] for u in updates], dense_weights)["fc.weight"]

    algo = _MiniSPATL(weight.copy(), dense.copy(), step)
    with tempfile.TemporaryDirectory() as tmp:
        fold = SPATLFold(algo, UpdateSpill(tmp + "/u.spill"))
        for u, w in zip(updates, weights):
            fold.add(u, w) if weighted else fold.add(u)
        fold.finalize(0)

    got = algo.global_model.encoder._params["conv.weight"].data
    assert got.tobytes() == expected.tobytes()
    got_dense = algo.global_model.encoder._params["fc.weight"].data
    assert got_dense.tobytes() == expected_dense.tobytes()


@given(seed=SEED, n_uploads=st.integers(1, 5),
       weights=st.lists(WEIGHT, min_size=5, max_size=5), data=st.data())
@settings(max_examples=60, deadline=None)
def test_running_weighted_counts_match_bincount(seed, n_uploads, weights,
                                               data):
    """The Eq. 12 denominator lemma: per-upload ``np.add.at`` scatter in
    cohort order == one concatenated ``np.bincount(..., weights=...)``."""
    n = 10
    running = np.zeros(n, dtype=np.float64)
    idx_parts, w_parts = [], []
    for i in range(n_uploads):
        idx = np.asarray(data.draw(st.lists(st.integers(0, n - 1),
                                            min_size=0, max_size=15)),
                         dtype=np.int64)
        np.add.at(running, idx, weights[i])
        idx_parts.append(idx)
        w_parts.append(np.full(idx.size, weights[i], dtype=np.float64))
    batch = np.bincount(np.concatenate(idx_parts),
                        weights=np.concatenate(w_parts), minlength=n) \
        if idx_parts else np.zeros(n)
    assert running.tobytes() == batch.tobytes()
