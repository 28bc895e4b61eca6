"""The federated-learning cells tier-1's matrices run.

One declared table, :data:`CELLS`, after ReAgent's ``(name, config)``
test list: a row is ``(id, algorithm, driver, workers, compile, quant,
faults)``, its id is ``"<matrix>/<pytest id>"`` and its driver is the
recipe it runs (:class:`Sync`, :class:`Async`, :class:`Scale`,
:class:`Updates`).  The matrix (:data:`MATRICES`) adds only what all its
rows share: the clients, the algorithm knobs and the fault config of a
``faults`` row.  So every test that runs a cell builds it one way:

- :func:`build` returns the cell's ready driver: an algorithm, a
  :class:`~repro.fl.ScaleRunner` or an
  :class:`~repro.fl.AsyncFederatedRunner`;
- :func:`reference` is the cell's uninterrupted run, trained once per
  session and handed out frozen (:class:`Run`): bytes, copies and plain
  dicts, never a live algorithm a test could mutate.

A matrix parametrizes over its slice (:func:`params`) and asserts its own
property against the references.  A test that needs a run of its own
freezes it with :func:`measure` (a cell) or :func:`play` (a recipe on a
driver it built itself).
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import io
import pickle
import tempfile
import types
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.core import SPATL, RLSelectionPolicy, StaticSaliencyPolicy
from repro.data import SyntheticCIFAR10, dirichlet_partition
from repro.experiments.configs import config_for, make_algorithm, make_setting
from repro.fl import (ALGORITHMS, AsyncConfig, AsyncFederatedRunner,
                      AsyncProfile, ClientStateStore, FaultModel, RetryPolicy,
                      Scaffold, ScaleRunner, ShardedClientFactory,
                      VirtualClientPool, make_executor,
                      make_federated_clients, make_quant_config,
                      payload_nbytes, serialize_state, state_fingerprint)
from repro.fl.checkpoint import load_checkpoint, save_checkpoint
from repro.fl.scale import encode_client_state
from repro.fl.stub import make_stub
from repro.fl.wire import apply_delta, cold_cache
from repro.models import build_model
from tests.reference import reference_kernels
from repro.obs import codec_byte_totals, get_tracer, span_attr_total, tracing
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.rl import SalientParameterAgent

# every algorithm a matrix that claims "every algorithm" runs
EVERY = (*ALGORITHMS, "spatl", "spatl_rl")


# ------------------------------------------------------------------ data

@dataclasses.dataclass(frozen=True)
class Setting:
    dataset: Callable[[], Any]
    parts: Callable[[Any], list]
    batch_size: int
    seed: int                       # the clients' shuffling seed
    model_fn: Callable[[], Any]


def _tiny_model():
    return build_model("resnet20", width_mult=0.2, input_size=12, seed=11)


@functools.cache
def tiny_dataset():
    """800-sample 12x12 synthetic CIFAR, shared read-only across tests."""
    return SyntheticCIFAR10(n_samples=800, size=12, seed=99)


SETTINGS = {
    "tiny": Setting(tiny_dataset,
                    lambda ds: dirichlet_partition(ds.y, 4, beta=0.5, seed=3),
                    32, 5, _tiny_model),
    "eight": Setting(tiny_dataset,
                     lambda ds: dirichlet_partition(ds.y, 8, beta=0.5, seed=7),
                     32, 5, _tiny_model),
    # the ledger matrix's own: four equal 40-sample clients, width 0.25
    "obs": Setting(lambda: SyntheticCIFAR10(n_samples=160, size=12, seed=0),
                   lambda ds: [np.arange(i * 40, (i + 1) * 40)
                               for i in range(4)],
                   20, 0, lambda: build_model("resnet20", num_classes=10,
                                              input_size=12, width_mult=0.25,
                                              seed=1)),
}


@functools.cache
def _data(setting: str):
    spec = SETTINGS[setting]
    dataset = spec.dataset()
    return dataset, spec.parts(dataset)


def model_fn(setting: str = "tiny"):
    return SETTINGS[setting].model_fn


def parts(setting: str = "tiny") -> list:
    return _data(setting)[1]


def clients(setting: str = "tiny") -> list:
    """Fresh clients of a setting (local state never leaks between runs)."""
    dataset, split = _data(setting)
    spec = SETTINGS[setting]
    return make_federated_clients(dataset, split, batch_size=spec.batch_size,
                                  seed=spec.seed)


def virtual_pool(store, setting: str = "tiny",
                 resident_limit: int = 64) -> VirtualClientPool:
    """A pool over ``store`` (a :class:`~repro.fl.ClientStateStore` or
    its root) whose virtual clients are byte-identical to :func:`clients`."""
    dataset, split = _data(setting)
    spec = SETTINGS[setting]
    factory = ShardedClientFactory(dataset=dataset, parts=split,
                                   batch_size=spec.batch_size, seed=spec.seed)
    if not isinstance(store, ClientStateStore):
        store = ClientStateStore(store)
    return VirtualClientPool(factory, len(split), store,
                             resident_limit=resident_limit)


# ------------------------------------------------------------ algorithms

class _Shadowed:
    """Mixin of the downlink matrix: a test-only *shadow client* rides in
    ``client.local_state``, applies every payload the client is sent and
    asserts, at every participation, that what it holds is byte-equal to
    the server's full downlink state (DESIGN.md §5.1)."""

    def _download(self, client, round_idx, salt=0, attempt=0):
        received = super()._download(client, round_idx, salt, attempt)
        full = self.downlink_state()
        if "shadow" not in client.local_state:
            client.local_state["shadow"] = {
                "cache": cold_cache(full, self.zero_born), "syncs": 0,
                "row_deltas": 0,
                "first": {"round": round_idx, "entries": list(received),
                          "nbytes": payload_nbytes(received)}}
        shadow = client.local_state["shadow"]
        apply_delta(shadow["cache"], received)
        assert sorted(shadow["cache"]) == sorted(full)
        for name, value in full.items():
            assert shadow["cache"][name].tobytes() \
                == np.asarray(value).tobytes(), (client.client_id, name)
        shadow["syncs"] += 1
        shadow["row_deltas"] += any(k.endswith(".idx") for k in received)
        return received


class ShadowedSPATL(_Shadowed, SPATL):
    pass


class ShadowedScaffold(_Shadowed, Scaffold):
    pass


def algorithm(name: str, model_fn=None, client_list=None, *,
              sparsity: float = 0.3, finetune_rounds: int = 2,
              shadowed: bool = False, **kwargs):
    """The one way a test builds an algorithm: the tiny model and fresh
    tiny clients unless given, ``lr`` 0.05, one local epoch and seed 0
    unless ``kwargs`` say otherwise.  ``spatl`` selects with the static
    saliency policy at ``sparsity``; ``spatl_rl`` with the PPO agent,
    fine-tuned for ``finetune_rounds`` (one PPO update each); ``stubavg``
    is the 4-client NumPy stub and ignores the rest."""
    if name == "stubavg":
        return make_stub(n_clients=4, seed=3)
    model_fn = model_fn or _tiny_model
    client_list = clients() if client_list is None else client_list
    kwargs = {"lr": 0.05, "local_epochs": 1, "seed": 0, **kwargs}
    if name == "scaffold" and shadowed:
        return ShadowedScaffold(model_fn, client_list, **kwargs)
    if name in ALGORITHMS:
        return ALGORITHMS[name](model_fn, client_list, **kwargs)
    if name == "spatl_rl":
        policy = RLSelectionPolicy(SalientParameterAgent(seed=0),
                                   flops_target=0.8,
                                   finetune_rounds=finetune_rounds,
                                   finetune_updates=1, episodes_per_update=2,
                                   probe_size=32)
    else:
        policy = StaticSaliencyPolicy(sparsity)
    return (ShadowedSPATL if shadowed else SPATL)(
        model_fn, client_list, selection_policy=policy, **kwargs)


# --------------------------------------------------------------- recipes

@dataclasses.dataclass(frozen=True)
class Sync:
    """``rounds`` synchronous rounds; with ``checkpoint``, saved after
    that many (the file rides in ``Run.extra``) and, with ``restart``,
    continued in a fresh algorithm loaded from it."""
    rounds: int
    checkpoint: int | None = None
    restart: bool = False
    oracle: bool = False            # under the pre-rewrite reference kernels
    evaluate: bool = False          # record client 0's evaluate()
    kwargs: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class Async:
    """``steps`` committed server steps."""
    steps: int
    profile: AsyncProfile
    config: AsyncConfig


@dataclasses.dataclass(frozen=True)
class Scale:
    """``rounds`` :class:`~repro.fl.ScaleRunner` rounds, over a virtual
    pool when ``virtual``."""
    rounds: int
    virtual: bool = False
    resident_limit: int = 64
    wave: int | None = None
    eval_mode: str = "full"
    kwargs: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class Updates:
    """Every client's round-0 ``local_update``; nothing is aggregated."""


@dataclasses.dataclass(frozen=True)
class Matrix:
    """What a matrix fixes for all its cells."""
    setting: str                    # a key of SETTINGS, or "config"
    faults: dict = dataclasses.field(default_factory=dict)  # a faults row's
    kwargs: dict = dataclasses.field(default_factory=dict)
    traced: bool = False            # run references under a tracer


HOSTILE = dict(jitter=0.3, straggler_prob=0.4, slowdown=6.0,
               arrival_spread=1.0, churn_prob=0.15, crash_prob=0.1,
               duplicate_prob=0.25)
_ASYNC_K2 = AsyncConfig(buffer_k=2, max_inflight=3, max_queue=3)
_HALF = {"sample_ratio": 0.5}
_POOL_FAULTS = dict(fault_model=FaultModel(drop_prob=0.2, corrupt_prob=0.05,
                                           crash_prob=0.1, seed=21))

MATRICES = {
    # resume identity: an interrupted run restored into a fresh algorithm
    # ends in the uninterrupted run's state.  Faults: round 0 commits with
    # a retransmission; in round 1 client 1 is dropped while client 0
    # delivers (where the scale cell checkpoints), quorum fails and the
    # re-sampled cohort delivers, withdrawing the staged drop.
    "resume": Matrix(
        "tiny",
        faults=dict(fault_model=FaultModel(drop_prob=0.4, corrupt_prob=0.15,
                                           crash_prob=0.1, seed=27),
                    min_clients=3, max_round_resamples=1,
                    retry_policy=RetryPolicy(max_retries=1))),
    # the delta downlink, shadowed on every driver; seed 0 at sample
    # ratio 0.5 samples [1,2] [0,1] [0,1] [2,3]: client 3 joins late
    "downlink": Matrix(
        "tiny",
        faults=dict(fault_model=FaultModel(drop_prob=0.25, corrupt_prob=0.2,
                                           crash_prob=0.2, seed=7)),
        kwargs=dict(shadowed=True, finetune_rounds=1)),
    # ledger reconciliation (DESIGN.md §17): every driver, traced
    "ledger": Matrix(
        "obs",
        faults=dict(fault_model=FaultModel(drop_prob=0.2, corrupt_prob=0.3,
                                           seed=4)),
        kwargs=dict(sparsity=0.5), traced=True),
    # a process pool == the serial executor
    "parallel": Matrix("eight", faults=_POOL_FAULTS),
    # the same, traced: worker spans and metrics merged into the parent
    "merge": Matrix("eight", faults=_POOL_FAULTS, traced=True),
    # optimized kernels == the pre-rewrite reference kernels
    "kernel": Matrix("config", kwargs=dict(n_clients=4, n_samples=400)),
    # step-compiler replay == eager
    "compile": Matrix("config",
                      faults=dict(fault_drop_prob=0.3,
                                  fault_corrupt_prob=0.1, fault_retries=1),
                      kwargs=dict(n_clients=3, n_samples=300)),
    # ScaleRunner rounds (streaming, virtual, pooled) == run_round
    "streaming": Matrix(
        "tiny",
        faults=dict(fault_model=FaultModel(drop_prob=0.45, corrupt_prob=0.15,
                                           crash_prob=0.1, seed=26),
                    min_clients=3, max_round_resamples=2,
                    retry_policy=RetryPolicy(max_retries=1)),
        kwargs=dict(sample_ratio=0.7)),
    # every algorithm's server step reached three ways
    "routes": Matrix("tiny"),
    # a quantized uplink on every engine == the serial one
    "quant": Matrix("tiny"),
}


# ------------------------------------------------------------------ cells

@dataclasses.dataclass(frozen=True, eq=False)   # a replace()-d cell is
class Cell:                                     # not its original's key
    id: str                 # "<matrix>/<pytest id>"
    algorithm: str          # EVERY, or "stubavg"
    driver: Sync | Async | Scale | Updates  # the recipe it runs
    workers: int = 1        # 1: serial; N: a process pool of N
    compile: bool = False   # the step compiler
    quant: int = 32         # uplink bits
    faults: bool = False    # the matrix's fault config

    @property
    def matrix(self) -> str:
        return self.id.split("/", 1)[0]

    @property
    def marks(self) -> tuple:
        if self.faults and isinstance(self.driver, Async):
            return (pytest.mark.xfail(
                strict=True, raises=ValueError,
                reason="AsyncFederatedRunner refuses a FaultModel "
                       "(ROADMAP item 7)"),)
        return ()


_RESUME_ASYNC = Async(4, AsyncProfile(seed=5, **HOSTILE), _ASYNC_K2)
_DOWNLINK_ASYNC = Async(5, AsyncProfile(seed=5, jitter=0.3,
                                        straggler_prob=0.4, slowdown=6.0,
                                        arrival_spread=1.0,
                                        duplicate_prob=0.3), _ASYNC_K2)
_LEDGER_ASYNC = Async(3, AsyncProfile(seed=2, jitter=0.3, straggler_prob=0.4,
                                      crash_prob=0.2, duplicate_prob=0.5),
                      AsyncConfig(buffer_k=2, max_inflight=4))
_WAVE2 = Scale(2, wave=2)
_VIRTUAL = Scale(2, virtual=True)
_FS, _FSS = ("fedavg", "spatl"), ("fedavg", "spatl", "scaffold")

# Each comprehension below reads its rows as ``(name, recipe, workers,
# faults)``: the whole declaration of a cell but its algorithm.
CELLS = [
    *(Cell(f"resume/{a}-{name}{'+faults' * f}", a, recipe, faults=f)
      for f in (False, True)
      for name, recipe in (("sync", Sync(2, checkpoint=1)),
                           ("async", _RESUME_ASYNC),
                           ("scale", Scale(2, virtual=True)))
      for a in EVERY),
    *(Cell(f"downlink/{a}-{name}", a, recipe, workers=w, faults=f)
      for name, recipe, w, f in (
          ("sync_partial", Sync(5, kwargs=_HALF), 1, False),
          ("faults", Sync(4), 1, True),
          ("pool", Sync(3), 2, False),
          ("async", _DOWNLINK_ASYNC, 1, False),
          ("scale", Scale(3, virtual=True, resident_limit=2,
                          eval_mode="none"), 1, False),
          ("resumed", Sync(4, checkpoint=2, restart=True), 1, False),
          ("async_faults", _DOWNLINK_ASYNC, 1, True),
          ("scale_partial", Scale(4, virtual=True, resident_limit=2,
                                  eval_mode="none", kwargs=_HALF), 1, False),
          ("resumed_partial", Sync(4, checkpoint=2, restart=True,
                                   kwargs=_HALF), 1, False))
      for a in ("spatl", "spatl_rl", "scaffold")),
    *(Cell(f"ledger/{name}-{a}", a, recipe, workers=w, faults=f)
      for name, recipe, w, f in (
          ("sync", Sync(2), 1, False),
          ("faults", Sync(2), 1, True),
          ("pool", Sync(2), 2, False),
          ("async", _LEDGER_ASYNC, 1, False),
          ("scale", Scale(1, eval_mode="none", kwargs=_HALF), 1, False),
          ("scale_faults", Scale(2, wave=2, eval_mode="none",
                                 kwargs={"min_clients": 4}), 1, True),
          ("scale_pool", Scale(2, virtual=True, resident_limit=1,
                               eval_mode="none", kwargs=_HALF), 1, False),
          ("checkpoint", Sync(2, checkpoint=1), 1, False),
          ("async_faults", _LEDGER_ASYNC, 1, True))
      for a in _FS),
    Cell("ledger/sync-salientgrads", "salientgrads", Sync(2)),
    *(Cell(f"parallel/{a}-{name}{'+faults' * f}", a, Sync(2), workers=w,
           faults=f)
      for a in ("fedavg", "spatl", "fedprox") for f in (False, True)
      for name, w in (("serial", 1), ("pool", 2))),
    Cell("parallel/fedavg-idle", "fedavg",
         Sync(3, kwargs={"sample_ratio": 0.25})),
    Cell("parallel/fedavg-idle-workers3", "fedavg",
         Sync(3, kwargs={"sample_ratio": 0.25}), workers=3),
    Cell("merge/fedavg-serial", "fedavg", Sync(2), faults=True),
    Cell("merge/fedavg-pool", "fedavg", Sync(2), workers=2, faults=True),
    *(Cell(f"kernel/{a}-{name}", a, recipe, workers=w)
      for a in _FS
      for name, recipe, w in (
          ("serial", Sync(2, evaluate=True), 1),
          ("oracle", Sync(2, oracle=True, evaluate=True), 1),
          ("pool", Sync(2), 2))),
    *(Cell(f"compile/{a}-{'replay' if c else 'eager'}{'+faults' * f}", a,
           Sync(2), compile=c, faults=f)
      for a in _FS for c in (False, True) for f in (False, True)),
    Cell("compile/fedavg-replay-workers2", "fedavg", Sync(2), workers=2,
         compile=True),
    *(Cell(f"compile/spatl-{'replay' if c else 'eager'}-workers2", "spatl",
           Sync(2), workers=2, compile=c) for c in (False, True)),
    *(Cell(f"streaming/{a}-{name}", a, recipe, workers=w, faults=f)
      for name, recipe, w, f, algorithms in (
          ("sync", Sync(2), 1, False, _FSS),
          ("sync+faults", Sync(2), 1, True, _FSS),
          ("wave1", Scale(2, wave=1), 1, False, _FS),
          ("wave3", Scale(2, wave=3), 1, False, _FS),
          ("virtual", _VIRTUAL, 1, False, _FS),
          ("spill", Scale(2), 1, False, ("scaffold",)),
          ("virtual-workers2", _VIRTUAL, 2, False, ("fedavg",)),
          ("spilled-wave2", _WAVE2, 1, True, _FSS),
          ("virtual+faults", _VIRTUAL, 1, True, _FSS),
          ("workers2", _WAVE2, 2, True, _FSS))
      for a in algorithms),
    *(Cell(f"routes/{a}", a, Updates())
      for a in (*sorted(ALGORITHMS), "spatl", "stubavg")),
    *(Cell(f"quant/fedavg-int{b}", "fedavg", Sync(2), quant=b)
      for b in (8, 4)),
]
CELL = {cell.id: cell for cell in CELLS}


def params(matrix: str, *names: str) -> list:
    """The matrix's slice, one ``pytest.param`` per cell, its pytest id
    and marks attached; with ``names``, only the cells whose pytest id
    ends in ``-<name>`` for one of them."""
    prefix = f"{matrix}/"
    return [pytest.param(cell, id=cell.id[len(prefix):], marks=cell.marks)
            for cell in CELLS if cell.id.startswith(prefix)
            and (not names or cell.id.endswith(
                tuple(f"-{name}" for name in names)))]


def _cell(cell: Cell | str) -> Cell:
    return CELL[cell] if isinstance(cell, str) else cell


# ------------------------------------------------------------------ build

def build(cell: Cell | str, root):
    """The cell's ready driver; its stores and spills live under ``root``."""
    cell = _cell(cell)
    spec, recipe = MATRICES[cell.matrix], cell.driver
    root = Path(root)
    if spec.setting == "config":
        cfg = config_for("tiny", rounds=2, seed=0, workers=cell.workers,
                         compile=cell.compile, quant_bits=cell.quant,
                         **spec.kwargs, **(spec.faults if cell.faults else {}))
        fn, members = make_setting(cfg)
        return make_algorithm(cell.algorithm, cfg, fn, members)
    kwargs = {**spec.kwargs, **getattr(recipe, "kwargs", {}),
              **(spec.faults if cell.faults else {})}
    if cell.workers != 1:
        kwargs["executor"] = make_executor(cell.workers)
    if cell.compile:
        kwargs["compile_steps"] = True
    if cell.quant != 32:
        kwargs["quant"] = make_quant_config(cell.quant)
    pool = None
    if isinstance(recipe, Scale) and recipe.virtual:
        pool = virtual_pool(root / "store", spec.setting,
                            recipe.resident_limit)
    algo = algorithm(cell.algorithm, model_fn(spec.setting),
                     pool.clients() if pool else clients(spec.setting),
                     **kwargs)
    if isinstance(recipe, Async):
        return AsyncFederatedRunner(algo, recipe.profile, recipe.config)
    if isinstance(recipe, Scale):
        return ScaleRunner(algo, pool=pool, spill_dir=root / "spills",
                           eval_mode=recipe.eval_mode, wave=recipe.wave)
    return algo


class _Pickled(pickle.Pickler):
    """A live run pickled whole; a function (a setting's ``model_fn``
    lambda, say) by its name."""

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType):
            return str, (obj.__qualname__,)
        return NotImplemented


def save_unchanged(save, driver, path) -> None:
    """``save(driver, path)``, asserting it left ``driver`` byte-for-byte
    as it found it, pickled whole: server and client state, jobs,
    snapshots, clock, buffer, counters.  Only the lazy downlink version
    table may move (a save reads ``worker_sync_state()``, which brings it
    up to date), so it is brought up to date first; at a round boundary
    the next download would do the same.  So a sync run that saves there
    and goes on is the straight run; every reference that saves does it
    through here."""
    getattr(driver, "algo", driver).worker_sync_state()
    pickled = [io.BytesIO(), io.BytesIO()]
    _Pickled(pickled[0]).dump(driver)
    save(driver, path)
    _Pickled(pickled[1]).dump(driver)
    assert pickled[0].getvalue() == pickled[1].getvalue(), \
        f"{save.__name__} changed the run it saved"


def _rounds(algo, n: int) -> list:
    start = algo.rounds_completed
    return [algo.run_round(r) for r in range(start, start + n)]


def _run(recipe, make, root) -> tuple:
    """``recipe`` on the driver ``make()`` returns:
    ``(the driver it ended on, its round / step results, extra)``."""
    root, extra, driver = Path(root), {}, make()
    if isinstance(recipe, Updates):
        extra["updates"] = [driver.local_update(c, 0) for c in driver.clients]
        return driver, [], extra
    if isinstance(recipe, Scale):
        return driver, driver.run(recipe.rounds), extra
    if isinstance(recipe, Async):
        driver.run(steps=recipe.steps)
        extra["counters"] = dict(driver.counters)
        return driver, driver.step_results, extra
    results = _rounds(driver, recipe.checkpoint or recipe.rounds)
    if recipe.checkpoint:
        save_unchanged(save_checkpoint, driver, root / "checkpoint.npz")
        extra["checkpoint"] = (root / "checkpoint.npz").read_bytes()
        if recipe.restart:
            driver = make()
            load_checkpoint(driver, root / "checkpoint.npz")
        results += _rounds(driver, recipe.rounds - recipe.checkpoint)
    if recipe.evaluate:
        extra["evaluate"] = driver.clients[0].evaluate(driver.global_model)
    return driver, results, extra


# ---------------------------------------------------------------- freeze

@dataclasses.dataclass(frozen=True)
class Run:
    """A finished run, frozen: nothing here is shared with a live object."""
    server: bytes           # serialize_state(worker_sync_state())
    model: bytes            # serialize_state(global_model.state_dict())
    fingerprint: int        # state_fingerprint(worker_sync_state())
    results: tuple          # RoundResult / StepResult copies
    ledger: tuple           # (uplink, downlink) copies
    fault_stats: dict
    counters: dict          # the metric counters the run recorded
    clients: tuple          # encode_client_state(local_state), per client
    rounds_completed: int
    downlink_nbytes: int    # payload_nbytes(downlink_state())
    extra: dict             # what a recipe adds: checkpoint, updates, ...

    @property
    def ledger_bytes(self) -> int:
        """``CommLedger.total_bytes()`` of the run."""
        return sum(n for direction in self.ledger
                   for per_client in direction.values()
                   for n in per_client.values())


def _close(driver) -> None:
    algo = getattr(driver, "algo", driver)
    algo.close()
    if isinstance(driver, ScaleRunner):
        driver.close()
        if driver.pool is not None:
            driver.pool.store.close()


def freeze(driver, results=(), counters=None, extra=None) -> Run:
    """``driver``'s algorithm as it stands, frozen."""
    algo = getattr(driver, "algo", driver)
    server = algo.worker_sync_state()
    return Run(
        server=serialize_state(server),
        model=serialize_state(dict(algo.global_model.state_dict())),
        fingerprint=state_fingerprint(server),
        results=tuple(copy.deepcopy(results)),
        ledger=copy.deepcopy((algo.ledger.uplink, algo.ledger.downlink)),
        fault_stats=algo.fault_stats.as_dict(),
        counters=dict(counters or {}),
        clients=tuple(encode_client_state(c.local_state)
                      for c in algo.clients),
        rounds_completed=algo.rounds_completed,
        downlink_nbytes=payload_nbytes(algo.downlink_state()),
        extra=dict(extra or {}))


def play(recipe, make, root, *, traced: bool = False) -> Run:
    """Run ``recipe`` on the driver ``make()`` builds, under a fresh
    metrics registry, the reference kernels for an oracle recipe and,
    when ``traced``, a tracer that sees construction too (SalientGrads
    charges its mask bootstrap there); freeze what it ended on and close
    it.  A test that needs a driver no cell builds plays a recipe on it."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    opened = []

    def opening():
        opened.append(make())
        return opened[-1]

    try:
        with contextlib.ExitStack() as stack:
            if getattr(recipe, "oracle", False):
                stack.enter_context(reference_kernels())
            tracer = stack.enter_context(tracing()) if traced else None
            ended, results, extra = _run(recipe, opening, root)
            if tracer is not None:
                extra["trace"] = {
                    "kept": get_tracer() is tracer,
                    "codec": codec_byte_totals(tracer),
                    "transfer": (span_attr_total(tracer, "download", "bytes")
                                 + span_attr_total(tracer, "upload", "bytes")),
                    "spans": Counter(s.name for s in tracer.spans)}
            return freeze(ended, results, registry.snapshot()["counters"],
                          extra)
    finally:
        set_registry(previous)
        for driver in opened:        # a restart opens a second one
            _close(driver)


def measure(cell: Cell | str, root) -> Run:
    """The cell built in ``root``, its recipe played and frozen."""
    cell = _cell(cell)
    return play(cell.driver, functools.partial(build, cell, root), root,
                traced=MATRICES[cell.matrix].traced)


_REFERENCES: dict[Cell, Run] = {}


def reference(cell: Cell | str) -> Run:
    """The cell's uninterrupted run, trained on first use and kept for
    the session; each call hands out its own copy."""
    cell = _cell(cell)
    if cell not in _REFERENCES:
        with tempfile.TemporaryDirectory(prefix="repro-cell-") as root:
            _REFERENCES[cell] = measure(cell, root)
    return copy.deepcopy(_REFERENCES[cell])
