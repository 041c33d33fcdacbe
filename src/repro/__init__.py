"""repro — reproduction of "Identifying Energy-Efficient Concurrency Levels
Using Machine Learning" (Curtis-Maury et al., 2007).

The package is organized bottom-up:

* :mod:`repro.machine` — the simulated quad-core Xeon platform (topology,
  shared caches, front-side bus, CPI accounting, PAPI-like counters, wall
  power);
* :mod:`repro.workloads` — NAS-Parallel-Benchmark-like synthetic workloads
  plus a random workload generator;
* :mod:`repro.openmp` — an OpenMP-style parallel-region runtime with
  adjustable concurrency and thread placement;
* :mod:`repro.ann` — a from-scratch feed-forward neural network library
  (backpropagation, early stopping, cross-validation ensembles);
* :mod:`repro.core` — ACTOR, the paper's adaptive concurrency-throttling
  runtime: counter sampling, ANN-based IPC prediction, configuration
  selection and the comparison policies (oracles, search, regression);
* :mod:`repro.service` — adaptation-as-a-service: a micro-batching asyncio
  server that coalesces phase samples from many concurrent clients and
  scores each batch through one vectorized prediction (or grid, or fleet
  schedule) pass, with backpressure, metrics, a JSON-lines TCP endpoint
  and client shims;
* :mod:`repro.store` — the durable shared execution-memo store: an
  append-only segment log (atomic publication, torn-tail crash recovery,
  cross-revision schema guards) with non-blocking compaction — run in the
  background by a store-driven policy when the log outgrows its
  thresholds — so sweeps and adaptation servers warm-start across
  process restarts;
* :mod:`repro.analysis` — speedup/power/energy/ED² metrics and reporting;
* :mod:`repro.experiments` — drivers that regenerate every figure of the
  paper's evaluation.

Quickstart::

    from repro.machine import Machine
    from repro.workloads import sp
    from repro.openmp import OpenMPRuntime
    from repro.core import ACTOR, PredictionPolicy, train_default_predictor

    machine = Machine()
    predictor = train_default_predictor(machine, exclude="SP")
    runtime = OpenMPRuntime(machine)
    actor = ACTOR(runtime, policy=PredictionPolicy(predictor))
    report = actor.run(sp())
    print(report.summary())
"""

from .version import PAPER, __version__

__all__ = ["PAPER", "__version__"]
