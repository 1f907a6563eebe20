"""The acceptance tests' benchmark training runs, trained on every core.

A job is ``(proxy_corr, train_config, n)``: train the default
architecture with ``train_config`` on the benchmark table of ``n`` rows
at that proxy correlation, then score its test split. :func:`train_runs`
trains a list of jobs in a ``spawn`` process pool, each worker limited
to one BLAS thread so that the processes do not oversubscribe the
cores, or in this process when there is one core. Every run is the same
deterministic computation either way, so a pooled run returns the bits
an in-process run returns.
"""

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from fairint.data import split, synth_generate
from fairint.model import ModelConfig
from fairint.training import evaluate_model, train

# read by each worker's BLAS when the worker loads numpy
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def benchmark_dataset(proxy_corr, n=20000):
    """The benchmark table, split; frozen, so every caller in a process can share it."""
    raw = synth_generate(n=n, bias_strength=2.0, proxy_corr=proxy_corr, seed=1)
    return split(raw, (0.7, 0.15, 0.15), seed=1)


def train_run(proxy_corr, train_config, n=20000):
    """One job's (parameter arrays, history, test report)."""
    dataset = benchmark_dataset(proxy_corr, n)
    model, history = train(dataset, ModelConfig(), train_config)
    return model.parameter_arrays(), history, evaluate_model(model, dataset, "test")


def train_runs(jobs, workers=None):
    """:func:`train_run` of each job, in order, in a pool of ``workers`` processes
    (by default one per core, at most one per job); one worker trains in this process."""
    jobs = list(jobs)
    workers = min(os.cpu_count() or 1, len(jobs)) if workers is None else workers
    if workers <= 1:
        return [train_run(*job) for job in jobs]
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(train_run, *zip(*jobs)))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
