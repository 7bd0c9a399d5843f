"""Monte-Carlo calibration of null critical values and empirical p-values.

Because every statistic is invariant under positive diagonal rescaling of
the precision block, the null distribution can be simulated once and for
all from Wishart draws with identity parameter; critical values are the
empirical upper quantiles of those null samples. Replicate r always uses
random substream r of the master seed, so tables are bit-identical no
matter how the replicates are scheduled or chunked; the substreams of a
chunk are seeded together, bit for bit as one at a time. The closed-form
and limit laws live with the calibrated ones in report.resolve_criticals.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import signal
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, linalg
from .errors import (
    BadDimension,
    DomainError,
    MissingNullSample,
    ParseError,
    WorkerFailed,
)
from .randmat import bartlett_factor, substreams
from .teststats import FactorModelSpec, _pair_transform, kernel_doubles, stats_from_factors

DEFAULT_MASTER_SEED = 42
DEFAULT_ALPHAS = (0.1, 0.05, 0.01, 0.005)
DEFAULT_REPS = 100_000
MIN_REPS = 1_000
# Fewest replicates worth a process of their own, unless a chunk is smaller.
# On 2 cores, two 500-replicate shares ran as fast as one process at p = 5 and
# faster at p = 20; two 350-replicate shares ran slower at p = 5 and 10.
MIN_SHARE = 500

# Every statistic the engine samples, as read from a kernel, one value per
# dataset. The first five can be calibrated into tables, the first three being
# the raw statistics the global tests compare; the last two are single
# coordinates (first pair, first column) for distribution checks.
READERS = {
    "T_el": lambda k: k.t_el,
    "T_pr": lambda k: k.t_j.max(axis=1),
    "T_LR": lambda k: k.t_lr,
    "ln_T_LR_star": lambda k: k.ln_t_lr_star,
    "T_LR_standardized": lambda k: asymptotics.tlr_standardize(k.ln_t_lr_star, k.p, k.t_eff, k.K),
    "T_ij_21": lambda k: _pair_transform(k._g2[:, 0], k.dof_n),
    "T_j_1": lambda k: k.t_j[:, 0],
}
STATISTICS = tuple(READERS)[:5]
MARGINAL_STATISTICS = tuple(READERS)[5:]

_SCHEMA = "factorlens/1"
_DF_CONVENTION = "wishart(T_eff - K) for the inverse precision block"


@dataclass(frozen=True)
class CriticalValueTable:
    """Empirical null quantiles of one statistic at fixed dimensions."""

    statistic: str
    p: int
    T: int
    K: int
    demeaned: bool
    reps: int
    master_seed: int
    alphas: tuple[float, ...]
    critical_values: tuple[float, ...]
    null_sample: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.statistic not in STATISTICS:
            raise DomainError(f"unknown statistic {self.statistic!r}")
        if self.reps < MIN_REPS:
            raise DomainError(f"reps must be >= {MIN_REPS}, got {self.reps}")
        if len(self.alphas) != len(self.critical_values):
            raise BadDimension("alphas and critical_values differ in length")
        order = np.argsort(self.alphas)
        cv = np.asarray(self.critical_values)[order]
        if np.any(np.diff(cv) > 1e-12):
            raise DomainError("critical values must be nonincreasing in alpha")
        if self.null_sample is not None:
            # a copy, so that freezing it leaves the caller's array writeable
            arr = np.array(self.null_sample, dtype=np.float64)
            # empirical_pvalue bisects the sample and the report cites reps
            if arr.shape != (self.reps,):
                raise DomainError(
                    f"{self.statistic} null sample has shape {arr.shape}, "
                    f"expected ({self.reps},) for reps={self.reps}"
                )
            if not np.isfinite(arr).all():
                raise DomainError(f"{self.statistic} null sample has non-finite values")
            if np.any(arr[1:] < arr[:-1]):
                raise DomainError(f"{self.statistic} null sample is not in ascending order")
            arr.flags.writeable = False
            object.__setattr__(self, "null_sample", arr)

    def critical_value(self, alpha: float) -> float:
        for a, cv in zip(self.alphas, self.critical_values):
            if math.isclose(a, alpha, rel_tol=1e-9, abs_tol=1e-12):
                return cv
        raise DomainError(f"alpha={alpha} not in table alphas {self.alphas}")

    def to_json_dict(self) -> dict:
        doc = {
            "schema": _SCHEMA,
            "statistic": self.statistic,
            "p": self.p,
            "T": self.T,
            "K": self.K,
            "demeaned": self.demeaned,
            "reps": self.reps,
            "master_seed": self.master_seed,
            "alphas": list(self.alphas),
            "critical_values": list(self.critical_values),
            "df_convention": _DF_CONVENTION,
            "null_sample": None
            if self.null_sample is None
            else self.null_sample.tolist(),
        }
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CriticalValueTable":
        sample = doc.get("null_sample")
        return cls(
            statistic=doc["statistic"],
            p=int(doc["p"]),
            T=int(doc["T"]),
            K=int(doc["K"]),
            demeaned=bool(doc["demeaned"]),
            reps=int(doc["reps"]),
            master_seed=int(doc["master_seed"]),
            alphas=tuple(float(a) for a in doc["alphas"]),
            critical_values=tuple(float(v) for v in doc["critical_values"]),
            null_sample=None if sample is None else np.asarray(sample, dtype=float),
        )


def default_chunk(p: int) -> int:
    """Datasets per kernel run at p, keeping the kernel's work arrays near 48 MiB."""
    return max(1, min(4096, 48 * 2**20 // (8 * kernel_doubles(p))))


def simulate_null_statistics(
    statistics,
    p: int,
    T: int,
    K: int,
    *,
    reps: int,
    master_seed: int,
    demeaned: bool = False,
    chunk_size: int | None = None,
) -> dict[str, np.ndarray]:
    """Null samples of the requested statistics over seeded Wishart replicates.

    Replicate r draws its Bartlett factor from substream (master_seed, r);
    the statistics kernel runs on chunks of factors, but each replicate's
    result is independent of the chunking. The replicates are split into n
    contiguous ranges of equal size (to one replicate), each run a chunk at
    a time, where n is the CPU count of _processes capped so that every
    range holds at least min(chunk, MIN_SHARE) replicates: a run of fewer
    than twice that is one range and forks nothing. This process computes
    the last range, and forked children compute the others and send their
    blocks back through pipes. The call holds linalg.BLAS_PIN from before
    the first fork until every child is reaped, so the nested pins of the
    kernel's factorizations and inverses set no thread count in any process.
    """
    statistics = tuple(statistics)
    if not statistics:
        raise DomainError("no statistics requested")
    for i, s in enumerate(statistics):
        if s not in READERS:
            raise DomainError(f"unknown statistic {s!r}")
        if s in statistics[:i]:
            raise DomainError(f"statistic {s!r} requested twice")
    t_eff = FactorModelSpec(p=p, K=K, T=T, demeaned=demeaned).t_eff
    if reps < 1:
        raise DomainError("reps must be positive")
    chunk = min(chunk_size or default_chunk(p), reps)

    def run(start: int, stop: int, block: np.ndarray) -> None:
        """Replicates [start, stop) into block, one row per statistic, a chunk at a time."""
        # one buffer for every chunk: Bartlett writes only the lower triangle,
        # so the strict upper one stays zero
        buffer = np.zeros((min(chunk, stop - start), p, p))
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            factors = buffer[: hi - lo]
            for i, rng in enumerate(substreams(master_seed, lo, hi)):
                bartlett_factor(p, t_eff - K, rng, out=factors[i])
            kernel = stats_from_factors(factors, t_eff, K)
            for row, s in zip(block, statistics):
                row[lo - start : hi - start] = READERS[s](kernel)
            del kernel  # release this chunk's arrays before drawing the next

    out = np.empty((len(statistics), reps))
    n = min(_processes(), reps // min(chunk, MIN_SHARE))  # chunk <= reps, so n >= 1
    edges = [reps * i // n for i in range(n + 1)]
    workers = []
    # the one BLAS pin, entered before the first fork: OpenBLAS shuts its
    # thread pool down at a fork, and a child leaving its own pin would
    # restart it, with a helper thread that spins on another worker's core
    with linalg.BLAS_PIN or contextlib.nullcontext():
        try:
            for start, stop in zip(edges[:-2], edges[1:-1]):
                workers.append(_Worker(run, start, stop, len(statistics)))
            run(edges[-2], reps, out[:, edges[-2] :])
            for worker in workers:
                worker.join(out)
        finally:
            for worker in workers:
                worker.reap()
    return dict(zip(statistics, out))


def _processes() -> int:
    """Processes a run may use: 1, or every CPU this process may run on.

    Forking needs Linux and os.fork, and no other Python thread: a fork
    copies only the calling thread, and a lock another thread holds would
    stay held in the child. BLAS must be pinned to one thread (linalg's
    one pin, BLAS_PIN), or each process would run a thread per core;
    simulate_null_statistics enters that pin before it forks.
    """
    if (
        sys.platform != "linux"
        or not hasattr(os, "fork")
        or linalg.BLAS_PIN is None
        or threading.active_count() > 1
    ):
        return 1
    return len(os.sched_getaffinity(0))


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


class _Worker:
    """A forked child that runs work on replicates [start, stop) and pipes back the block."""

    def __init__(self, work, start: int, stop: int, rows: int) -> None:
        self.start, self.stop, self.rows = start, stop, rows
        self.pid = self.fd = None
        parent = os.getpid()
        read, write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            os.close(read)
            self._serve(work, write, parent)  # never returns
        os.close(write)
        self.pid, self.fd = pid, read

    def _serve(self, work, fd: int, parent: int) -> None:
        """The child: one status byte, then the block (0) or the error's text (1); then exit."""
        status = 1
        try:
            # a parent killed by a signal reaps no child, so die with it
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != parent:
                return
            try:
                block = np.empty((self.rows, self.stop - self.start))
                work(self.start, self.stop, block)
                head, body = b"\0", block
            except BaseException as exc:  # the parent reports it, naming the range
                head, body = b"\1", f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")
            with open(fd, "wb") as fh:
                fh.write(head)
                fh.write(body)
            status = 0
        finally:
            os._exit(status)

    def join(self, out: np.ndarray) -> None:
        """Read the child's block into out's columns [start, stop) and reap the child."""
        fh, self.fd = open(self.fd, "rb"), None
        with fh:
            data = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        size = 1 + 8 * self.rows * (self.stop - self.start)
        if data[:1] == b"\0" and len(data) == size and status == 0:
            out[:, self.start : self.stop] = np.frombuffer(data, offset=1).reshape(self.rows, -1)
            return
        if data[:1] == b"\1":
            reason = data[1:].decode("utf-8", "replace")
        else:
            reason = f"the worker process ended with status {os.waitstatus_to_exitcode(status)}"
        raise WorkerFailed(f"replicates {self.start} to {self.stop - 1}: {reason}")

    def reap(self) -> None:
        """Stop and wait for the child if it is still unjoined; idempotent."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def calibrate_many(
    statistics,
    p: int,
    T: int,
    K: int,
    *,
    demeaned: bool = False,
    alphas=DEFAULT_ALPHAS,
    reps: int = DEFAULT_REPS,
    master_seed: int = DEFAULT_MASTER_SEED,
    keep_null_sample: bool = False,
) -> dict[str, CriticalValueTable]:
    """Calibrate several statistics from one shared set of null draws."""
    statistics = tuple(statistics)
    for s in statistics:
        if s not in STATISTICS:
            raise DomainError(f"cannot calibrate unknown statistic {s!r}")
    if reps < MIN_REPS:
        raise DomainError(f"reps must be >= {MIN_REPS}, got {reps}")
    alphas = tuple(float(a) for a in alphas)
    if not alphas or not all(0.0 < a < 1.0 for a in alphas):
        raise DomainError(f"alphas must lie in (0, 1), got {alphas}")
    samples = simulate_null_statistics(
        statistics,
        p,
        T,
        K,
        reps=reps,
        master_seed=master_seed,
        demeaned=demeaned,
    )
    tables = {}
    for s in statistics:
        sample = np.sort(samples[s])
        levels = [1.0 - a for a in alphas]
        cv = np.quantile(sample, levels)  # type-7 linear interpolation
        tables[s] = CriticalValueTable(
            statistic=s,
            p=p,
            T=T,
            K=K,
            demeaned=demeaned,
            reps=reps,
            master_seed=master_seed,
            alphas=alphas,
            critical_values=tuple(float(x) for x in cv),
            null_sample=sample if keep_null_sample else None,
        )
    return tables


def empirical_pvalue(observed, table: CriticalValueTable, add_one: bool = False):
    """Right-tail proportion of the retained null sample at or above observed.

    The plain proportion can be exactly zero; add_one=True switches to the
    (1 + count) / (1 + reps) convention. observed may be an array; each
    entry equals the scalar call bit for bit, and a scalar gives a float.
    """
    if table.null_sample is None:
        raise MissingNullSample(
            "table was calibrated without keep_null_sample=True"
        )
    sample = table.null_sample  # sorted ascending
    count = sample.size - np.searchsorted(sample, observed, side="left")
    if add_one:
        share = (1.0 + count) / (1.0 + sample.size)
    else:
        share = count / sample.size
    return float(share) if np.ndim(observed) == 0 else share


def save_tables_json(tables, path) -> None:
    """Write one or more tables as a single JSON document."""
    docs = [t.to_json_dict() for t in tables]
    payload = {"schema": _SCHEMA, "tables": docs}
    # one line: json.dumps takes the C encoder, which json.dump never does
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")


def load_tables_json(path) -> list[CriticalValueTable]:
    """Read tables written by save_tables_json (or a single-table document).

    A file that is not such a document raises ParseError naming the file; a
    table that its constructor refuses raises that refusal's error, prefixed
    with the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParseError(f"{path}: not a JSON document: {exc}") from None
    docs = payload.get("tables", [payload]) if isinstance(payload, dict) else None
    if not (isinstance(docs, list) and all(isinstance(d, dict) for d in docs)):
        raise ParseError(f"{path}: expected a table object or an object with a 'tables' list")
    try:
        tables = [CriticalValueTable.from_json_dict(d) for d in docs]
    except KeyError as exc:
        raise ParseError(f"{path}: a table has no {exc.args[0]!r} entry") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed table: {exc}") from None
    except (BadDimension, DomainError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    for table in tables:
        if not all(0.0 < a < 1.0 for a in table.alphas):  # NaN fails too
            raise ParseError(
                f"{path}: {table.statistic} alphas must lie in (0, 1), got {table.alphas}"
            )
        if table.null_sample is None:
            continue
        # the values calibrate_many stores: type-7 quantiles of the same sample
        expected = np.quantile(table.null_sample, [1.0 - a for a in table.alphas])
        wrong = np.flatnonzero(~np.isclose(table.critical_values, expected, rtol=1e-12, atol=0.0))
        if wrong.size:
            i = wrong[0]
            raise ParseError(
                f"{path}: {table.statistic} critical value {table.critical_values[i]!r} "
                f"at alpha={table.alphas[i]} is not the 1 - alpha quantile of the table's null sample"
            )
    return tables


def tables_to_csv(tables, path) -> None:
    """Flat CSV export: statistic,p,T,K,alpha,critical_value."""
    lines = ["statistic,p,T,K,alpha,critical_value"]
    for t in tables:
        for a, cv in zip(t.alphas, t.critical_values):
            lines.append(f"{t.statistic},{t.p},{t.T},{t.K},{a:.10g},{cv:.10g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
