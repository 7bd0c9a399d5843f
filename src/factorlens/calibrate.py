"""Monte-Carlo calibration of null critical values and empirical p-values.

Because every statistic is invariant under positive diagonal rescaling of
the precision block, the null distribution can be simulated once and for
all from Wishart draws with identity parameter; critical values are the
empirical upper quantiles of those null samples. Replicate r always uses
random substream r of the master seed, so tables are bit-identical no
matter how the replicates are scheduled or chunked; the substreams of a
chunk are seeded together, bit for bit as one at a time. Forked workers
write their replicate ranges into one shared output. The closed-form and
limit laws live with the calibrated ones in report.resolve_criticals.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import mmap
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
    NotPositiveDefinite,
    ParseError,
    WorkerFailed,
)
from .randmat import bartlett_factor, check_seed, substreams
from .teststats import (
    FactorModelSpec,
    FactorStats,
    KernelWorkspace,
    _pair_transform,
    default_chunk,
)

DEFAULT_MASTER_SEED = 42
DEFAULT_ALPHAS = (0.1, 0.05, 0.01, 0.005)
DEFAULT_REPS = 100_000
MIN_REPS = 1_000
# Fewest replicates worth a process of their own, or as many as hold 48 MiB of
# kernel arrays if fewer. On 2 cores, two 500-replicate shares ran as fast as one
# process at p = 5 and faster at p = 20; two of 350 ran slower at p = 5 and 10.
MIN_SHARE, MIN_SHARE_BYTES = 500, 48 * 2**20

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


def _check_calibration(statistic: str, p: int, T: int, K: int, demeaned: bool, reps: int,
                       master_seed: int, alphas: tuple) -> None:
    """The rules a table shares with calibrate_many, which checks them before any draw."""
    if statistic not in STATISTICS:
        raise DomainError(f"unknown statistic {statistic!r}")
    for name, value in (("p", p), ("T", T), ("K", K), ("reps", reps)):
        if isinstance(value, bool) or not hasattr(value, "__index__"):  # a float has none
            raise DomainError(f"{statistic} {name} must be an integer, got {value!r}")
    if not isinstance(demeaned, bool):
        raise DomainError(f"{statistic} demeaned must be true or false, got {demeaned!r}")
    if reps < MIN_REPS:
        raise DomainError(f"reps must be >= {MIN_REPS}, got {reps}")
    check_seed("master_seed", master_seed)
    if not alphas or not all(0.0 < a < 1.0 for a in alphas):  # NaN fails too
        raise DomainError(f"{statistic} alphas must lie in (0, 1), got {alphas}")
    FactorModelSpec(p=p, K=K, T=T, demeaned=demeaned)


@dataclass(frozen=True)
class CriticalValueTable:
    """Empirical null quantiles of one statistic at fixed dimensions, checked where built.

    Every rule of a table holds here, whether it comes from calibrate_many,
    a file or code: a known statistic, integers p, T, K and reps and a bool
    demeaned, FactorModelSpec's dimension rule (table.model), reps >=
    MIN_REPS, an integer 0 <= master_seed < 2**64,
    nonempty alphas in (0, 1), one critical value per alpha, nonincreasing
    in alpha; and a kept null sample finite, ascending, of reps draws, with
    each critical value its type-7 1 - alpha quantile to 1e-12 relative, as
    calibrate_many stores it.
    """

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
        _check_calibration(self.statistic, self.p, self.T, self.K, self.demeaned, self.reps,
                           self.master_seed, self.alphas)
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
            expected = np.quantile(arr, [1.0 - a for a in self.alphas])
            wrong = np.flatnonzero(~np.isclose(self.critical_values, expected, rtol=1e-12, atol=0))
            if wrong.size:
                a, cv = self.alphas[wrong[0]], self.critical_values[wrong[0]]
                raise DomainError(f"{self.statistic} critical value {cv!r} at alpha={a} is not "
                                  "the 1 - alpha quantile of the table's null sample")
            arr.flags.writeable = False
            object.__setattr__(self, "null_sample", arr)

    @property
    def model(self) -> FactorModelSpec:
        """The dimensions the table was calibrated at."""
        return FactorModelSpec(p=self.p, K=self.K, T=self.T, demeaned=self.demeaned)

    def critical_value(self, alpha: float) -> float:
        for a, cv in zip(self.alphas, self.critical_values):
            if math.isclose(a, alpha, rel_tol=1e-9, abs_tol=1e-12):
                return cv
        raise DomainError(f"alpha={alpha} not in table alphas {self.alphas}")

    def to_json_dict(self) -> dict:
        return {
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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CriticalValueTable":
        sample = doc.get("null_sample")
        # the scalars go to the constructor as the file has them, for its checks to judge
        return cls(
            doc["statistic"], doc["p"], doc["T"], doc["K"], doc["demeaned"],
            doc["reps"], doc["master_seed"], tuple(float(a) for a in doc["alphas"]),
            tuple(float(v) for v in doc["critical_values"]),
            None if sample is None else np.asarray(sample, dtype=float),
        )


def simulate_null_statistics(
    statistics,
    p: int,
    T: int,
    K: int,
    *,
    reps: int,
    master_seed: int,
    demeaned: bool = False,
) -> dict[str, np.ndarray]:
    """Null samples of the requested statistics over seeded Wishart replicates.

    Replicate r draws its Bartlett factor from substream (master_seed, r);
    the statistics kernel runs on chunks of factors, but each replicate's
    result is independent of the chunking. The replicates are split into n
    contiguous ranges of equal size (to one replicate), each run a chunk at
    a time through one factor buffer and one KernelWorkspace, where n is
    the CPU count of _processes capped so that every range holds at least a
    share: the least of MIN_SHARE, the replicates whose kernel arrays fill
    MIN_SHARE_BYTES, and reps. A run of fewer than
    two shares is one range and forks nothing. Every input, the master seed
    included, is checked before any draw or fork. The output is one
    anonymous shared mapping: this process computes the last range into it
    and forked children the others, each in its own columns, so a child's
    exit status 0 means its block is in place; a failing child leaves its
    error's text in a shared note for WorkerFailed. The call holds
    linalg.BLAS_PIN from before the first fork until every child is reaped,
    so the nested pins of the kernel's factorizations and inverses set no
    thread count in any process.
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
    check_seed("master_seed", master_seed)
    chunk = min(default_chunk(p), reps)

    def run(start: int, stop: int, block: np.ndarray) -> None:
        """Replicates [start, stop) into block, one row per statistic, a chunk at a time."""
        # one buffer and one kernel workspace for every chunk, built here so
        # that each forked child touches only its own: Bartlett writes only
        # the lower triangle, so the strict upper one stays zero
        buffer = np.zeros((min(chunk, stop - start), p, p))
        work = KernelWorkspace()
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            factors = buffer[: hi - lo]
            for i, rng in enumerate(substreams(master_seed, lo, hi)):
                bartlett_factor(p, t_eff - K, rng, out=factors[i])
            try:  # the kernel checks V on first read, so the clause covers the readers
                kernel = FactorStats(factors, t_eff, K, work)
                for row, s in zip(block, statistics):
                    row[lo - start : hi - start] = READERS[s](kernel)
            except NotPositiveDefinite as exc:
                raise exc.at(lo + exc.index) from None

    # one shared mapping, so that forked children write their columns in place
    out = np.frombuffer(mmap.mmap(-1, 8 * len(statistics) * reps)).reshape(-1, reps)
    share = min(default_chunk(p, MIN_SHARE_BYTES), MIN_SHARE, reps)
    n = min(_processes(), reps // share)  # share <= reps, so n >= 1
    edges = [reps * i // n for i in range(n + 1)]
    workers = []
    # the one BLAS pin, entered before the first fork: OpenBLAS shuts its
    # thread pool down at a fork, and a child leaving its own pin would
    # restart it, with a helper thread that spins on another worker's core
    with linalg.BLAS_PIN or contextlib.nullcontext():
        try:
            for start, stop in zip(edges[:-2], edges[1:-1]):
                workers.append(_Worker(run, start, stop, out))
            run(edges[-2], reps, out[:, edges[-2] :])
            for worker in workers:
                worker.join()
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
    """A forked child that runs work on replicates [start, stop) into out's shared columns."""

    NOTE_BYTES = 4096  # the most failure text a child leaves, truncated to fit

    def __init__(self, work, start: int, stop: int, out: np.ndarray) -> None:
        self.start, self.stop = start, stop
        # shared with the child, which writes "{type}: {message}" here if work raises
        self.note = mmap.mmap(-1, self.NOTE_BYTES)
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid:
            return
        status = 1
        try:
            # a parent killed by a signal reaps no child, so die with it
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() == parent:
                try:
                    work(start, stop, out[:, start:stop])
                    status = 0
                except BaseException as exc:  # the parent reports it, naming the range
                    text = f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")
                    self.note.write(text[: self.NOTE_BYTES])
        finally:
            os._exit(status)

    def join(self) -> None:
        """Reap the child: status 0 means its columns of out are in place."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status == 0:
            return
        reason = self.note[:].rstrip(b"\0").decode("utf-8", "replace")
        if not reason:
            reason = f"the worker process ended with status {os.waitstatus_to_exitcode(status)}"
        raise WorkerFailed(f"replicates {self.start} to {self.stop - 1}: {reason}")

    def reap(self) -> None:
        """Stop and wait for the child if it is still unjoined; idempotent."""
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
    alphas = tuple(float(a) for a in alphas)
    for s in statistics:
        _check_calibration(s, p, T, K, demeaned, reps, master_seed, alphas)
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
        cv = np.quantile(sample, [1.0 - a for a in alphas])  # type-7 linear interpolation
        tables[s] = CriticalValueTable(
            s, p, T, K, demeaned, reps, master_seed, alphas, tuple(float(x) for x in cv),
            sample if keep_null_sample else None,
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
            f"the {table.statistic} table keeps no null sample: calibrate with --keep-null-sample"
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
    """Read the {"schema", "tables": [...]} document that save_tables_json writes.

    This only decodes: a file that is not such a document raises ParseError
    naming the file, and a table that its constructor refuses raises that
    refusal's error, prefixed with the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParseError(f"{path}: not a JSON document: {exc}") from None
    docs = payload.get("tables") if isinstance(payload, dict) else None
    if not (isinstance(docs, list) and all(isinstance(d, dict) for d in docs)):
        raise ParseError(f"{path}: expected an object with a 'tables' list of table objects")
    try:
        return [CriticalValueTable.from_json_dict(d) for d in docs]
    except KeyError as exc:
        raise ParseError(f"{path}: a table has no {exc.args[0]!r} entry") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed table: {exc}") from None
    except (BadDimension, DomainError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def tables_to_csv(tables, path) -> None:
    """Flat CSV export: statistic,p,T,K,alpha,critical_value."""
    lines = ["statistic,p,T,K,alpha,critical_value"]
    for t in tables:
        for a, cv in zip(t.alphas, t.critical_values):
            lines.append(f"{t.statistic},{t.p},{t.T},{t.K},{a:.10g},{cv:.10g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
