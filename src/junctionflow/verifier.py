"""Executable battery of semi-group properties for junction solvers.

Each check runs a black-box semi-group handle (the internal solvers, or
an external process speaking the CSV protocol) on constructed or seeded
random data, all drawn before one batched evolve call, and measures how
badly a structural property is violated:
L1 contraction and the comparison principle, mass conservation,
commutation with constants, finite propagation speed, locality relative
to the single-flux solvers, scale invariance, stationarity of the
admissible junction states, and recovery of the junction cap from the
canonical wedge and step data.  A report collects one record per check
with the measured margin and its allowance.

Margins are normalized so a check passes iff measured <= tolerance;
quantities whose contract is "at least" are stored as violation depths.
"""

from __future__ import annotations

import atexit
import io
import math
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from . import cl_solver as cl
from . import formats
from . import hj_solver as hj
from .errors import GridMismatchError, StepError
from .flux_models import CanonicalDatum, DatumShape
from .junction import JunctionModel, TracePair, germ_contains, germ_dissipative, junction_flux, riemann_traces

#: Seconds one external-solver call may take before the audit gives up on it.
EXTERNAL_TIMEOUT_S = 600.0
#: Most entries one internal march holds as a (states, points) array; a larger batch is
#: marched in chunks, whose buffers (about seven arrays of that size, snapshots aside) this
#: caps.  On 800 cells to t = 1 (2 cores, 1 MB L2, numpy 2.4), 200 ``random_cell_field``
#: densities on the default junction took 0.084-0.088 s in chunks of 40 rows, 0.082-0.086 s
#: in chunks of 80, 0.079-0.083 s as one (200, 800) march, 0.089-0.098 s in chunks of 20 and
#: 0.112-0.116 s in chunks of 10 (medians of five, four runs); on the README junction
#: 0.154-0.161, 0.148-0.151, 0.143-0.146, 0.174-0.186 and 0.229-0.238 s.  Chunks above 40
#: rows gain at most a few percent, so the cap stays for the memory it bounds.
BATCH_ENTRIES = 32_768
# Thread-pool sizes of the OpenMP and BLAS runtimes an external command may load (numpy's
# OpenBLAS among them): unset, each sizes its pool for the whole machine.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


@dataclass
class CheckRecord:
    name: str
    measured: float
    tolerance: float
    scenario: str
    wall_s: float = 0.0  # wall time of the check, set by run_battery

    @property
    def passed(self) -> bool:
        """measured <= tolerance, so a NaN margin fails."""
        return bool(self.measured <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "measured_margin": self.measured,
            "tolerance": self.tolerance,
            "scenario": self.scenario,
            "wall_s": self.wall_s,
        }

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: measured {self.measured:.3e} vs tolerance {self.tolerance:.3e} ({self.scenario})"


@dataclass
class VerificationReport:
    records: list[CheckRecord] = field(default_factory=list)
    seed: int = 0
    identified_limiter: float | None = None

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [r.to_dict() for r in self.records],
        }
        if self.identified_limiter is not None:
            out["identified_limiter"] = self.identified_limiter
        return out

    def summary_lines(self) -> list[str]:
        lines = [r.summary() for r in self.records]
        lines.append(
            f"{'ALL CHECKS PASSED' if self.all_passed else 'CHECK FAILURES PRESENT'}"
            f" ({sum(r.passed for r in self.records)}/{len(self.records)})"
        )
        return lines


@dataclass(frozen=True)
class SemigroupHandle:
    """A semi-group that can be evolved from a state to requested times.

    ``scheme`` names the states it evolves: ``"cl"`` densities (cells)
    or ``"hj"`` potentials (nodes).  ``evolve_cl``/``evolve_hj`` take a
    sequence of states on one grid at one time and return one snapshot
    list per state.  A request (states on the handle's ``grid``, one start
    time, times the single runs accept) is validated once, before any
    march or call; states on another grid are a ``GridMismatchError``.
    With an empty ``command`` the handle marches the states in-process,
    as the rows of one array in chunks of at most ``BATCH_ENTRIES``
    entries, each row bit for bit its single run; a chunk of one state
    is a call of ``solve``/``hj_direct_solve``, the names a benchmark
    tracer counts updates in.  Otherwise each (state, time) is one ask:
    one call of ``command`` with arguments (input CSV path, time elapsed
    since the state's time, output CSV path), its result read back in
    the cell or node CSV schema and labelled with the time asked,
    however often that (state, time) was asked before.  The asks of one
    batch run concurrently, up to one per usable CPU, each with its
    share of those CPUs for the thread pools it starts; the first
    failing ask in (state, time) order is raised.  An ask whose command
    runs past ``timeout`` seconds (it is killed), cannot be started,
    exits non-zero or writes an unusable state is a ``StepError``.  A
    command that is this interpreter on a Python source file
    (``_runs_warm``) runs warm: each pool thread of an evolve starts one
    worker interpreter on its first ask, and each ask is a fork of that
    worker, past its start-up, that runs the script and exits as the one
    call would have (stdin the audit's, stdout discarded, as a call's).
    The evolve ends its workers before it returns or raises.  A worker
    that ends or answers out of protocol is a ``StepError`` too.

    The fields are the handle's parameters, and it is frozen.  ``grid``
    is the ``cl_solver.Grid`` its states live on (by default the desk
    grid, 800 cells on [-2, 2]); ``Grid`` owns the grid rule, and a
    refined handle is ``dataclasses.replace(h, grid=...)``.  What it
    keeps is derived from the fields on first use: an ``"hj"`` handle's
    ``_probes``, the runs of the canonical wedge probes (``WEDGE_PROBES``),
    marched in one batch by the first potential check that reads them;
    ``dataclasses.replace`` makes a new handle that keeps nothing yet.  The
    package copy that external calls import is the process's.
    """

    scheme: str
    model: JunctionModel
    grid: cl.Grid = cl.Grid.from_domain(-2.0, 2.0, 800)
    cfl: float = 0.8
    command: tuple[str, ...] = ()
    timeout: float = EXTERNAL_TIMEOUT_S

    def __post_init__(self):
        if self.scheme not in ("cl", "hj"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (0.0 < self.timeout < math.inf):
            raise ValueError(f"external timeout must be positive, got {self.timeout}")

    def count_steps(self, t_grid: Sequence[float]) -> int:
        legs = cl.plan_march(self.model, self.grid.dx, max(t_grid), self.cfl, t_grid)
        return sum(leg.n_steps for leg in legs)

    def evolve_cl(self, states: Sequence[cl.CellField], snapshot_times: Sequence[float]) -> list[list[cl.CellField]]:
        """Evolve densities on one grid at one time; one snapshot list per state."""
        return self._evolve("cl", states, snapshot_times)

    def evolve_hj(self, states: Sequence[hj.NodeField], snapshot_times: Sequence[float]) -> list[list[hj.NodeField]]:
        """Evolve potentials on one grid at one time; one snapshot list per state."""
        return self._evolve("hj", states, snapshot_times)

    def _evolve(self, scheme, states, snapshot_times):
        # Built per call, so that a march or CSV function swapped on its module (a tracer, a double) is seen.
        single, march, write, read, noun = {
            "cl": (cl.solve, cl._march_cells, formats.write_cell_csv, formats.read_cell_csv, "densities"),
            "hj": (hj.hj_direct_solve, hj._march_nodes, formats.write_node_csv, formats.read_node_csv, "potentials"),
        }[scheme]
        if self.scheme != scheme:
            raise StepError(f"{self.scheme} handle does not evolve {noun}")
        grid, t0 = cl.batch_start(states)
        if grid != self.grid:
            raise GridMismatchError(f"the states live on {grid}, not on the handle's {self.grid}")
        t_end = max(snapshot_times, default=t0)
        if self.command:
            return self._evolve_external(states, grid, cl.check_march(self.cfl, t_end, snapshot_times, t0), write, read)
        legs = cl.plan_march(self.model, grid.dx, t_end, self.cfl, snapshot_times, t0)
        rows = max(1, BATCH_ENTRIES // states[0].values.size)
        out = []
        for k in range(0, len(states), rows):
            chunk = states[k : k + rows]
            if len(chunk) == 1:
                out.append(single(chunk[0], self.model, t_end, self.cfl, snapshot_times))
            else:
                out += march(chunk, self.model, legs, np.stack([s.values for s in chunk]))
        return out

    def _evolve_external(self, states, grid, times, write, read):
        """Snapshots from one ``ask`` per (state, time), mapped on a pool in (state, time) order.

        Inputs are written first, once per state.  An ask runs the command on
        its state's input, reads the answer on ``grid`` and labels it with the
        time asked.  The first failure in (state, time) order is raised: the
        asks not yet started are cancelled and the running ones end within
        their own timeout first.  The pool has one thread per usable CPU (at
        most one per ask); each call's environment sets every ``_THREAD_VARS``
        entry that this process's does not to the usable CPUs over the pool's
        threads, and takes its ``PYTHONPATH`` from ``_child_pythonpath``.

        A command that ``_runs_warm`` accepts runs warm: each pool thread
        starts one ``_WarmWorker`` (same environment, its log in the
        temporary directory) on its first ask, and each of that thread's asks
        is a fork of it, not a ``subprocess.run``.  An ask that times out, or
        a worker that breaks, closes the worker; the thread's next ask starts
        another.  Every other command is one ``subprocess.run`` per ask.  The
        ``finally`` that shuts the pool down ends and reaps every worker, so
        no process outlives the evolve and the handle keeps none.  An
        interrupt (a ``BaseException`` that is not an ``Exception``) first
        cancels the queued asks and sends every started worker SIGTERM, which
        kills its ask in flight; a one-shot ask still runs to its end or its
        timeout.
        """
        # Imported here: concurrent.futures adds a few ms to every import of the verifier, and only audits use it.
        import threading
        from concurrent.futures import ThreadPoolExecutor

        if not times:
            return [[] for _ in states]
        cpus = _usable_cpus()
        workers = min(cpus, len(states) * len(times))
        env = {**dict.fromkeys(_THREAD_VARS, str(cpus // workers)), **os.environ}
        if path := _child_pythonpath(env.get("PYTHONPATH"), env.get("PYTHONPYCACHEPREFIX"), sys.pycache_prefix):
            env["PYTHONPATH"] = path
        warm, local, started = _runs_warm(self.command), threading.local(), []

        def call(argv):
            """(exit status, stderr) of one run of ``argv``."""
            if not warm:
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=self.timeout, env=env)
                return proc.returncode, proc.stderr
            worker = getattr(local, "worker", None)
            if worker is None or worker.closed:
                worker = local.worker = _WarmWorker(self.command, env, td)
                started.append(worker)
            return worker.ask(argv[len(self.command) :], self.timeout)

        def ask(argv, dst, t):
            try:
                status, stderr = call(argv)
            except subprocess.TimeoutExpired as exc:
                raise StepError(f"external semi-group {argv[0]} timed out after {self.timeout:g} s") from exc
            except OSError as exc:
                raise StepError(f"external semi-group {argv[0]} could not be started: {exc}") from exc
            if status != 0:
                raise StepError(f"external semi-group {argv[0]} exited {status}: {stderr.strip()[-500:]}")
            try:
                state = read(dst, grid=grid)
            except (OSError, ValueError) as exc:
                raise StepError(f"external semi-group {argv[0]} wrote an unusable state: {exc}") from exc
            state.time = t
            return state

        with tempfile.TemporaryDirectory(prefix="junctionflow-ext-") as td:
            asks = []
            for i, state in enumerate(states):
                src = Path(td) / f"state_in_{i}.csv"
                write(src, state)
                for k, t in enumerate(times):
                    dst = Path(td) / f"state_out_{i}_{k}.csv"
                    asks.append(([*self.command, str(src), repr(t - state.time), str(dst)], dst, t))
            pool = ThreadPoolExecutor(max_workers=workers)
            try:
                answers = list(pool.map(ask, *zip(*asks)))
            except BaseException as exc:
                if not isinstance(exc, Exception):  # an interrupt: stop the asks in flight, not wait them out
                    pool.shutdown(wait=False, cancel_futures=True)
                    for worker in started:
                        worker.proc.terminate()  # the worker kills its ask
                raise
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
                for worker in started:
                    worker.close()
        return [answers[k : k + len(times)] for k in range(0, len(answers), len(times))]

    @cached_property
    def _probes(self) -> list:
        """(``WEDGE_PROBES`` entry, initial potential, its state at ``WEDGE_T``) per probe, in one batch."""
        grid, a_max = self.grid, self.model.a_max
        data = [
            hj.canonical_node_field(grid, self.model, CanonicalDatum(shape=s, level=frac * a_max))
            for s, frac in WEDGE_PROBES
        ]
        runs = self.evolve_hj(data, [WEDGE_T])
        return list(zip(WEDGE_PROBES, data, (run[-1] for run in runs)))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@cache
def _child_pythonpath(path: str | None, prefix: str | None, pycache_prefix: str | None) -> str | None:
    """The ``PYTHONPATH`` of external calls, made once per process for each set of arguments.

    Under ``PYTHONDONTWRITEBYTECODE`` a child compiles the package anew at
    every import.  If the first ``path`` entry that holds a ``junctionflow``
    holds this one, and no pycache prefix moves the bytecode lookups, the
    package (less its ``__pycache__``) is copied into a temporary directory,
    compiled there, and that directory goes in just before the entry: a
    child then imports the same source from the same place in its path,
    compiled.  The process that made the copy, not a forked child of it,
    removes it at exit.  ``None`` passes ``PYTHONPATH`` on as it is.
    """
    from importlib.machinery import PathFinder

    if not path or prefix or pycache_prefix:
        return None
    package = Path(__file__).resolve().parent
    entries = path.split(os.pathsep)
    for k, entry in enumerate(entries):
        spec = PathFinder.find_spec(__package__, [entry])
        if spec is None:
            continue
        if spec.origin is None or Path(spec.origin).resolve().parent != package:
            return None  # the children import another junctionflow
        import py_compile

        copies, maker = tempfile.mkdtemp(prefix="junctionflow-pyc-"), os.getpid()
        atexit.register(lambda: os.getpid() == maker and shutil.rmtree(copies, ignore_errors=True))
        copy = Path(copies) / __package__
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        for source in copy.rglob("*.py"):
            py_compile.compile(str(source), doraise=True)
        return os.pathsep.join([*entries[:k], copies, *entries[k:]])
    return None


def _runs_warm(command: Sequence[str]) -> bool:
    """Whether ``command`` is this interpreter running a Python source file, on a platform that can fork it.

    Its first word must resolve (``shutil.which``, then ``os.path.realpath``)
    to ``sys.executable``'s file, and its second must be an existing file that
    does not start with ``-``; neither a zip application nor compiled bytecode
    (which ``python`` would also run) is source.  The platform needs
    ``os.fork`` and ``os.waitid``.
    """
    import zipimport
    from importlib.util import MAGIC_NUMBER

    if len(command) < 2 or not (hasattr(os, "fork") and hasattr(os, "waitid") and sys.executable):
        return False
    found, script = shutil.which(command[0]), command[1]
    if found is None or os.path.realpath(found) != os.path.realpath(sys.executable):
        return False
    if script.startswith("-") or not os.path.isfile(script) or script.endswith(".pyc"):
        return False
    try:
        zipimport.zipimporter(script)
        return False
    except zipimport.ZipImportError:
        pass
    try:
        with open(script, "rb") as fh:
            return fh.read(2) != MAGIC_NUMBER[:2]
    except OSError:  # left to the fresh call, whose interpreter reports it
        return False


#: The program a ``_WarmWorker`` runs.
_WORKER = Path(__file__).with_name("_worker.py")


class _WarmWorker:
    """A ``_worker.py`` interpreter that runs a Python command's script once per ask, each run a fork of it.

    It is ``command[0]`` running ``_WORKER`` in ``env``, with the audit's
    stdin, its stdout discarded, and its stderr (its asks' too) in a log in
    ``directory``, which a failed ask reads from where the ask began.  The
    protocol runs on two pipes of its own: one line per ask, one line (the
    exit status) per reply.  An ask that runs past its timeout, or a worker
    that ends or replies anything else, closes the worker.
    """

    def __init__(self, command: Sequence[str], env: dict, directory: str):
        log, self.log = tempfile.mkstemp(prefix="worker-", suffix=".log", dir=directory)
        asks, self._asks = os.pipe()
        self._replies, replies = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [command[0], str(_WORKER), str(asks), str(replies), *command[1:]],
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=env,
                pass_fds=(asks, replies),
            )
        except BaseException:
            os.close(self._asks)
            os.close(self._replies)
            raise
        finally:
            for fd in (log, asks, replies):
                os.close(fd)
        self._poll = select.poll()
        self._poll.register(self._replies, select.POLLIN)
        self._start = 0  # the log's size when the last ask was sent
        self._in_flight = False
        self.closed = False

    def ask(self, args: Sequence[str], timeout: float) -> tuple[int, str]:
        """(exit status, stderr) of one run of the script with ``args`` appended, killed after ``timeout`` s."""
        deadline = time.monotonic() + timeout
        self._start = os.path.getsize(self.log)
        try:
            self._in_flight = True
            try:
                os.write(self._asks, b" ".join(os.fsencode(a).hex().encode() for a in args) + b"\n")
            except BrokenPipeError:  # the worker has ended: the read below finds the end of its replies
                pass
            reply = b""
            while b"\n" not in reply:
                left = deadline - time.monotonic()
                if left <= 0 or not self._poll.poll(left * 1000.0):
                    raise subprocess.TimeoutExpired(self.proc.args, timeout)
                chunk = os.read(self._replies, 4096)
                if not chunk:
                    raise self._broken("ended")
                reply += chunk
            if not reply[:-1].lstrip(b"-").isdigit() or not reply.endswith(b"\n"):
                raise self._broken(f"replied {reply!r}")
            self._in_flight = False
        except BaseException:
            self.close()
            raise
        status = int(reply)
        return status, (self._stderr() if status else "")

    def _stderr(self) -> str:
        """What the log gained since the last ask was sent, decoded as ``subprocess.run(text=True)`` decodes."""
        with open(self.log, "rb") as fh:
            fh.seek(self._start)
            return io.TextIOWrapper(io.BytesIO(fh.read())).read()

    def _broken(self, what: str) -> StepError:
        return StepError(f"external semi-group {self.proc.args[0]}: its worker {what}: {self._stderr().strip()[-500:]}")

    def close(self) -> None:
        """Kill the ask in flight, if any, end the worker and reap it."""
        if self.closed:
            return
        self.closed = True
        if self._in_flight:
            self.proc.terminate()  # the worker kills its ask; a worker still starting up ends
        os.close(self._asks)
        os.close(self._replies)
        self.proc.wait()


# -- seeded data generators -------------------------------------------------


def random_cell_field(
    grid: cl.Grid,
    j: JunctionModel,
    rng: np.random.Generator,
    support: tuple[float, float] = (-0.75, 0.75),
    background: tuple[float, float] | None = None,
    vmax: tuple[float, float] | None = None,
) -> cl.CellField:
    """Piecewise-constant random density equal to the background outside support.

    The default support keeps differences inside the domain of dependence
    of [-2, 2] through t = 1: with open copy-cell boundaries, contraction
    only holds while the data still agree near the edges of the domain.
    Each level is drawn as ``rng.uniform(0, top)`` would draw it, in the
    same order, with one RNG call per array: (left, right) of the
    background, then (left, right) of each piece.
    """
    if background is None:
        background = _side_levels(rng, (j.left.rmax, j.right.rmax))
    if vmax is None:
        vmax = (j.left.rmax, j.right.rmax)
    xs = grid.cell_centers()
    right = xs >= 0.0
    v = np.where(right, background[1], background[0])
    n_pieces = int(rng.integers(2, 7))
    edges = np.sort(rng.uniform(support[0], support[1], size=n_pieces + 1))
    levels = _side_levels(rng, vmax, n_pieces)
    piece = np.searchsorted(edges, xs, side="right") - 1  # the k with edges[k] <= x < edges[k + 1]
    inside = (piece >= 0) & (piece < n_pieces)
    v[inside] = levels[piece[inside], right[inside].astype(int)]
    return cl.CellField(grid=grid, values=v)


def _side_levels(rng: np.random.Generator, top: tuple[float, float], *rows: int) -> np.ndarray:
    """``rows`` (left, right) pairs drawn uniformly from [0, top], as that many ``rng.uniform`` pairs would be."""
    return rng.random((*rows, 2)) * np.asarray(top, dtype=float)


def random_node_field(
    grid: cl.Grid,
    j: JunctionModel,
    rng: np.random.Generator,
    support: tuple[float, float] = (-0.6, 0.6),
    background: tuple[float, float] | None = None,
) -> hj.NodeField:
    """Random potential in the discrete Lip class, slopes random inside support."""
    rho = random_cell_field(grid, j, rng, support=support, background=background)
    u = np.empty(grid.n_cells + 1)
    u[0] = 0.0
    np.cumsum(rho.values * grid.dx, out=u[1:])
    return hj.NodeField(grid=grid, values=u)


# -- CL checks ---------------------------------------------------------------


def check_l1_contraction(h: SemigroupHandle, n_trials: int = 100, seed: int = 0) -> CheckRecord:
    """Distance between two evolutions never exceeds the initial distance."""
    t_grid = (0.25, 0.5, 1.0)
    worst = _contraction_gap(h, n_trials, seed, random_cell_field, h.evolve_cl, cl.l1_distance, t_grid)
    return CheckRecord(
        name="l1_contraction",
        measured=worst,
        tolerance=1e-12 * (1 + h.count_steps(t_grid)),
        scenario=f"{n_trials} random pairs, t in {t_grid}, dx={h.grid.dx:g}",
    )


def _contraction_gap(h, n_trials, seed, draw, evolve, distance, t_grid) -> float:
    """Largest growth of ``distance`` over ``t_grid`` among n_trials random pairs.

    The two fields of a pair share a drawn background; all pairs are
    drawn first, in one RNG stream, and ``evolve`` marches them in one call.
    """
    rng = np.random.default_rng(seed)
    grid = h.grid
    rmax = (h.model.left.rmax, h.model.right.rmax)
    data = []
    for _ in range(n_trials):
        background = _side_levels(rng, rmax)
        data += [draw(grid, h.model, rng, background=background) for _ in range(2)]
    runs = evolve(data, t_grid)
    worst = 0.0
    for a, b, run_a, run_b in zip(data[::2], data[1::2], runs[::2], runs[1::2]):
        d0 = distance(a, b)
        for s_a, s_b in zip(run_a, run_b):
            worst = max(worst, distance(s_a, s_b) - d0)
    return worst


def check_comparison(h: SemigroupHandle, n_trials: int = 20, seed: int = 1) -> CheckRecord:
    """Cellwise-ordered data must stay ordered: monotone semi-group."""
    t_grid = (0.5, 1.0)
    rng = np.random.default_rng(seed)
    grid = h.grid
    caps = np.where(grid.cell_centers() < 0.0, h.model.left.rmax, h.model.right.rmax)
    data = []
    for _ in range(n_trials):
        lo = random_cell_field(grid, h.model, rng)
        bump = rng.uniform(0.0, 0.3, size=lo.values.shape)
        data += [lo, cl.CellField(grid=grid, values=np.minimum(lo.values + bump, caps))]
    runs = h.evolve_cl(data, t_grid)
    worst = -math.inf
    for run_lo, run_hi in zip(runs[::2], runs[1::2]):
        for s_lo, s_hi in zip(run_lo, run_hi):
            worst = max(worst, float(np.max(s_lo.values - s_hi.values)))
    return CheckRecord(
        name="comparison_principle",
        measured=worst,
        tolerance=0.0,
        scenario=f"{n_trials} ordered pairs, t in {t_grid}, dx={grid.dx:g}",
    )


def check_mass(h: SemigroupHandle, n_trials: int = 5, seed: int = 2) -> CheckRecord:
    """Mass balance of compact data: mass(t) = mass(0) + inflow at the left edge - outflow at the right.

    The edge flows are the final state's flux-time integrals; an external
    state carries none, which leaves plain conservation.
    """
    t_end = 1.0
    rng = np.random.default_rng(seed)
    grid = h.grid
    data = [random_cell_field(grid, h.model, rng, support=(-0.5, 0.5), background=(0.0, 0.0)) for _ in range(n_trials)]
    worst = 0.0
    for f, run in zip(data, h.evolve_cl(data, [t_end])):
        final = run[-1]
        balance = cl.mass(f) + final.left_flux_time_integral - final.right_flux_time_integral
        worst = max(worst, abs(cl.mass(final) - balance))
    return CheckRecord(
        name="mass_conservation",
        measured=worst,
        tolerance=1e-10,
        scenario=f"{n_trials} compact data, {h.count_steps([t_end])} steps to t={t_end:g}, dx={grid.dx:g}",
    )


def _cone_time(h: SemigroupHandle) -> float:
    """End of the finite-speed and locality runs, 0.5 at CFL 0.8 and L = 1: their cones, t L / cfl, stay 0.625 wide."""
    return 0.5 * (h.cfl / 0.8) / h.model.lipschitz_bound


def check_finite_speed(h: SemigroupHandle, seed: int = 3) -> CheckRecord:
    """Data equal on [a, b] evolve identically inside the shrunken interval.

    The numerical domain of dependence grows one cell per step, so after
    n steps the solutions must agree bitwise on [a + n dx, b - n dx]
    (one extra cell of padding on each side).  The runs end at
    ``_cone_time(h)``.
    """
    a, b, t_end = -1.2, 1.2, _cone_time(h)
    rng = np.random.default_rng(seed)
    grid = h.grid
    f1 = random_cell_field(grid, h.model, rng, support=(grid.x_min, grid.x_max))
    v2 = random_cell_field(grid, h.model, rng, support=(grid.x_min, grid.x_max)).values
    xs = grid.cell_centers()
    inside = (xs >= a) & (xs <= b)
    v2[inside] = f1.values[inside]
    f2 = cl.CellField(grid=grid, values=v2)
    steps = h.count_steps([t_end])
    pad = (steps + 1) * grid.dx
    window = (xs >= a + pad) & (xs <= b - pad)
    if not np.any(window):
        raise StepError(f"finite-speed window is empty: {steps}+1 cells of padding leave nothing of [{a:g},{b:g}]")
    s1, s2 = (run[-1] for run in h.evolve_cl([f1, f2], [t_end]))
    worst = float(np.max(np.abs(s1.values[window] - s2.values[window])))
    return CheckRecord(
        name="finite_speed",
        measured=worst,
        tolerance=0.0,
        scenario=f"data equal on [{a:g},{b:g}], window shrunk by {steps}+1 cells at t={t_end:g}",
    )


def check_locality(h: SemigroupHandle, seed: int = 4) -> CheckRecord:
    """Away from the junction the solution matches single-flux whole-line runs.

    The comparison run replaces the junction by the same flux on both
    sides with the cap at full capacity, which reduces the interface
    flux to the plain interior flux, and marches the internal scheme on
    the junction run's steps (its CFL number scaled by the ratio of the
    Lipschitz bounds, so both plan the same legs); agreement is required
    bitwise outside the cone that the junction can influence by
    ``_cone_time(h)``.  One flux on both sides makes one whole-line run,
    read on both sides.
    """
    t_end = _cone_time(h)
    grid = h.grid
    rng = np.random.default_rng(seed)
    vcap = min(h.model.left.rmax, h.model.right.rmax)
    f0 = random_cell_field(grid, h.model, rng, support=(-1.5, 1.5), vmax=(vcap, vcap))
    f0.values[:] = np.minimum(f0.values, vcap)
    steps = h.count_steps([t_end])
    xs = grid.cell_centers()
    cone = (steps + 1) * grid.dx

    s_junction = h.evolve_cl([f0], [t_end])[0][-1]
    line_runs = {}  # flux -> its whole-line run's final state
    worst = 0.0
    for flux, side_mask in (
        (h.model.left, xs < -cone),
        (h.model.right, xs > cone),
    ):
        if flux not in line_runs:
            line_model = JunctionModel(left=flux, right=flux, limiter=flux.capacity)
            cfl = h.cfl * flux.lipschitz_bound / h.model.lipschitz_bound
            line_runs[flux] = cl.solve(f0, line_model, t_end, cfl=cfl)[-1]
        s_line = line_runs[flux]
        worst = max(worst, float(np.max(np.abs(s_junction.values[side_mask] - s_line.values[side_mask]))))
    return CheckRecord(
        name="locality",
        measured=worst,
        tolerance=0.0,
        scenario=f"junction vs whole-line runs outside |x| > {cone:g} at t={t_end:g}",
    )


def _sample_profile(state: cl.CellField, x: np.ndarray) -> np.ndarray:
    idx = np.clip(((x - state.grid.x_min) / state.grid.dx).astype(int), 0, state.grid.n_cells - 1)
    return state.values[idx]


def check_scale_invariance_cl(h: SemigroupHandle, eps_list: Sequence[float] = (2.0, 4.0)) -> CheckRecord:
    """Riemann data are self-similar: runs at (t, dx) and (t/eps, dx/eps) agree in xi = x/t.

    The fine runs cut the handle's domain into eps times as many cells.
    The gap is measured in L1 over xi in [-2, 2] and allowed twice the
    single-run error budget at resolution dx (0.01 at dx = 1/200).
    """
    riemann = (0.5 * h.model.left.rmax, 0.5 * h.model.right.rmax)
    t_base = 0.5
    grid = h.grid
    tol = 2.0 * 0.01 * (grid.dx / (1.0 / 200.0))
    base = h.evolve_cl([cl.riemann_field(grid, *riemann)], [t_base])[0][-1]
    xi = np.linspace(-2.0, 2.0, 1601)
    d_xi = xi[1] - xi[0]
    worst = 0.0
    for eps in eps_list:
        fine = cl.Grid.from_domain(grid.x_min, grid.x_max, round(grid.n_cells * eps))
        scaled = replace(h, grid=fine, command=()).evolve_cl([cl.riemann_field(fine, *riemann)], [t_base / eps])[0][-1]
        gap = np.abs(_sample_profile(base, xi * t_base) - _sample_profile(scaled, xi * (t_base / eps)))
        worst = max(worst, float(np.sum(gap) * d_xi))
    return CheckRecord(
        name="scale_invariance_cl",
        measured=worst,
        tolerance=tol,
        scenario=f"riemann {riemann}, eps in {tuple(eps_list)}, t={t_base:g}, dx={grid.dx:g}",
    )


def _density_lattice(model: JunctionModel, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ql, qr) on grid_n x grid_n evenly spaced densities of [0, rmax] a side; ql varies slowest."""
    return np.meshgrid(
        np.linspace(0.0, model.left.rmax, grid_n), np.linspace(0.0, model.right.rmax, grid_n), indexing="ij"
    )


def check_riemann_admissibility(model: JunctionModel, grid_n: int = 41) -> CheckRecord:
    """Traces from every Riemann pair must be admissible fixed points."""
    tol = model.equality_tol
    ql, qr = _density_lattice(model, grid_n)
    tr = riemann_traces(model, ql, qr)
    fl = model.left.eval(tr.q_minus)
    fr = model.right.eval(tr.q_plus)
    fj = junction_flux(model, tr.q_minus, tr.q_plus)
    worst = max(0.0, *(float(np.max(np.abs(gap))) for gap in (fl - fr, fl - fj, tr.flux_value - fj)))
    return CheckRecord(
        name="riemann_traces_admissible",
        measured=worst,
        tolerance=tol,
        scenario=f"{grid_n}x{grid_n} density grid",
    )


def check_germ_dissipativity(model: JunctionModel, grid_n: int = 41) -> CheckRecord:
    """Entropy dissipation margin >= 0 between all pairs of admissible states."""
    ql, qr = _density_lattice(model, grid_n)
    member = germ_contains(model, (ql, qr))
    qm, qp = ql[member], qr[member]
    margins = germ_dissipative(model, (qm[:, None], qp[:, None]), (qm, qp))
    worst = max(0.0, float(np.max(-margins, initial=-math.inf)))  # violation depth
    return CheckRecord(
        name="germ_dissipativity",
        measured=worst,
        tolerance=1e-12,
        scenario=f"{qm.size} admissible pairs from a {grid_n}x{grid_n} grid",
    )


# -- HJ checks ---------------------------------------------------------------

#: The canonical wedge probes of the four potential checks that test the flux-limited
#: junction condition (duality, supersolution_floor, hj_exact_agreement, limiter_id_hj):
#: (shape, level as a fraction of the joint capacity a_max), each marched to WEDGE_T.
#: The first roof is the level-0 roof.
WEDGE_PROBES = (
    (DatumShape.PHI_HAT, 0.0),
    (DatumShape.PHI_HAT, 0.75),
    (DatumShape.PHI_CHECK, 0.2),
    (DatumShape.PHI_CHECK, 0.6),
)
WEDGE_T = 1.0


def _wedge_runs(h: SemigroupHandle, shape: DatumShape) -> list[tuple[float, hj.NodeField, hj.NodeField]]:
    """(level, initial potential, state at WEDGE_T) of each probe of ``shape`` on ``h``, in table order.

    The first call on a handle marches all four probes in one ``evolve_hj``
    batch, which the handle keeps as ``_probes``; later calls read them.  A
    row of a batch is bit for bit its solo run, so each check reads what a
    march of its own probes alone would give.
    """
    a_max = h.model.a_max
    return [(frac * a_max, u0, out) for (s, frac), u0, out in h._probes if s is shape]


def check_linf_contraction(h: SemigroupHandle, n_trials: int = 20, seed: int = 5) -> CheckRecord:
    """Sup distance between two evolved potentials never exceeds the initial one."""
    t_grid = (0.5, 1.0)
    return CheckRecord(
        name="linf_contraction",
        measured=_contraction_gap(h, n_trials, seed, random_node_field, h.evolve_hj, hj.sup_distance, t_grid),
        tolerance=1e-12,
        scenario=f"{n_trials} random Lip pairs, t in {t_grid}, dx={h.grid.dx:g}",
    )


def check_constants(h: SemigroupHandle, n_trials: int = 5, seed: int = 6) -> CheckRecord:
    """S(u + c) = S(u) + c for constants c."""
    shifts, t_end = (0.7, -1.3, 2.5), 1.0
    rng = np.random.default_rng(seed)
    grid = h.grid
    data = []
    for _ in range(n_trials):
        u = random_node_field(grid, h.model, rng)
        data += [u, *(hj.NodeField(grid=grid, values=u.values + c) for c in shifts)]
    finals = [run[-1] for run in h.evolve_hj(data, [t_end])]
    worst = 0.0
    for k in range(0, len(finals), 1 + len(shifts)):
        base, *moved = finals[k : k + 1 + len(shifts)]
        for c, s in zip(shifts, moved):
            worst = max(worst, float(np.max(np.abs(s.values - base.values - c))))
    return CheckRecord(
        name="constants_commute",
        measured=worst,
        tolerance=1e-10,
        scenario=f"{n_trials} data x shifts {shifts}, t={t_end:g}, dx={grid.dx:g}",
    )


def check_duality(h: SemigroupHandle) -> CheckRecord:
    """Cumulative sums of the density run match the direct node scheme.

    The node runs are the roof probes of ``WEDGE_PROBES`` (all four are
    marched on the handle's first potential-probe check).  Gap allowance
    2 dx (1 + t L): the two discretizations share their slope dynamics,
    so the gap is pure round-off plus one flux quadrature.
    """
    t_end = WEDGE_T
    roofs = _wedge_runs(h, DatumShape.PHI_HAT)
    levels = tuple(level for level, _, _ in roofs)
    grid = h.grid
    L = h.model.lipschitz_bound
    tol = 2.0 * grid.dx * (1.0 + t_end * L)
    worst = 0.0
    for _, u0, out in roofs:
        rho0 = cl.CellField(grid=grid, values=u0.slopes())
        cl_run = cl.solve(rho0, h.model, t_end, cfl=h.cfl, snapshot_times=[0.0, t_end])
        via_cl = hj.hj_from_cl(cl_run, u0, h.model)[-1]
        worst = max(worst, hj.sup_distance(via_cl, out))
    return CheckRecord(
        name="duality_gap",
        measured=worst,
        tolerance=tol,
        scenario=f"roof data at levels {levels}, t={t_end:g}, dx={grid.dx:g}",
    )


def check_supersolution_floor(h: SemigroupHandle) -> CheckRecord:
    """Evolved potentials stay above the uncapped evolution minus 2 dx.

    Reads the level-0 roof and the valley probes of ``WEDGE_PROBES``; a
    lone call marches all four probes.
    """
    t_end = WEDGE_T
    roof_out = _wedge_runs(h, DatumShape.PHI_HAT)[0][2]
    valleys = _wedge_runs(h, DatumShape.PHI_CHECK)
    valley_levels = tuple(level for level, _, _ in valleys)
    grid = h.grid
    xs = grid.node_coords()
    slack = 2.0 * grid.dx
    floor = hj.exact_roof0_uncapped(h.model, t_end, xs)
    violation = max(-math.inf, float(np.max(floor - slack - roof_out.values)))
    for level, u0, out in valleys:
        # uncapped junction passes the valley's own level: uniform drain
        floor = u0.values - t_end * level
        violation = max(violation, float(np.max(floor - slack - out.values)))
    return CheckRecord(
        name="supersolution_floor",
        measured=violation,
        tolerance=0.0,
        scenario=f"roof level 0 and valley levels {valley_levels}, t={t_end:g}",
    )


def check_oracle_scale_invariance(model: JunctionModel, n_samples: int = 100, seed: int = 7) -> CheckRecord:
    """eps * exact(t/eps, x/eps) = exact(t, x) for the closed-form solutions."""
    rng = np.random.default_rng(seed)
    cap = model.limiter
    # one row per sample, drawn as rng.uniform(low, high) draws it, column by column
    low, high = np.array([0.25, 0.1, -2.0, 0.0]), np.array([4.0, 2.0, 2.0, model.a_max])
    eps, t, x, level = (low + (high - low) * rng.random((n_samples, 4))).T
    worst = 0.0
    for f, fs in (
        (hj.exact_roof0_uncapped(model, t, x), hj.exact_roof0_uncapped(model, t / eps, x / eps)),
        (hj.exact_roof0_capped(model, cap, t, x), hj.exact_roof0_capped(model, cap, t / eps, x / eps)),
        (hj.exact_roof_drain(model, level, t, x), hj.exact_roof_drain(model, level, t / eps, x / eps)),
        (hj.exact_valley_capped(model, level, t, x), hj.exact_valley_capped(model, level, t / eps, x / eps)),
    ):
        worst = max(worst, float(np.max(np.abs(eps * fs - f), initial=0.0)))
    return CheckRecord(
        name="oracle_scale_invariance",
        measured=worst,
        tolerance=1e-12,
        scenario=f"{n_samples} random (eps, t, x, level) samples",
    )


def check_hj_exact_agreement(h: SemigroupHandle) -> CheckRecord:
    """Direct scheme from the level-0 roof matches the closed form, sup norm on [-1, 1] at t = 1.

    Reads the level-0 roof probe of ``WEDGE_PROBES``; a lone call marches all four probes.
    """
    t_end, window = WEDGE_T, (-1.0, 1.0)
    grid = h.grid
    tol = 8.0 * grid.dx
    out = _wedge_runs(h, DatumShape.PHI_HAT)[0][2]
    xs = grid.node_coords()
    mask = (xs >= window[0]) & (xs <= window[1])
    exact = hj.exact_roof0_capped(h.model, h.model.limiter, t_end, xs[mask])
    worst = float(np.max(np.abs(out.values[mask] - exact)))
    return CheckRecord(
        name="hj_exact_agreement",
        measured=worst,
        tolerance=tol,
        scenario=f"roof level 0 vs closed form on [{window[0]:g},{window[1]:g}], t={t_end:g}, dx={grid.dx:g}",
    )


# -- limiter identification and germ scan ------------------------------------


def identify_limiter_hj(h: SemigroupHandle) -> float:
    """Cap estimate: minus the junction-node value after evolving the level-0 roof to t = 1.

    Reads the level-0 roof probe of ``WEDGE_PROBES``; a lone call marches all four probes.
    """
    out = _wedge_runs(h, DatumShape.PHI_HAT)[0][2]
    return float(-out.value_at_zero() / WEDGE_T + 0.0)


def identify_limiter_cl(h: SemigroupHandle) -> float:
    """Cap estimate: trace flux after evolving the joint-capacity step datum to t = 1.

    The two one-sided trace fluxes must agree (discrete Rankine-Hugoniot)
    within 0.05; their left value is the estimate.
    """
    t_probe, rh_tol = 1.0, 0.05
    grid = h.grid
    datum = CanonicalDatum(shape=DatumShape.PSI_HAT, level=h.model.a_max)
    rho0 = cl.canonical_field(grid, h.model, datum)
    out = h.evolve_cl([rho0], [t_probe])[0][-1]
    q_minus, q_plus = cl.trace_estimate(out)
    fl = h.model.left.eval(q_minus)
    fr = h.model.right.eval(q_plus)
    if abs(fl - fr) > rh_tol:
        raise StepError(f"trace fluxes {fl} / {fr} violate flux continuity beyond {rh_tol}")
    return fl


@dataclass
class GermScanResult:
    stationary: list[TracePair]
    evolving: list[TracePair]
    misclassified: list[TracePair]
    limiter_estimate: float
    record: CheckRecord


def empirical_germ_scan(
    h: SemigroupHandle, grid_n: int = 21, t_end: float = 0.5, limiter_estimate: float | None = None
) -> GermScanResult:
    """Classify flux-compatible density pairs by evolving their Riemann data.

    A pair is called stationary when its trace flux drifts less than
    0.005 by t_end; the stationary set must coincide with the
    admissibility predicate, within 0.005, evaluated at the identified cap.
    Pairs are listed with the left density varying slowest.
    """
    drift_threshold = germ_tol = 0.005
    model = h.model
    if limiter_estimate is None:
        limiter_estimate = identify_limiter_cl(h)
    a_hat = min(max(limiter_estimate, 0.0), model.a_max)
    probe = JunctionModel(left=model.left, right=model.right, limiter=a_hat)
    grid = h.grid
    compat_tol = max(model.equality_tol, 1e-12)

    ql, qr = _density_lattice(model, grid_n)
    flux = model.left.eval(ql)
    compatible = np.abs(flux - model.right.eval(qr)) <= compat_tol
    ql, qr, flux = ql[compatible], qr[compatible], flux[compatible]
    runs = h.evolve_cl([cl.riemann_field(grid, a, b) for a, b in zip(ql, qr)], [t_end])
    q_m, q_p = np.array([cl.trace_estimate(run[-1]) for run in runs]).T
    drift = np.maximum(np.abs(model.left.eval(q_m) - flux), np.abs(model.right.eval(q_p) - flux))
    is_stationary = drift < drift_threshold
    wrong = is_stationary != germ_contains(probe, (ql, qr), germ_tol)

    pairs = [TracePair(*map(float, pair)) for pair in zip(ql, qr, flux)]
    stationary = list(compress(pairs, is_stationary))
    evolving = list(compress(pairs, ~is_stationary))
    misclassified = list(compress(pairs, wrong))
    record = CheckRecord(
        name="germ_scan",
        measured=float(len(misclassified)),
        tolerance=0.0,
        scenario=(
            f"{len(pairs)} compatible pairs on a {grid_n}x{grid_n} grid, t={t_end:g}, dx={grid.dx:g},"
            f" drift threshold {drift_threshold:g}, cap estimate {a_hat:.6g}"
        ),
    )
    return GermScanResult(
        stationary=stationary,
        evolving=evolving,
        misclassified=misclassified,
        limiter_estimate=a_hat,
        record=record,
    )


# -- battery -----------------------------------------------------------------


def run_battery(
    cl_handle: SemigroupHandle,
    hj_handle: SemigroupHandle,
    seed: int = 0,
    l1_trials: int = 100,
    linf_trials: int = 20,
    scan_grid_n: int = 21,
) -> VerificationReport:
    """Run every check on a density and a potential handle of one junction and collect a report.

    The handles carry the junction (``cl_handle.model``, which ``hj_handle``
    must share), the grid and the CFL number; a pair of the wrong schemes
    or junctions is refused before any check runs.  Pass external-process handles
    to subject a third-party semi-group to the same battery (the bitwise
    locality check then compares it against internal whole-line runs, which
    an independent implementation will fail unless it reproduces the
    reference scheme exactly).  Each record carries the wall time of its own
    check; ``limiter_id_agreement`` and the germ scan read the cap estimates
    that ``limiter_id_cl`` and ``limiter_id_hj`` stored.
    """
    if (cl_handle.scheme, hj_handle.scheme) != ("cl", "hj"):
        raise ValueError(f"the handles evolve {cl_handle.scheme} and {hj_handle.scheme} states, not cl and hj")
    model = cl_handle.model
    if hj_handle.model != model:
        raise ValueError(f"the handles evolve different junctions: {model} and {hj_handle.model}")
    estimates = {}

    def cap_record(name, identify, h, datum) -> CheckRecord:
        estimates[name] = a = identify(h)
        scenario = f"{datum} datum estimate {a:.6g} vs configured {model.limiter:.6g}, dx={h.grid.dx:g}"
        return CheckRecord(name, abs(a - model.limiter), 0.01, scenario)

    # Built per call: each entry looks its check up on the module as it runs, so a patched one (a tracer) is timed.
    table = (
        lambda: check_riemann_admissibility(model),
        lambda: check_germ_dissipativity(model),
        lambda: check_l1_contraction(cl_handle, n_trials=l1_trials, seed=seed),
        lambda: check_comparison(cl_handle, seed=seed + 1),
        lambda: check_mass(cl_handle, seed=seed + 2),
        lambda: check_finite_speed(cl_handle, seed=seed + 3),
        lambda: check_locality(cl_handle, seed=seed + 4),
        lambda: check_scale_invariance_cl(cl_handle),
        lambda: check_linf_contraction(hj_handle, n_trials=linf_trials, seed=seed + 5),
        lambda: check_constants(hj_handle, seed=seed + 6),
        lambda: check_duality(hj_handle),
        lambda: check_supersolution_floor(hj_handle),
        lambda: check_oracle_scale_invariance(model, seed=seed + 7),
        lambda: check_hj_exact_agreement(hj_handle),
        lambda: cap_record("limiter_id_cl", identify_limiter_cl, cl_handle, "step"),
        lambda: cap_record("limiter_id_hj", identify_limiter_hj, hj_handle, "roof"),
        lambda: CheckRecord(
            "limiter_id_agreement",
            abs(estimates["limiter_id_cl"] - estimates["limiter_id_hj"]),
            0.01,
            "density-trace estimate vs potential-drain estimate",
        ),
        lambda: empirical_germ_scan(cl_handle, grid_n=scan_grid_n, limiter_estimate=estimates["limiter_id_cl"]).record,
    )
    records = []
    for entry in table:
        t0 = time.perf_counter()
        record = entry()
        record.wall_s = time.perf_counter() - t0
        records.append(record)
    return VerificationReport(records, seed=seed, identified_limiter=estimates["limiter_id_hj"])
