"""The block runner's process pool: outputs, log lines and errors must not
depend on the worker count, typed errors must cross the process boundary,
and no worker may outlive a run. The pool has one process per CPU in
``os.sched_getaffinity``, so the tests set the worker count through it."""

import logging
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import paleoxval as px
from paleoxval import crossval, errors, limit
from paleoxval import io as pio
from paleoxval.cli import main
from conftest import write_config

SRC = str(Path(px.__file__).resolve().parents[1])

# constructor arguments for the error classes that carry their own fields
ERROR_ARGS = {
    errors.DegenerateColumn: ([f"col{j}" for j in range(12)],),
    errors.BlockFailure: (17, errors.SingularSystem("indefinite S_cc")),
    errors.ParseError: ("proxies.csv", 4, "expected 3 fields"),
}


class Unrebuildable(Exception):
    """Its args do not fit its constructor, so pickle cannot rebuild it."""

    def __init__(self, a, b):
        super().__init__(f"{a}{b}")


class FormatsItsMessage(errors.PaleoXvalError):
    """Its constructor formats its message, so pickle rebuilds it formatted twice."""

    def __init__(self, start):
        super().__init__(f"block source failed at {start}")


def all_error_classes():
    """The package's error classes, not those the tests derive from them."""
    out, todo = [], [errors.PaleoXvalError]
    while todo:
        cls = todo.pop()
        if cls.__module__ == errors.__name__:
            out.append(cls)
        todo += cls.__subclasses__()
    return out


def fields(exc) -> dict:
    return {k: (type(v), str(v)) if isinstance(v, Exception) else v
            for k, v in vars(exc).items()}


def run_python(code: str, timeout: float = 120, env: dict | None = None) -> str:
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes the block runner see k usable CPUs, hence run k workers."""
    return lambda k: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                                         raising=False)


def one_degenerate_block(n: int, start: int, n_v: int, p: int = 5, seed: int = 3):
    """AR(1) proxies whose first column is zero outside block ``start``, so
    exactly the split starting there sees a flat calibration column."""
    X = px.generate(px.NoiseSpec(kind="ar1", n=n, p=p, seed=seed, phi=0.8))
    data = X.data.copy()
    data[:, 0] = 0.0
    data[start:start + n_v, 0] = np.arange(1.0, n_v + 1)
    return px.ProxyMatrix(data, X.column_ids)


def permissive_log(curve, y, splits, caplog, cpus) -> list[tuple[str, str]]:
    """(logger, message) of each warning a permissive run of one curve logs,
    checked to be the same at 1 and 2 workers."""
    logs = []
    for w in (1, 2):
        cpus(w)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="paleoxval"):
            px.run_curves([curve], y, splits, mode="permissive")
        logs.append([(r.name, r.getMessage()) for r in caplog.records])
    assert logs[0] == logs[1]
    return logs[0]


class TestErrorsPickle:
    @pytest.mark.parametrize("cls", all_error_classes(), ids=lambda c: c.__name__)
    def test_round_trip(self, cls):
        exc = cls(*ERROR_ARGS.get(cls, ("something went wrong",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert fields(back) == fields(exc)

    def test_fielded_classes_are_covered(self):
        fielded = {cls for cls in all_error_classes()
                   if cls.__init__ is not errors.PaleoXvalError.__init__}
        assert fielded == set(ERROR_ARGS)


class TestRunCurve:
    def test_strict_failure_is_the_same_for_any_worker_count(self, tmp_path):
        np.save(tmp_path / "x.npy", one_degenerate_block(60, 30, 12).data)
        # in a child interpreter, so a pool that never returns fails the test
        out = run_python(
            "import os, numpy as np, paleoxval as px\n"
            f"data = np.load({str(tmp_path / 'x.npy')!r})\n"
            "X = px.ProxyMatrix(data, [f'c{j}' for j in range(data.shape[1])])\n"
            "y = px.smooth_target(60, seed=21)\n"
            "for w in (1, 2):\n"
            "    os.sched_getaffinity = lambda pid: set(range(w))\n"
            "    try:\n"
            "        px.run_curves([px.experiment_entry('x', X)], y, px.make_blocks(60, 12))\n"
            "    except px.errors.BlockFailure as exc:\n"
            "        print(w, exc.block_start, type(exc.cause).__name__, exc)\n")
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split(" ", 1)[1] == lines[1].split(" ", 1)[1]
        assert lines[0].split()[1:3] == ["30", "DegenerateColumn"]

    def test_permissive_drops_and_logs_in_block_order(self, y60, splits60, caplog, cpus):
        X = one_degenerate_block(60, 20, 12)
        reports, logs = [], []
        for w in (1, 2):
            cpus(w)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="paleoxval"):
                reports.append(px.run_curves([px.experiment_entry("experiment", X)],
                                             y60, splits60, mode="permissive")[0])
            logs.append([r.getMessage() for r in caplog.records])
            assert multiprocessing.active_children() == []
        assert logs[0] == logs[1] and len(logs[0]) == 1
        assert logs[0][0].startswith("dropping block 20 (experiment)")
        assert np.array_equal(reports[0].block_rmse, reports[1].block_rmse, equal_nan=True)
        assert np.isnan(reports[1].block_rmse[20]) and np.isfinite(reports[1].mean_rmse)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_source_of_another_length_fails_once(self, y60, splits60, caplog, cpus, workers):
        # 59-row sources under a 60-year target fail every block alike: the
        # first block's LengthMismatch is raised as it is in either mode, with
        # no "dropping block" line
        X59 = px.generate(px.NoiseSpec(kind="white", n=59, p=5, seed=1))
        curves = [px.experiment_entry("x", X59), px.kriging_entry("k", px.ar1_covariance(59, 0.9))]
        cpus(workers)
        for mode in ("strict", "permissive"):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="paleoxval"):
                with pytest.raises(errors.LengthMismatch, match="array has 59 rows"):
                    px.run_curves(curves, y60, splits60, mode=mode)
            assert caplog.records == []
            assert multiprocessing.active_children() == []

    def test_flat_gcv_lines_reach_the_parent_once_in_block_order(self):
        # the workers send back each block's GCV search and log nothing; the
        # parent must log each flat one once, and no worker may print a copy
        out = run_python(
            "import logging, os, sys, numpy as np, paleoxval as px\n"
            "logging.basicConfig(stream=sys.stdout, format='%(name)s %(message)s')\n"
            "y = px.TimeSeries(years=1900 + np.arange(60), values=np.full(60, 0.3))\n"
            "X = px.generate(px.NoiseSpec(kind='white', n=60, p=8, seed=4))\n"
            "for w in (1, 3):\n"
            "    os.sched_getaffinity = lambda pid: set(range(w))\n"
            "    px.run_curves([px.experiment_entry('x', X)], y, px.make_blocks(60, 12))\n"
            "    print('end', w, flush=True)\n")
        one, three = out.split("end 1\n")
        assert three.endswith("end 3\n") and one == three[:-len("end 3\n")]
        lines = one.splitlines()
        assert [m.split()[0] for m in lines] == ["paleoxval.crossval"] * 49
        assert [m.split()[6] for m in lines] == [f"{start};" for start in range(49)]

    def test_log_order_does_not_depend_on_the_worker_count(self, y60, splits60, caplog, cpus):
        # block 3 fails and block 5's all-zero columns flatten its GCV
        # objective; in-process or in a worker, the lines come in block order
        Phi = px.ar1_covariance(60, 0.9)

        def block(split):
            if split.block_start == 3:
                raise errors.DegenerateColumn(["col0"])
            if split.block_start == 5:
                return px.Columns(np.zeros((split.n, split.n_c)))
            return px.kriging_columns(Phi, split)
        lines = permissive_log(("probe", block), y60, splits60, caplog, cpus)
        assert [m.split(" (")[0].split(";")[0] for _, m in lines] == [
            "dropping block 3", "flat GCV objective at block 5"]

    def test_quadrature_warning_precedes_the_blocks_other_lines(self, y60, splits60, caplog,
                                                                 cpus):
        # blocks 10 and 30 carry a large quadrature error estimate, and block
        # 30's columns are not PSD, so its tail raises after the columns exist
        Phi = px.ar1_covariance(60, 0.9)

        def block(split):
            columns = px.kriging_columns(Phi, split)
            if split.block_start == 30:
                columns = columns._replace(S_c=-columns.S_c)
            if split.block_start in (10, 30):
                columns = columns._replace(quad_error=1e-3)
            return columns
        lines = permissive_log(("probe", block), y60, splits60, caplog, cpus)
        assert [name for name, _ in lines] == ["paleoxval.crossval"] * 3
        assert [m for _, m in lines][:2] == [
            f"Psi quadrature error estimate 1.0e-03 at block {start} exceeds 1e-04"
            for start in (10, 30)]
        assert lines[2][1].startswith("dropping block 30 (probe): S_cc is not PSD")

    @pytest.mark.parametrize("curve", ["limit", "kriging"])
    def test_limit_and_kriging_results_identical(self, y60, splits60, curve, cpus):
        entry = getattr(px, f"{curve}_entry")(curve, px.ar1_covariance(60, 0.9))

        def run(w):
            cpus(w)
            return px.run_curves([entry], y60, splits60)[0]
        rep1, rep2 = run(1), run(2)
        assert np.array_equal(rep1.block_rmse, rep2.block_rmse)
        assert np.array_equal(rep1.per_block_lambda, rep2.per_block_lambda)
        assert np.array_equal(rep1.predictions, rep2.predictions)
        assert rep2.predictions.shape == (len(splits60), 12)
        assert not rep2.predictions.flags.writeable

    def test_unpicklable_block_error_reaches_the_parent(self, y60, splits60, cpus):
        Phi = px.ar1_covariance(60, 0.9)

        def block(split):
            if split.block_start == 30:
                raise Unrebuildable("bad ", "block")
            return px.kriging_columns(Phi, split)
        messages = []
        for w in (1, 2):
            cpus(w)
            with pytest.raises(RuntimeError) as exc:
                px.run_curves([("x", block)], y60, splits60)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        message = messages[1]
        assert f"{__name__}.Unrebuildable: bad block" in message
        assert "worker traceback" in message and 'raise Unrebuildable("bad ", "block")' in message
        assert multiprocessing.active_children() == []

    def test_custom_block_error_reads_the_same_at_any_worker_count(self, y60, splits60,
                                                                     caplog, cpus):
        # the pool hands the parent a pickled copy of the error; so does one CPU
        Phi = px.ar1_covariance(60, 0.9)

        def block(split):
            if split.block_start == 3:
                raise FormatsItsMessage(split.block_start)
            return px.kriging_columns(Phi, split)
        logs = permissive_log(("k", block), y60, splits60, caplog, cpus)
        assert len(logs) == 1
        assert logs[0][1].startswith("dropping block 3 (k): block source failed at ")

    def test_strict_failure_in_a_later_curve_is_the_same_for_any_worker_count(self):
        # every block from 30 on fails in the second of three curves, so the
        # workers fail out of order and the parent must raise block 30's
        out = run_python(
            "import multiprocessing, os, paleoxval as px\n"
            "y = px.smooth_target(60, seed=21)\n"
            "Phi = px.ar1_covariance(60, 0.9)\n"
            "def failing(split):\n"
            "    if split.block_start >= 30:\n"
            "        raise px.errors.SingularSystem(f'made to fail at {split.block_start}')\n"
            "    return px.kriging_columns(Phi, split)\n"
            "curves = [px.kriging_entry('kriging', Phi), ('failing', failing),\n"
            "          px.limit_entry('limit', Phi)]\n"
            "for w in (1, 2, 3):\n"
            "    os.sched_getaffinity = lambda pid: set(range(w))\n"
            "    try:\n"
            "        px.run_curves(curves, y, px.make_blocks(60, 12))\n"
            "    except px.errors.BlockFailure as exc:\n"
            "        print(exc.block_start, type(exc.cause).__name__, exc,\n"
            "              len(multiprocessing.active_children()))\n")
        lines = out.strip().splitlines()
        assert len(lines) == 3 and len(set(lines)) == 1
        assert lines[0] == ("30 SingularSystem block at start 30 failed: "
                            "made to fail at 30 0")

    def test_one_noise_member_is_held_at_a_time(self, y60, splits60, cpus, monkeypatch):
        # in-process, each member is drawn once, whether its curve is one task
        # or four block ranges, after the previous one was dropped, and none
        # is kept afterwards
        held, real = [], crossval.generate
        monkeypatch.setattr(crossval, "generate",
                            lambda spec: held.append(len(crossval._MEMBER)) or real(spec))
        cpus(1)
        spec = px.NoiseSpec(kind="ar1", n=60, p=8, seed=5, phi=0.5)
        px.run_curves(px.ensemble_entries(spec, 3), y60, splits60)
        assert held == [0, 0, 0] and crossval._MEMBER == {}

    def test_only_the_last_curves_are_split_across_workers(self, y60, splits60, cpus,
                                                            monkeypatch):
        # with n workers the first curves run whole, so only the members of
        # the last n curves can be drawn by more than one worker
        calls, real = multiprocessing.get_context("fork").Value("i", 0), crossval.generate

        def generate(spec):
            with calls.get_lock():
                calls.value += 1
            return real(spec)
        monkeypatch.setattr(crossval, "generate", generate)
        entries = px.ensemble_entries(px.NoiseSpec(kind="white", n=60, p=8, seed=5), 6)
        drawn = []
        for w in (1, 2):
            cpus(w)
            calls.value = 0
            px.run_curves(entries, y60, splits60)
            drawn.append(calls.value)
        assert drawn[0] == 6 and 6 <= drawn[1] <= 8

    def test_pool_size_is_capped(self, y60, splits60, cpus, monkeypatch):
        sizes, real = [], crossval.ProcessPoolExecutor
        monkeypatch.setattr(crossval, "ProcessPoolExecutor",
                            lambda n, *args: sizes.append(n) or real(n, *args))
        entry = px.kriging_entry("kriging", px.ar1_covariance(60, 0.9))
        for k, splits in ((64, splits60), (3, splits60[:2]), (1, splits60)):
            cpus(k)
            px.run_curves([entry], y60, splits)
        assert sizes == [crossval.MAX_WORKERS, 2]


def test_worker_start_pins_openblas_to_one_thread():
    out = run_python(
        "import ctypes, numpy\n"
        "from paleoxval import crossval\n"
        "paths = [l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l]\n"
        "lib = ctypes.CDLL(paths[0]) if paths else None\n"
        "names = ('openblas_get_num_threads', 'openblas_get_num_threads64_',\n"
        "         'scipy_openblas_get_num_threads', 'scipy_openblas_get_num_threads64_')\n"
        "get = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)\n"
        "if get is None:\n"
        "    print('no openblas')\n"
        "else:\n"
        "    before = get()\n"
        "    crossval._one_blas_thread()\n"
        "    print(before, get())\n",
        env={"OPENBLAS_NUM_THREADS": "2"})
    if out.strip() == "no openblas":
        pytest.skip("numpy is not linked against OpenBLAS")
    assert out.split() == ["2", "1"]


def children(pid: int) -> dict[int, str]:
    """pid -> state letter of every process whose parent is ``pid``."""
    out = {}
    for entry in Path("/proc").iterdir():
        try:
            state, ppid = (entry / "stat").read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == pid:
            out[int(entry.name)] = state
    return out


def state(pid: int) -> str | None:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return None


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_no_worker_outlives_a_killed_command():
    code = ("import os, time, paleoxval as px\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "y = px.smooth_target(60, seed=21)\n"
            "X = px.generate(px.NoiseSpec(kind='white', n=60, p=4, seed=1))\n"
            "def slow(split):\n"
            "    time.sleep(0.1)\n"
            "    return px.proxy_columns(X, split)\n"
            "px.run_curves([('a', slow), ('b', slow), ('c', slow)], y, px.make_blocks(60, 12))\n")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    child = subprocess.Popen([sys.executable, "-c", code], env=env)
    workers: dict[int, str] = {}
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and child.poll() is None and time.monotonic() < deadline:
            workers = children(child.pid)
            time.sleep(0.02)
        assert len(workers) == 2, "the pool did not start"
        time.sleep(0.3)         # mid-run: the workers are in their blocks
        child.send_signal(signal.SIGTERM)
        child.wait(timeout=10)
        deadline = time.monotonic() + 3
        while time.monotonic() < deadline and any(state(w) not in (None, "Z") for w in workers):
            time.sleep(0.05)
        assert {w: state(w) for w in workers if state(w) not in (None, "Z")} == {}
    finally:
        child.kill()
        child.wait()
        for w in workers:
            if state(w) not in (None, "Z"):
                os.kill(w, signal.SIGKILL)


def run_cli(argv: list[str], caplog) -> list[str]:
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="paleoxval"):
        assert main(argv) == 0
    assert multiprocessing.active_children() == []
    return [r.getMessage() for r in caplog.records]


def output_bytes(out_dir: Path) -> dict[str, bytes]:
    files = sorted(p for p in out_dir.iterdir() if p.suffix in (".csv", ".svg"))
    return {p.name: p.read_bytes() for p in files}


class TestCliWorkers:
    @pytest.mark.parametrize("command", ["crossval", "figure2", "limit"])
    def test_one_pool_per_command(self, tmp_path, y60, caplog, cpus, monkeypatch, command):
        pools, real = [], crossval.ProcessPoolExecutor
        monkeypatch.setattr(crossval, "ProcessPoolExecutor",
                            lambda n, *args: pools.append(n) or real(n, *args))
        target = pio.save_target(y60, tmp_path / "t.csv")
        config = write_config(tmp_path / "c.json", target,
                              noise_experiments=[{"kind": "ar1", "phi": 0.9}])
        counts = []
        for w in (1, 2, 3):
            cpus(w)
            pools.clear()
            run_cli([command, "--config", str(config), "--out", str(tmp_path / f"out{w}")],
                    caplog)
            counts.append(pools[:])
        assert counts == [[], [2], [3]]

    @pytest.mark.parametrize("command", ["crossval", "figure2", "limit"])
    def test_every_block_runs_the_one_tail(self, tmp_path, y60, caplog, cpus, monkeypatch,
                                           command):
        # each curve's 49 blocks go through crossval.reconstruct_with_gcv once:
        # crossval has the noise source and one AR(1) run; figure2 two white
        # and two AR(1) members, the limit and the kriging curve; limit the
        # limit curve and 3 members at each of 2 rungs of the p ladder
        curves = {"crossval": 2, "figure2": 6, "limit": 7}[command]
        starts, real = [], crossval.reconstruct_with_gcv

        def tail(columns, y, split):
            starts.append(split.block_start)
            return real(columns, y, split)
        monkeypatch.setattr(crossval, "reconstruct_with_gcv", tail)
        target = pio.save_target(y60, tmp_path / "t.csv")
        config = write_config(tmp_path / "c.json", target,
                              noise_experiments=[{"kind": "ar1", "phi": 0.9}])
        cpus(1)
        run_cli([command, "--config", str(config), "--out", str(tmp_path / "out")], caplog)
        assert starts == list(range(49)) * curves

    @pytest.mark.parametrize("command", ["crossval", "figure2", "limit"])
    def test_outputs_and_logs_identical(self, tmp_path, y60, caplog, cpus, command):
        target = pio.save_target(y60, tmp_path / "t.csv")
        overrides = {"mode": "permissive", "ensemble_size": 3}
        if command == "crossval":
            proxies = pio.save_proxies(one_degenerate_block(60, 20, 12), y60.years,
                                       tmp_path / "p.csv")
            overrides.update(proxy_source={"file": str(proxies)},
                             noise_experiments=[{"kind": "ar1", "phi": 0.9}])
        config = write_config(tmp_path / "c.json", target, **overrides)
        outs, logs = [], []
        for w in (1, 2, 3):
            cpus(w)
            out = tmp_path / f"out{w}"
            logs.append(run_cli([command, "--config", str(config), "--out", str(out)], caplog))
            outs.append(output_bytes(out))
        assert outs[0] == outs[1] == outs[2] and outs[0]
        assert logs[0] == logs[1] == logs[2]
        if command == "crossval":
            assert [m.split(" (")[0] for m in logs[0]] == ["dropping block 20"]
        if command == "figure2":
            assert "figure2.svg" in outs[0]
            assert b"member_002" in outs[0]["ensemble_white.csv"]

    @pytest.mark.parametrize("command", ["figure2", "limit"])
    def test_strict_failure_writes_no_reports(self, tmp_path, y60, cpus, capsys, monkeypatch,
                                              command):
        # the limit curve is listed after the white ensemble in figure2 and
        # first in limit; either way no curve's report may be written
        real = limit.psi_columns

        def psi_columns(Phi, split):
            if split.block_start == 40:
                raise errors.SingularSystem("made to fail")
            return real(Phi, split)
        monkeypatch.setattr(limit, "psi_columns", psi_columns)
        config = write_config(tmp_path / "c.json", pio.save_target(y60, tmp_path / "t.csv"))
        messages = []
        for w in (1, 2, 3):
            cpus(w)
            out = tmp_path / f"out{w}"
            assert main([command, "--config", str(config), "--out", str(out)]) == 1
            assert multiprocessing.active_children() == []
            assert list(out.iterdir()) == []
            messages.append(capsys.readouterr().err)
        assert messages == ["error: block at start 40 failed: made to fail\n"] * 3


def test_cli_import_needs_no_scipy():
    out = run_python("import sys, paleoxval.cli\n"
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_cli_import_adds_no_xml_or_network_modules():
    # xml.sax.saxutils alone pulled in urllib.request, http.client and email.*
    out = run_python("import sys\n"
                     "def heavy():\n"
                     "    return {m for m in sys.modules\n"
                     "            if m.split('.')[0] in ('xml', 'urllib', 'http', 'email')}\n"
                     "bare = heavy()\n"
                     "import paleoxval.cli\n"
                     "print(sorted(heavy() - bare))")
    assert out.strip() == "[]"
