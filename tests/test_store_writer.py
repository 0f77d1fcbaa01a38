"""`all` writes ingest's store files in a forked child beside the analysis
and the report (see iorisk._fork): the same bytes and output as the
inline write, its errors as the inline write raises them, and no child
left behind, even by a parent that is killed."""
from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

from iorisk import _fork, ingest
from iorisk.cli import run
from iorisk.simgen import generate, preset_scenario

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(ingest.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def feeds(tmp_path_factory):
    """The demo feeds and tools/parity.py's feeds with awkward keys, each
    in a directory of its own."""
    root = tmp_path_factory.mktemp("feeds")
    generate(preset_scenario("demo"), root / "demo")
    spec = importlib.util.spec_from_file_location(
        "parity", ROOT / "tools" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    for name, write in (("lone-cr", parity.lone_cr_feeds),
                        ("tied", parity.tied_feeds)):
        (root / name).mkdir()
        write(root / name)
    return root


@contextlib.contextmanager
def _cpus(n):
    """_fork seeing n usable CPUs; yields a mock that counts its forks."""
    with mock.patch.object(_fork, "usable_cpus", lambda: n), \
            mock.patch.object(_fork, "fork", wraps=_fork.fork) as fork:
        yield fork


def _all(feeds, out, *extra) -> int:
    return run(["all", "--counters", str(feeds / "counters.csv"),
                "--jobs", str(feeds / "jobs.csv"), "--out", str(out),
                *extra])


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", ["demo", "lone-cr", "tied"])
def test_all_writes_the_same_bytes_forked_and_inline(feeds, tmp_path, capsys,
                                                     name):
    runs = {}
    for cpus in (2, 1):
        out = tmp_path / str(cpus)
        with _cpus(cpus) as fork:
            assert _all(feeds / name, out, "--svg") == 0
        assert fork.call_count == (cpus > 1)
        printed = capsys.readouterr()
        runs[cpus] = (_tree_bytes(out), printed.out.replace(str(out), "OUT"),
                      printed.err)
    assert runs[2] == runs[1]
    assert {"store/node_usage.csv", "store/jobs.csv"} <= set(runs[2][0])
    _no_child_left()


def test_a_write_that_fails_in_the_child_exits_as_inline(feeds, tmp_path,
                                                         capsys):
    errors = {}
    for cpus in (2, 1):
        out = tmp_path / str(cpus)
        path = out / "store" / "node_usage.csv"
        path.mkdir(parents=True)  # the write cannot open it
        with _cpus(cpus) as fork:
            assert _all(feeds / "demo", out) == 1
        assert fork.call_count == (cpus > 1)
        err = capsys.readouterr().err
        assert err.startswith("iorisk: ") and repr(str(path)) in err, err
        errors[cpus] = err.replace(str(out), "OUT")
        assert not (out / "store" / "jobs.csv").exists()
    assert errors[2] == errors[1]
    _no_child_left()


def test_a_failure_after_the_fork_still_joins_the_child(feeds, tmp_path,
                                                        capsys):
    alias = tmp_path / "alias.json"
    alias.write_text("{not json")
    stores, errors = {}, {}
    for cpus in (2, 1):
        out = tmp_path / str(cpus)
        with _cpus(cpus) as fork:
            assert _all(feeds / "demo", out, "--alias", str(alias)) == 1
        assert fork.call_count == (cpus > 1)
        errors[cpus] = capsys.readouterr().err
        stores[cpus] = _tree_bytes(out / "store")
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(alias.read_text())
    assert errors[2] == errors[1] == f"iorisk: {exc.value}\n"
    # the store is written in full, as inline, before the error is raised
    assert stores[2] == stores[1]
    assert "node_usage.csv" in stores[2] and "jobs.csv" in stores[2]
    _no_child_left()


def test_all_with_the_writer_forked_prints_its_summary_once(feeds, tmp_path):
    # stdout to a file is block-buffered: a forked copy of its buffer,
    # flushed too, would print the lines before the fork twice
    code = ("import sys\n"
            "from iorisk import _fork, cli\n"
            "_fork.usable_cpus = lambda: 2\n"
            "print('forks', _fork.can_fork(_fork.usable_cpus()))\n"
            "sys.exit(cli.run(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    demo = feeds / "demo"
    with open(tmp_path / "stdout.txt", "w") as out:
        subprocess.run([sys.executable, "-c", code, "all", "--counters",
                        str(demo / "counters.csv"), "--jobs",
                        str(demo / "jobs.csv"), "--out", "out"],
                       cwd=tmp_path, env=env, stdout=out, check=True)
    lines = (tmp_path / "stdout.txt").read_text().splitlines()
    assert lines[0] == "forks True"
    assert [line.split()[0] for line in lines[1:]] == [
        "ingested", "analyzed", "reported"]


def test_with_another_thread_running_the_write_is_inline(feeds, tmp_path):
    want = tmp_path / "want"
    with _cpus(1):
        assert _all(feeds / "demo", want) == 0
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with _cpus(2) as fork:
            assert _all(feeds / "demo", tmp_path / "out") == 0
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert fork.call_count == 0
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(want)
    _no_child_left()


def test_with_no_process_to_be_had_the_write_is_inline(feeds, tmp_path):
    want = tmp_path / "want"
    with _cpus(1):
        assert _all(feeds / "demo", want) == 0
    with _cpus(2) as fork, \
            mock.patch.object(_fork.os, "fork", side_effect=BlockingIOError):
        assert _all(feeds / "demo", tmp_path / "out") == 0
    assert fork.call_count == 1
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(want)
    _no_child_left()


# --- a parent killed mid-run leaves no child behind -----------------------


def _state(pid: int) -> str | None:
    """The process state letter of pid, None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def _kill_parent_then_check_child(tmp_path, code, *args):
    """Run code, whose forked child writes its pid to child.pid and then
    blocks, kill the parent with SIGKILL, and check that the child ends."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    parent = subprocess.Popen([sys.executable, "-c", code, *args],
                              cwd=tmp_path, env=env,
                              stdout=subprocess.DEVNULL)
    pid_file = tmp_path / "child.pid"
    try:
        deadline = time.monotonic() + 120
        while not pid_file.exists():
            assert parent.poll() is None, "the parent ended first"
            assert time.monotonic() < deadline, "no child started"
            time.sleep(0.02)
    finally:
        parent.kill()
        parent.wait(timeout=60)
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 30
    while _state(child) not in (None, "Z", "X"):
        if time.monotonic() > deadline:
            os.kill(child, signal.SIGKILL)
            pytest.fail(f"child {child} outlived its parent")
        time.sleep(0.02)


_BLOCKED = ("import os, sys, time\n"
            "def blocked(*args):\n"
            "    with open('child.tmp', 'w') as f:\n"
            "        f.write(str(os.getpid()))\n"
            "    os.rename('child.tmp', 'child.pid')\n"
            "    time.sleep(600)\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the kernel ends a child with its parent on Linux")
def test_a_killed_parent_leaves_no_writer_behind(feeds, tmp_path):
    demo = feeds / "demo"
    code = _BLOCKED + ("from iorisk import _fork, cli, store\n"
                       "_fork.usable_cpus = lambda: 2\n"
                       "store.write_node_usage = blocked\n"
                       "sys.exit(cli.run(sys.argv[1:]))\n")
    _kill_parent_then_check_child(
        tmp_path, code, "all", "--counters", str(demo / "counters.csv"),
        "--jobs", str(demo / "jobs.csv"), "--out", "out")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the kernel ends a child with its parent on Linux")
def test_a_killed_parent_leaves_no_range_worker_behind(feeds, tmp_path):
    code = _BLOCKED + ("from iorisk import ingest\n"
                       "ingest._SEGMENT_BYTES = 1\n"
                       "ingest._usable_cpus = lambda: 2\n"
                       "ingest._send_range = blocked\n"
                       "ingest.deltify_and_bin(sys.argv[1])\n")
    _kill_parent_then_check_child(tmp_path, code,
                                  str(feeds / "demo" / "counters.csv"))
