"""The command path holds only what commands run: mindec.cli and every
module it imports leave mindec.oracles unimported, and serving the
benchmark's requests calls nothing in it."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mindec.oracles as oracles_mod
from mindec.selftest import run_cli

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_importing_the_cli_leaves_the_oracles_unimported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = subprocess.run(
        [sys.executable, "-c", 'import sys, mindec.cli; sys.exit("mindec.oracles" in sys.modules)'],
        env=env,
    ).returncode
    assert code == 0


@pytest.mark.parametrize("workload", ["ladder", "session", "realclosed"])
def test_one_unit_of_each_workload_calls_no_oracle(monkeypatch, workload):
    requests = _workloads().WORKLOADS[workload].unit("0", 0)
    oracles = {
        id(value): name
        for name, value in vars(oracles_mod).items()
        if not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == oracles_mod.__name__
    }

    def refusing(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a command called mindec.oracles.{name}")

        return call

    for key, module in list(sys.modules.items()):
        if module is not None and (key == "mindec" or key.startswith("mindec.")):
            for attr, value in list(vars(module).items()):
                if id(value) in oracles:
                    monkeypatch.setattr(module, attr, refusing(oracles[id(value)]))
    for request in requests:
        code, out, err = run_cli(list(request.argv), request.text)
        assert code == 0, (request.argv, err)
        assert json.loads(out)["report"]["pass"] is True
