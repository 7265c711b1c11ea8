"""Every function in the library is reached by a command.

A ``sys.setprofile`` hook records the code objects that one sweep of the
commands calls on the tiny CLI config. A module- or class-level function
that no command reaches is either a test oracle, which belongs in
``oracles``, or dead code; the few exceptions are listed with their reason.
No library module imports another module's private name, apart from the
hook listed in ``PRIVATE_IMPORTS``.
"""

import ast
import functools
import inspect
import json
import sys

from csmoe import (
    analysis,
    autodiff,
    checkpoint,
    cli,
    config,
    dataio,
    gradcheck,
    losses,
    projector,
    stages,
    world,
)
from test_cli import TINY

MODULES = (analysis, autodiff, checkpoint, cli, config, dataio, gradcheck, losses,
           projector, stages, world)

ALLOWED = {
    "autodiff.Tensor.__repr__": "readable tensors in assertion messages and debugging",
    "autodiff.Parameter.__repr__": "readable parameters in assertion messages and debugging",
}


def _library_functions():
    """``(qualified name, code object)`` of every function defined in the library."""
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = (member.fget if isinstance(member, property) else
                          member.func if isinstance(member, functools.cached_property) else member)
                    fn = getattr(fn, "__func__", fn)  # classmethod, staticmethod
                    if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                        yield f"{short}.{name}.{attr}", fn.__code__


def _sweep(tmp_path) -> set:
    """Run every command once under a profile hook; the code objects called."""
    def write(name, overrides):
        path = tmp_path / name
        path.write_text(json.dumps({**TINY, **overrides}))
        return str(path)

    cfg = write("tiny.json", {})
    conventional = write("conventional.json", {"variant": "conventional-balance",
                                               "lang_weight": 0.5, "balance_weight": 2.0})
    other = write("other.json", {"train_seed": 1})
    run = tmp_path / "run"
    stage4 = str(run / "checkpoints" / "stage4")
    commands = [
        (["gen-data", "--config", cfg], 0),
        (["train", "--config", cfg, "--last", "2"], 0),
        (["train", "--config", cfg, "--resume", str(run / "checkpoints" / "stage2")], 0),
        (["eval", "--config", cfg, "--checkpoint", stage4], 0),
        (["routing-report", "--config", cfg, "--checkpoint", stage4], 0),
        (["eval", "--config", other, "--checkpoint", stage4], 2),
        (["train", "--config", conventional], 0),
        (["grad-check", "--instances", "1"], 0),
        (["ablate", "--config", cfg, "--seeds", "0"], 0),
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv, _ in commands:
            out = run if argv[0] in ("gen-data", "train") else tmp_path / argv[0]
            codes.append(cli.main([*argv, "--out", str(out)]))
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in commands]
    return called


def test_every_library_function_is_reached_by_a_command(tmp_path):
    functions = dict(_library_functions())
    assert set(ALLOWED) <= set(functions)
    called = _sweep(tmp_path)
    unreached = sorted(name for name, code in functions.items()
                       if code not in called and name not in ALLOWED)
    assert unreached == []
    assert [name for name in ALLOWED if functions[name] in called] == []


PRIVATE_IMPORTS = {
    ("losses", "autodiff", "_record"): "the hook the fused routing losses record their nodes on",
    ("projector", "autodiff", "_record"): "the hook a MoE layer records its expert mixture on",
    ("world", "autodiff", "_record"): "the hook the decoder records its one node on",
}


def test_no_library_module_imports_a_private_name():
    found = set()
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("csmoe"):
                continue  # not a library module
            source = (node.module or "").rsplit(".", 1)[-1]
            found.update((short, source, alias.name) for alias in node.names
                         if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert found == set(PRIVATE_IMPORTS)
