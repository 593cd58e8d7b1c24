"""Pin of the package's public surface.

Like ``test_digests.py``, a deliberate API change must edit this list, so
additions and removals show up in review.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import llmize
from conftest import fresh_python

PUBLIC_NAMES = [
    "CallbackAction",
    "Continue",
    "EvalPolicy",
    "EvaluatedSolution",
    "EvaluationFailed",
    "History",
    "HttpChatBackend",
    "KeyedScalars",
    "KeyedScalarsSchema",
    "OUTPUT_CONTRACT",
    "Objective",
    "ObjectiveDirection",
    "OptimizationResult",
    "ParsedProposal",
    "Permutation",
    "PermutationSchema",
    "PerturbBackend",
    "ProblemSpec",
    "PromptBundle",
    "ProposerBackend",
    "RealVector",
    "RealVectorSchema",
    "RunConfig",
    "SaState",
    "SamplingParams",
    "ScriptExhausted",
    "ScriptedBackend",
    "SetSamplingTemperature",
    "SolutionSchema",
    "SolutionValue",
    "StepContext",
    "StepStats",
    "Stop",
    "Strategy",
    "Termination",
    "TerminationKind",
    "TransportError",
    "ZeroCandidatesError",
    "accept_candidate",
    "adaptive_sampling",
    "build_prompt",
    "clamp_tag",
    "cool",
    "early_stopping",
    "evaluate_batch",
    "optimize",
    "parse_proposal",
    "render_solution",
    "resolve_actions",
    "run_hlmea",
    "run_hlmsa",
    "run_opro",
    "target_stop",
    "update_best",
]


def test_public_names_are_pinned():
    assert sorted(llmize.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in llmize.__all__:
        assert getattr(llmize, name) is not None, name


def test_proposer_imports_nothing_from_optimizers():
    """The step loop in ``optimizers`` builds on ``proposer``, never the
    reverse: each strategy hands ``build_prompt`` its own block. Imports under
    ``TYPE_CHECKING`` count too."""
    path = Path(llmize.__file__).with_name("proposer.py")
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the llmize package
                module = ".".join(filter(None, ("llmize", module)))
            imported += [module] + [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert "llmize.core" in imported
    assert [m for m in imported if (m + ".").startswith("llmize.optimizers.")] == []


def test_import_loads_no_http_client_packages():
    """The chat backend runs on the standard library, so importing the
    package (CLI included) must not pull in a third-party HTTP stack. Only
    modules the import adds count: a site-packages ``.pth`` hook may load
    one of these (certifi, say) before any user code runs."""
    banned = ("requests", "urllib3", "charset_normalizer", "idna", "certifi")
    code = (
        "import sys; before = set(sys.modules); import llmize, llmize.cli; "
        f"print(' '.join(m for m in {banned!r} if m in set(sys.modules) - before))"
    )
    src = str(Path(llmize.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.split() == []


def test_import_defers_the_http_stack_thread_pool_and_subprocess():
    """What only some runs use loads on first use: ``socket`` when an
    ``HttpChatBackend`` is constructed, and ``ssl`` only when its endpoint is
    ``https``; the thread pool in a multi-worker batch, ``subprocess`` in
    ``command_objective``, ``fractions`` in ``lp3_oracle``. Reading
    ``HttpChatBackend.propose``, as a profiler that wraps it does, loads
    nothing, and no backend loads the standard library's HTTP client."""
    deferred = (
        "http.client", "urllib.request", "ssl", "email.parser", "concurrent.futures", "subprocess",
        "fractions", "socket",
    )
    code = f"""
import json, sys
before = set(sys.modules)
def added():
    return [m for m in {deferred!r} if m in set(sys.modules) - before]
import llmize, llmize.benchmarks, llmize.cli
print(json.dumps(added()))
llmize.proposer.HttpChatBackend.propose
print(json.dumps(added()))
llmize.proposer.HttpChatBackend(base_url="http://127.0.0.1:9/v1", model="m")
print(json.dumps(added()))
llmize.proposer.HttpChatBackend(base_url="https://127.0.0.1:9/v1", model="m")
print(json.dumps(added()))
"""
    imported, touched, plain, tls = map(json.loads, fresh_python(code).splitlines())
    assert imported == []
    assert touched == []
    assert plain == ["socket"]
    assert "ssl" in tls
    assert "http.client" not in tls and "urllib.request" not in tls
