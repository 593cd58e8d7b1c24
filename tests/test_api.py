"""Pin of the package's public surface.

Like ``test_digests.py``, a deliberate API change must edit this list, so
additions and removals show up in review.
"""

import os
import subprocess
import sys
from pathlib import Path

import llmize

PUBLIC_NAMES = [
    "CallbackAction",
    "Continue",
    "EXPECTED_TAGS",
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
