"""Pin of the package's public surface.

Like ``test_digests.py``, a deliberate API change must edit this list, so
additions and removals show up in review.
"""

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
