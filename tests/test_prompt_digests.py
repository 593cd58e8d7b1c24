"""Pinned sha256 digests of prompt text, per solution kind and strategy.

The prompt is the whole contract with the model: the encoding it describes
is what a proposal must be written in, and ``PerturbBackend`` reads that
description back. ``test_digests.py`` pins run outcomes, which a wording
change can leave untouched; these digests pin the words themselves, so a
change to any prompt shows up here. The stand-in model's completions for
each kind are pinned alongside. A deliberate change must update the digests
and say why.
"""

import hashlib

import pytest

from llmize import (
    EvaluatedSolution,
    History,
    KeyedScalars,
    KeyedScalarsSchema,
    ObjectiveDirection,
    Permutation,
    PermutationSchema,
    PerturbBackend,
    ProblemSpec,
    RealVector,
    RealVectorSchema,
    RunConfig,
    SaState,
    SamplingParams,
    Strategy,
    build_prompt,
)

MIN = ObjectiveDirection.MINIMIZE
MAX = ObjectiveDirection.MAXIMIZE

# Bounds and values chosen so that 6-significant-digit rendering matters:
# exponents, long mantissas, a negative zero and values that round.
SPECS = {
    "real_vector": ProblemSpec(
        description="Minimize a three-dimensional test function.",
        schema=RealVectorSchema(
            lower=(-1.5e-5, 0.1234567, -100.0),
            upper=(4.99999, 123456.789, 2.0 / 3.0),
        ),
        domain_knowledge="The second coordinate matters most.",
    ),
    "permutation": ProblemSpec(
        description="Find a short tour through six cities.",
        schema=PermutationSchema(n=6),
        domain_knowledge="Avoid crossing edges.",
    ),
    "keyed_scalars": ProblemSpec(
        description="Maximize throughput over three tuning knobs.",
        schema=KeyedScalarsSchema(
            {"units": (32, 512), "p_fail": (1e-7, 0.6), "phi": (-3.14159265, 3.14159265)}
        ),
        domain_knowledge="Keep p_fail small.",
    ),
}

VALUES = {
    "real_vector": [
        RealVector((0.0, 1.0, -0.0)),
        RealVector((1.0 / 3.0, 98765.4321, -1e-9)),
        RealVector((4.99999, 0.1234567, 2.0 / 3.0)),
        RealVector((2.5e-8, 1234567.0, -100.0)),
    ],
    "permutation": [
        Permutation((0, 1, 2, 3, 4, 5)),
        Permutation((5, 4, 3, 2, 1, 0)),
        Permutation((2, 0, 4, 1, 5, 3)),
        Permutation((3, 5, 1, 4, 0, 2)),
    ],
    "keyed_scalars": [
        KeyedScalars((("units", 256.0), ("p_fail", 0.31), ("phi", 0.0))),
        KeyedScalars((("units", 32.000001), ("p_fail", 1e-7), ("phi", -3.14159265))),
        KeyedScalars((("units", 511.99999), ("p_fail", 0.123456789), ("phi", 1.0 / 7.0))),
        KeyedScalars((("units", 100.0), ("p_fail", 2.5e-3), ("phi", 3.0))),
    ],
}

SCORES = [17.25, 1.0 / 3.0, -2.5e-8, 123456.789]

BATCH = {Strategy.OPRO: 4, Strategy.HLMEA: 5, Strategy.HLMSA: 3}

PROMPT_DIGESTS = {
    ("real_vector", "opro"):
        "66c4ce3ce31fc37203998cb1b2342d99f0cb1b994428f6eeb028d79fdf67acab",
    ("real_vector", "hlmea"):
        "81c6b3d1fc8fb21bc126dcf3e6417b1e2853d7eea33ac94a25e919d9bc0c4591",
    ("real_vector", "hlmsa"):
        "0fa0698669ff5c91fcc345a739fce5a95f9bd525dbccfcf405f0849009d97b13",
    ("permutation", "opro"):
        "f702e200ccb23d84fa1e9aed45f31851b5245669782fa2628e5b5ff0b177f0a8",
    ("permutation", "hlmea"):
        "e375e6370aeaa6ae2fa8e4ef09d19d1bbc228831c142f5cf40fe00a309ac4a9f",
    ("permutation", "hlmsa"):
        "d8ca05cf5bbf91bd5bb1c34ef77a354b4f62738168436e7823c4286301aa730f",
    ("keyed_scalars", "opro"):
        "450c8b1a886c99be08c733e4473a36bb290499cbf479bff98e804693c4c5c215",
    ("keyed_scalars", "hlmea"):
        "3d5739bc7dc69043f2dd495c3a17cdfff8ef4f3d418269d58b0426b02124b40e",
    ("keyed_scalars", "hlmsa"):
        "ed43e3adf12c56228d9a7c8615b43edbe01f9b36f6e1d35737ed2b8a7e6982c8",
}

# PerturbBackend(seed=3) completions to the opro prompt, two calls in a row.
COMPLETION_DIGESTS = {
    "real_vector": "7a5072886918d8fe5c4a32375aa882dc0430bcc7ba62e8549aa8a2a57ca242c6",
    "permutation": "8f7ed793515403b59895a2e349e40a26907682e1a6763a270015d6ffc3c9f843",
    "keyed_scalars": "56aa2b5b7bab7dd3be1470a26b44737d51306988899159a3a3c2f04fa3238e8d",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _prompt(kind: str, strategy: Strategy):
    spec = SPECS[kind]
    direction = MAX if kind == "keyed_scalars" else MIN
    history = History(capacity=8, direction=direction)
    entries = [EvaluatedSolution(v, s) for v, s in zip(VALUES[kind], SCORES)]
    for entry in entries:
        history.insert(entry)
    state = None
    if strategy is Strategy.HLMSA:
        sa = SaState(sa_temperature=12.345678)
        state = strategy.state(sa, entries[:3], RunConfig(batch=BATCH[strategy]), direction)
    return build_prompt(spec, history, strategy, BATCH[strategy], state)


@pytest.mark.parametrize("kind, strategy", sorted(PROMPT_DIGESTS))
def test_prompt_digest(kind, strategy):
    bundle = _prompt(kind, Strategy(strategy))
    digest = _sha(f"{bundle.system_text}\n\x00\n{bundle.user_text}")
    assert digest == PROMPT_DIGESTS[kind, strategy]


@pytest.mark.parametrize("kind", sorted(COMPLETION_DIGESTS))
def test_perturb_completion_digest(kind):
    bundle = _prompt(kind, Strategy.OPRO)
    backend = PerturbBackend(seed=3)
    params = SamplingParams()
    text = backend.propose(bundle, params) + "\n\x00\n" + backend.propose(bundle, params)
    assert _sha(text) == COMPLETION_DIGESTS[kind]
