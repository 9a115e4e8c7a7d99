"""Synthetic request traces matching the paper's workload statistics.

The paper's end-to-end experiments use two dataset-derived traces it
describes precisely enough to resample:

* **arXiv-Summarization, offline** (S7.3): 427 requests, total context
  64K-192K tokens, output tokens 17-5153, mean prefill:decode ratio 356.
* **arXiv-Summarization, online** (S7.4): 512 requests, input context
  22K-45K (mean 29K), decode 6-3250 (mean 348), mean P:D ratio 129.
* **OpenChat** (S7.6.3's dynamic capacity trace): chat-style lengths —
  prompts of a few hundred to a few thousand tokens, moderate outputs.

We cannot ship the datasets (offline environment), so each generator
draws from distributions fitted to those published statistics with a
fixed seed: bounded log-normals for lengths, clipped to the published
ranges and shifted to hit the published means. The substitution keeps
exactly the properties the experiments depend on: context-length range,
P:D ratio, and arrival pattern.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigError
from ..serving.request import PrefixDescriptor, Request
from ..tokens import TokenRuns


@dataclass(frozen=True)
class TraceSpec:
    """Parameters of a bounded log-normal length distribution."""

    low: int
    high: int
    mean: float

    def __post_init__(self) -> None:
        if not self.low <= self.mean <= self.high:
            raise ConfigError(
                f"mean {self.mean} outside [{self.low}, {self.high}]"
            )

    def sample(self, rng: random.Random) -> int:
        """Draw one length: log-normal clipped to [low, high].

        sigma is fixed at a chat-workload-like 0.8; mu is solved so the
        *clipped* distribution's mean approaches ``mean`` (we solve for
        the unclipped mean and rely on clipping being mild).
        """
        sigma = 0.8
        mu = math.log(self.mean) - sigma * sigma / 2.0
        value = int(round(rng.lognormvariate(mu, sigma)))
        return max(self.low, min(self.high, value))


#: Offline arXiv-Summarization (S7.3). Total context 64K-192K; the trace
#: is prefill-dominated (mean P:D 356).
ARXIV_OFFLINE_PROMPT = TraceSpec(low=63_000, high=190_000, mean=100_000)
ARXIV_OFFLINE_DECODE = TraceSpec(low=17, high=5_153, mean=281)
ARXIV_OFFLINE_COUNT = 427

#: Online arXiv-Summarization (S7.4).
ARXIV_ONLINE_PROMPT = TraceSpec(low=22_000, high=45_000, mean=29_000)
ARXIV_ONLINE_DECODE = TraceSpec(low=6, high=3_250, mean=348)
ARXIV_ONLINE_COUNT = 512

#: OpenChat chat trace (S7.6.3): short prompts, moderate decodes.
OPENCHAT_PROMPT = TraceSpec(low=64, high=8_192, mean=900)
OPENCHAT_DECODE = TraceSpec(low=16, high=2_048, mean=415)

#: ShareGPT chat trace (S1: "the average decode length for the
#: chat-based sharegpt dataset is 415 tokens").
SHAREGPT_PROMPT = TraceSpec(low=32, high=4_096, mean=650)
SHAREGPT_DECODE = TraceSpec(low=8, high=2_048, mean=415)


def _make_requests(
    name: str,
    count: int,
    prompt_spec: TraceSpec,
    decode_spec: TraceSpec,
    seed: int,
    arrivals: Optional[Sequence[float]],
    max_context: Optional[int],
) -> List[Request]:
    if count <= 0:
        raise ConfigError(f"count must be positive, got {count}")
    if arrivals is not None and len(arrivals) != count:
        raise ConfigError(
            f"{len(arrivals)} arrival times for {count} requests"
        )
    rng = random.Random(seed)
    requests: List[Request] = []
    for index in range(count):
        prompt = prompt_spec.sample(rng)
        decode = decode_spec.sample(rng)
        if max_context is not None:
            prompt = min(prompt, max_context - decode - 1)
        requests.append(
            Request(
                request_id=f"{name}-{index:04d}",
                prompt_len=prompt,
                max_new_tokens=decode,
                arrival_time=0.0 if arrivals is None else arrivals[index],
            )
        )
    return requests


def arxiv_offline_trace(
    count: int = ARXIV_OFFLINE_COUNT,
    seed: int = 2405,
    max_context: Optional[int] = 200_000,
) -> List[Request]:
    """The 427-request offline long-context trace of Figure 9/11."""
    return _make_requests(
        "arxiv-off",
        count,
        ARXIV_OFFLINE_PROMPT,
        ARXIV_OFFLINE_DECODE,
        seed,
        arrivals=None,
        max_context=max_context,
    )


def arxiv_online_trace(
    arrivals: Sequence[float],
    seed: int = 4437,
    max_context: Optional[int] = 200_000,
) -> List[Request]:
    """The 512-request online trace of Figure 10 (supply Poisson arrivals)."""
    return _make_requests(
        "arxiv-on",
        len(arrivals),
        ARXIV_ONLINE_PROMPT,
        ARXIV_ONLINE_DECODE,
        seed,
        arrivals=arrivals,
        max_context=max_context,
    )


def openchat_trace(
    arrivals: Sequence[float],
    seed: int = 7474,
    max_context: Optional[int] = 200_000,
) -> List[Request]:
    """The OpenChat-style dynamic trace of the Figure 15 capacity study."""
    return _make_requests(
        "openchat",
        len(arrivals),
        OPENCHAT_PROMPT,
        OPENCHAT_DECODE,
        seed,
        arrivals=arrivals,
        max_context=max_context,
    )


def sharegpt_trace(
    arrivals: Sequence[float],
    seed: int = 4151,
    max_context: Optional[int] = 200_000,
) -> List[Request]:
    """A ShareGPT-style chat trace (the paper's S1 motivation: decodes
    average 415 tokens, far below the model's maximum context)."""
    return _make_requests(
        "sharegpt",
        len(arrivals),
        SHAREGPT_PROMPT,
        SHAREGPT_DECODE,
        seed,
        arrivals=arrivals,
        max_context=max_context,
    )


def fixed_trace(
    count: int,
    prompt_len: int,
    max_new_tokens: int,
    name: str = "fixed",
    arrivals: Optional[Sequence[float]] = None,
) -> List[Request]:
    """Homogeneous requests for microbenchmarks (Figures 4/8/12/13)."""
    if count <= 0:
        raise ConfigError(f"count must be positive, got {count}")
    if arrivals is not None and len(arrivals) != count:
        raise ConfigError("arrivals length mismatch")
    return [
        Request(
            request_id=f"{name}-{index:04d}",
            prompt_len=prompt_len,
            max_new_tokens=max_new_tokens,
            arrival_time=0.0 if arrivals is None else arrivals[index],
        )
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# Shared-prefix workloads (the prefix-cache subsystem's traffic)
# ----------------------------------------------------------------------

#: Token-id namespaces are separated by a wide stride so ids from one
#: namespace (a system prompt, a private suffix, a response) can never
#: collide with another's — prefix matches happen only by construction.
_ID_STRIDE = 1 << 20


def _synthetic_ids(namespace: int, length: int) -> TokenRuns:
    """Deterministic distinct token ids for one logical text block: one
    run of consecutive ids at the start of its namespace."""
    if length >= _ID_STRIDE:
        # Keep every block inside its own namespace, so a shared-prefix
        # prompt stays two runs and multi-turn turn t at most 2t+1.
        raise ConfigError(
            f"a {length}-token block overflows its {_ID_STRIDE}-id namespace"
        )
    base = namespace * _ID_STRIDE
    return TokenRuns((range(base, base + length),))


#: Default private-suffix and decode lengths of the shared-prefix trace
#: (chat-sized, per the ShareGPT statistics the paper cites in S1).
SHARED_PREFIX_SUFFIX = TraceSpec(low=64, high=2_048, mean=400)
SHARED_PREFIX_DECODE = TraceSpec(low=16, high=512, mean=128)


def shared_prefix_trace(
    count: int,
    sharing_factor: int,
    prefix_tokens: int = 2_048,
    suffix_spec: TraceSpec = SHARED_PREFIX_SUFFIX,
    decode_spec: TraceSpec = SHARED_PREFIX_DECODE,
    seed: int = 9157,
    arrivals: Optional[Sequence[float]] = None,
    name: str = "sysprompt",
) -> List[Request]:
    """Requests sharing common system prompts (prefix-cache workload).

    The ``count`` requests are spread round-robin over
    ``count / sharing_factor`` groups; every member of a group carries
    the same ``prefix_tokens``-token system prompt (identical token
    ids) followed by a private suffix. ``sharing_factor=1`` degenerates
    to fully-private prompts — the cache-defeating control case.
    """
    if count <= 0:
        raise ConfigError(f"count must be positive, got {count}")
    if sharing_factor <= 0:
        raise ConfigError(
            f"sharing_factor must be positive, got {sharing_factor}"
        )
    if prefix_tokens <= 0:
        raise ConfigError(
            f"prefix_tokens must be positive, got {prefix_tokens}"
        )
    if arrivals is not None and len(arrivals) != count:
        raise ConfigError("arrivals length mismatch")
    groups = max(1, math.ceil(count / sharing_factor))
    rng = random.Random(seed)
    group_ids = [
        _synthetic_ids(group + 1, prefix_tokens) for group in range(groups)
    ]
    requests: List[Request] = []
    for index in range(count):
        group = index % groups
        suffix = suffix_spec.sample(rng)
        token_ids = group_ids[group] + _synthetic_ids(
            groups + 1 + index, suffix
        )
        requests.append(
            Request(
                request_id=f"{name}-{index:04d}",
                prompt_len=prefix_tokens + suffix,
                max_new_tokens=decode_spec.sample(rng),
                arrival_time=0.0 if arrivals is None else arrivals[index],
                prefix=PrefixDescriptor(
                    group=f"{name}-g{group}", token_ids=token_ids
                ),
            )
        )
    return requests


#: Default per-turn lengths of the multi-turn chat trace.
MULTI_TURN_FIRST = TraceSpec(low=128, high=2_048, mean=600)
MULTI_TURN_FOLLOWUP = TraceSpec(low=16, high=512, mean=120)
MULTI_TURN_DECODE = TraceSpec(low=16, high=768, mean=200)


def multi_turn_trace(
    sessions: int,
    turns: int,
    first_spec: TraceSpec = MULTI_TURN_FIRST,
    followup_spec: TraceSpec = MULTI_TURN_FOLLOWUP,
    decode_spec: TraceSpec = MULTI_TURN_DECODE,
    turn_gap: float = 30.0,
    seed: int = 5871,
    max_context: Optional[int] = 200_000,
    name: str = "chat",
) -> List[Request]:
    """Multi-turn chat sessions (the other prefix-cache workload).

    Turn ``t`` of a session resubmits the whole conversation so far —
    every earlier prompt and response — plus a fresh user message, so
    consecutive turns share a growing prefix. Response token ids are
    synthesized deterministically, exactly as a serving front-end would
    append the model's output to the history. Turns of one session
    arrive ``turn_gap`` seconds apart; sessions all start at zero and
    interleave.
    """
    if sessions <= 0 or turns <= 0:
        raise ConfigError("sessions and turns must be positive")
    if turn_gap < 0:
        raise ConfigError(f"turn_gap cannot be negative, got {turn_gap}")
    rng = random.Random(seed)
    requests: List[Request] = []
    namespace = 1
    for session in range(sessions):
        history = TokenRuns()
        for turn in range(turns):
            spec = first_spec if turn == 0 else followup_spec
            user = _synthetic_ids(namespace, spec.sample(rng))
            namespace += 1
            prompt_ids = history + user
            decode = decode_spec.sample(rng)
            if (
                max_context is not None
                and len(prompt_ids) + decode + 1 > max_context
            ):
                break  # the conversation outgrew the model's context
            requests.append(
                Request(
                    request_id=f"{name}-s{session:03d}-t{turn:02d}",
                    prompt_len=len(prompt_ids),
                    max_new_tokens=decode,
                    arrival_time=turn * turn_gap,
                    prefix=PrefixDescriptor(
                        group=f"{name}-s{session}", token_ids=prompt_ids
                    ),
                )
            )
            response = _synthetic_ids(namespace, decode)
            namespace += 1
            history = prompt_ids + response
    return requests


def trace_statistics(requests: Sequence[Request]) -> dict:
    """Summary statistics of a trace (used to validate against S7.3/7.4)."""
    if not requests:
        raise ConfigError("empty trace")
    prompts = [r.prompt_len for r in requests]
    decodes = [r.max_new_tokens for r in requests]
    return {
        "count": len(requests),
        "prompt_min": min(prompts),
        "prompt_max": max(prompts),
        "prompt_mean": sum(prompts) / len(prompts),
        "decode_min": min(decodes),
        "decode_max": max(decodes),
        "decode_mean": sum(decodes) / len(decodes),
        "pd_ratio": sum(prompts) / max(1, sum(decodes)),
    }
