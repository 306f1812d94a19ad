"""Keyword-level retry: flip the predicted kind when no candidate is credible.

A keyword whose best re-ranked probability falls below the threshold is
re-searched in the other sub-index, the connectivity features are recomputed
against the other lists, and whichever version scores the higher maximum
probability is kept. Keeping the per-keyword maximum guarantees the result
never degrades and makes a second pass a no-op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pipeline import LinkingResult, Pipeline

DEFAULT_THRESHOLD = 0.01


def adapt(result: "LinkingResult", threshold: float, pipeline: "Pipeline") -> "LinkingResult":
    """Re-link each keyword below ``threshold`` once with the opposite kind.

    A threshold of 0 retries nothing. Only operates on results that carry
    per-candidate probabilities; anything else (route-based strategies,
    degraded single-keyword results) is returned unchanged with a note.
    """
    from .pipeline import candidate_list_of  # local import to avoid a cycle

    blocks = result.blocks
    if len(blocks) < 2 or any(b.probabilities_missing() for b in blocks):
        result.diagnostics.setdefault("notes", []).append(
            "adaptation skipped: no per-candidate probabilities"
        )
        return result

    flips = result.diagnostics.setdefault("flips", [])
    lists = [candidate_list_of(block) for block in blocks]
    for i in range(len(blocks)):
        old_max = blocks[i].max_probability()
        if old_max >= threshold:
            continue
        flipped_kind = blocks[i].kind.flipped()
        trial_lists = list(lists)
        trial_lists[i] = pipeline.retrieve(blocks[i].keyword, flipped_kind)
        trial_blocks = pipeline.rescore(
            trial_lists,
            kinds=[b.kind for b in blocks[:i]] + [flipped_kind] + [b.kind for b in blocks[i + 1 :]],
            confidences=[b.er_confidence for b in blocks],
        )
        new_max = trial_blocks[i].max_probability()
        kept = new_max > old_max
        flips.append(
            {
                "keyword": blocks[i].keyword,
                "old_kind": blocks[i].kind.value,
                "new_kind": flipped_kind.value,
                "old_max_probability": old_max,
                "new_max_probability": new_max,
                "kept": kept,
            }
        )
        if not kept:
            continue
        lists = trial_lists
        # Every keyword keeps its better version, so an accepted flip
        # can only improve the other blocks it rescored.
        for j, trial in enumerate(trial_blocks):
            if j == i or trial.max_probability() > blocks[j].max_probability():
                blocks[j] = trial
    return result
