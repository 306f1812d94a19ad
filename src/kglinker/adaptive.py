"""Keyword-level retry: flip the predicted kind when no candidate is credible.

A keyword whose best re-ranked probability falls below the threshold is
re-searched in the other sub-index, the connectivity features are recomputed
against the other lists, and whichever version scores the higher maximum
probability is kept. Keeping the per-keyword maximum guarantees the result
never degrades and makes a second pass a no-op.
"""

from __future__ import annotations

DEFAULT_THRESHOLD = 0.01


def no_candidates_note(keyword: str) -> str:
    """The diagnostics note of a keyword whose retrieval found nothing."""
    return f"no candidates for keyword {keyword!r}"


def adapt(result, state, threshold: float, pipeline):
    """Re-link each keyword of ``result`` below ``threshold`` once with the opposite kind.

    ``state`` is the ``LinkState`` that ``pipeline`` linked ``result`` from:
    its lists are retried in place, a retry is retrieved as ``link``
    retrieves (gold injection included), and a kept flip puts its list into
    ``state`` and its retrieval notes into the diagnostics, in place of one
    first-pass "no candidates" note of its keyword. A threshold of 0
    retries nothing. A result of fewer than two blocks carries no
    per-candidate probabilities and is returned unchanged with a note.
    """
    blocks = result.blocks
    if len(blocks) < 2:
        result.diagnostics.setdefault("notes", []).append(
            "adaptation skipped: no per-candidate probabilities"
        )
        return result

    flips = result.diagnostics.setdefault("flips", [])
    for i in range(len(blocks)):
        old_max = blocks[i].max_probability()
        if old_max >= threshold:
            continue
        flipped_kind = blocks[i].kind.flipped()
        trial_lists = list(state.lists)
        notes: dict = {}
        trial_lists[i] = pipeline.retrieve_for(state.question, blocks[i].keyword, flipped_kind, notes)
        trial_blocks = pipeline.rescore(trial_lists, state.confidences)
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
        state.lists = trial_lists
        stale = no_candidates_note(blocks[i].keyword)
        first_notes = result.diagnostics.get("notes", [])
        if stale in first_notes:
            first_notes.remove(stale)
            if not first_notes:
                del result.diagnostics["notes"]
        for key, values in notes.items():
            result.diagnostics.setdefault(key, []).extend(values)
        # Every keyword keeps its better version, so an accepted flip
        # can only improve the other blocks it rescored.
        for j, trial in enumerate(trial_blocks):
            if j == i or trial.max_probability() > blocks[j].max_probability():
                blocks[j] = trial
    return result
