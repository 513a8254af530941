"""Reference object matcher: the plain windowed search, kept as a test oracle.

Every pass tries every window of every label and keeps the rightmost span;
among equal spans the earlier label wins. An EXACT match of any label beats
any STEM match. The per-word stem rule is stated here on its own, with its
numbers written out, so tests that compare ``match_object_form`` against
this function check the rule as well as the search order and its
tie-breaks. Only word splitting is the package's (``_tokenize``).
"""

import math

from factprobe.split import MatchVia, _tokenize


def stem_ratio(label_word, word):
    """``common prefix / len(label_word)`` if the pair passes the stem rule,
    else None. The common prefix must be at least max(3, ceil(0.6 * n))
    characters of the n-character label word, or all n if that is more, and
    neither word may run on for more than 4 characters past it."""
    common = 0
    while (common < len(label_word) and common < len(word)
           and label_word[common] == word[common]):
        common += 1
    required = min(len(label_word), max(3, math.ceil(0.6 * len(label_word))))
    if common < required:
        return None
    if len(label_word) - common > 4 or len(word) - common > 4:
        return None
    return common / len(label_word)


def oracle_match(sentence, labels):
    """``(span, form, MatchVia, confidence, label index)`` of the match, or
    None."""
    tokens = _tokenize(sentence)
    label_words = [[w for _, _, w in _tokenize(label)] for label in labels]

    def search(fit):
        best = None  # (span, -label index, confidence)
        for idx, words in enumerate(label_words):
            if not words:
                continue
            for start in range(len(tokens) - len(words) + 1):
                window = tokens[start:start + len(words)]
                confidence = fit(words, [t[2] for t in window])
                if confidence is None:
                    continue
                key = ((window[0][0], window[-1][1]), -idx, confidence)
                if best is None or key[:2] > best[:2]:
                    best = key
        return best

    def exact(words, window):
        return 1.0 if all(w == t for w, t in zip(words, window)) else None

    def stem(words, window):
        ratios = [stem_ratio(w, t) for w, t in zip(words, window)]
        return None if None in ratios else min(ratios)

    for via, fit in ((MatchVia.EXACT, exact), (MatchVia.STEM, stem)):
        best = search(fit)
        if best is not None:
            span, negated_index, confidence = best
            return span, sentence[span[0]:span[1]], via, confidence, -negated_index
    return None
