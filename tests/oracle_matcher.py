"""Reference object matcher: the plain windowed search, kept as a test oracle.

Every pass tries every window of every label and keeps the rightmost span;
among equal spans the earlier label wins. An EXACT match of any label beats
any STEM match. Word splitting and the per-word stem rule are the package's
own (``_tokenize``, ``_stem_word_ratio``), so tests that compare
``match_object_form`` against this function check only the search order and
its tie-breaks.
"""

from factprobe.split import MatchConfig, MatchVia, _stem_word_ratio, _tokenize


def oracle_match(sentence, labels, config=None):
    """``(span, form, MatchVia, confidence, label index)`` of the match, or
    None."""
    config = config or MatchConfig()
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
        ratios = [_stem_word_ratio(w, t, config) for w, t in zip(words, window)]
        return None if None in ratios else min(ratios)

    for via, fit in ((MatchVia.EXACT, exact), (MatchVia.STEM, stem)):
        best = search(fit)
        if best is not None:
            span, negated_index, confidence = best
            return span, sentence[span[0]:span[1]], via, confidence, -negated_index
    return None
