"""Synthetic text word streams (Table 1's wuther / genesis / brown2 rows).

The paper's text data sets are word streams from Wuthering Heights, the
book of Genesis, and an excerpt of the Brown corpus — none of which can
be bundled here.  Following the paper's own observation that "text is
often well-modeled by a Zipf(1.0) distribution" (Section 3.1), we stand
in a Zipf-Mandelbrot word-rank stream with the *same length and domain
size* as each original and with the Mandelbrot offset q tuned so the
self-join size lands near the Table 1 value (real word-frequency
distributions have a flatter head than pure Zipf: "the" carries ~6% of
tokens, not 1/H ~ 10%).

The estimators only ever see the frequency profile, so matching
(n, t, SJ) preserves everything the Section 3 experiments measure.
The substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from .synthetic import zipf

__all__ = ["synthetic_text", "tokenize_text", "TEXT_PROFILES"]

#: Generator parameters per text data set: (n, vocabulary, mandelbrot q).
#: n and the Table 1 domain sizes are the paper's; q is calibrated so
#: the measured SJ approximates Table 1 (see tests/test_data_registry).
TEXT_PROFILES: dict[str, dict[str, float | int]] = {
    "wuther": {"n": 120_952, "vocabulary": 13_000, "q": 0.9},
    "genesis": {"n": 43_119, "vocabulary": 3_200, "q": 0.7},
    "brown2": {"n": 855_043, "vocabulary": 55_000, "q": 0.6},
}


def synthetic_text(
    name_or_n: str | int,
    vocabulary: int | None = None,
    q: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """A synthetic word-rank stream with text-like frequency profile.

    Parameters
    ----------
    name_or_n:
        Either one of the profile names (``"wuther"``, ``"genesis"``,
        ``"brown2"``) — in which case the calibrated profile is used —
        or an explicit stream length.
    vocabulary:
        Vocabulary size (required when a length is given).
    q:
        Zipf-Mandelbrot offset: P(rank i) ~ 1/(i + q).
    rng:
        Generator or seed.

    Returns
    -------
    numpy.ndarray
        int64 stream of word ranks (1 = most frequent word).
    """
    if isinstance(name_or_n, str):
        profile = TEXT_PROFILES.get(name_or_n)
        if profile is None:
            raise KeyError(
                f"unknown text profile {name_or_n!r}; "
                f"choose from {sorted(TEXT_PROFILES)}"
            )
        return zipf(
            int(profile["n"]),
            int(profile["vocabulary"]),
            alpha=1.0,
            offset=float(profile["q"]),
            rng=rng,
        )
    n = int(name_or_n)
    if vocabulary is None:
        raise ValueError("explicit stream length requires a vocabulary size")
    return zipf(n, int(vocabulary), alpha=1.0, offset=float(q), rng=rng)


def tokenize_text(text: str, lowercase: bool = True) -> np.ndarray:
    """Turn real text into the word-rank stream the paper's study uses.

    Splits on non-alphanumeric characters and maps each word to its
    frequency rank (1 = most common word in this text), so users with
    access to the original corpora (Wuthering Heights, Genesis, the
    Brown corpus) can reproduce Figures 9–11 on the real data, by
    passing a corpus file's text and handing the stream to
    ``accuracy_sweep``:

    >>> stream = tokenize_text("The cat saw the dog, and the dog ran.")
    >>> stream.tolist()
    [1, 4, 6, 1, 2, 3, 1, 2, 5]
    >>> accuracy_sweep(stream, dataset="wuther-real")   # doctest: +SKIP

    The rank encoding is frequency-preserving (the estimators only see
    the frequency profile), keeps the domain dense in 1..t, and matches
    how the synthetic substitutes are encoded.
    """
    import re
    from collections import Counter

    if lowercase:
        text = text.lower()
    words = re.findall(r"[a-z0-9']+" if lowercase else r"[A-Za-z0-9']+", text)
    if not words:
        return np.empty(0, dtype=np.int64)
    counts = Counter(words)
    # Rank 1 = most frequent; ties broken lexicographically for
    # determinism.
    by_rank = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    rank = {word: i + 1 for i, (word, _) in enumerate(by_rank)}
    return np.fromiter((rank[w] for w in words), dtype=np.int64, count=len(words))
