"""Default English stopword list; override with a file of one word per line."""

from __future__ import annotations

from .kg import LineSource, read_rows

DEFAULT_STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are aren as at be
    because been before being below between both but by can cannot could
    couldn did didn do does doesn doing don down during each few for from
    further had hadn has hasn have haven having he her here hers herself him
    himself his how i if in into is isn it its itself just let me more most
    mustn my myself no nor not of off on once only or other ought our ours
    ourselves out over own same shan she should shouldn so some such than
    that the their theirs them themselves then there these they this those
    through to too under until up very was wasn we were weren what when
    where which while who whom why will with won would wouldn you your yours
    yourself yourselves
    """.split()
)


def load_stopwords(source: LineSource) -> frozenset[str]:
    """Read a stopword file (one word per line, '#' comments)."""
    return frozenset(read_rows(source, lambda line: line.strip().lower()))
