"""Exception hierarchy shared across the toolkit.

CorpusFormatError covers malformed or unusable input files and output
paths (CLI exit code 2);
AnalysisError covers everything that goes wrong after parsing
(CLI exit code 1).
"""


class StylokitError(Exception):
    pass


class CorpusFormatError(StylokitError):
    pass


class AnalysisError(StylokitError):
    pass
