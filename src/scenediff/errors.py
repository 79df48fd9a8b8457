"""Exception types shared across the library."""


class SceneDiffError(Exception):
    """Base class for all scenediff errors."""


class VocabularyError(SceneDiffError):
    """A category, relation, or style token is outside the configured vocabulary."""


class UnknownStyleError(VocabularyError, KeyError):
    """A style name the config does not define. A KeyError too, since it is
    a failed lookup in the config's style table."""

    __str__ = Exception.__str__  # the message alone, not KeyError's repr of it


class MissingStyleCodesError(SceneDiffError):
    """The config names a style but holds no code signatures, as in a bundle
    whose config.json lists style_names with an empty style_codes list."""


class InstructionParseError(SceneDiffError):
    """Instruction text does not match the template grammar."""


class UnsatisfiableInstructionError(SceneDiffError):
    """No dataset graph survives the instruction filter.

    ``stage`` names the first filter stage that emptied the candidate set,
    one of ``"triplets"``, ``"style"``, or ``"combined"``.
    """

    def __init__(self, message: str, stage: str = "combined"):
        super().__init__(message)
        self.stage = stage


class SupportError(SceneDiffError, ValueError):
    """A sampler state or a set of clamped slots has no dataset graph left to
    explain it: the exact denoiser's support is empty there."""


class FormatError(SceneDiffError, ValueError):
    """A scene file or a dataset bundle on disk is missing, not JSON, or
    does not hold the records the readers expect."""


class OutputError(SceneDiffError, OSError):
    """A scene file, bundle or other output cannot be written to its path:
    a missing parent directory, a directory where a file goes, or a file
    where the bundle directory goes."""


class DatasetError(SceneDiffError, RuntimeError):
    """Dataset generation could not build a consistent bundle."""
