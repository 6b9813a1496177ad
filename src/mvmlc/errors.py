"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operand or file shapes do not agree."""


class RepeatedIndex(ValueError):
    """An integer-array gather or scatter names one position twice."""


class AllMaskedRow(ValueError):
    """A softmax row has no unmasked position to attend to."""


class NonScalarLoss(ValueError):
    """backward() was called on a tensor that is not a scalar."""


class DoubleBackward(RuntimeError):
    """backward() was called twice on the same tape."""


class MissingFile(FileNotFoundError):
    """A manifest or referenced data file does not exist."""


class NonFiniteFeatures(ValueError):
    """A view's feature matrix contains NaN or an infinity."""


class NonBinary(ValueError):
    """A matrix required to be 0/1-valued contains other values."""


class EmptyRowMask(ValueError):
    """A sample has no available view."""


class InfeasibleRatio(ValueError):
    """A requested missing-view or missing-label ratio is outside [0, 1), or
    would leave a sample with no view."""


class DegenerateSplit(ValueError):
    """A train/test split would leave one side empty."""


class DegenerateMask(ValueError):
    """Too few known labels remain: none to average a masked loss over, or
    fewer than two labelled training rows to form a sample pair."""


class NonFiniteLoss(RuntimeError):
    """Training produced a NaN or infinite loss."""


class NoEvaluableSamples(ValueError):
    """Every sample is degenerate for the requested metric."""


class NoEvaluableLabels(ValueError):
    """Every label column is degenerate for the requested metric."""


class NonFiniteScores(ValueError):
    """A score matrix handed to the ranking metrics contains NaN."""
