"""Literary vs colloquial speech dialect identification.

Pipeline: WAV corpus -> framewise acoustic features (prosodic, voice quality,
spectral, temporal, MFCC) -> fixed-duration segments -> 1D-CNN classifier ->
utterance-level decision by activation averaging.  Includes feature-ablation
(RFE/IFE) harnesses, training on any union of feature sets, and a synthetic
two-class corpus generator for desk-scale verification.
"""

__version__ = "0.1.0"

from . import cnn, corpus, dsp, experiments, features, pitch, segmenter

__all__ = ["cnn", "corpus", "dsp", "experiments", "features", "pitch", "segmenter"]
