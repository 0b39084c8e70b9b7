"""Deterministic core of a dense-video-captioning pipeline.

Proposal candidate enumeration and fused selection, context extraction over
a fixed segment grid, a linear multi-instance multi-label concept
predictor, tIoU-thresholded caption evaluation with accuracy and diversity
metrics, proposal/caption re-ranking, and training-data augmentation. All
stages run against synthetic oracles in place of neural models.
"""

from .concepts import (ConceptVocabulary, LinearConceptModel, MimlExample,
                       TrainConfig, bce_loss, load_model, predict_proposal,
                       save_model, select_even_segments, train)
from .contexts import EmptyContext, EventContextBundle, build_bundle, pool_features
from .core import (AnnotationSet, Corpus, CorpusFormatError, PredictionEntry,
                   SegmentGrid, TimeInterval, VideoMeta, VideoRecord,
                   load_features, load_ground_truth, load_meta, load_predictions,
                   save_features, save_ground_truth, save_meta, save_predictions,
                   segment_range)
from .fusion import (CandidatePool, FusionConfig, FusedProposal,
                     HeuristicPointwiseScorer, HeuristicSequentialScorer,
                     enumerate_sliding_windows, fuse_select)
from .intervals import PRTable, precision_recall, tiou, tiou_matrix
from .metrics import (DenseEvalReport, DiversityReport, bleu4, dense_eval,
                      diversity_report, repetition, self_bleu, tokenize)
from .rerank import (AugmentedPair, CaptionRerankParams, RerankWeights,
                     augment, caption_rerank, proposal_rerank)
from .synthetic import gen_synthetic, identity_predictions, make_separable_miml

__version__ = "0.1.0"
