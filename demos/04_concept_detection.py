"""Train a linear multi-label concept detector on bags of segments.

Each training example is a proposal (a bag of segment features) with
video-level concept labels but no segment-level ones. The detector scores
every segment and max-pools, so one positive segment suffices for a
positive proposal — the classic multi-instance relaxation.
"""

import numpy as np

from densecap import TrainConfig, predict_proposal, train
from densecap.concepts import proposal_accuracy
from densecap.synthetic import make_separable_miml


def main():
    examples = make_separable_miml(200, n_concepts=4, dim=16, seed=5)
    print(f"{len(examples)} proposals, "
          f"{examples[0].labels.shape[0]} concepts, "
          f"{examples[0].grid.features.shape[1]}-dim segment features")

    model, trace = train(examples, TrainConfig(epochs=60, seed=0))
    print(f"loss: {trace[0]:.4f} (epoch 1) -> {trace[-1]:.4f} (epoch {len(trace)})")
    print(f"proposal-level accuracy: {proposal_accuracy(model, examples):.3f}")

    ex = examples[0]
    probs = predict_proposal(model, ex.grid, ex.proposal)
    print(f"\nfirst proposal, pooled over the K = {model.k_segments} segments "
          "the model was trained with:")
    print(f"  true labels:    {ex.labels.astype(int)}")
    print(f"  pooled probs:   {np.round(probs, 3)}")


if __name__ == "__main__":
    main()
