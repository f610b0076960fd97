"""Distributed classification with randomized networks and hypervector-compressed exchange.

Agents hold disjoint data shards, train local classifiers over a shared
random projection, and improve their predictions by exchanging and
summing classifiers; optionally each classifier travels as a single
hypervector packed by keyed circular convolution.
"""

from .classifiers import (
    ClassifierMatrix,
    evaluate,
    finalize_centroids,
    one_hot,
    predict,
    predict_batch,
    train_centroids,
    train_rls,
)
from .compression import (
    CompressedClassifier,
    KeySet,
    compress,
    compression_fidelity,
    decompress,
    from_bytes,
    generate_keys,
    to_bytes,
)
from .data import Dataset, SplitSpec, load_csv, normalize, split, synth_blobs
from .encoding import (
    InputProjection,
    encode_batch,
    encode_sample,
    init_projection,
    thermometer_encode,
)
from .harness import (
    ExperimentConfig,
    GridSpec,
    ResultRecord,
    grid_search,
    pearson,
    relative_improvement,
    report,
    run_suite,
)
from .hdc import (
    SeedSpec,
    circ_convolve,
    clip,
    cosine,
    inverse,
    random_bipolar,
    random_gaussian_key,
    superpose,
)
from .network import (
    AgentNetwork,
    ExperimentVersion,
    ModelParams,
    exchange_and_aggregate,
    partition,
    run_version,
    train_local,
)

__version__ = "0.1.0"
