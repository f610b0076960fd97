"""Distributed classification with randomized networks and hypervector-compressed exchange.

Agents hold disjoint data shards, train local classifiers over a shared
random projection, and improve their predictions by exchanging and
summing classifiers; optionally each classifier travels as a single
hypervector packed by keyed circular convolution.
"""

__version__ = "0.1.0"
