"""Multi-hop question generation by incremental question rewriting.

A seq2seq transformer decodes a question once per input document; decoder
self- and cross-attention read key/value blocks accumulated from all prior
steps, so each step rewrites the previous question without re-feeding its
tokens.  Training supervises only the final step, under an adaptive
curriculum over question complexity.
"""

__version__ = "0.1.0"
