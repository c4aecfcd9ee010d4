"""Fast response retrieval at scale: exact MIPS, learned candidate
screening, dual-encoder distillation, and the evaluation harness tying
them together."""
