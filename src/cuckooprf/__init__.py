"""Beyond-birthday PRF domain extension via cuckoo-hashing combiners.

The package provides k-wise independent polynomial hash families over
binary fields, the adw hash-and-XOR combiner (pp is adw with no inner
maps), the tree PRF built from a length-doubling generator, the pp and
adw domain extensions as slot layouts, three transformation builders
over those layouts (adaptive security from nonadaptive, by pp and by
adw, and generator to PRF), and a distinguisher-game harness that
measures what the naive hash-then-query construction loses to the
birthday attack and the combiners do not.
"""
