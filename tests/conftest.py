from hypothesis import settings

# Derandomized and without an example database, so every run draws the
# same examples; no per-example deadline, since one example runs whole
# drops.
settings.register_profile("thpalloc", derandomize=True, database=None,
                          deadline=None, max_examples=10)
settings.load_profile("thpalloc")
