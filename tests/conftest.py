import os
import pathlib
import sys

from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))

# One profile for every property test: no per-example deadline, which a slow
# runner or a coverage trace can exceed, and a fixed search on CI.
settings.register_profile("xmlgram", deadline=None, derandomize="CI" in os.environ)
settings.load_profile("xmlgram")
