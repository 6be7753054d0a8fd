import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# The CLI tests run ``python -m amolf`` in subprocesses; hand them the
# source tree too, so the suite also runs in an uninstalled checkout.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
