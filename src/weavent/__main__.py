"""``python -m weavent``: the command-line interface."""
import sys
from weavent.cli import main
sys.exit(main())
