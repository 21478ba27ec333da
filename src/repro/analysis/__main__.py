"""``python -m repro.analysis PATH ...``: exit 1 on an error, 2 on a missing path, else 0."""

import sys

from repro.analysis import check_paths, has_errors, render_text
if len(sys.argv) < 2:
    sys.stderr.write("usage: python -m repro.analysis PATH ...\n")
    sys.exit(2)
try:
    diagnostics = check_paths(sys.argv[1:])
except FileNotFoundError as exc:
    sys.stderr.write(f"error: no such file: {exc.filename}\n")
    sys.exit(2)
print(render_text(diagnostics))
sys.exit(1 if has_errors(diagnostics) else 0)
