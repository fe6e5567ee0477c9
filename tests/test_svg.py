import os
import pathlib
import subprocess
import sys

import helsonlab.pipeline as pipeline

_PROBE = """
import pathlib, sys
import numpy as np
import helsonlab.pipeline
from helsonlab._svg import loglog_figure
heavy = [m for m in ("urllib.request", "ssl") if m in sys.modules]
n = np.arange(1, 9)
loglog_figure(pathlib.Path(sys.argv[1]), [("a & <b>", n, 1.0 / n)],
              title="kappa & <alpha>", x_label="n < 9", y_label="x > 0")
print(",".join(heavy))
"""


def test_import_skips_network_modules_and_text_is_escaped(tmp_path):
    # the SVG text escape must not pull urllib, http, ssl and email into
    # every pipeline import, and must keep &, < and > escaped as before
    src = str(pathlib.Path(pipeline.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    svg = tmp_path / "fig.svg"
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(svg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == ""
    text = svg.read_text()
    for want in (">kappa &amp; &lt;alpha&gt;</text>", ">n &lt; 9</text>",
                 ">x &gt; 0</text>", ">a &amp; &lt;b&gt;</text>"):
        assert want in text, want
