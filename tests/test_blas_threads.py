"""Fits do not depend on the BLAS thread count.

One fixed script fits all five algorithms at C = 100 on a 5000x16 set at
offset 1e5 and hashes every trace line and final model.  It runs in two
subprocesses, under ``OPENBLAS_NUM_THREADS=1`` and ``=2``, and the hashes
must agree.  The set is large enough for OpenBLAS to split a product's sum
over N between threads, which the golden sets are not; a machine with a
single CPU runs both with one thread, so the test cannot see a difference
there.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import hashlib, json
import tvclust as tv
spec = tv.GeneratorSpec(kind="uniform", c_true=100, per_cluster_n=50, gen_sigma=1.0,
                        domain_box=((1e5, 1e5 + 16.0),) * 16, seed=1)
data = tv.generate(spec)
extra = {"kmeans_cprime": {"c_prime": 3}, "lazy_kmeans": {"epsilon": 0.05}}
digest = hashlib.sha256()
for algorithm in tv.ALGORITHMS:
    config = tv.RunConfig(algorithm=algorithm, c=100, max_iters=2, tol=0.0, seed=1,
                          **extra.get(algorithm, {}))
    result = tv.run(data, config)
    for record in result.trace:
        digest.update(json.dumps(record.to_dict()).encode())
    digest.update(json.dumps(tv.model_to_snapshot(result.model)).encode())
print(digest.hexdigest())
"""


def test_fits_hash_the_same_under_1_and_2_blas_threads():
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", SCRIPT],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    one, two = (proc.communicate(timeout=120) for proc in procs)
    for proc, (_, err) in zip(procs, (one, two)):
        assert proc.returncode == 0, err
    assert one[0].strip() and one[0] == two[0]
