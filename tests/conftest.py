import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session(tmp_path_factory):
    """One Ray session for the whole pytest run.  Its workers get a fresh
    remote-store read-through cache: the cache trusts a remote path to name
    the same bytes forever, and the tmp paths of an earlier pytest run
    (reused under the same names) would otherwise be served from that run's
    copies."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        runtime_env={"env_vars": {
            "LUCENE_RAY_CACHE_DIR": str(tmp_path_factory.mktemp("worker_store_cache"))
        }},
    )
    yield
    ray.shutdown()


@pytest.fixture()
def tmp_index(tmp_path):
    return str(tmp_path / "index")
