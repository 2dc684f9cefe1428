"""Local dataflow primitive.

The paper implements its feature-engineering and labeling-function
pipelines as MapReduce jobs on Google's framework.  Both are per-record
maps, so this subpackage provides one primitive, :func:`run_map`: an
ordered, deterministic per-record map whose output does not depend on
the execution backend it runs on.
"""

from repro.dataflow.mapreduce import run_map

__all__ = ["run_map"]
