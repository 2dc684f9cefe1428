"""Local MapReduce engine.

The paper implements its feature-engineering and labeling-function
pipelines on Google's MapReduce framework.  This subpackage provides a
small, deterministic, in-process equivalent with the same programming
model (map -> combine -> shuffle -> reduce) so the featurization and LF
application code can be written the way the paper describes, and so the
pipeline scales across local threads when corpora grow.
"""

from repro.dataflow.mapreduce import MapReduceJob, run_map, run_mapreduce

__all__ = ["MapReduceJob", "run_map", "run_mapreduce"]
