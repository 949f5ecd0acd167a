"""The four workloads, in the order they run."""

from perfbench import durable_mixed, ingest_inline, read_settled, served_open

BY_NAME = {
    module.NAME: module
    for module in (ingest_inline, read_settled, durable_mixed, served_open)
}
