//! End-to-end and per-layer benchmark of the safetx transaction service.
//!
//! Four closed-loop workloads drive the public `safetx-service` API over
//! the threaded, wire and sharded runtimes. An untraced run reports what a
//! user of the service sees (commit throughput, commit latency, CPU per
//! commit, set-up time, memory); a traced run splits each commit across
//! the layers it passes through — service queue, runtime execution, wire
//! codec, the sans-io TM and server cores, the policy engine, the WAL and
//! the shard router. Every run checks its outcomes and fails on any
//! mismatch. See `PREDICTIONS.md` for which layer metric should move which
//! end-to-end metric on which workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod closed_loop;
pub mod deploy;
pub mod host;
pub mod replay;
pub mod service_phase;
pub mod stats;
pub mod trace;
pub mod workload;
