//! # `ftcolor-batch` — millions of concurrent ring instances
//!
//! The sequential [`Execution`](ftcolor_model::Execution) is one ring,
//! materialized: per-process states, registers, and outputs as live
//! Rust values. That is the right tool for *studying* an execution and
//! hopeless for *fleets* — a service colorings workload wants millions
//! of small `C_n` instances in flight at once, and millions of
//! `Vec`-of-`enum` executions are mostly pointer overhead for values
//! drawn from a tiny shared set.
//!
//! This crate runs fleets in **struct-of-arrays** form instead:
//!
//! * [`engine`] — the [`BatchEngine`]: each
//!   instance at rest is `3n` packed `u32` slots (the model-checker's
//!   interned [`ConfigCodec`](ftcolor_model::encode::ConfigCodec)
//!   encoding, lifted out of the checker and into the execution hot
//!   path; a freshly admitted instance holds its identifiers there
//!   instead) plus flat activation/time counters; each round drops the
//!   interned values no parked instance uses, so memory follows what is
//!   in flight. Sweeps visit every
//!   in-flight instance through per-worker scratch executions, in
//!   chunks claimed from one shared cursor
//!   ([`for_each_chunk`](ftcolor_model::sweep::for_each_chunk)). Outcomes are
//!   bit-identical to `Execution::run` at every thread count — the
//!   visit loop *is* `Execution::run`'s loop, quantum iterations at a
//!   time. [`engine::run_materialized`] covers the opposite regime: one
//!   giant ring (`n = 10M`) that shares nothing and should just run on
//!   a live `Execution`.
//! * [`spec`] — [`InstanceSpec`], the single
//!   schedule factory both the engine and the sequential oracle build
//!   from (bit-identity as a construction property), plus
//!   [`run_sequential`](spec::InstanceSpec::run_sequential), the oracle
//!   the differential suite pins the engine against.
//! * [`arrival`] — the seeded open-loop arrival process
//!   ([`ArrivalPlan`]) and workload stream
//!   ([`WorkloadGen`]); pure functions of their
//!   seeds.
//! * [`service`] — [`run_service`]: arrivals +
//!   engine + order-independent aggregation, split into a deterministic
//!   [`ServiceSummary`] (stdout JSON, golden-
//!   and jobs-invariant) and wall-clock
//!   [`ServiceTimings`] (stderr / bench
//!   snapshots only).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arrival;
pub mod engine;
pub mod service;
pub mod spec;

pub use arrival::{ArrivalPlan, WorkloadGen, WorkloadSpec};
pub use engine::{run_materialized, BatchConfig, BatchEngine, BatchOutcome, Termination};
pub use service::{run_service, ServiceConfig, ServiceSummary, ServiceTimings};
pub use spec::{BatchSchedule, InstanceSpec, ScheduleKind};
