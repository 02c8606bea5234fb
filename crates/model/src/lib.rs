//! # `ftcolor-model` — the asynchronous state-model substrate
//!
//! This crate implements the computing model of *"Fault Tolerant Coloring of
//! the Asynchronous Cycle"* (Fraigniaud, Lambein-Monette, Rabie, PODC 2022),
//! called the **state model** in the paper (§2): a graph of crash-prone,
//! fully asynchronous processes, each owning a single-writer/multi-reader
//! register that only its *neighbors* in the graph may read.
//!
//! A **round** of a process consists of three operations that happen
//! atomically at one time step (a *local immediate snapshot*):
//!
//! 1. **write** its current value to its own register,
//! 2. **read** the registers of all its neighbors,
//! 3. **update** its local state (possibly *returning* an output).
//!
//! Multiple processes may be activated at the same time step; the model
//! then behaves as if all of them first wrote, then all read, then all
//! updated (paper §2.1). The time between two rounds of a process is
//! arbitrary, and a process may stop being activated forever — a **crash**.
//!
//! ## What lives here
//!
//! * [`graph::Topology`] — the communication graph (cycles, cliques, grids,
//!   random bounded-degree graphs, …),
//! * [`algorithm::Algorithm`] — the trait a distributed algorithm
//!   implements (write value, read neighborhood, update),
//! * [`schedule::Schedule`] — the adversary: which processes are activated
//!   at each time step, including crash patterns,
//! * [`executor::Execution`] — the engine that runs an algorithm on a
//!   topology under a schedule and reports outputs and round complexity,
//! * [`trace::Trace`] — recorded, replayable, serializable executions,
//! * [`domain::ViewDomain`] — finite abstract view domains for the
//!   static per-process certifier (`ftcolor certify`),
//! * [`encode::ConfigCodec`] — the compact interned per-slot
//!   configuration encoding shared by the model checker's visited sets
//!   and the batch executor's instance slabs,
//! * [`sweep`] — the one parallel-for the engines share: chunks of an
//!   index range handed to scoped worker threads from one cursor,
//! * [`inputs`] — identifier assignments (staircase, random, alternating…),
//! * [`logstar`] — the iterated-logarithm machinery behind the paper's
//!   `O(log* n)` bound,
//! * [`render`] — text timelines of executions for debugging witnesses,
//! * [`decoupled`] — the DECOUPLED model of the paper's closest related
//!   work (synchronous reliable network, asynchronous crash-prone
//!   processes), for the model-separation experiment E11.
//!
//! ## Quick example
//!
//! Run a trivial "output your own identifier" algorithm on a 5-cycle under
//! the synchronous schedule:
//!
//! ```
//! use ftcolor_model::prelude::*;
//!
//! struct Echo;
//! impl Algorithm for Echo {
//!     type Input = u64;
//!     type State = u64;
//!     type Reg = u64;
//!     type Output = u64;
//!     fn init(&self, _id: ProcessId, input: u64) -> u64 { input }
//!     fn publish(&self, state: &u64) -> u64 { *state }
//!     fn step(&self, state: &mut u64, _view: &Neighborhood<'_, u64>) -> Step<u64> {
//!         Step::Return(*state)
//!     }
//! }
//!
//! # fn main() -> Result<(), ftcolor_model::ModelError> {
//! let topo = Topology::cycle(5)?;
//! let inputs = vec![10, 20, 30, 40, 50];
//! let mut exec = Execution::new(&Echo, &topo, inputs);
//! let report = exec.run(&mut Synchronous::new(), 100)?;
//! assert_eq!(report.outputs[0], Some(10));
//! assert_eq!(report.max_activations(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod algorithm;
pub mod decoupled;
pub mod domain;
pub mod encode;
pub mod error;
pub mod executor;
pub mod graph;
pub mod ids;
pub mod inputs;
pub mod logstar;
pub mod render;
pub mod schedule;
pub mod substrate;
pub mod sweep;
pub mod trace;

pub use algorithm::{Algorithm, Neighborhood, PorCert, Step};
pub use domain::{Projection, ViewDomain};
pub use encode::{CfgKey, ConfigCodec};
pub use error::{GraphError, ModelError};
pub use executor::{ExecObserver, Execution, ExecutionReport, ProcessStatus};
pub use graph::Topology;
pub use ids::{ProcessId, Time};
pub use schedule::{ActivationSet, Schedule};
pub use substrate::SubstrateReport;
pub use trace::Trace;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::algorithm::{Algorithm, Neighborhood, PorCert, Step};
    pub use crate::error::{GraphError, ModelError};
    pub use crate::executor::{ExecObserver, Execution, ExecutionReport, ProcessStatus};
    pub use crate::graph::Topology;
    pub use crate::ids::{ProcessId, Time};
    pub use crate::schedule::{
        ActivationSet, CrashPlan, FixedSequence, Laggard, RandomSubset, RoundRobin, Schedule,
        SoloRunner, Stutter, Synchronous, Then, Wave,
    };
    pub use crate::substrate::SubstrateReport;
    pub use crate::trace::Trace;
}
