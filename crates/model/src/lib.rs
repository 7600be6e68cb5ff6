//! # sim-model — payload-generic components on the conservative engines
//!
//! The circuit engines simulate exactly one workload: logic netlists.
//! This crate is the layer that turns the reproduction into a reusable
//! PDES framework (ROADMAP "beyond circuits"): user code implements
//! [`Component`] over an opaque [`Payload`], declares outbound links
//! with per-link lookahead in a [`ModelGraph`], and the adapter lowers
//! that graph onto the existing conservative machinery — components
//! become nodes with one pending-event heap each, links become input
//! ports with a receive clock each, and lookahead feeds the NULL-promise
//! protocol. Configuration ([`des::EngineConfig`]), fault semantics
//! ([`des::RunPolicy`]: injected panics surface as structured
//! [`des::SimError`]s, wedged runs trip the watchdog) and sim-obs
//! probes all come along for free.
//!
//! Two engines execute a graph:
//!
//! * [`SeqModelEngine`] (`"model-seq"`) — the sequential reference: one
//!   workset loop over component activations.
//! * [`ShardedModelEngine`] (`"model-sharded"`) — components split into
//!   K shards by the `sim-shard` partitioner (its graph-generic face,
//!   [`des::Partition::build_graph`], since component graphs may be
//!   cyclic), run by the sharded engines' one thread harness
//!   (`des::engine::threads`: shards 0 to K−2 on scoped threads, the
//!   last on the calling thread), cross-shard events/promises/NULLs
//!   over bounded mailboxes with drain-own-inbox backpressure.
//!
//! ## Determinism contract
//!
//! Model observables are **bit-identical across engines and shard
//! counts**. The runtime guarantees it with three rules (see
//! `DESIGN.md` §13 for the proof sketch):
//!
//! 1. *Strict safety*: an event is handled only once the component's
//!    local clock (min over input-port clocks) is strictly greater than
//!    its timestamp, so a timestamp cohort is never split between
//!    activations by message timing.
//! 2. *Receiver-side ordering*: `ctx.send` emissions leave at once,
//!    numbered by the sender's emission counter, and each component
//!    orders what it receives in one heap by (time, input port,
//!    emission), self-events after every port — an order fixed by model
//!    state even when handlers emit with non-monotone delays (PHOLD's
//!    signature behaviour). Only a promise (`clock + lookahead`, sent
//!    after each activation) raises a port's clock, never an event's
//!    arrival.
//! 3. *Per-component RNG*: every component owns a [`DetRng`] stream
//!    seeded from (graph seed, component id) and draws from it only
//!    inside its own handler, so trajectories are a pure function of
//!    the event order rule 1 fixed.
//!
//! ## Workloads
//!
//! [`phold`] is the canonical PDES benchmark (N LPs on a ring, constant
//! event population, tunable remote fraction and lookahead);
//! [`queueing`] is an M/M/c queueing network (exponential arrivals and
//! service, per-station routing, occupancy/latency observables).
//!
//! ## Quickstart
//!
//! ```
//! use des::EngineConfig;
//! use model::{run, Component, Ctx, EventSource, ModelGraph};
//!
//! struct Ping { hops: u64 }
//! impl Component<u64> for Ping {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
//!         ctx.send(0, 5, 1); // link 0, delay 5 >= lookahead, payload 1
//!     }
//!     fn on_event(&mut self, _src: EventSource, n: u64, ctx: &mut Ctx<'_, u64>) {
//!         self.hops += 1;
//!         let jitter = ctx.rng().range(0, 3);
//!         ctx.send(0, 5 + jitter, n + 1);
//!     }
//!     fn observables(&self, out: &mut Vec<(String, u64)>) {
//!         out.push(("hops".into(), self.hops));
//!     }
//! }
//!
//! let mut g = ModelGraph::new(42, 200); // seed, horizon
//! let a = g.add("a", Ping { hops: 0 });
//! let b = g.add("b", Ping { hops: 0 });
//! g.link(a, b, 5); // lookahead 5
//! g.link(b, a, 5);
//! let out = run("model-seq", &EngineConfig::default(), g);
//! assert!(out.stats.events_delivered > 0);
//! ```

pub mod component;
pub mod engine;
pub mod graph;
pub mod phold;
pub mod queueing;
mod rng;
pub(crate) mod runtime;

pub use component::{Component, Ctx, EventSource, Payload};
pub use engine::{
    run, try_run, ModelOutput, ModelStats, SeqModelEngine, ShardedModelEngine, MODEL_ENGINE_NAMES,
};
pub use graph::ModelGraph;
pub use rng::DetRng;
