//! Shared per-engine run policy: fault plan + watchdog deadline +
//! observability recorder.
//!
//! Every fallible engine carries the same knobs — an injected
//! [`FaultPlan`], a no-progress watchdog deadline, and (since the
//! sim-obs layer) an [`obs::Recorder`] — and previously each engine
//! hand-rolled the same fields and `with_fault_plan`/`with_watchdog`
//! builder methods. [`RunPolicy`] is that bundle, deduplicated, with
//! the workspace-wide default deadline in one place. The default
//! recorder is disabled ([`obs::Recorder::off`]), so an engine built
//! without observability pays a single branch per instrumentation
//! point and zero allocations.

use std::sync::Arc;
use std::time::Duration;

use obs::{ObsConfig, Recorder};

use crate::FaultPlan;

/// Default no-progress deadline for every engine's watchdog. Generous
/// enough that a legitimately slow run never trips it; tests shrink it.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(10);

/// The fault plan and watchdog deadline governing one engine value.
#[derive(Debug, Clone)]
pub struct RunPolicy {
    fault: Arc<FaultPlan>,
    watchdog: Option<Duration>,
    recorder: Recorder,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            fault: Arc::new(FaultPlan::none()),
            watchdog: Some(DEFAULT_WATCHDOG),
            recorder: Recorder::off(),
        }
    }
}

impl RunPolicy {
    /// A policy with no injected faults and the default watchdog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Arc::new(plan);
        self
    }

    /// Replace the watchdog deadline (`None` disables the watchdog).
    pub fn with_watchdog(mut self, deadline: Option<Duration>) -> Self {
        self.watchdog = deadline;
        self
    }

    /// Build and install a recorder from an observability config
    /// (disabled config ⇒ the no-op recorder).
    pub fn with_obs(mut self, cfg: &ObsConfig) -> Self {
        self.recorder = Recorder::new(cfg);
        self
    }

    /// Share an existing recorder (e.g. so a harness keeps a handle to
    /// read metrics and traces after the run).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The fault plan, for cloning into worker threads.
    pub fn fault(&self) -> &Arc<FaultPlan> {
        &self.fault
    }

    /// The watchdog deadline, if armed.
    pub fn watchdog(&self) -> Option<Duration> {
        self.watchdog
    }

    /// The observability recorder (disabled unless configured).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_clean_with_watchdog() {
        let p = RunPolicy::default();
        assert!(!p.fault().is_active());
        assert_eq!(p.watchdog(), Some(DEFAULT_WATCHDOG));
        assert!(!p.recorder().is_enabled());
    }

    #[test]
    fn obs_config_installs_a_live_recorder_clones_share_it() {
        let p = RunPolicy::new().with_obs(&ObsConfig::enabled());
        assert!(p.recorder().is_enabled());
        let q = p.clone();
        q.recorder().counter("sim_test_total", &[]).add(5);
        assert_eq!(p.recorder().counter("sim_test_total", &[]).get(), 5);
        let off = p.with_obs(&ObsConfig::disabled());
        assert!(!off.recorder().is_enabled());
    }

    #[test]
    fn builders_replace_both_knobs() {
        let p = RunPolicy::new()
            .with_fault_plan(FaultPlan::seeded(7).wedged())
            .with_watchdog(Some(Duration::from_millis(50)));
        assert!(p.fault().is_wedged());
        assert_eq!(p.watchdog(), Some(Duration::from_millis(50)));
        let p = p.with_watchdog(None);
        assert_eq!(p.watchdog(), None);
    }

    #[test]
    fn clones_share_the_fault_plan() {
        let p = RunPolicy::new().with_fault_plan(FaultPlan::seeded(1).panic_on_spawn(1));
        let q = p.clone();
        assert!(q.fault().should_panic_spawn());
        // Same underlying counters: the clone's draw consumed the index.
        assert!(!p.fault().should_panic_spawn());
        assert_eq!(p.fault().injected().panics, 1);
    }
}
