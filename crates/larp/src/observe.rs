//! Registry-backed observability for the online serving stack.
//!
//! [`LarpObs`] points at the metric cells and (optionally) the event ring one
//! serving stack records into. It is label-free by design: every stream of a
//! fleet shares the *same* named counters through one `Arc`, so fleet-wide
//! rollups fall out of the registry with zero aggregation code, while
//! [`LarpObs::for_stream`] tags the *events* with the stream id so traces
//! stay attributable. A per-stream handle is the shared pointer, the stream
//! id and the last serving rung: 32 bytes.
//!
//! Metric set (naming scheme in DESIGN.md §5):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `larp_selections_total` | counter | healthy k-NN-selected forecasts |
//! | `larp_degraded_steps_total` | counter | forecasts by a fallback member |
//! | `larp_fallback_steps_total` | counter | last-value persistence forecasts |
//! | `larp_quarantines_total` | counter | pool members benched |
//! | `larp_quarantine_exits_total` | counter | quarantines expired |
//! | `larp_retrains_total` | counter | successful (re)trainings |
//! | `larp_retrain_failures_total` | counter | failed training attempts |
//! | `larp_nonfinite_forecasts_total` | counter | non-finite forecasts caught |
//! | `larp_faults_sanitized_total` | counter | ingestion repairs performed |
//! | `larp_retrain_us` | histogram | (re)training fit time, µs |
//! | `larp_retrain_queue_wait_us` | histogram | retrain queue wait, µs (0 inline) |
//! | `larp_retrain_install_us` | histogram | installing a fitted model, µs |
//! | `larp_slow_retrains_total` | counter | fits over the slow threshold |
//!
//! Hot-path budget: one counter increment per step plus one atomic swap;
//! events fire only on *transitions* (the serving rung changed, a member was
//! benched or re-admitted, a retrain failed or ran slow), never per sample
//! and never per successful retrain — `larp_retrains_total` and
//! `larp_retrain_us` already count and time those.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use obs::{Counter, EventKind, EventRing, Histogram, Registry, ServingRung};

use crate::online::HealthState;

/// The serving ladder state an emitted event describes.
fn rung_of(health: HealthState) -> ServingRung {
    match health {
        HealthState::Healthy => ServingRung::Primary,
        HealthState::Degraded => ServingRung::Degraded,
        HealthState::Fallback => ServingRung::Persistence,
    }
}

/// Non-zero code of a rung, so 0 can mean "no step served yet".
fn rung_code(rung: ServingRung) -> u8 {
    match rung {
        ServingRung::Primary => 1,
        ServingRung::Degraded => 2,
        ServingRung::Persistence => 3,
    }
}

/// The rung encoded by [`rung_code`] (`None` for 0).
fn rung_from_code(code: u8) -> Option<ServingRung> {
    match code {
        1 => Some(ServingRung::Primary),
        2 => Some(ServingRung::Degraded),
        3 => Some(ServingRung::Persistence),
        _ => None,
    }
}

/// The metric cells, threshold and event ring every stream of one registry
/// shares.
#[derive(Debug, Clone)]
struct Cells {
    selections: Counter,
    degraded_steps: Counter,
    fallback_steps: Counter,
    quarantines: Counter,
    quarantine_exits: Counter,
    retrains: Counter,
    retrain_failures: Counter,
    nonfinite: Counter,
    sanitized: Counter,
    retrain_us: Histogram,
    retrain_queue_wait_us: Histogram,
    retrain_install_us: Histogram,
    slow_retrains: Counter,
    /// Fit-time threshold above which a retrain counts as *slow* (emits a
    /// [`EventKind::SlowRetrain`] event and bumps `larp_slow_retrains_total`).
    slow_retrain_threshold_us: u64,
    events: Option<EventRing>,
}

/// Shared metric cells plus per-stream event context for one serving stack.
/// Attach with [`crate::OnlineLarp::attach_obs`] or
/// [`crate::GuardedLarp::attach_obs`].
#[derive(Debug)]
pub struct LarpObs {
    cells: Arc<Cells>,
    stream: Option<u64>,
    /// Last serving rung, as a [`rung_code`] (0 = none yet), for
    /// transition-only event emission. Runtime-only: deliberately not part
    /// of any snapshot.
    last_rung: AtomicU8,
}

impl LarpObs {
    /// Registers (or re-uses — registration is idempotent) the `larp_*`
    /// metric set on `registry`.
    pub fn register(registry: &Registry) -> Self {
        let cells = Cells {
            selections: registry.counter("larp_selections_total"),
            degraded_steps: registry.counter("larp_degraded_steps_total"),
            fallback_steps: registry.counter("larp_fallback_steps_total"),
            quarantines: registry.counter("larp_quarantines_total"),
            quarantine_exits: registry.counter("larp_quarantine_exits_total"),
            retrains: registry.counter("larp_retrains_total"),
            retrain_failures: registry.counter("larp_retrain_failures_total"),
            nonfinite: registry.counter("larp_nonfinite_forecasts_total"),
            sanitized: registry.counter("larp_faults_sanitized_total"),
            retrain_us: registry.histogram("larp_retrain_us"),
            retrain_queue_wait_us: registry.histogram("larp_retrain_queue_wait_us"),
            retrain_install_us: registry.histogram("larp_retrain_install_us"),
            slow_retrains: registry.counter("larp_slow_retrains_total"),
            slow_retrain_threshold_us: Self::DEFAULT_SLOW_RETRAIN_US,
            events: None,
        };
        Self { cells: Arc::new(cells), stream: None, last_rung: AtomicU8::new(0) }
    }

    /// Default slow-retrain threshold: 100 ms of fit time, ~3000× the
    /// steady-state per-sample serving budget.
    pub const DEFAULT_SLOW_RETRAIN_US: u64 = 100_000;

    /// Routes transition events into `ring` (metrics alone otherwise).
    #[must_use]
    pub fn with_events(mut self, ring: EventRing) -> Self {
        Arc::make_mut(&mut self.cells).events = Some(ring);
        self
    }

    /// Overrides the slow-retrain threshold (µs of fit time; fits strictly
    /// above it count as slow).
    #[must_use]
    pub fn with_slow_retrain_threshold_us(mut self, threshold_us: u64) -> Self {
        Arc::make_mut(&mut self.cells).slow_retrain_threshold_us = threshold_us;
        self
    }

    /// A recorder sharing these metric cells whose events carry `id` —
    /// what a fleet attaches to each of its streams.
    pub fn for_stream(&self, id: u64) -> Self {
        Self { cells: Arc::clone(&self.cells), stream: Some(id), last_rung: AtomicU8::new(0) }
    }

    fn emit(&self, kind: EventKind) {
        if let Some(ring) = &self.cells.events {
            ring.push(self.stream, kind);
        }
    }

    /// Records one served step. Events fire only when the serving rung
    /// changes (or on the first served step): a `DegradationTransition`
    /// from the old rung, then the `SelectorDecision` that opened the new
    /// one. A member switch within a rung is silent.
    pub(crate) fn record_step(&self, chosen: Option<u64>, health: HealthState) {
        let c = &self.cells;
        match health {
            HealthState::Healthy => c.selections.inc(),
            HealthState::Degraded => c.degraded_steps.inc(),
            HealthState::Fallback => c.fallback_steps.inc(),
        }
        let rung = rung_of(health);
        let before = self.last_rung.swap(rung_code(rung), Ordering::Relaxed);
        if before != rung_code(rung) {
            if let Some(from) = rung_from_code(before) {
                self.emit(EventKind::DegradationTransition { from, to: rung });
            }
            self.emit(EventKind::SelectorDecision { predictor: chosen, rung });
        }
    }

    pub(crate) fn record_quarantine(&self, predictor: usize, until_step: u64) {
        self.cells.quarantines.inc();
        self.emit(EventKind::QuarantineEnter { predictor: predictor as u64, until_step });
    }

    pub(crate) fn record_quarantine_exit(&self, predictor: usize) {
        self.cells.quarantine_exits.inc();
        self.emit(EventKind::QuarantineExit { predictor: predictor as u64 });
    }

    /// Records one successful (re)train. Queue wait (time the request sat
    /// armed/enqueued before a worker started fitting) and the fit itself are
    /// tracked as separate histograms so a saturated retrain pool is
    /// distinguishable from genuinely slow fits; the install (on the serving
    /// thread, after the fit) gets a third. Only a slow fit emits an event.
    pub(crate) fn record_retrain_success(&self, fit_us: u64, queue_wait_us: u64, install_us: u64) {
        let c = &self.cells;
        c.retrains.inc();
        c.retrain_us.record(fit_us as f64);
        c.retrain_queue_wait_us.record(queue_wait_us as f64);
        c.retrain_install_us.record(install_us as f64);
        if fit_us > c.slow_retrain_threshold_us {
            c.slow_retrains.inc();
            self.emit(EventKind::SlowRetrain { fit_us, threshold_us: c.slow_retrain_threshold_us });
        }
    }

    pub(crate) fn record_retrain_failure(&self, consecutive: u64) {
        self.cells.retrain_failures.inc();
        self.emit(EventKind::RetrainFailed { consecutive });
    }

    pub(crate) fn record_nonfinite(&self) {
        self.cells.nonfinite.inc();
    }

    pub(crate) fn record_sanitized(&self, repairs: u64) {
        self.cells.sanitized.add(repairs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up_across_streams() {
        let registry = Registry::new();
        let base = LarpObs::register(&registry);
        let a = base.for_stream(1);
        let b = base.for_stream(2);
        a.record_step(Some(0), HealthState::Healthy);
        b.record_step(Some(1), HealthState::Healthy);
        b.record_step(None, HealthState::Fallback);
        assert_eq!(a.cells.selections.get(), 2, "streams share the fleet-wide cell");
        assert_eq!(b.cells.fallback_steps.get(), 1);
    }

    #[test]
    fn events_fire_on_transitions_only() {
        let registry = Registry::new();
        let ring = EventRing::new(64);
        let o = LarpObs::register(&registry).with_events(ring.clone()).for_stream(7);
        for _ in 0..5 {
            o.record_step(Some(2), HealthState::Healthy);
        }
        assert_eq!(ring.recorded(), 1, "steady state is silent");
        o.record_step(Some(1), HealthState::Degraded);
        // A rung change emits both the transition and the new decision.
        assert_eq!(ring.recorded(), 3);
        let events = ring.recent();
        assert_eq!(events[1].kind.name(), "degradation_transition");
        assert_eq!(events[2].kind.name(), "selector_decision");
        assert_eq!(events[2].stream, Some(7));
    }

    #[test]
    fn member_flips_within_the_primary_rung_are_silent() {
        let registry = Registry::new();
        let ring = EventRing::new(64);
        let o = LarpObs::register(&registry).with_events(ring.clone()).for_stream(3);
        o.record_step(Some(0), HealthState::Healthy);
        for chosen in [1, 2, 0, 4, 1] {
            o.record_step(Some(chosen), HealthState::Healthy);
        }
        assert_eq!(ring.recorded(), 1, "only the first decision is traced");
        assert_eq!(o.cells.selections.get(), 6);
    }

    #[test]
    fn successful_retrains_are_counted_not_traced() {
        let registry = Registry::new();
        let ring = EventRing::new(64);
        let o = LarpObs::register(&registry)
            .with_events(ring.clone())
            .with_slow_retrain_threshold_us(100)
            .for_stream(1);
        o.record_retrain_success(5, 0, 1);
        assert_eq!(ring.recorded(), 0);
        assert_eq!(o.cells.retrains.get(), 1);
        o.record_retrain_success(500, 0, 1);
        assert_eq!(ring.recorded(), 1);
        assert_eq!(ring.recent()[0].kind.name(), "slow_retrain");
        assert_eq!(o.cells.slow_retrains.get(), 1);
    }

    #[test]
    fn configured_recorders_keep_sharing_the_registry_cells() {
        let registry = Registry::new();
        let base = LarpObs::register(&registry);
        let held = base.for_stream(1);
        let routed = base.with_events(EventRing::new(4)).for_stream(2);
        held.record_nonfinite();
        routed.record_nonfinite();
        assert_eq!(registry.counter("larp_nonfinite_forecasts_total").get(), 2);
    }

    #[test]
    fn per_stream_handle_is_32_bytes() {
        assert_eq!(std::mem::size_of::<LarpObs>(), 32);
        assert_eq!(std::mem::size_of::<Option<LarpObs>>(), 32);
    }

    #[test]
    fn registration_is_reentrant() {
        let registry = Registry::new();
        let a = LarpObs::register(&registry);
        let b = LarpObs::register(&registry);
        a.record_nonfinite();
        b.record_nonfinite();
        assert_eq!(a.cells.nonfinite.get(), 2);
    }
}
