//! diode-pulse: a bounded multi-subscriber event bus for live campaign
//! telemetry.
//!
//! The engine publishes [`PulseEvent`]s — unit/site progress mirrored
//! from the `CampaignEvent` stream plus periodic [`HeartbeatSample`]s —
//! into a [`PulseBus`]. Each subscriber owns a std bounded channel
//! ([`std::sync::mpsc::sync_channel`]); publishing is a `try_send`, and
//! a full channel **drops the event and counts the drop** instead of
//! blocking the publisher. A slow subscriber therefore costs the
//! campaign nothing but its own completeness, which it can observe
//! through [`Subscriber::dropped`]. Dropping a [`Subscriber`] removes
//! its sender from the bus, which frees the channel's buffer.
//!
//! The module also hosts the two shared-state tables the heartbeat
//! sampler reads: [`WorkerStateTable`] (what each worker is doing right
//! now) and [`SchedGauges`] (queue depth, steal count, jobs retired).
//! Both are written from the scheduler hot path only when telemetry is
//! enabled; with no bus configured the engine never touches them.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, Weak};

/// What one worker is doing, as sampled into a heartbeat.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WorkerState {
    /// Waiting for work (empty local deque, nothing stolen).
    #[default]
    Idle,
    /// Running a unit-level job (site identification / warm-up).
    Unit {
        /// Application name.
        app: String,
        /// Seed index within the unit.
        seed: u32,
    },
    /// Analyzing one target site.
    Site {
        /// Application name.
        app: String,
        /// Seed index within the unit.
        seed: u32,
        /// Site label (e.g. `b0@7`).
        site: String,
    },
}

impl WorkerState {
    /// Short token for the wire format: `idle`, `unit`, or `site`.
    #[must_use]
    pub fn token(&self) -> &'static str {
        match self {
            WorkerState::Idle => "idle",
            WorkerState::Unit { .. } => "unit",
            WorkerState::Site { .. } => "site",
        }
    }
}

/// One periodic sample of campaign-wide liveness and resource state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeartbeatSample {
    /// Dense heartbeat sequence number, starting at 0.
    pub seq: u64,
    /// Nanoseconds since the campaign started.
    pub t_ns: u64,
    /// Per-worker state, indexed by worker id.
    pub workers: Vec<WorkerState>,
    /// Jobs sitting in the injector + local deques right now.
    pub queued: u64,
    /// Jobs spawned but not yet retired (scheduler `pending`).
    pub pending: u64,
    /// Cumulative successful steals.
    pub steals: u64,
    /// Cumulative jobs retired.
    pub jobs_done: u64,
    /// Solver-cache resident bytes.
    pub cache_bytes: u64,
    /// Solver-cache entry count.
    pub cache_entries: u64,
    /// Snapshot-cache resident bytes.
    pub snapshot_bytes: u64,
    /// Snapshot-cache entry count.
    pub snapshot_entries: u64,
    /// Largest interpreter heap high-water mark seen on any site so far.
    pub interp_peak_heap_bytes: u64,
}

/// One event on the pulse bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PulseEvent {
    /// A unit (app × seed) began site identification.
    UnitStarted {
        /// Application name.
        app: String,
        /// Seed index.
        seed: u32,
    },
    /// Identification finished for a unit.
    SitesIdentified {
        /// Application name.
        app: String,
        /// Seed index.
        seed: u32,
        /// Number of candidate sites found.
        sites: u64,
    },
    /// One site's full analysis completed.
    SiteFinished {
        /// Application name.
        app: String,
        /// Seed index.
        seed: u32,
        /// Site label.
        site: String,
        /// Outcome token (same vocabulary as `SiteOutcome::token`).
        outcome: String,
        /// Wall time the analysis took, in nanoseconds.
        wall_ns: u64,
        /// Solver-cache resident bytes at completion.
        cache_bytes: u64,
        /// Snapshot-cache resident bytes at completion.
        snapshot_bytes: u64,
        /// Interpreter heap high-water mark during this site's runs.
        peak_heap_bytes: u64,
    },
    /// Periodic liveness/resource sample.
    Heartbeat(HeartbeatSample),
    /// The campaign finished.
    Finished {
        /// Total campaign wall time in nanoseconds.
        wall_ns: u64,
        /// Total sites analyzed.
        sites: u64,
        /// Sites with an exposed overflow.
        exposed: u64,
    },
}

impl PulseEvent {
    /// Record-type token used in the telemetry wire format.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            PulseEvent::UnitStarted { .. } => "unit_started",
            PulseEvent::SitesIdentified { .. } => "sites_identified",
            PulseEvent::SiteFinished { .. } => "site_finished",
            PulseEvent::Heartbeat(_) => "heartbeat",
            PulseEvent::Finished { .. } => "finished",
        }
    }
}

/// The bus's sending end for one subscriber.
struct Outlet {
    events: SyncSender<PulseEvent>,
    dropped: Arc<AtomicU64>,
}

type Outlets = Mutex<Vec<Outlet>>;

/// A subscriber's receiving end of the bus: its own bounded channel.
/// Dropping it unregisters it from the bus.
pub struct Subscriber {
    events: Receiver<PulseEvent>,
    dropped: Arc<AtomicU64>,
    bus: Weak<Outlets>,
}

impl Subscriber {
    /// The oldest undelivered event, if any. Never blocks.
    pub fn try_recv(&self) -> Option<PulseEvent> {
        self.events.try_recv().ok()
    }

    /// Every currently buffered event, oldest first.
    pub fn drain(&self) -> Vec<PulseEvent> {
        self.events.try_iter().collect()
    }

    /// Events this subscriber lost to backpressure so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        // Without this, a bus that publishes nothing more (a finished
        // job) would keep the sender, and with it the whole buffer.
        if let Some(outlets) = self.bus.upgrade() {
            outlets
                .lock()
                .expect("pulse bus lock poisoned")
                .retain(|o| !Arc::ptr_eq(&o.dropped, &self.dropped));
        }
    }
}

/// The multi-subscriber fan-out bus.
#[derive(Default)]
pub struct PulseBus {
    outlets: Arc<Outlets>,
}

impl std::fmt::Debug for PulseBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PulseBus")
            .field("subscribers", &self.subscriber_count())
            .finish()
    }
}

impl PulseBus {
    /// An empty bus.
    #[must_use]
    pub fn new() -> PulseBus {
        PulseBus::default()
    }

    /// Registers a subscriber with its own channel of `capacity` events
    /// (minimum 2).
    pub fn subscribe(&self, capacity: usize) -> Subscriber {
        let (events, receiver) = sync_channel(capacity.max(2));
        let dropped = Arc::new(AtomicU64::new(0));
        self.lock().push(Outlet {
            events,
            dropped: Arc::clone(&dropped),
        });
        Subscriber {
            events: receiver,
            dropped,
            bus: Arc::downgrade(&self.outlets),
        }
    }

    /// Fans `event` out to every subscriber; returns how many channels
    /// accepted it (full ones count a drop). Never waits on a full
    /// channel. A disconnected subscriber is removed from the bus.
    pub fn publish(&self, event: &PulseEvent) -> usize {
        let mut delivered = 0;
        self.lock()
            .retain(|outlet| match outlet.events.try_send(event.clone()) {
                Ok(()) => {
                    delivered += 1;
                    true
                }
                Err(TrySendError::Full(_)) => {
                    outlet.dropped.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(TrySendError::Disconnected(_)) => false,
            });
        delivered
    }

    /// Registered subscriber count.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Outlet>> {
        self.outlets.lock().expect("pulse bus lock poisoned")
    }
}

/// Per-worker "what am I doing" table, written by workers and sampled
/// by the heartbeat thread. One uncontended mutex per worker: a worker
/// only writes its own slot, the sampler reads all of them ~20×/s.
pub struct WorkerStateTable {
    slots: Vec<Mutex<WorkerState>>,
}

impl WorkerStateTable {
    /// A table for `workers` workers, all initially idle.
    #[must_use]
    pub fn new(workers: usize) -> WorkerStateTable {
        WorkerStateTable {
            slots: (0..workers)
                .map(|_| Mutex::new(WorkerState::Idle))
                .collect(),
        }
    }

    /// Number of workers tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table tracks no workers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Records worker `index`'s current state. Out-of-range indices are
    /// ignored (can only happen on a misconfigured table).
    pub fn set(&self, index: usize, state: WorkerState) {
        if let Some(slot) = self.slots.get(index) {
            *slot.lock().expect("worker table lock poisoned") = state;
        }
    }

    /// A point-in-time copy of every worker's state.
    #[must_use]
    pub fn snapshot(&self) -> Vec<WorkerState> {
        self.slots
            .iter()
            .map(|s| s.lock().expect("worker table lock poisoned").clone())
            .collect()
    }
}

/// Scheduler-level gauges the heartbeat sampler reads: live queue
/// depth plus cumulative steal/retire counters. All relaxed atomics —
/// advisory telemetry, never a scheduling input.
#[derive(Debug, Default)]
pub struct SchedGauges {
    queued: AtomicI64,
    steals: AtomicU64,
    jobs_done: AtomicU64,
}

impl SchedGauges {
    /// Gauges at zero.
    #[must_use]
    pub fn new() -> SchedGauges {
        SchedGauges::default()
    }

    /// A job entered the injector or a local deque.
    pub fn job_queued(&self) {
        self.queued.fetch_add(1, Ordering::Relaxed);
    }

    /// A job left a queue to run.
    pub fn job_dequeued(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }

    /// A successful steal from a sibling deque.
    pub fn steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// A job finished.
    pub fn job_done(&self) {
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs currently queued (clamped at zero: decrements can race
    /// ahead of the matching increment's visibility).
    #[must_use]
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed).max(0) as u64
    }

    /// Cumulative successful steals.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Cumulative jobs retired.
    #[must_use]
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn ev(i: u64) -> PulseEvent {
        PulseEvent::SitesIdentified {
            app: "a".into(),
            seed: 0,
            sites: i,
        }
    }

    #[test]
    fn ring_round_trips_in_order() {
        let bus = PulseBus::new();
        let sub = bus.subscribe(4);
        for i in 0..4 {
            assert_eq!(bus.publish(&ev(i)), 1);
        }
        for i in 0..4 {
            assert_eq!(sub.try_recv(), Some(ev(i)));
        }
        assert_eq!(sub.try_recv(), None);
        assert_eq!(sub.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let bus = PulseBus::new();
        let sub = bus.subscribe(2);
        for i in 0..100 {
            bus.publish(&ev(i));
        }
        assert_eq!(sub.dropped(), 98);
        // Draining frees room again.
        assert_eq!(sub.try_recv(), Some(ev(0)));
        assert_eq!(bus.publish(&ev(100)), 1);
        assert_eq!(sub.drain(), vec![ev(1), ev(100)]);
        assert_eq!(sub.dropped(), 98);
        // Capacity is exact, floored at 2 (a zero-capacity std channel
        // would refuse every `try_send`).
        let three = bus.subscribe(3);
        let zero = bus.subscribe(0);
        for i in 0..10 {
            bus.publish(&ev(i));
        }
        assert_eq!(three.drain().len(), 3);
        assert_eq!(zero.drain().len(), 2);
    }

    #[test]
    fn dropped_subscriber_leaves_the_bus() {
        let bus = PulseBus::new();
        let subs: Vec<_> = (0..3).map(|_| bus.subscribe(4096)).collect();
        assert_eq!(bus.subscriber_count(), 3);
        drop(subs);
        assert_eq!(bus.subscriber_count(), 0);
        assert_eq!(bus.publish(&ev(0)), 0);
        // A subscriber outliving its bus is harmless.
        let orphan = PulseBus::new().subscribe(2);
        assert_eq!(orphan.try_recv(), None);
    }

    #[test]
    fn bus_fans_out_to_every_subscriber() {
        let bus = PulseBus::new();
        let a = bus.subscribe(8);
        let b = bus.subscribe(8);
        assert_eq!(bus.publish(&ev(7)), 2);
        assert_eq!(a.try_recv(), Some(ev(7)));
        assert_eq!(b.drain(), vec![ev(7)]);
        assert_eq!(bus.subscriber_count(), 2);
    }

    #[test]
    fn slow_subscriber_drops_without_blocking_publisher() {
        let bus = PulseBus::new();
        let fast = bus.subscribe(1024);
        let slow = bus.subscribe(2); // never drained
        for i in 0..100 {
            bus.publish(&ev(i));
        }
        assert_eq!(fast.drain().len(), 100);
        assert_eq!(fast.dropped(), 0);
        assert_eq!(slow.dropped(), 98);
        assert_eq!(slow.drain().len(), 2);
    }

    #[test]
    fn concurrent_publishers_lose_nothing_in_a_big_ring() {
        let bus = Arc::new(PulseBus::new());
        let sub = bus.subscribe(4096);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let bus = Arc::clone(&bus);
                thread::spawn(move || {
                    for i in 0..200 {
                        bus.publish(&ev(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let got = sub.drain();
        assert_eq!(got.len(), 800);
        assert_eq!(sub.dropped(), 0);
        // Per-publisher order is preserved.
        for t in 0..4u64 {
            let mine: Vec<u64> = got
                .iter()
                .filter_map(|e| match e {
                    PulseEvent::SitesIdentified { sites, .. }
                        if sites / 1000 == t && *sites >= t * 1000 =>
                    {
                        Some(*sites)
                    }
                    _ => None,
                })
                .collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "publisher {t} order");
        }
    }

    #[test]
    fn worker_table_snapshot_reflects_sets() {
        let table = WorkerStateTable::new(3);
        table.set(
            1,
            WorkerState::Unit {
                app: "x".into(),
                seed: 2,
            },
        );
        table.set(
            2,
            WorkerState::Site {
                app: "y".into(),
                seed: 0,
                site: "b0@3".into(),
            },
        );
        let snap = table.snapshot();
        assert_eq!(snap[0], WorkerState::Idle);
        assert_eq!(snap[1].token(), "unit");
        assert_eq!(snap[2].token(), "site");
        table.set(99, WorkerState::Idle); // out of range: ignored
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn sched_gauges_clamp_and_count() {
        let g = SchedGauges::new();
        g.job_queued();
        g.job_queued();
        g.job_dequeued();
        assert_eq!(g.queued(), 1);
        g.job_dequeued();
        g.job_dequeued(); // racing decrement: clamped, not wrapped
        assert_eq!(g.queued(), 0);
        g.steal();
        g.job_done();
        assert_eq!((g.steals(), g.jobs_done()), (1, 1));
    }
}
