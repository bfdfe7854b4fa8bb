//! Online validity monitoring and revocation (paper §3.1, §4.3).
//!
//! A dRBAC credential "may additionally require online validation
//! monitoring from an authorized *home* which is aware of any revocation
//! of the delegation". The [`RevocationBus`] is that home's interface:
//! issuers revoke credential ids, and a [`ValidityMonitor`] — one per
//! standing decision — answers whether every credential it depends on is
//! still unrevoked and unexpired. Switchboard's `AuthorizationMonitor`
//! (paper §4.3) is built directly on this: a revocation mid-connection
//! invalidates the dRBAC proof and both endpoints are told to re-validate.
//!
//! The lapse rule is stated here once, for every holder (proof cache,
//! sign-on token, channel): a decision holds "continuously over some
//! duration" (§3.1) — strictly before the earliest expiry among the
//! credentials it rests on, supports included — and until one of them is
//! revoked. The holder names that evidence when it creates the monitor;
//! the registry is not watched, since trust is withdrawn by revocation.
//!
//! Revocation is *state*, not a broadcast: the bus is a set of revoked
//! ids and a generation counter, and keeps no list of monitors. A monitor
//! remembers the generation at which its ids were last found clean and
//! re-derives its validity from the set once the counter has moved, so
//! "notified the moment a credential is revoked" means *at the monitor's
//! next use*. Every holder (proof cache, sign-on token, channel) asks per
//! request: an idle channel learns at its next request, nobody is woken.
//!
//! Ordering (fail-closed): the set grows and the generation is bumped in
//! one critical section, and a monitor reads the generation under the
//! same lock *before* it scans. A revocation thus either precedes the
//! scan, which sees it, or carries a larger generation than the monitor
//! stores, which forces a rescan: once `revoke` has returned, no monitor
//! over that id — created before or after — reports valid.

use crate::Timestamp;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Callback observing fresh revocations (see [`RevocationBus::set_observer`]).
/// Invoked with the batch of *newly* revoked ids: a single-id slice per
/// [`RevocationBus::revoke`], the whole fresh set at once per
/// [`RevocationBus::revoke_all`] — so a bulk revoke fires one bounded
/// callback instead of one per credential.
pub type RevocationObserver = Arc<dyn Fn(&[String]) + Send + Sync>;

struct BusInner {
    revoked: Mutex<HashSet<String>>,
    // How often `revoked` has grown; bumped only while its lock is held.
    generation: AtomicU64,
    // Fresh-revocation observer (durability layer); invoked outside locks.
    observer: Mutex<Option<RevocationObserver>>,
}

/// The revocation "home": the set of revoked credential ids, which issuers
/// grow and validity monitors re-read.
#[derive(Clone)]
pub struct RevocationBus {
    inner: Arc<BusInner>,
}

impl Default for RevocationBus {
    fn default() -> Self {
        Self::new()
    }
}

impl RevocationBus {
    /// New empty bus.
    pub fn new() -> RevocationBus {
        RevocationBus {
            inner: Arc::new(BusInner {
                revoked: Mutex::new(HashSet::new()),
                generation: AtomicU64::new(0),
                observer: Mutex::new(None),
            }),
        }
    }

    /// The one mutation: add `ids` to the revoked set, bump the generation
    /// in the same critical section if it grew, then show the ids that were
    /// fresh to the observer if `observed`. Returns how many were.
    fn insert(&self, ids: impl IntoIterator<Item = impl AsRef<str>>, observed: bool) -> usize {
        // Collected before the lock is taken: the iterator is caller code.
        let mut fresh: Vec<String> = ids.into_iter().map(|id| id.as_ref().to_string()).collect();
        let mut revoked = self.inner.revoked.lock();
        fresh.retain(|id| revoked.insert(id.clone()));
        if !fresh.is_empty() {
            self.inner.generation.fetch_add(1, Ordering::Release);
        }
        drop(revoked);
        if observed && !fresh.is_empty() {
            let observer = self.inner.observer.lock().clone();
            if let Some(obs) = observer {
                obs(&fresh);
            }
        }
        fresh.len()
    }

    /// Revoke a credential by id. Once this returns, no monitor that
    /// depends on it reports valid.
    pub fn revoke(&self, credential_id: &str) {
        psf_telemetry::counter!("psf.drbac.revocations").inc();
        self.insert([credential_id], true);
        audit(credential_id, String::new());
    }

    /// Install (or clear) the fresh-revocation observer. The callback
    /// fires once per *newly* revoked id (duplicate revokes are silent),
    /// outside all bus locks. The durability layer ([`crate::wal`]) uses
    /// this to append `Revoke` records for revocations issued anywhere in
    /// the stack — deployer rollbacks, supervisor teardowns, guards.
    pub fn set_observer(&self, observer: Option<RevocationObserver>) {
        *self.inner.observer.lock() = observer;
    }

    /// A non-owning way back to this bus, for the observer installed on
    /// it (an owning one would be a cycle; see [`crate::wal`]).
    pub(crate) fn weak(&self) -> impl Fn() -> Option<RevocationBus> + Send + Sync {
        let weak = Arc::downgrade(&self.inner);
        move || weak.upgrade().map(|inner| RevocationBus { inner })
    }

    /// Snapshot of every revoked credential id, sorted (deterministic for
    /// snapshots and tests). This is the drain side of the recovery API:
    /// WAL compaction persists it so revocations outlive log truncation.
    pub fn revoked_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.inner.revoked.lock().iter().cloned().collect();
        ids.sort();
        ids
    }

    /// Re-seed the bus from a recovered revocation set: every id is
    /// marked revoked (a monitor already watching one goes invalid), but
    /// the observer is *not* notified — restore is how the durability
    /// layer replays its own log, and echoing the records back would
    /// double-append them. The `psf.drbac.revocations` counter advances by
    /// the number of newly restored ids, so the metric survives restarts
    /// instead of resetting to zero. Returns that count.
    pub fn restore(&self, credential_ids: impl IntoIterator<Item = impl AsRef<str>>) -> usize {
        let fresh = self.insert(credential_ids, false);
        if fresh > 0 {
            psf_telemetry::counter!("psf.drbac.revocations").add(fresh as u64);
            audit(
                "wal-recovery",
                format!("{fresh} revocation(s) restored from durable log"),
            );
        }
        fresh
    }

    /// Whether a credential id has been revoked.
    pub fn is_revoked(&self, credential_id: &str) -> bool {
        self.inner.revoked.lock().contains(credential_id)
    }

    /// Create a monitor over the evidence of one decision: the ids of
    /// every credential it rests on and the earliest expiry among them.
    /// The monitor is immediately invalid if any id is already revoked;
    /// dropping it leaves nothing behind.
    pub fn monitor(
        &self,
        credential_ids: impl IntoIterator<Item = impl Into<String>>,
        expires: Option<Timestamp>,
    ) -> ValidityMonitor {
        let monitor = ValidityMonitor {
            bus: self.clone(),
            ids: credential_ids.into_iter().map(Into::into).collect(),
            expires,
            state: AtomicU64::new(UNSCANNED),
        };
        monitor.rescan();
        monitor
    }

    /// Revoke a batch of credential ids (e.g. everything issued to a
    /// deployment being torn down or rolled back) as **one epoch**: one
    /// pass over the revoked set, one generation, one observer callback
    /// with the whole fresh batch, one audit record — a 10⁵-credential
    /// bulk revoke fires a bounded number of callbacks instead of one per
    /// credential. Returns the number of ids that were newly revoked.
    pub fn revoke_all(&self, credential_ids: impl IntoIterator<Item = impl AsRef<str>>) -> usize {
        let mut total = 0u64;
        let fresh = self.insert(credential_ids.into_iter().inspect(|_| total += 1), true);
        if total > 0 {
            psf_telemetry::counter!("psf.drbac.revocations").add(total);
            audit("revoke-all", format!("{total} id(s), {fresh} fresh"));
        }
        fresh
    }

    /// Number of revoked credential ids.
    pub fn revoked_count(&self) -> usize {
        self.inner.revoked.lock().len()
    }
}

/// The audit record of one revocation call on `target` (an id or a label).
fn audit(target: &str, detail: String) {
    use psf_telemetry::{audit::record, Decision, Verdict};
    let target = target.to_string();
    record(Decision::Revocation, "", target, Verdict::Revoked)
        .detail(detail)
        .commit();
}

/// Monitor states no generation reaches: `DEAD | index` once the watched
/// id at that index was found revoked, `UNSCANNED` before the first look.
const DEAD: u64 = 1 << 63;
const UNSCANNED: u64 = DEAD - 1;

/// Watches the credentials underlying a decision: valid strictly before
/// their earliest expiry and until any of them is revoked, dead for good
/// from the revocation on. It is a bus handle, the ids, the expiry and
/// one word of state; the bus does not know it exists.
pub struct ValidityMonitor {
    bus: RevocationBus,
    ids: Vec<String>,
    expires: Option<Timestamp>,
    // The generation at which `ids` were last found clean, or
    // `DEAD | index of the revoked id`. Stored under the `revoked` lock.
    state: AtomicU64,
}

impl ValidityMonitor {
    /// Whether the decision still holds at `now`: no watched credential
    /// has expired or been revoked. A compare and two loads while the
    /// revoked set has not grown since the last look, one pass over the
    /// ids under the bus lock once it has.
    #[inline]
    pub fn is_valid(&self, now: Timestamp) -> bool {
        self.expires.is_none_or(|e| now < e) && self.unrevoked()
    }

    /// No watched credential has been revoked (expiry aside).
    #[inline]
    fn unrevoked(&self) -> bool {
        // Acquire pairs with the Release bump in `RevocationBus::insert`:
        // whoever sees a `revoke` as returned reads its generation here.
        let state = self.state.load(Ordering::Acquire);
        state == self.bus.inner.generation.load(Ordering::Acquire)
            || (state & DEAD == 0 && self.rescan())
    }

    /// Re-derive validity from the revoked set, under its lock: an id
    /// inserted later carries a larger generation than the one stored.
    #[cold]
    fn rescan(&self) -> bool {
        let revoked = self.bus.inner.revoked.lock();
        // Another poller may have found it dead meanwhile: keep that id.
        let mut state = self.state.load(Ordering::Relaxed);
        if state & DEAD == 0 {
            let generation = self.bus.inner.generation.load(Ordering::Relaxed);
            state = match self.ids.iter().position(|id| revoked.contains(id)) {
                Some(i) => DEAD | i as u64,
                None => generation,
            };
            self.state.store(state, Ordering::Release);
        }
        state & DEAD == 0
    }

    /// The watched credential whose revocation killed this monitor: `None`
    /// until one is revoked (expiry alone names none), then the same id
    /// on every call.
    pub fn revoked_id(&self) -> Option<&str> {
        if self.unrevoked() {
            return None;
        }
        let state = self.state.load(Ordering::Acquire);
        Some(&self.ids[(state & !DEAD) as usize])
    }

    /// The earliest expiry among the watched credentials, if any expires:
    /// the first instant at which the decision no longer holds.
    pub fn expires(&self) -> Option<Timestamp> {
        self.expires
    }

    /// The credential ids this monitor covers.
    pub fn watched_ids(&self) -> &[String] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn revocation_flips_monitor() {
        let bus = RevocationBus::new();
        let m = bus.monitor(["cred-a".to_string(), "cred-b".to_string()], None);
        assert!(m.is_valid(0));
        bus.revoke("cred-b");
        assert!(!m.is_valid(0));
        assert_eq!(m.revoked_id(), Some("cred-b"));
    }

    #[test]
    fn expiry_lapses_the_monitor_without_naming_a_revocation() {
        let bus = RevocationBus::new();
        let m = bus.monitor(["cred-a".to_string()], Some(100));
        assert_eq!(m.expires(), Some(100));
        assert!(m.is_valid(99));
        assert!(!m.is_valid(100));
        assert_eq!(m.revoked_id(), None, "an expiry is not a revocation");
        bus.revoke("cred-a");
        assert!(!m.is_valid(0));
        assert_eq!(m.revoked_id(), Some("cred-a"));
    }

    #[test]
    fn unrelated_revocation_ignored() {
        let bus = RevocationBus::new();
        let m = bus.monitor(["cred-a".to_string()], None);
        bus.revoke("cred-zzz");
        assert!(m.is_valid(0));
        assert!(m.revoked_id().is_none());
    }

    #[test]
    fn already_revoked_is_immediately_invalid() {
        let bus = RevocationBus::new();
        bus.revoke("cred-a");
        let m = bus.monitor(["cred-a".to_string()], None);
        assert!(!m.is_valid(0));
        assert!(m.revoked_id().is_some());
    }

    #[test]
    fn multiple_monitors_all_notified() {
        let bus = RevocationBus::new();
        let m1 = bus.monitor(["x".to_string()], None);
        let m2 = bus.monitor(["x".to_string(), "y".to_string()], None);
        bus.revoke("x");
        assert!(!m1.is_valid(0));
        assert!(!m2.is_valid(0));
    }

    #[test]
    fn revoke_all_batches_and_counts_fresh() {
        let bus = RevocationBus::new();
        let m = bus.monitor(["a".to_string(), "b".to_string()], None);
        bus.revoke("b");
        let fresh = bus.revoke_all(["a", "b", "c"]);
        assert_eq!(fresh, 2, "b was already revoked");
        assert!(!m.is_valid(0));
        assert!(bus.is_revoked("a") && bus.is_revoked("b") && bus.is_revoked("c"));
        assert_eq!(bus.revoked_count(), 3);
    }

    #[test]
    fn is_revoked_queryable() {
        let bus = RevocationBus::new();
        assert!(!bus.is_revoked("a"));
        bus.revoke("a");
        assert!(bus.is_revoked("a"));
        assert_eq!(bus.revoked_count(), 1);
    }

    #[test]
    fn restore_invalidates_exactly_the_monitors_it_touches() {
        let bus = RevocationBus::new();
        let observed = Arc::new(Mutex::new(Vec::new()));
        let seen = observed.clone();
        bus.set_observer(Some(Arc::new(move |ids: &[String]| {
            seen.lock().extend_from_slice(ids)
        })));
        let a = bus.monitor(["a".to_string()], None);
        let bc = bus.monitor(["b".to_string(), "c".to_string()], None);
        let d = bus.monitor(["d".to_string()], None);
        assert_eq!(bus.restore(["c", "unwatched"]), 2);
        assert!(a.is_valid(0) && d.is_valid(0));
        assert_eq!(bc.revoked_id(), Some("c"));
        // A later revocation of an earlier id does not change the verdict.
        bus.revoke("b");
        assert_eq!(bc.revoked_id(), Some("c"));
        assert_eq!(bus.restore(["c"]), 0, "already revoked");
        assert_eq!(*observed.lock(), ["b"], "restore is not echoed");
    }

    /// The safety argument of the module docs, raced: threads create
    /// monitors over `x` and poll them while another revokes `x`. Once
    /// `revoke` has returned, no monitor over `x` — created before, during
    /// or after — may report valid. (Fails if a monitor stores a generation
    /// it read after its scan.)
    #[test]
    fn no_monitor_outlives_a_returned_revoke() {
        const ROUNDS: usize = 1_000;
        let bus = RevocationBus::new();
        let start = Barrier::new(3);
        let returned: Vec<AtomicBool> = (0..ROUNDS).map(|_| AtomicBool::new(false)).collect();
        // Counted, not asserted in place: a watcher that panicked would
        // leave the others waiting at the barrier.
        let survivors = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for (round, returned) in returned.iter().enumerate() {
                        let ids = [format!("x{round}"), format!("other{round}")];
                        let mut monitors = vec![bus.monitor(ids.clone(), None)];
                        start.wait();
                        while !returned.load(Ordering::Acquire) {
                            if monitors.len() < 32 {
                                monitors.push(bus.monitor(ids.clone(), None));
                            }
                            // Either answer is fine while the race is on;
                            // a valid one stores the generation it saw.
                            for m in &monitors {
                                std::hint::black_box(m.is_valid(0));
                            }
                        }
                        monitors.push(bus.monitor(ids.clone(), None));
                        let valid = monitors.iter().filter(|m| m.is_valid(0)).count();
                        survivors.fetch_add(valid as u64, Ordering::Relaxed);
                    }
                });
            }
            s.spawn(|| {
                for (round, returned) in returned.iter().enumerate() {
                    start.wait();
                    // An unwatched id first: its generation bump sends every
                    // poll into a rescan while `x` is being inserted.
                    bus.revoke(&format!("noise{round}"));
                    bus.revoke(&format!("x{round}"));
                    returned.store(true, Ordering::Release);
                }
            });
        });
        assert_eq!(survivors.into_inner(), 0, "monitors valid after revoke");
    }

    const UNIVERSE: usize = 10;

    fn subset(mask: u16) -> Vec<String> {
        (0..UNIVERSE)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| format!("c{i}"))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a naive oracle (a set of revoked ids): after every step
        /// of a random script each live monitor is valid iff none of its
        /// ids is revoked, and a dead one names one revoked id of its own
        /// and keeps naming it.
        #[test]
        fn monitors_agree_with_a_set_of_revoked_ids(
            script in prop::collection::vec((0u8..5, any::<u16>()), 1..60),
        ) {
            let bus = RevocationBus::new();
            let mut revoked: BTreeSet<String> = BTreeSet::new();
            let mut live: Vec<(ValidityMonitor, Option<String>)> = Vec::new();
            for (op, arg) in script {
                let ids = subset(arg);
                match op {
                    0 => live.push((bus.monitor(ids, None), None)),
                    1 => {
                        let id = format!("c{}", arg as usize % UNIVERSE);
                        bus.revoke(&id);
                        revoked.insert(id);
                    }
                    2 | 3 => {
                        let fresh = ids.iter().filter(|id| !revoked.contains(*id)).count();
                        let reported = if op == 2 { bus.revoke_all(&ids) } else { bus.restore(&ids) };
                        prop_assert_eq!(reported, fresh);
                        revoked.extend(ids);
                    }
                    _ if live.is_empty() => {}
                    _ => drop(live.swap_remove(arg as usize % live.len())),
                }
                prop_assert_eq!(bus.revoked_ids(), revoked.iter().cloned().collect::<Vec<_>>());
                for (monitor, died_of) in &mut live {
                    let clean = monitor.watched_ids().iter().all(|id| !revoked.contains(id));
                    prop_assert_eq!(monitor.is_valid(0), clean);
                    let named = monitor.revoked_id().map(str::to_string);
                    match (&named, &died_of) {
                        (None, _) => prop_assert!(clean),
                        (Some(id), None) => prop_assert!(
                            revoked.contains(id) && monitor.watched_ids().contains(id)
                        ),
                        (Some(_), Some(_)) => prop_assert_eq!(&named, &*died_of),
                    }
                    *died_of = named;
                }
            }
        }
    }
}
