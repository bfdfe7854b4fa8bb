//! Hashed timer wheel driving reactor heartbeats: one wheel per shard
//! heartbeats every channel pinned to it, so no channel owns a timer
//! thread.
//!
//! Deadlines quantize (rounding **up**, so nothing fires early) onto a
//! ring of tick-wide slots. Scheduling and cancelling are O(1)-ish
//! (cancel scans one slot); advancing visits only the slots whose ticks
//! have elapsed. Entries whose deadline lies one or more full rotations
//! in the future simply stay in their slot until a visit finds their
//! tick reached — the classic "cascade by retention" hashed-wheel
//! scheme, which never migrates entries between slots.
//!
//! The wheel is purely a data structure over explicit `Instant`s — no
//! clock reads, no threads — so tests drive it deterministically with a
//! synthetic timeline.

use std::time::{Duration, Instant};

/// Default slot count: 512 × 10 ms tick ≈ 5 s horizon before any entry
/// needs to cascade.
pub const DEFAULT_SLOTS: usize = 512;

/// Default tick width. Must stay at or below the shortest heartbeat
/// interval tests rely on (20 ms) so quantization cannot starve them.
pub const DEFAULT_TICK: Duration = Duration::from_millis(10);

/// Handle for cancelling a scheduled timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    id: u64,
    slot: u32,
}

struct Entry<T> {
    id: u64,
    deadline_tick: u64,
    payload: T,
}

/// A hashed timer wheel holding payloads of type `T`.
pub struct TimerWheel<T> {
    slots: Vec<Vec<Entry<T>>>,
    tick: Duration,
    epoch: Instant,
    /// First tick index not yet processed by [`TimerWheel::advance`].
    next_tick: u64,
    live: usize,
    next_id: u64,
}

impl<T> TimerWheel<T> {
    /// Create a wheel of `slots` slots of `tick` width, with tick 0 at
    /// `epoch`.
    pub fn new(slots: usize, tick: Duration, epoch: Instant) -> TimerWheel<T> {
        assert!(slots > 0 && !tick.is_zero());
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick,
            epoch,
            next_tick: 0,
            live: 0,
            next_id: 0,
        }
    }

    /// Live (scheduled, not yet fired or cancelled) entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Quantize `deadline` to a tick index, rounding up and clamping to
    /// the first unprocessed tick (a deadline in the past fires on the
    /// next advance, never retroactively).
    fn tick_of(&self, deadline: Instant) -> u64 {
        let offset = deadline.saturating_duration_since(self.epoch);
        let ticks = offset.as_nanos().div_ceil(self.tick.as_nanos().max(1)) as u64;
        ticks.max(self.next_tick)
    }

    /// Schedule `payload` to fire at `deadline`.
    pub fn schedule_at(&mut self, deadline: Instant, payload: T) -> TimerId {
        let deadline_tick = self.tick_of(deadline);
        let slot = (deadline_tick % self.slots.len() as u64) as u32;
        let id = self.next_id;
        self.next_id += 1;
        self.slots[slot as usize].push(Entry {
            id,
            deadline_tick,
            payload,
        });
        self.live += 1;
        TimerId { id, slot }
    }

    /// Cancel a scheduled timer. Returns whether it was still pending.
    pub fn cancel(&mut self, timer: TimerId) -> bool {
        let slot = &mut self.slots[timer.slot as usize];
        if let Some(pos) = slot.iter().position(|e| e.id == timer.id) {
            slot.swap_remove(pos);
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// The earliest pending deadline, if any. O(live) — shards hold one
    /// entry per heartbeat *group*, so this stays tiny even at 100k
    /// channels.
    pub fn next_deadline(&self) -> Option<Instant> {
        let tick = self
            .slots
            .iter()
            .flat_map(|s| s.iter().map(|e| e.deadline_tick))
            .min()?;
        // Multiply in u64 nanoseconds: `self.tick * tick as u32` would
        // truncate the tick index and wrap after 2^32 ticks (~497 days at
        // the 10 ms default), yielding a past deadline and a busy-spinning
        // shard loop. Saturation caps the offset at ~584 years.
        let offset = (self.tick.as_nanos() as u64).saturating_mul(tick);
        Some(self.epoch + Duration::from_nanos(offset))
    }

    /// Fire every entry whose deadline tick has been reached by `now`,
    /// pushing payloads into `fired` (order within a batch is
    /// unspecified). Entries in visited slots whose deadline lies a full
    /// rotation ahead are retained — the cascade.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<T>) {
        let elapsed = now.saturating_duration_since(self.epoch);
        let now_tick = (elapsed.as_nanos() / self.tick.as_nanos().max(1)) as u64;
        if now_tick < self.next_tick {
            return;
        }
        let n = self.slots.len() as u64;
        // Visiting more than one full rotation is redundant — every slot
        // has been examined once by then.
        let span = (now_tick - self.next_tick + 1).min(n);
        for i in 0..span {
            let slot = ((self.next_tick + i) % n) as usize;
            let entries = &mut self.slots[slot];
            let mut j = 0;
            while j < entries.len() {
                if entries[j].deadline_tick <= now_tick {
                    let e = entries.swap_remove(j);
                    self.live -= 1;
                    fired.push(e.payload);
                } else {
                    j += 1;
                }
            }
        }
        self.next_tick = now_tick + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel(slots: usize, tick_ms: u64) -> (TimerWheel<&'static str>, Instant) {
        let epoch = Instant::now();
        (
            TimerWheel::new(slots, Duration::from_millis(tick_ms), epoch),
            epoch,
        )
    }

    #[test]
    fn fires_at_quantized_deadline_never_early() {
        let (mut w, epoch) = wheel(8, 10);
        w.schedule_at(epoch + Duration::from_millis(15), "a"); // rounds up to tick 2
        let mut fired = Vec::new();
        w.advance(epoch + Duration::from_millis(10), &mut fired);
        assert!(fired.is_empty(), "must not fire before its quantized tick");
        w.advance(epoch + Duration::from_millis(20), &mut fired);
        assert_eq!(fired, vec!["a"]);
        assert!(w.is_empty());
    }

    #[test]
    fn cascade_entries_survive_full_rotations() {
        // 4 slots × 10 ms = 40 ms horizon; a 95 ms deadline shares slot
        // (tick 10 % 4 == 2) with a 25 ms one (tick 3... no: tick 3 % 4
        // == 3). Pick deadlines landing in the same slot: ticks 2 and 10.
        let (mut w, epoch) = wheel(4, 10);
        w.schedule_at(epoch + Duration::from_millis(20), "near"); // tick 2
        w.schedule_at(epoch + Duration::from_millis(100), "far"); // tick 10, same slot
        let mut fired = Vec::new();
        w.advance(epoch + Duration::from_millis(20), &mut fired);
        assert_eq!(fired, vec!["near"], "far entry must cascade, not fire");
        assert_eq!(w.len(), 1);
        // A sweep past several rotations reaches it exactly once.
        fired.clear();
        w.advance(epoch + Duration::from_millis(100), &mut fired);
        assert_eq!(fired, vec!["far"]);
        fired.clear();
        w.advance(epoch + Duration::from_millis(200), &mut fired);
        assert!(fired.is_empty());
    }

    #[test]
    fn coalescing_window_groups_same_tick() {
        // Entries whose raw deadlines differ by less than a tick quantize
        // to the same tick and fire in one advance — the coalescing
        // window the heartbeat groups build on.
        let (mut w, epoch) = wheel(16, 10);
        w.schedule_at(epoch + Duration::from_millis(11), "a");
        w.schedule_at(epoch + Duration::from_millis(15), "b");
        w.schedule_at(epoch + Duration::from_millis(19), "c");
        w.schedule_at(epoch + Duration::from_millis(21), "later");
        let mut fired = Vec::new();
        w.advance(epoch + Duration::from_millis(20), &mut fired);
        fired.sort_unstable();
        assert_eq!(fired, vec!["a", "b", "c"], "one wakeup serves the window");
        fired.clear();
        w.advance(epoch + Duration::from_millis(30), &mut fired);
        assert_eq!(fired, vec!["later"]);
    }

    #[test]
    fn cancel_on_close_removes_pending_entry() {
        let (mut w, epoch) = wheel(8, 10);
        let keep = w.schedule_at(epoch + Duration::from_millis(10), "keep");
        let gone = w.schedule_at(epoch + Duration::from_millis(10), "gone");
        assert!(w.cancel(gone));
        assert!(!w.cancel(gone), "double cancel reports not-pending");
        let mut fired = Vec::new();
        w.advance(epoch + Duration::from_millis(50), &mut fired);
        assert_eq!(fired, vec!["keep"]);
        assert!(!w.cancel(keep), "fired entries are no longer cancellable");
        assert!(w.is_empty());
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let (mut w, epoch) = wheel(8, 10);
        let mut fired = Vec::new();
        w.advance(epoch + Duration::from_millis(500), &mut fired); // next_tick = 51
        w.schedule_at(epoch, "stale"); // clamped forward to tick 51
        assert!(w.next_deadline().is_some());
        w.advance(epoch + Duration::from_millis(510), &mut fired);
        assert_eq!(fired, vec!["stale"]);
    }

    #[test]
    fn next_deadline_survives_past_u32_ticks() {
        // A deadline more than 2^32 ticks out (≈497 days at 10 ms) must
        // not wrap into the past — the regression was a u32 truncation of
        // the tick index in the deadline computation.
        let (mut w, epoch) = wheel(8, 10);
        let far = epoch + Duration::from_secs(60 * 60 * 24 * 500); // 500 days
        w.schedule_at(far, "eventual");
        let deadline = w.next_deadline().expect("entry pending");
        assert!(
            deadline >= far,
            "deadline wrapped into the past: {deadline:?} < {far:?}"
        );
    }

    #[test]
    fn next_deadline_tracks_minimum() {
        let (mut w, epoch) = wheel(8, 10);
        assert!(w.next_deadline().is_none());
        w.schedule_at(epoch + Duration::from_millis(70), "late");
        let id = w.schedule_at(epoch + Duration::from_millis(30), "soon");
        assert_eq!(w.next_deadline(), Some(epoch + Duration::from_millis(30)));
        w.cancel(id);
        assert_eq!(w.next_deadline(), Some(epoch + Duration::from_millis(70)));
    }
}
