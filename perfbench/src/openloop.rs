//! Open-loop load generation: blocks are offered on a fixed schedule
//! whether or not the system kept up, and each block's latency counts
//! from when it was *due*, so a stall is charged to every block it delays
//! rather than hidden by a producer that slowed down with the system.

use std::time::{Duration, Instant};

/// When each block is due, as an offset from the schedule's start: the
/// moment the transactions before it have been offered at the fixed rate.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    due: Vec<Duration>,
}

impl Schedule {
    /// Offers blocks of the given sizes at `tx_per_s` transactions per second.
    pub fn fixed_rate(sizes: impl IntoIterator<Item = usize>, tx_per_s: f64) -> Self {
        assert!(tx_per_s > 0.0, "rate must be positive");
        let mut offered = 0usize;
        let due = sizes
            .into_iter()
            .map(|n| {
                let at = Duration::from_secs_f64(offered as f64 / tx_per_s);
                offered += n;
                at
            })
            .collect();
        Schedule { due }
    }

    /// Due offsets, one per block.
    pub fn due(&self) -> &[Duration] {
        &self.due
    }

    /// Keeps only the blocks due before `horizon`.
    pub fn truncate(&mut self, horizon: Duration) {
        let keep = self.due.partition_point(|&d| d < horizon);
        self.due.truncate(keep);
    }

    /// Offers every block: waits until it is due, then calls `submit`
    /// with its index. Returns when each submit *started*, which is what
    /// lateness is measured on. `submit` may block (backpressure); later
    /// blocks then start late, and are not rescheduled.
    pub fn drive(&self, start: Instant, mut submit: impl FnMut(usize)) -> Vec<Instant> {
        let mut started = Vec::with_capacity(self.due.len());
        for (i, &due) in self.due.iter().enumerate() {
            let at = start + due;
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            started.push(Instant::now());
            submit(i);
        }
        started
    }
}

/// How late each submit started against its due time (zero when early).
pub fn lateness(start: Instant, schedule: &Schedule, started: &[Instant]) -> Vec<Duration> {
    schedule
        .due()
        .iter()
        .zip(started)
        .map(|(&due, &at)| at.saturating_duration_since(start + due))
        .collect()
}

/// Each block's latency from its due time to its verdicts' emission.
pub fn latency_from_due(start: Instant, schedule: &Schedule, emitted: &[Instant]) -> Vec<Duration> {
    schedule
        .due()
        .iter()
        .zip(emitted)
        .map(|(&due, &at)| at.saturating_duration_since(start + due))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_offered_transaction_count() {
        let mut s = Schedule::fixed_rate([2, 4, 1, 3], 1000.0);
        let ms: Vec<u128> = s.due().iter().map(|d| d.as_millis()).collect();
        assert_eq!(ms, vec![0, 2, 6, 7]);
        s.truncate(Duration::from_millis(6));
        assert_eq!(s.due().len(), 2);
    }

    #[test]
    fn a_stall_makes_later_blocks_late_and_counts_against_their_latency() {
        // Ten blocks, one every millisecond; submit of block 2 blocks for
        // 20 ms, as a full ingest queue would.
        let schedule = Schedule::fixed_rate([1; 10], 1000.0);
        let stall = Duration::from_millis(20);
        let start = Instant::now();
        let mut done = Vec::new();
        let started = schedule.drive(start, |i| {
            if i == 2 {
                std::thread::sleep(stall);
            }
            done.push(Instant::now());
        });
        let late = lateness(start, &schedule, &started);
        // Block 3 was due 1 ms after block 2 started; it waited out the
        // stall, so it started at least 19 ms late, and so did its
        // successors due within the stall.
        for (i, l) in late.iter().enumerate().skip(3).take(5) {
            assert!(
                *l >= stall - Duration::from_millis(i as u64 - 1),
                "block {i} late {l:?}"
            );
        }
        // Latency from due includes that lateness; latency from the
        // actual submit would not.
        let from_due = latency_from_due(start, &schedule, &done);
        let from_submit: Vec<Duration> = done
            .iter()
            .zip(&started)
            .map(|(d, s)| d.duration_since(*s))
            .collect();
        assert!(from_due[3] >= late[3]);
        assert!(from_submit[3] < Duration::from_millis(5));
        assert!(from_due[3] > from_submit[3] + Duration::from_millis(10));
    }

    #[test]
    fn an_idle_producer_is_never_late_by_more_than_its_sleep_overshoot() {
        let schedule = Schedule::fixed_rate([1; 5], 500.0);
        let start = Instant::now();
        let started = schedule.drive(start, |_| {});
        for l in lateness(start, &schedule, &started) {
            assert!(l < Duration::from_millis(50), "late by {l:?} with no load");
        }
    }
}
