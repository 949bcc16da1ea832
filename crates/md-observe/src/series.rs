//! Per-timestep time series in a bounded ring buffer.
//!
//! One [`StepSample`] per engine timestep: the step's per-task time split
//! (the eight Table-1 tasks), its total latency, and the engine counters the
//! paper's characterization needs step-resolved (neighbor rebuilds, ghost
//! counts, pair interactions, energy drift). The ring keeps the most recent
//! `capacity` steps so arbitrarily long runs stay bounded; the count of
//! evicted samples is retained so exporters can say what was dropped.

/// Number of task slots (mirrors `md_core::TaskKind::ALL`; md-observe is a
/// leaf crate, so the engine-side order is asserted by a test in md-core).
pub const NUM_TASKS: usize = 8;

/// Task labels in slot order — must match `md_core::TaskKind::ALL`.
pub const TASK_LABELS: [&str; NUM_TASKS] = [
    "Bond", "Comm", "Kspace", "Modify", "Neigh", "Other", "Output", "Pair",
];

/// One timestep's timing split and counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSample {
    /// Timestep index (engine step counter after the step ran).
    pub step: u64,
    /// Seconds spent in each task during this step, in
    /// [`TASK_LABELS`] order.
    pub task_seconds: [f64; NUM_TASKS],
    /// Wall-clock (or simulated) seconds for the whole step.
    pub wall_seconds: f64,
    /// Whether the neighbor list was rebuilt this step.
    pub neighbor_rebuild: bool,
    /// Ghost atoms communicated this step (0 for single-process runs).
    pub ghost_atoms: u64,
    /// Pair interactions evaluated this step (half-list pair count).
    pub pair_interactions: u64,
    /// Relative total-energy drift versus the first recorded step
    /// (`|E - E₀| / max(|E₀|, 1)`); `0.0` until thermo is sampled.
    pub energy_drift: f64,
}

impl Default for StepSample {
    fn default() -> Self {
        StepSample {
            step: 0,
            task_seconds: [0.0; NUM_TASKS],
            wall_seconds: 0.0,
            neighbor_rebuild: false,
            ghost_atoms: 0,
            pair_interactions: 0,
            energy_drift: 0.0,
        }
    }
}

/// Bounded ring of the most recent [`StepSample`]s.
#[derive(Debug, Clone)]
pub struct StepSeries {
    buf: Vec<StepSample>,
    capacity: usize,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    /// Total samples ever pushed (≥ `len()`).
    pushed: u64,
}

impl StepSeries {
    /// A series keeping at most `capacity` recent steps.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "step series needs capacity >= 1");
        StepSeries {
            // Grows on push: a disabled recorder — every neighbor list, FFT
            // plan and solver holds one until a real one is attached — must
            // cost no 450 KB buffer it will never fill.
            buf: Vec::new(),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    /// Appends a sample, evicting the oldest once full.
    pub fn push(&mut self, sample: StepSample) {
        if self.buf.len() < self.capacity {
            self.buf.push(sample);
        } else {
            self.buf[self.head] = sample;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed += 1;
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total samples ever pushed (retained + evicted).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Samples evicted to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// Iterates retained samples oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &StepSample> + '_ {
        let (wrapped, fresh) = self.buf.split_at(self.head);
        fresh.iter().chain(wrapped.iter())
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<&StepSample> {
        if self.buf.is_empty() {
            None
        } else if self.head == 0 {
            self.buf.last()
        } else {
            Some(&self.buf[self.head - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: u64) -> StepSample {
        StepSample {
            step,
            ..StepSample::default()
        }
    }

    #[test]
    fn fills_then_wraps_keeping_most_recent() {
        let mut s = StepSeries::new(4);
        for i in 0..10 {
            s.push(sample(i));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.total_pushed(), 10);
        assert_eq!(s.evicted(), 6);
        let steps: Vec<u64> = s.iter().map(|x| x.step).collect();
        assert_eq!(steps, vec![6, 7, 8, 9]);
        assert_eq!(s.last().unwrap().step, 9);
    }

    #[test]
    fn iterates_in_order_before_wrap() {
        let mut s = StepSeries::new(8);
        for i in 0..5 {
            s.push(sample(i));
        }
        let steps: Vec<u64> = s.iter().map(|x| x.step).collect();
        assert_eq!(steps, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.evicted(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = StepSeries::new(0);
    }
}
