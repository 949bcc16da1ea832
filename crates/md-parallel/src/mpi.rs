//! MPI-function taxonomy and time ledger, mirroring the functions the paper's
//! Figures 5 and 12 break the MPI overhead into.

/// The MPI functions the characterization distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MpiFunction {
    /// `MPI_Allreduce` — global reductions (thermo output, FFT norms).
    Allreduce,
    /// `MPI_Init` — context creation, once per rank per run.
    Init,
    /// `MPI_Send` — eager point-to-point sends (FFT transposes).
    Send,
    /// `MPI_Sendrecv` — paired halo exchanges.
    Sendrecv,
    /// `MPI_Wait` — completion of nonblocking operations (skew shows here).
    Wait,
    /// `MPI_Waitany` — completion of one of several requests.
    Waitany,
    /// Everything else (`MPI_Barrier`, `MPI_Bcast`, ...).
    Others,
}

impl MpiFunction {
    /// All functions, in the order the paper's legends list them.
    pub const ALL: [MpiFunction; 7] = [
        MpiFunction::Allreduce,
        MpiFunction::Init,
        MpiFunction::Send,
        MpiFunction::Sendrecv,
        MpiFunction::Wait,
        MpiFunction::Waitany,
        MpiFunction::Others,
    ];

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            MpiFunction::Allreduce => "MPI_Allreduce",
            MpiFunction::Init => "MPI_Init",
            MpiFunction::Send => "MPI_Send",
            MpiFunction::Sendrecv => "MPI_Sendrecv",
            MpiFunction::Wait => "MPI_Wait",
            MpiFunction::Waitany => "MPI_Waitany",
            MpiFunction::Others => "others",
        }
    }

    fn index(self) -> usize {
        MpiFunction::ALL
            .iter()
            .position(|&f| f == self)
            .expect("function in ALL")
    }
}

impl std::fmt::Display for MpiFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Seconds spent inside each MPI function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MpiLedger {
    seconds: [f64; 7],
    /// Seconds of the total that are pure waiting on other ranks (the
    /// paper's "MPI imbalance").
    wait_due_to_skew: f64,
}

impl MpiLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        MpiLedger::default()
    }

    /// Adds time to a function.
    pub fn add(&mut self, func: MpiFunction, seconds: f64) {
        self.seconds[func.index()] += seconds;
    }

    /// Adds skew-wait time (also counted in the function it occurred in —
    /// call both `add` and `add_skew`).
    pub fn add_skew(&mut self, seconds: f64) {
        self.wait_due_to_skew += seconds;
    }

    /// Time in one function.
    pub fn seconds(&self, func: MpiFunction) -> f64 {
        self.seconds[func.index()]
    }

    /// Total MPI time.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Time waiting purely because of load skew.
    pub fn skew_seconds(&self) -> f64 {
        self.wait_due_to_skew
    }

    /// Share of a function in total MPI time (0..=100).
    pub fn percent(&self, func: MpiFunction) -> f64 {
        let t = self.total();
        if t > 0.0 {
            100.0 * self.seconds(func) / t
        } else {
            0.0
        }
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &MpiLedger) {
        for i in 0..7 {
            self.seconds[i] += other.seconds[i];
        }
        self.wait_due_to_skew += other.wait_due_to_skew;
    }

    /// `(function, seconds)` pairs in legend order.
    pub fn iter(&self) -> impl Iterator<Item = (MpiFunction, f64)> + '_ {
        MpiFunction::ALL.iter().map(move |&f| (f, self.seconds(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut l = MpiLedger::new();
        l.add(MpiFunction::Init, 2.0);
        l.add(MpiFunction::Wait, 1.0);
        l.add_skew(0.75);
        assert_eq!(l.total(), 3.0);
        assert!((l.percent(MpiFunction::Init) - 200.0 / 3.0).abs() < 1e-12);
        assert_eq!(l.skew_seconds(), 0.75);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = MpiLedger::new();
        a.add(MpiFunction::Send, 1.0);
        let mut b = MpiLedger::new();
        b.add(MpiFunction::Send, 2.0);
        b.add_skew(0.5);
        a.merge(&b);
        assert_eq!(a.seconds(MpiFunction::Send), 3.0);
        assert_eq!(a.skew_seconds(), 0.5);
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(MpiFunction::Allreduce.label(), "MPI_Allreduce");
        assert_eq!(MpiFunction::Others.label(), "others");
        let set: std::collections::HashSet<_> =
            MpiFunction::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(set.len(), 7);
    }
}
