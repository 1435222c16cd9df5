//! Scheduling policies for the parsimonious work-stealing scheduler.

/// Which child of a fork the executing processor runs first.
///
/// Section 5 of the paper shows this choice dominates the cache locality of
/// structured single-touch computations: running the *future thread* first
/// yields `O(C·P·T∞²)` additional misses (Theorem 8), while running the
/// *parent thread* first can incur `Ω(C·t·T∞)` additional misses
/// (Theorem 10).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum ForkPolicy {
    /// Execute the spawned future thread (the fork's left child) first and
    /// push the parent continuation onto the deque. This is the
    /// "child-first" / "work-first" strategy of Cilk-style schedulers and
    /// the policy the paper recommends.
    #[default]
    FutureFirst,
    /// Execute the parent continuation (the fork's right child) first and
    /// push the future thread onto the deque ("helper-first" / "parent
    /// stealing").
    ParentFirst,
}

impl ForkPolicy {
    /// All policies, in the order the experiment tables report them.
    pub const ALL: [ForkPolicy; 2] = [ForkPolicy::FutureFirst, ForkPolicy::ParentFirst];

    /// A short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ForkPolicy::FutureFirst => "future-first",
            ForkPolicy::ParentFirst => "parent-first",
        }
    }
}

impl std::fmt::Display for ForkPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_default() {
        assert_eq!(ForkPolicy::FutureFirst.label(), "future-first");
        assert_eq!(ForkPolicy::ParentFirst.to_string(), "parent-first");
        assert_eq!(ForkPolicy::default(), ForkPolicy::FutureFirst);
        assert_eq!(ForkPolicy::ALL.len(), 2);
    }
}
