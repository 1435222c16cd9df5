//! Steal scheduling: who is awake, and whom a thief steals from.
//!
//! The upper-bound theorems of the paper are statements *in expectation*
//! over the random choices of the work-stealing scheduler; the lower-bound
//! theorems exhibit specific adversarial schedules ("processor 2 falls
//! asleep just before executing w; processor 1 steals from it; ...").
//! The [`Scheduler`] trait abstracts over both — and, since the policy
//! refactor, over a whole *space* of steal policies:
//!
//! * [`PolicyScheduler`] is assembled from orthogonal dimensions — a
//!   [`VictimOrder`] (who to rob), a [`StealAmount`] (how much to take),
//!   a patience budget (how long to sit out before robbing anyone) and a
//!   locality heuristic (prefer victims whose top block is already resident
//!   in the thief's cache). The analysis tournament (E19) enumerates this
//!   space and uses the simulator as a fitness oracle over it.
//!   The named baselines are constructors of its [`PolicyConfig`]:
//!   [`PolicyConfig::ws_random`] (uniform-random victims as in the
//!   Arora–Blumofe–Plaxton analysis) and [`PolicyConfig::parsimonious`]
//!   (deterministic steal-frugal lowest-id; patience 0 is the greedy
//!   baseline).
//! * [`RandomScheduler`] is `PolicyScheduler` at `ws_random`, kept as a
//!   named type only because the standalone benchmark's adapter
//!   constructs it.
//! * [`ScriptedScheduler`] replays the adversarial scenarios used in the
//!   proofs of Theorems 9 and 10.
//!
//! Victim choice sees a [`StealContext`] — the candidate list plus a
//! per-victim deque-depth view and (when the scheduler asks for it via
//! [`Scheduler::wants_residency`]) a per-victim "is the victim's top block
//! resident in the thief's cache" probe surfaced from the simulator's
//! per-processor cache state.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use wsf_dag::NodeId;

/// How many deque entries a successful steal transfers.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum StealAmount {
    /// Classic work stealing: take the single top entry.
    #[default]
    One,
    /// Take the top `ceil(len/2)` entries; the oldest becomes the thief's
    /// current node, the rest go into the thief's deque preserving their
    /// age order (oldest nearest the top).
    Half,
}

/// The victim-selection rule of a [`PolicyScheduler`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum VictimOrder {
    /// Uniformly random among the eligible candidates, from a deterministic
    /// RNG seeded with the given seed (the ABP baseline).
    Random(u64),
    /// Always the lowest-numbered eligible candidate (deterministic).
    LowestId,
    /// Cycle through the eligible candidates: the smallest candidate id
    /// strictly greater than the previously chosen victim, wrapping around.
    RoundRobin,
    /// The eligible candidate with the deepest deque (ties break to the
    /// lowest id) — steal where the most work is queued.
    MostLoaded,
    /// The previously robbed victim again while it remains eligible
    /// (affinity), otherwise the lowest-numbered eligible candidate.
    LastVictim,
}

/// A full point in the composable steal-policy space.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PolicyConfig {
    /// Victim-selection rule.
    pub order: VictimOrder,
    /// How much a successful steal transfers.
    pub amount: StealAmount,
    /// How many non-empty steal opportunities a thief sits out before it is
    /// allowed to steal (0 = steal eagerly). An empty candidate list never
    /// consumes the budget; completing a node resets it.
    pub patience: u32,
    /// Restrict victim selection to candidates whose top block is resident
    /// in the thief's cache, whenever at least one such candidate exists.
    pub prefer_cached: bool,
}

impl PolicyConfig {
    /// The ABP baseline: uniform-random victims, steal one, no patience.
    pub fn ws_random(seed: u64) -> Self {
        PolicyConfig {
            order: VictimOrder::Random(seed),
            amount: StealAmount::One,
            patience: 0,
            prefer_cached: false,
        }
    }

    /// The deterministic steal-frugal baseline: a thief sits out `patience`
    /// consecutive steal opportunities, then robs the lowest-numbered
    /// candidate (steal one).
    ///
    /// Parsimonious work stealing (Arora–Blumofe–Plaxton, and the model of
    /// Section 3) already steals only when a processor's own deque is
    /// empty; this is the *steal-frugal* baseline on top of that rule — it
    /// trades makespan for locality by letting busy processors run ahead
    /// instead of eagerly migrating work, and it makes experiment tables
    /// reproducible byte for byte because no randomness is involved.
    /// `patience = 0` is the greedy scheduler: always steal at once from
    /// the lowest-numbered candidate.
    pub fn parsimonious(patience: u32) -> Self {
        PolicyConfig {
            order: VictimOrder::LowestId,
            amount: StealAmount::One,
            patience,
            prefer_cached: false,
        }
    }

    /// `ws-half`, promoted from the E19 tournament: uniform-random victims
    /// stealing half the victim's deque. On the Theorem-12/16 suite it
    /// strictly dominates [`PolicyConfig::ws_random`] — fewer deviations,
    /// steals, extra misses *and* a shorter makespan (see
    /// `docs/EXPERIMENTS.md` §E19).
    pub fn ws_half(seed: u64) -> Self {
        PolicyConfig {
            order: VictimOrder::Random(seed),
            amount: StealAmount::Half,
            patience: 0,
            prefer_cached: false,
        }
    }

    /// `ws-rr-eager`, promoted from the E19 tournament: round-robin victims
    /// with patience 1 — the miss-minimizer of the space (~25 % fewer extra
    /// misses than ws-random on the E19 suite at ~2 % makespan cost).
    pub fn rr_eager() -> Self {
        PolicyConfig {
            order: VictimOrder::RoundRobin,
            amount: StealAmount::One,
            patience: 1,
            prefer_cached: false,
        }
    }

    /// `ws-loaded-frugal`, promoted from the E19 tournament: most-loaded
    /// victims, steal-half, patience 16 — the steal-frugal extreme (~35 %
    /// fewer steals and ~18 % fewer extra misses than ws-random, traded
    /// for a longer makespan).
    pub fn loaded_frugal() -> Self {
        PolicyConfig {
            order: VictimOrder::MostLoaded,
            amount: StealAmount::Half,
            patience: 16,
            prefer_cached: false,
        }
    }
}

/// What a thief sees when choosing a victim: the candidate processors
/// (non-empty deques, ascending id, excluding the thief) plus per-candidate
/// views the policy dimensions key on.
///
/// `depths` and `resident` are parallel to `candidates`. Either may be
/// empty when the caller did not (or could not) provide that view — the
/// accessors then answer `0` / `false`, which every policy treats as "no
/// information" and degrades gracefully from.
#[derive(Copy, Clone, Debug)]
pub struct StealContext<'a> {
    candidates: &'a [usize],
    depths: &'a [usize],
    resident: &'a [bool],
}

impl<'a> StealContext<'a> {
    /// Builds a context from parallel slices (`depths`/`resident` may be
    /// empty when that view is not available).
    pub fn new(candidates: &'a [usize], depths: &'a [usize], resident: &'a [bool]) -> Self {
        StealContext {
            candidates,
            depths,
            resident,
        }
    }

    /// A context carrying only the candidate list (tests, simple callers).
    pub fn bare(candidates: &'a [usize]) -> Self {
        StealContext::new(candidates, &[], &[])
    }

    /// The candidate processors, in ascending id order.
    #[inline]
    pub fn candidates(&self) -> &'a [usize] {
        self.candidates
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether there are no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Deque depth of the `i`-th candidate (0 when unknown).
    #[inline]
    pub fn depth(&self, i: usize) -> usize {
        self.depths.get(i).copied().unwrap_or(0)
    }

    /// Whether the `i`-th candidate's top block is resident in the thief's
    /// cache (false when unknown or not probed).
    #[inline]
    pub fn top_resident(&self, i: usize) -> bool {
        self.resident.get(i).copied().unwrap_or(false)
    }

    /// Whether any candidate's top block is resident in the thief's cache.
    #[inline]
    pub fn any_resident(&self) -> bool {
        self.resident.iter().any(|&r| r)
    }
}

/// Controls processor wake state and steal-victim selection during a
/// simulated execution.
pub trait Scheduler {
    /// Called whenever `proc` completes `node` at `step`; for a
    /// [`Self::step_blind`] scheduler in an untraced run, only for the last
    /// node of each strand.
    fn on_complete(&mut self, _proc: usize, _node: NodeId, _step: u64) {}

    /// Called when a step passes in which no awake processor made progress
    /// and no work is in flight (the execution would otherwise be stuck).
    fn on_stalled(&mut self, _step: u64) {}

    /// Whether `proc` may act during `step`.
    fn is_awake(&mut self, _proc: usize, _step: u64) -> bool {
        true
    }

    /// Chooses a steal victim for `thief` among the context's candidates
    /// (processors with non-empty deques, excluding the thief itself).
    /// Returning `None` means the thief idles this step.
    fn choose_victim(&mut self, thief: usize, ctx: &StealContext<'_>) -> Option<usize>;

    /// Whether this scheduler wants the (more expensive) per-candidate
    /// top-block cache-residency probe filled into its [`StealContext`].
    /// Schedulers that never read it leave the probe off the hot path.
    fn wants_residency(&self) -> bool {
        false
    }

    /// How much a successful steal by this scheduler transfers.
    fn steal_amount(&self) -> StealAmount {
        StealAmount::One
    }

    /// Whether the simulator may skip this scheduler's per-step and
    /// per-completion calls inside a strand (see [`crate::ParallelSimulator`]).
    /// Return `true` only if all three hold:
    ///
    /// 1. every processor is always awake (`is_awake` is always `true`);
    /// 2. `on_stalled` does nothing;
    /// 3. `on_complete` keeps only state that a processor's latest
    ///    completion overwrites, so calling it for a strand's last node
    ///    alone leaves the same state as calling it for every node.
    ///
    /// The default is `false`: the simulator then walks every step and
    /// calls `on_complete` for every node.
    fn step_blind(&self) -> bool {
        false
    }
}

/// A scheduler assembled from the orthogonal policy dimensions of
/// [`PolicyConfig`]: victim order × steal amount × patience × locality.
///
/// `PolicyConfig::ws_random(seed)` consumes exactly one RNG draw per
/// non-empty victim choice and none on an empty one — the contract every
/// archived table's bytes rely on, pinned against [`RandomScheduler`] by
/// `crates/core/tests/policy_equivalence.rs`.
#[derive(Clone, Debug)]
pub struct PolicyScheduler {
    config: PolicyConfig,
    rng: Option<SmallRng>,
    /// Per-thief consecutive sat-out steal opportunities (grown lazily; only
    /// touched when `patience > 0`).
    waited: Vec<u32>,
    /// Per-thief previously chosen victim + 1 (0 = none yet; grown lazily;
    /// only touched by the RoundRobin / LastVictim orders).
    prev_victim: Vec<usize>,
}

impl PolicyScheduler {
    /// Creates a scheduler for one point of the policy space.
    pub fn new(config: PolicyConfig) -> Self {
        let rng = match config.order {
            VictimOrder::Random(seed) => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        PolicyScheduler {
            config,
            rng,
            waited: Vec::new(),
            prev_victim: Vec::new(),
        }
    }

    /// The configuration this scheduler was assembled from.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    fn slot(vec: &mut Vec<u32>, i: usize) -> &mut u32 {
        if vec.len() <= i {
            vec.resize(i + 1, 0);
        }
        &mut vec[i]
    }

    fn prev_slot(&mut self, thief: usize) -> &mut usize {
        if self.prev_victim.len() <= thief {
            self.prev_victim.resize(thief + 1, 0);
        }
        &mut self.prev_victim[thief]
    }
}

impl Scheduler for PolicyScheduler {
    #[inline]
    fn on_complete(&mut self, proc: usize, _node: NodeId, _step: u64) {
        // The processor had work, so its next idle phase starts from a
        // fresh waiting budget. (Skipped entirely for patience 0 so eager
        // configurations — the ws-random alias in particular — never touch
        // or grow the bookkeeping vector.)
        if self.config.patience > 0 {
            *Self::slot(&mut self.waited, proc) = 0;
        }
    }

    fn choose_victim(&mut self, thief: usize, ctx: &StealContext<'_>) -> Option<usize> {
        let n = ctx.len();
        if n == 0 {
            return None;
        }
        if self.config.patience > 0 {
            let patience = self.config.patience;
            let waited = Self::slot(&mut self.waited, thief);
            if *waited < patience {
                *waited += 1;
                return None;
            }
            *waited = 0;
        }
        // Locality heuristic: when asked for and at least one candidate's
        // top block is resident in the thief's cache, only those candidates
        // are eligible. Otherwise every candidate is.
        let filtered = self.config.prefer_cached && ctx.any_resident();
        let eligible = |i: usize| !filtered || ctx.top_resident(i);
        let chosen_idx = match self.config.order {
            VictimOrder::Random(_) => {
                let rng = self.rng.as_mut().expect("Random order carries an RNG");
                if filtered {
                    let m = (0..n).filter(|&i| eligible(i)).count();
                    let k = rng.gen_range(0..m);
                    (0..n).filter(|&i| eligible(i)).nth(k)
                } else {
                    // Exactly one draw per non-empty choice: this is the
                    // RNG-consumption contract the RandomScheduler alias
                    // (and with it every existing table's bytes) relies on.
                    Some(rng.gen_range(0..n))
                }
            }
            VictimOrder::LowestId => (0..n).find(|&i| eligible(i)),
            VictimOrder::RoundRobin => {
                let prev = *self.prev_slot(thief);
                // Smallest eligible candidate id strictly greater than the
                // previous victim (prev stores id + 1, so `>= prev` is
                // `> previous id`); wrap to the smallest eligible.
                (0..n)
                    .find(|&i| eligible(i) && ctx.candidates()[i] >= prev)
                    .or_else(|| (0..n).find(|&i| eligible(i)))
            }
            VictimOrder::MostLoaded => (0..n)
                .filter(|&i| eligible(i))
                .max_by(|&a, &b| ctx.depth(a).cmp(&ctx.depth(b)).then(b.cmp(&a))),
            VictimOrder::LastVictim => {
                let prev = *self.prev_slot(thief);
                (0..n)
                    .find(|&i| eligible(i) && ctx.candidates()[i] + 1 == prev)
                    .or_else(|| (0..n).find(|&i| eligible(i)))
            }
        };
        let victim = chosen_idx.map(|i| ctx.candidates()[i]);
        if let Some(v) = victim {
            match self.config.order {
                VictimOrder::RoundRobin | VictimOrder::LastVictim => {
                    *self.prev_slot(thief) = v + 1;
                }
                _ => {}
            }
        }
        victim
    }

    fn wants_residency(&self) -> bool {
        self.config.prefer_cached
    }

    fn steal_amount(&self) -> StealAmount {
        self.config.amount
    }

    /// Always awake, no stall hook, and `on_complete` only zeroes the
    /// processor's patience counter.
    fn step_blind(&self) -> bool {
        true
    }
}

/// The default scheduler: every processor is always awake and victims are
/// chosen uniformly at random, as in the Arora–Blumofe–Plaxton analysis the
/// paper builds on. Exactly `PolicyScheduler::new(PolicyConfig::ws_random(
/// seed))`; the named type stays because the standalone benchmark's
/// `benchmark/src/adapter.rs` constructs `RandomScheduler::new`.
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    inner: PolicyScheduler,
}

impl RandomScheduler {
    /// Creates a scheduler seeded with `seed` (deterministic per seed).
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            inner: PolicyScheduler::new(PolicyConfig::ws_random(seed)),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn choose_victim(&mut self, thief: usize, ctx: &StealContext<'_>) -> Option<usize> {
        self.inner.choose_victim(thief, ctx)
    }

    fn step_blind(&self) -> bool {
        true
    }
}

/// When a sleeping processor wakes up again.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WakeCondition {
    /// Wake once the given node has been executed (by anyone).
    AfterNode(NodeId),
    /// Wake when the execution would otherwise be stuck: no awake processor
    /// can make progress. Models the proofs' "after p1 finishes, p2 wakes
    /// up".
    WhenStalled,
    /// Wake at the given absolute step.
    AtStep(u64),
    /// Never wake up again ("falls asleep forever").
    Never,
}

/// One scripted sleep directive: when `proc` completes `after`, it falls
/// asleep until `until`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SleepDirective {
    /// The processor that falls asleep.
    pub proc: usize,
    /// The node whose completion (by that processor) triggers the sleep.
    pub after: NodeId,
    /// When the processor wakes up again.
    pub until: WakeCondition,
}

/// A deterministic, scripted adversary.
///
/// Built from a list of [`SleepDirective`]s plus per-thief victim
/// preference lists. Victim preferences are consulted in order; if none of
/// the preferred victims is a candidate, the lowest-numbered candidate is
/// used (set `strict_victims` to make the thief idle instead).
#[derive(Clone, Debug, Default)]
pub struct ScriptedScheduler {
    sleep_after: HashMap<(usize, u32), WakeCondition>,
    victim_preference: HashMap<usize, Vec<usize>>,
    strict_victims: bool,
    asleep: HashMap<usize, WakeCondition>,
    executed_nodes: std::collections::HashSet<u32>,
}

impl ScriptedScheduler {
    /// Creates an empty script (greedy: always the lowest-numbered
    /// candidate, nobody sleeps).
    pub fn new() -> Self {
        ScriptedScheduler::default()
    }

    /// Puts `proc` to sleep from the very beginning of the execution, until
    /// `until` holds. Used to keep a processor out of the race for the first
    /// few steals while the proof's scenario is being set up.
    pub fn initially_asleep(mut self, proc: usize, until: WakeCondition) -> Self {
        self.asleep.insert(proc, until);
        self
    }

    /// Adds a sleep directive.
    pub fn sleep(mut self, directive: SleepDirective) -> Self {
        self.sleep_after
            .insert((directive.proc, directive.after.0), directive.until);
        self
    }

    /// Adds a sleep directive (convenience form).
    pub fn sleep_after(self, proc: usize, after: NodeId, until: WakeCondition) -> Self {
        self.sleep(SleepDirective { proc, after, until })
    }

    /// Sets the victim preference order for `thief`.
    pub fn prefer_victims(mut self, thief: usize, victims: Vec<usize>) -> Self {
        self.victim_preference.insert(thief, victims);
        self
    }

    /// Makes thieves idle rather than fall back to an arbitrary victim when
    /// none of their preferred victims has work.
    pub fn strict_victims(mut self) -> Self {
        self.strict_victims = true;
        self
    }

    fn wake_ready(&mut self, step: u64) {
        let executed = &self.executed_nodes;
        self.asleep.retain(|_, cond| match cond {
            WakeCondition::AfterNode(n) => !executed.contains(&n.0),
            WakeCondition::AtStep(s) => step < *s,
            WakeCondition::WhenStalled | WakeCondition::Never => true,
        });
    }
}

impl Scheduler for ScriptedScheduler {
    fn on_complete(&mut self, proc: usize, node: NodeId, step: u64) {
        self.executed_nodes.insert(node.0);
        if let Some(&until) = self.sleep_after.get(&(proc, node.0)) {
            self.asleep.insert(proc, until);
        }
        self.wake_ready(step);
    }

    fn on_stalled(&mut self, _step: u64) {
        // Wake exactly one stalled sleeper (the lowest-numbered), matching
        // the proofs' one-at-a-time wake-ups.
        if let Some(&proc) = self
            .asleep
            .iter()
            .filter(|(_, c)| matches!(c, WakeCondition::WhenStalled))
            .map(|(p, _)| p)
            .min()
        {
            self.asleep.remove(&proc);
        }
    }

    fn is_awake(&mut self, proc: usize, step: u64) -> bool {
        self.wake_ready(step);
        !self.asleep.contains_key(&proc)
    }

    fn choose_victim(&mut self, thief: usize, ctx: &StealContext<'_>) -> Option<usize> {
        let candidates = ctx.candidates();
        if let Some(prefs) = self.victim_preference.get(&thief) {
            for &p in prefs {
                if candidates.contains(&p) {
                    return Some(p);
                }
            }
            if self.strict_victims {
                return None;
            }
        }
        candidates.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(candidates: &[usize]) -> StealContext<'_> {
        StealContext::bare(candidates)
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let mut a = RandomScheduler::new(7);
        let mut b = RandomScheduler::new(7);
        let candidates = [0, 1, 2, 3, 4];
        for _ in 0..32 {
            assert_eq!(
                a.choose_victim(9, &ctx(&candidates)),
                b.choose_victim(9, &ctx(&candidates))
            );
        }
        assert_eq!(a.choose_victim(9, &ctx(&[])), None);
    }

    #[test]
    fn parsimonious_policy_waits_then_steals_deterministically() {
        let mut s = PolicyScheduler::new(PolicyConfig::parsimonious(2));
        let candidates = [1usize, 3];
        // Two refusals, then a steal from the lowest candidate.
        assert_eq!(s.choose_victim(0, &ctx(&candidates)), None);
        assert_eq!(s.choose_victim(0, &ctx(&candidates)), None);
        assert_eq!(s.choose_victim(0, &ctx(&candidates)), Some(1));
        // The budget resets after the granted steal.
        assert_eq!(s.choose_victim(0, &ctx(&candidates)), None);
        // Completing a node also resets an in-progress wait.
        assert_eq!(s.choose_victim(2, &ctx(&candidates)), None);
        s.on_complete(2, NodeId(9), 5);
        assert_eq!(s.choose_victim(2, &ctx(&candidates)), None);
        // An empty candidate list never consumes the waiting budget.
        assert_eq!(s.choose_victim(0, &ctx(&[])), None);
        // patience = 0 is greedy: the lowest candidate, at once.
        let mut zero = PolicyScheduler::new(PolicyConfig::parsimonious(0));
        assert_eq!(zero.choose_victim(7, &ctx(&candidates)), Some(1));
        assert_eq!(zero.choose_victim(7, &ctx(&[])), None);
        assert!(zero.is_awake(7, 0));
    }

    #[test]
    fn round_robin_cycles_through_candidates() {
        let mut s = PolicyScheduler::new(PolicyConfig {
            order: VictimOrder::RoundRobin,
            amount: StealAmount::One,
            patience: 0,
            prefer_cached: false,
        });
        let candidates = [1usize, 3, 5];
        assert_eq!(s.choose_victim(0, &ctx(&candidates)), Some(1));
        assert_eq!(s.choose_victim(0, &ctx(&candidates)), Some(3));
        assert_eq!(s.choose_victim(0, &ctx(&candidates)), Some(5));
        assert_eq!(s.choose_victim(0, &ctx(&candidates)), Some(1), "wraps");
        // The cursor survives candidate-set changes: after victim 1 the next
        // strictly-greater candidate is taken even if the set shrank.
        assert_eq!(s.choose_victim(0, &ctx(&[5])), Some(5));
        // Cursors are per-thief.
        assert_eq!(s.choose_victim(2, &ctx(&candidates)), Some(1));
    }

    #[test]
    fn most_loaded_picks_deepest_deque_ties_to_lowest() {
        let mut s = PolicyScheduler::new(PolicyConfig {
            order: VictimOrder::MostLoaded,
            amount: StealAmount::One,
            patience: 0,
            prefer_cached: false,
        });
        let candidates = [1usize, 3, 5];
        let depths = [2usize, 7, 7];
        assert_eq!(
            s.choose_victim(0, &StealContext::new(&candidates, &depths, &[])),
            Some(3),
            "deepest wins, tie breaks to the lowest id"
        );
        // Without a depth view everything ties: lowest id.
        assert_eq!(s.choose_victim(0, &ctx(&candidates)), Some(1));
    }

    #[test]
    fn last_victim_affinity_sticks_until_victim_drains() {
        let mut s = PolicyScheduler::new(PolicyConfig {
            order: VictimOrder::LastVictim,
            amount: StealAmount::One,
            patience: 0,
            prefer_cached: false,
        });
        assert_eq!(s.choose_victim(0, &ctx(&[1, 3, 5])), Some(1));
        assert_eq!(s.choose_victim(0, &ctx(&[1, 3, 5])), Some(1), "sticky");
        assert_eq!(
            s.choose_victim(0, &ctx(&[3, 5])),
            Some(3),
            "falls back to the lowest when the old victim drained"
        );
        assert_eq!(s.choose_victim(0, &ctx(&[3, 5])), Some(3), "re-anchors");
    }

    #[test]
    fn prefer_cached_filters_to_resident_candidates() {
        let mut s = PolicyScheduler::new(PolicyConfig {
            order: VictimOrder::LowestId,
            amount: StealAmount::One,
            patience: 0,
            prefer_cached: true,
        });
        assert!(s.wants_residency());
        let candidates = [1usize, 3, 5];
        let resident = [false, true, true];
        assert_eq!(
            s.choose_victim(0, &StealContext::new(&candidates, &[], &resident)),
            Some(3),
            "lowest resident candidate wins over a lower non-resident one"
        );
        // No resident candidate: the filter disengages entirely.
        assert_eq!(
            s.choose_victim(0, &StealContext::new(&candidates, &[], &[false; 3])),
            Some(1)
        );
    }

    #[test]
    fn policy_half_and_residency_surface_through_the_trait() {
        let half = PolicyScheduler::new(PolicyConfig {
            order: VictimOrder::LowestId,
            amount: StealAmount::Half,
            patience: 0,
            prefer_cached: false,
        });
        assert_eq!(half.steal_amount(), StealAmount::Half);
        assert!(!half.wants_residency());
        let one = RandomScheduler::new(0);
        assert_eq!(Scheduler::steal_amount(&one), StealAmount::One);
        assert!(!Scheduler::wants_residency(&one));
        // The policy space runs strands; a scripted adversary never does.
        assert!(half.step_blind() && Scheduler::step_blind(&one));
        assert!(!ScriptedScheduler::new().step_blind());
    }

    #[test]
    fn scripted_sleep_and_wake_on_node() {
        let mut s =
            ScriptedScheduler::new().sleep_after(1, NodeId(5), WakeCondition::AfterNode(NodeId(9)));
        assert!(s.is_awake(1, 0));
        s.on_complete(1, NodeId(5), 1);
        assert!(!s.is_awake(1, 2));
        // Someone else completes node 9: processor 1 wakes.
        s.on_complete(0, NodeId(9), 3);
        assert!(s.is_awake(1, 4));
    }

    #[test]
    fn scripted_sleep_until_step_and_never() {
        let mut s = ScriptedScheduler::new()
            .sleep_after(0, NodeId(1), WakeCondition::AtStep(10))
            .sleep_after(1, NodeId(2), WakeCondition::Never);
        s.on_complete(0, NodeId(1), 0);
        s.on_complete(1, NodeId(2), 0);
        assert!(!s.is_awake(0, 5));
        assert!(s.is_awake(0, 10));
        assert!(!s.is_awake(1, 1_000_000));
    }

    #[test]
    fn scripted_wake_when_stalled_wakes_one_at_a_time() {
        let mut s = ScriptedScheduler::new()
            .sleep_after(0, NodeId(1), WakeCondition::WhenStalled)
            .sleep_after(1, NodeId(2), WakeCondition::WhenStalled);
        s.on_complete(0, NodeId(1), 0);
        s.on_complete(1, NodeId(2), 0);
        assert!(!s.is_awake(0, 1));
        assert!(!s.is_awake(1, 1));
        s.on_stalled(2);
        assert!(s.is_awake(0, 3), "lowest-numbered sleeper wakes first");
        assert!(!s.is_awake(1, 3));
        s.on_stalled(4);
        assert!(s.is_awake(1, 5));
    }

    #[test]
    fn initially_asleep_until_node() {
        let mut s =
            ScriptedScheduler::new().initially_asleep(2, WakeCondition::AfterNode(NodeId(4)));
        assert!(!s.is_awake(2, 0));
        assert!(s.is_awake(0, 0));
        s.on_complete(0, NodeId(4), 1);
        assert!(s.is_awake(2, 2));
    }

    #[test]
    fn scripted_victim_preferences() {
        let mut s = ScriptedScheduler::new().prefer_victims(2, vec![7, 5]);
        assert_eq!(s.choose_victim(2, &ctx(&[4, 5, 6])), Some(5));
        assert_eq!(
            s.choose_victim(2, &ctx(&[4, 6])),
            Some(4),
            "falls back to first"
        );
        let mut strict = ScriptedScheduler::new()
            .prefer_victims(2, vec![7])
            .strict_victims();
        assert_eq!(strict.choose_victim(2, &ctx(&[4, 6])), None);
        // Thieves without preferences behave greedily.
        assert_eq!(s.choose_victim(0, &ctx(&[4, 6])), Some(4));
    }
}
