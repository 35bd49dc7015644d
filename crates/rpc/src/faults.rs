//! Deterministic fault-injection plane for the simulated network.
//!
//! A [`FaultSchedule`] is a declarative list of [`FaultRule`]s plus a
//! PRNG seed. Every call crossing the [`crate::Network`] is matched
//! against the rules in order (first match wins) and, when a rule fires,
//! the call is dropped, delayed, duplicated, answered-then-forgotten, or
//! used as the trigger to crash the callee.
//!
//! # Determinism contract
//!
//! Fault decisions are a pure function of the schedule and the sequence
//! of matching calls:
//!
//! * rules with `prob_pct == 100` and counter conditions (`after_calls`,
//!   `max_hits`) are exact — the Nth matching call faults, always;
//! * probabilistic rules draw from a single `StdRng` seeded with
//!   [`FaultSchedule::seed`]; draws happen under the network's fault
//!   lock in rule order, so a single-threaded caller sequence replays
//!   identically for the same seed. Concurrent callers interleave
//!   draws nondeterministically — schedules meant to be replayed
//!   exactly should use counter-based rules or single-threaded load.
//!
//! Fault outcomes map onto the ordinary failure vocabulary the rest of
//! the stack already handles: a dropped request or reply surfaces as
//! [`dfs_types::DfsError::Timeout`] (without burning the real-time
//! timeout, so fault tests stay fast), a crashed callee as
//! `Unreachable`. Nothing above the RPC layer can tell injected faults
//! from organic ones — which is the point.

use crate::{Addr, CallClass};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// What happens to a call matched by a [`FaultRule`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// The request is silently lost; the caller observes a timeout.
    Drop,
    /// The request is delivered after an extra delay (microseconds of
    /// real time — the RPC timeout is real-time too).
    Delay(u64),
    /// The request is dispatched twice (duplicate delivery). The first
    /// reply wins; the duplicate's side effects land regardless, so
    /// handlers must be idempotent.
    Duplicate,
    /// The request executes but the reply is lost: the caller observes
    /// a timeout while the side effect lands — the classic
    /// at-least-once hazard that retry paths must absorb.
    DropReply,
    /// The callee is marked crashed (as by [`crate::Network::set_crashed`])
    /// before this call is delivered; the call fails `Unreachable`.
    CrashNode,
}

/// One declarative fault rule. `None` match fields are wildcards.
///
/// A one-way partition is a directional `Drop` at 100%:
/// `FaultRule::on(FaultAction::Drop).from(a).to(b)`. Crash-on-Nth-call
/// is `FaultRule::on(FaultAction::CrashNode).to(b).after(n - 1).limit(1)`.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Caller to match (wildcard when `None`).
    pub from: Option<Addr>,
    /// Callee to match (wildcard when `None`).
    pub to: Option<Addr>,
    /// Dispatch class to match (wildcard when `None`).
    pub class: Option<CallClass>,
    /// Request label to match (wildcard when `None`).
    pub label: Option<&'static str>,
    /// The injected behaviour.
    pub action: FaultAction,
    /// Probability, in percent, that an armed matching call faults.
    pub prob_pct: u8,
    /// Matching calls to let through before the rule arms.
    pub after_calls: u64,
    /// Most faults this rule may inject; `None` is unlimited.
    pub max_hits: Option<u64>,
}

impl FaultRule {
    /// A wildcard rule injecting `action` on every matching call.
    pub fn on(action: FaultAction) -> FaultRule {
        FaultRule {
            from: None,
            to: None,
            class: None,
            label: None,
            action,
            prob_pct: 100,
            after_calls: 0,
            max_hits: None,
        }
    }

    /// Restricts the rule to calls from `addr`.
    pub fn from(mut self, addr: Addr) -> Self {
        self.from = Some(addr);
        self
    }

    /// Restricts the rule to calls to `addr`.
    pub fn to(mut self, addr: Addr) -> Self {
        self.to = Some(addr);
        self
    }

    /// Restricts the rule to one dispatch class.
    pub fn class(mut self, class: CallClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Restricts the rule to one request label (e.g. `"StoreDataVec"`).
    pub fn label(mut self, label: &'static str) -> Self {
        self.label = Some(label);
        self
    }

    /// Sets the fault probability in percent (clamped to 100).
    pub fn prob(mut self, pct: u8) -> Self {
        self.prob_pct = pct.min(100);
        self
    }

    /// Arms the rule only after `n` matching calls have passed.
    pub fn after(mut self, n: u64) -> Self {
        self.after_calls = n;
        self
    }

    /// Caps the number of faults the rule may inject.
    pub fn limit(mut self, n: u64) -> Self {
        self.max_hits = Some(n);
        self
    }

    fn matches(&self, from: Addr, to: Addr, class: CallClass, label: &'static str) -> bool {
        self.from.is_none_or(|a| a == from)
            && self.to.is_none_or(|a| a == to)
            && self.class.is_none_or(|c| c == class)
            && self.label.is_none_or(|l| l == label)
    }
}

/// A reproducible fault schedule: a seed and an ordered rule list.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// Seed for the probabilistic draws; two runs of the same schedule
    /// over the same call sequence behave identically.
    pub seed: u64,
    /// Rules, matched in order; the first match decides the call.
    pub rules: Vec<FaultRule>,
}

impl FaultSchedule {
    /// An empty schedule with the given seed.
    pub fn seeded(seed: u64) -> FaultSchedule {
        FaultSchedule { seed, rules: Vec::new() }
    }

    /// Appends a rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }
}

struct RuleState {
    rule: FaultRule,
    /// Matching calls seen so far (armed or not).
    seen: u64,
    /// Faults injected so far.
    hits: u64,
}

/// Live state behind [`crate::Network`]'s fault lock.
pub(crate) struct FaultState {
    rng: StdRng,
    rules: Vec<RuleState>,
    pub(crate) injected: u64,
}

impl FaultState {
    pub(crate) fn new(schedule: FaultSchedule) -> FaultState {
        FaultState {
            rng: StdRng::seed_from_u64(schedule.seed),
            rules: schedule
                .rules
                .into_iter()
                .map(|rule| RuleState { rule, seen: 0, hits: 0 })
                .collect(),
            injected: 0,
        }
    }

    /// Appends freshly-armed rules behind the existing ones. Existing
    /// rules keep their counters and the RNG stream advances only on
    /// armed matches, exactly as before the append — mid-run arming
    /// never perturbs decisions already scheduled.
    pub(crate) fn append(&mut self, rules: Vec<FaultRule>) {
        self.rules.extend(rules.into_iter().map(|rule| RuleState { rule, seen: 0, hits: 0 }));
    }

    /// Decides the fate of one call. First matching armed rule wins.
    pub(crate) fn decide(
        &mut self,
        from: Addr,
        to: Addr,
        class: CallClass,
        label: &'static str,
    ) -> Option<FaultAction> {
        for i in 0..self.rules.len() {
            if !self.rules[i].rule.matches(from, to, class, label) {
                continue;
            }
            self.rules[i].seen += 1;
            let st = &self.rules[i];
            if st.seen <= st.rule.after_calls {
                continue;
            }
            if st.rule.max_hits.is_some_and(|m| st.hits >= m) {
                continue;
            }
            // Every armed match draws, even at prob 100: the RNG stream
            // is then a function of the matching-call sequence alone,
            // so tightening a certain rule's probability never shifts
            // the draws other rules see.
            let roll = self.rng.gen::<u64>() % 100;
            if roll < st.rule.prob_pct as u64 {
                self.rules[i].hits += 1;
                self.injected += 1;
                return Some(self.rules[i].rule.action);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_types::{ClientId, ServerId};

    fn c(n: u32) -> Addr {
        Addr::Client(ClientId(n))
    }
    fn s(n: u32) -> Addr {
        Addr::Server(ServerId(n))
    }

    #[test]
    fn wildcard_rule_matches_everything() {
        let mut st = FaultState::new(FaultSchedule::seeded(1).rule(FaultRule::on(FaultAction::Drop)));
        assert_eq!(st.decide(c(1), s(1), CallClass::Normal, "Ping"), Some(FaultAction::Drop));
        assert_eq!(st.decide(s(2), c(3), CallClass::Revocation, "RevokeVec"), Some(FaultAction::Drop));
        assert_eq!(st.injected, 2);
    }

    #[test]
    fn directional_rule_is_one_way() {
        let mut st = FaultState::new(
            FaultSchedule::seeded(1).rule(FaultRule::on(FaultAction::Drop).from(c(1)).to(s(1))),
        );
        assert_eq!(st.decide(c(1), s(1), CallClass::Normal, "Ping"), Some(FaultAction::Drop));
        // The reverse direction is untouched.
        assert_eq!(st.decide(s(1), c(1), CallClass::Normal, "Ping"), None);
    }

    #[test]
    fn after_and_limit_fire_exactly_once_on_the_nth_call() {
        let mut st = FaultState::new(
            FaultSchedule::seeded(1)
                .rule(FaultRule::on(FaultAction::CrashNode).to(s(1)).after(2).limit(1)),
        );
        assert_eq!(st.decide(c(1), s(1), CallClass::Normal, "Ping"), None);
        assert_eq!(st.decide(c(1), s(1), CallClass::Normal, "Ping"), None);
        assert_eq!(st.decide(c(1), s(1), CallClass::Normal, "Ping"), Some(FaultAction::CrashNode));
        assert_eq!(st.decide(c(1), s(1), CallClass::Normal, "Ping"), None, "limit(1) spent");
    }

    #[test]
    fn probabilistic_rules_replay_identically_for_the_same_seed() {
        let schedule =
            FaultSchedule::seeded(42).rule(FaultRule::on(FaultAction::Drop).prob(30));
        let run = |sched: FaultSchedule| -> Vec<bool> {
            let mut st = FaultState::new(sched);
            (0..64)
                .map(|_| st.decide(c(1), s(1), CallClass::Normal, "Ping").is_some())
                .collect()
        };
        let a = run(schedule.clone());
        let b = run(schedule);
        assert_eq!(a, b, "same seed, same decisions");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x), "30% drops some, not all");
    }

    #[test]
    fn label_filter_matches_one_rpc_kind() {
        let mut st = FaultState::new(
            FaultSchedule::seeded(1).rule(FaultRule::on(FaultAction::DropReply).label("StoreDataVec")),
        );
        assert_eq!(st.decide(c(1), s(1), CallClass::Normal, "Ping"), None);
        assert_eq!(
            st.decide(c(1), s(1), CallClass::Normal, "StoreDataVec"),
            Some(FaultAction::DropReply)
        );
    }
}
