//! Deterministic dataplane fault injection, retry policy, and per-switch
//! circuit breakers.
//!
//! Chaos runs must be exactly reproducible: every fault is drawn either
//! from a *scripted schedule* (parsed from a fault-trace file) or from a
//! seeded [`flowplace_rng::StdRng`], and all backoff happens on a
//! [`VirtualClock`] that only advances when the controller says so.
//! Replaying the same trace with the same [`FaultPlan`] therefore yields
//! byte-identical epoch reports.
//!
//! ## Fault-schedule format
//!
//! One fault per line; blank lines and `#` comments are ignored. An
//! optional leading `@N` arms the fault when epoch `N` begins (default:
//! epoch 1, i.e. armed from the start).
//!
//! ```text
//! # reject the next 3 TCAM installs on s1
//! fault install-reject s1 3
//! # crash s2 when epoch 4 begins (TCAM contents are lost)
//! @4 fault crash s2
//! # bring s2 back (blank TCAM) when epoch 6 begins
//! @6 fault recover s2
//! # TCAM bank failure: s0's usable capacity shrinks to 4 entries;
//! # entries beyond the surviving capacity are lost
//! @5 fault capacity s0 4
//! ```

use std::collections::BTreeMap;
use std::fmt;

use flowplace_rng::{Rng, StdRng};
use flowplace_topo::SwitchId;

use crate::event::{err, parse_switch, TraceError};

/// One scripted dataplane fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Reject the next `count` TCAM install operations on `switch`.
    InstallReject {
        /// The switch whose control channel misbehaves.
        switch: SwitchId,
        /// How many consecutive installs to reject.
        count: u64,
    },
    /// The switch crashes: it stops forwarding and its TCAM is lost.
    Crash {
        /// The crashing switch.
        switch: SwitchId,
    },
    /// A crashed or quarantined switch comes back under control (with a
    /// blank TCAM if it crashed).
    Recover {
        /// The recovering switch.
        switch: SwitchId,
    },
    /// TCAM bank failure: the switch's usable capacity shrinks to
    /// `capacity`; entries beyond it are lost.
    CapacityRevoke {
        /// The degraded switch.
        switch: SwitchId,
        /// The surviving capacity in entries.
        capacity: usize,
    },
}

impl FaultKind {
    /// The fault's schedule keyword (the token after `fault` in its
    /// [`fmt::Display`] form), used as the `kind` label on the
    /// `faults.injected` telemetry counter.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::InstallReject { .. } => "install-reject",
            FaultKind::Crash { .. } => "crash",
            FaultKind::Recover { .. } => "recover",
            FaultKind::CapacityRevoke { .. } => "capacity",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::InstallReject { switch, count } => {
                write!(f, "fault install-reject {switch} {count}")
            }
            FaultKind::Crash { switch } => write!(f, "fault crash {switch}"),
            FaultKind::Recover { switch } => write!(f, "fault recover {switch}"),
            FaultKind::CapacityRevoke { switch, capacity } => {
                write!(f, "fault capacity {switch} {capacity}")
            }
        }
    }
}

/// A fault armed at the start of a specific epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// The epoch whose start arms this fault.
    pub epoch: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Parses a fault-schedule file (see the module docs for the format).
///
/// # Errors
///
/// The first malformed line, with its 1-based line number.
pub fn parse_fault_schedule(text: &str) -> Result<Vec<ScheduledFault>, TraceError> {
    let mut faults = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let mut rest = raw.trim();
        if rest.is_empty() || rest.starts_with('#') {
            continue;
        }
        let mut epoch = 1u64;
        if let Some(stripped) = rest.strip_prefix('@') {
            let (num, tail) = stripped
                .split_once(char::is_whitespace)
                .ok_or_else(|| err(line, "`@N` needs a fault after it"))?;
            epoch = num
                .parse::<u64>()
                .map_err(|_| err(line, format!("bad epoch `@{num}`")))?;
            rest = tail.trim();
        }
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        let kind = match tokens.as_slice() {
            ["fault", "install-reject", s, n] => FaultKind::InstallReject {
                switch: parse_switch(s, line)?,
                count: n
                    .parse::<u64>()
                    .map_err(|_| err(line, format!("bad count `{n}`")))?,
            },
            ["fault", "crash", s] => FaultKind::Crash {
                switch: parse_switch(s, line)?,
            },
            ["fault", "recover", s] => FaultKind::Recover {
                switch: parse_switch(s, line)?,
            },
            ["fault", "capacity", s, c] => FaultKind::CapacityRevoke {
                switch: parse_switch(s, line)?,
                capacity: c
                    .parse::<usize>()
                    .map_err(|_| err(line, format!("bad capacity `{c}`")))?,
            },
            _ => return Err(err(line, format!("unknown fault line `{rest}`"))),
        };
        faults.push(ScheduledFault { epoch, kind });
    }
    Ok(faults)
}

/// Renders a schedule back into the fault-trace format
/// ([`parse_fault_schedule`]'s inverse).
pub fn format_fault_schedule(faults: &[ScheduledFault]) -> String {
    let mut out = String::new();
    for f in faults {
        out.push_str(&format!("@{} {}\n", f.epoch, f.kind));
    }
    out
}

/// Everything that can go wrong with the dataplane, and when: a scripted
/// schedule plus seeded probabilistic rates. The default plan is benign
/// (no faults ever fire), so a controller built with default options
/// behaves exactly like a perfect-dataplane controller.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the probabilistic draws (and nothing else — scripted
    /// faults fire regardless).
    pub seed: u64,
    /// Per-install probability that the op is rejected.
    pub install_reject_rate: f64,
    /// Per-switch, per-epoch probability of a crash at epoch start.
    pub crash_rate: f64,
    /// Per-crashed-switch, per-epoch probability of recovery at epoch
    /// start.
    pub recover_rate: f64,
    /// Scripted faults, fired when their epoch begins.
    pub schedule: Vec<ScheduledFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            install_reject_rate: 0.0,
            crash_rate: 0.0,
            recover_rate: 0.0,
            schedule: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// True when this plan can ever inject a fault.
    pub fn is_active(&self) -> bool {
        self.install_reject_rate > 0.0 || self.crash_rate > 0.0 || !self.schedule.is_empty()
    }
}

/// Bounded exponential backoff for retried dataplane operations. All
/// delays are virtual (see [`VirtualClock`]); attempt `k` (0-based)
/// waits `min(base_delay_ms << k, max_delay_ms)` before retrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included).
    pub max_attempts: u32,
    /// Delay before the first retry, in virtual milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single delay, in virtual milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            max_delay_ms: 1_000,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay after failed attempt `attempt` (0-based).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let shifted = self
            .base_delay_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        shifted.min(self.max_delay_ms)
    }
}

/// A deterministic monotonic clock in milliseconds. Retry backoff
/// "sleeps" by advancing it; nothing ever reads wall time, so replays
/// are bit-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now_ms: u64,
}

impl VirtualClock {
    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Advances the clock by `ms`.
    pub fn advance(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms);
    }
}

/// Per-switch circuit breaker: trips to open (quarantine) after a run of
/// consecutive control-plane failures; any success closes it again.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CircuitBreaker {
    consecutive_failures: u32,
}

impl CircuitBreaker {
    /// Records a failed operation; returns `true` if the run length has
    /// reached `threshold` (the switch should be quarantined).
    pub fn record_failure(&mut self, threshold: u32) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.consecutive_failures >= threshold.max(1)
    }

    /// Records a successful operation, closing the breaker.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
    }

    /// Resets the breaker (e.g. when the switch recovers).
    pub fn reset(&mut self) {
        self.consecutive_failures = 0;
    }

    /// Current run of consecutive failures.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }
}

/// The stateful injector: owns the plan, the seeded RNG, the armed
/// install-reject counters, and the scripted-schedule cursor.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    armed_rejects: BTreeMap<SwitchId, u64>,
    fired: usize,
}

impl FaultInjector {
    /// Creates an injector for `plan`. The schedule is sorted by epoch
    /// (stable, so same-epoch faults keep file order).
    pub fn new(mut plan: FaultPlan) -> Self {
        plan.schedule.sort_by_key(|f| f.epoch);
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultInjector {
            plan,
            rng,
            armed_rejects: BTreeMap::new(),
            fired: 0,
        }
    }

    /// Read access to the plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Pulls every fault due at the start of `epoch`: scripted faults
    /// whose arm-epoch has arrived (install-rejects are armed internally
    /// and not returned), then probabilistic crash/recover draws — one
    /// per switch, in switch order, so the RNG stream is deterministic.
    /// `is_down(s)` reports whether the controller currently considers
    /// `s` out of service (crashed or quarantined).
    pub fn due_at_epoch(
        &mut self,
        epoch: u64,
        switch_count: usize,
        mut is_down: impl FnMut(SwitchId) -> bool,
    ) -> Vec<FaultKind> {
        let mut out = Vec::new();
        while self.fired < self.plan.schedule.len() && self.plan.schedule[self.fired].epoch <= epoch
        {
            let fault = self.plan.schedule[self.fired].kind.clone();
            self.fired += 1;
            match fault {
                FaultKind::InstallReject { switch, count } => {
                    *self.armed_rejects.entry(switch).or_insert(0) += count;
                }
                other => out.push(other),
            }
        }
        if self.plan.crash_rate > 0.0 || self.plan.recover_rate > 0.0 {
            for i in 0..switch_count {
                let s = SwitchId(i);
                // Draw for every switch regardless of state so the
                // stream does not depend on controller decisions.
                let crash = self.plan.crash_rate > 0.0 && self.rng.gen_bool(self.plan.crash_rate);
                let recover =
                    self.plan.recover_rate > 0.0 && self.rng.gen_bool(self.plan.recover_rate);
                if is_down(s) {
                    if recover {
                        out.push(FaultKind::Recover { switch: s });
                    }
                } else if crash {
                    out.push(FaultKind::Crash { switch: s });
                }
            }
        }
        out
    }

    /// Decides one TCAM install on `switch`: `true` = the op goes
    /// through, `false` = the dataplane rejects it. Armed scripted
    /// rejects are consumed first; then the probabilistic rate draws.
    pub fn install_allowed(&mut self, switch: SwitchId) -> bool {
        if let Some(n) = self.armed_rejects.get_mut(&switch) {
            if *n > 0 {
                *n -= 1;
                return false;
            }
        }
        if self.plan.install_reject_rate > 0.0 {
            return !self.rng.gen_bool(self.plan.install_reject_rate);
        }
        true
    }

    /// Scripted install-rejects still armed on `switch`.
    pub fn armed_rejects(&self, switch: SwitchId) -> u64 {
        self.armed_rejects.get(&switch).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_round_trips() {
        let text = "\
# comment

fault install-reject s1 3
@4 fault crash s2
@6 fault recover s2
@5 fault capacity s0 4
";
        let faults = parse_fault_schedule(text).expect("schedule parses");
        assert_eq!(faults.len(), 4);
        assert_eq!(faults[0].epoch, 1);
        assert_eq!(
            faults[0].kind,
            FaultKind::InstallReject {
                switch: SwitchId(1),
                count: 3
            }
        );
        assert_eq!(faults[1].epoch, 4);
        let rendered = format_fault_schedule(&faults);
        let again = parse_fault_schedule(&rendered).expect("round trip parses");
        assert_eq!(faults, again);
    }

    #[test]
    fn schedule_rejects_malformed_lines() {
        assert!(parse_fault_schedule("fault crash").is_err());
        assert!(parse_fault_schedule("fault install-reject s1").is_err());
        assert!(parse_fault_schedule("@x fault crash s1").is_err());
        assert!(parse_fault_schedule("@3").is_err());
        assert!(parse_fault_schedule("fault capacity s0 lots").is_err());
        assert!(parse_fault_schedule("mystery s0").is_err());
        let e = parse_fault_schedule("fault crash s1\nbogus\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn scripted_rejects_arm_and_drain() {
        let plan = FaultPlan {
            schedule: parse_fault_schedule("fault install-reject s0 2").unwrap(),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan);
        let due = inj.due_at_epoch(1, 2, |_| false);
        assert!(due.is_empty(), "rejects arm internally: {due:?}");
        assert_eq!(inj.armed_rejects(SwitchId(0)), 2);
        assert!(!inj.install_allowed(SwitchId(0)));
        assert!(!inj.install_allowed(SwitchId(0)));
        assert!(inj.install_allowed(SwitchId(0)), "rejects exhausted");
        assert!(inj.install_allowed(SwitchId(1)), "other switch untouched");
    }

    #[test]
    fn scheduled_faults_fire_at_their_epoch_in_order() {
        let plan = FaultPlan {
            schedule: parse_fault_schedule("@3 fault crash s1\n@2 fault capacity s0 4\n").unwrap(),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan);
        assert!(inj.due_at_epoch(1, 2, |_| false).is_empty());
        assert_eq!(
            inj.due_at_epoch(2, 2, |_| false),
            vec![FaultKind::CapacityRevoke {
                switch: SwitchId(0),
                capacity: 4
            }]
        );
        assert_eq!(
            inj.due_at_epoch(3, 2, |_| false),
            vec![FaultKind::Crash {
                switch: SwitchId(1)
            }]
        );
        assert!(inj.due_at_epoch(4, 2, |_| false).is_empty());
    }

    #[test]
    fn probabilistic_draws_are_deterministic_in_seed() {
        let plan = FaultPlan {
            seed: 99,
            install_reject_rate: 0.5,
            crash_rate: 0.3,
            recover_rate: 0.5,
            ..FaultPlan::default()
        };
        let run = || {
            let mut inj = FaultInjector::new(plan.clone());
            let mut log = Vec::new();
            for epoch in 1..=8 {
                log.push(inj.due_at_epoch(epoch, 3, |s| s.0 == 2));
                log.push(
                    (0..4)
                        .map(|_| {
                            if inj.install_allowed(SwitchId(0)) {
                                FaultKind::Recover {
                                    switch: SwitchId(0),
                                }
                            } else {
                                FaultKind::Crash {
                                    switch: SwitchId(0),
                                }
                            }
                        })
                        .collect(),
                );
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let retry = RetryPolicy {
            max_attempts: 6,
            base_delay_ms: 10,
            max_delay_ms: 70,
        };
        let delays: Vec<u64> = (0..6).map(|a| retry.delay_ms(a)).collect();
        assert_eq!(delays, vec![10, 20, 40, 70, 70, 70]);
        // Huge attempt numbers saturate instead of overflowing.
        assert_eq!(retry.delay_ms(200), 70);
    }

    #[test]
    fn breaker_trips_on_consecutive_failures_only() {
        let mut b = CircuitBreaker::default();
        assert!(!b.record_failure(3));
        assert!(!b.record_failure(3));
        b.record_success();
        assert!(!b.record_failure(3), "success resets the run");
        assert!(!b.record_failure(3));
        assert!(b.record_failure(3), "third consecutive failure trips");
        b.reset();
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn virtual_clock_advances_monotonically() {
        let mut c = VirtualClock::default();
        c.advance(10);
        c.advance(25);
        assert_eq!(c.now_ms(), 35);
        c.advance(u64::MAX);
        assert_eq!(c.now_ms(), u64::MAX, "saturates");
    }
}
