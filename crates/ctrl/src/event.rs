//! Controller events and the text trace format.
//!
//! A trace is a plain-text file with one event per line. Blank lines and
//! lines starting with `#` are ignored. Identifiers accept both the
//! display form (`l0`, `s2`, `r1`) and bare indices (`0`, `2`, `1`).
//!
//! ```text
//! # install a two-rule policy at ingress l0, routed s0 -> s1 -> s2 to l2
//! install-policy l0 via l2:s0-s1-s2 rules 10**:drop:2,****:permit:1
//! add-rule l0 01** drop 3
//! modify-rule l0 r1 11** permit 4
//! remove-rule l0 r0
//! reroute l0 via l2:s0-s2
//! capacity s1 4
//! switch-fail s2
//! switch-recover s2
//! solve
//! checkpoint
//! rollback
//! ```

use std::fmt;

use flowplace_acl::{Action, Policy, Rule, RuleId, Ternary};
use flowplace_routing::Route;
use flowplace_topo::{EntryPortId, SwitchId};

/// One input to the controller loop.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Insert a rule into the policy at `ingress` (greedy → restricted →
    /// full escalation).
    AddRule {
        /// Ingress whose policy gains the rule.
        ingress: EntryPortId,
        /// The rule to insert (priority decides its position).
        rule: Rule,
    },
    /// Delete a rule from the policy at `ingress` (always greedy).
    RemoveRule {
        /// Ingress whose policy loses the rule.
        ingress: EntryPortId,
        /// Index of the rule in the current priority order.
        rule: RuleId,
    },
    /// Replace a rule in the policy at `ingress`.
    ModifyRule {
        /// Ingress whose policy changes.
        ingress: EntryPortId,
        /// Index of the rule to replace.
        rule: RuleId,
        /// The replacement rule.
        replacement: Rule,
    },
    /// Attach a whole new policy (and its routes) at a fresh ingress
    /// (restricted → full escalation).
    InstallPolicy {
        /// Ingress gaining the policy; must not already have one.
        ingress: EntryPortId,
        /// The policy to install.
        policy: Policy,
        /// Routes carrying this ingress's traffic.
        routes: Vec<Route>,
    },
    /// Replace the routes of an existing ingress (restricted → full).
    Reroute {
        /// Ingress whose routes change.
        ingress: EntryPortId,
        /// The new routes (old ones are discarded).
        routes: Vec<Route>,
    },
    /// Change one switch's TCAM capacity. Escalates to a full re-solve
    /// only if the deployed load no longer fits.
    CapacityChange {
        /// The switch whose capacity changes.
        switch: SwitchId,
        /// The new capacity in TCAM entries.
        capacity: usize,
    },
    /// A switch went down: its TCAM is lost, it forwards nothing, and
    /// the controller must re-place around it (or degrade fail-closed).
    SwitchFail {
        /// The failed switch.
        switch: SwitchId,
    },
    /// A failed (or quarantined) switch came back under control (blank
    /// TCAM if it crashed); its saved capacity becomes usable again and
    /// the next commit reconciles its table.
    SwitchRecover {
        /// The recovering switch.
        switch: SwitchId,
    },
    /// Force a full re-solve of the current instance.
    Solve,
    /// Snapshot the working state for later rollback.
    Checkpoint,
    /// Restore the most recent snapshot.
    Rollback,
}

impl Event {
    /// The event's trace keyword (the first token of its [`fmt::Display`]
    /// form), used as the `kind` label on telemetry counters and spans.
    pub fn label(&self) -> &'static str {
        match self {
            Event::AddRule { .. } => "add-rule",
            Event::RemoveRule { .. } => "remove-rule",
            Event::ModifyRule { .. } => "modify-rule",
            Event::InstallPolicy { .. } => "install-policy",
            Event::Reroute { .. } => "reroute",
            Event::CapacityChange { .. } => "capacity",
            Event::SwitchFail { .. } => "switch-fail",
            Event::SwitchRecover { .. } => "switch-recover",
            Event::Solve => "solve",
            Event::Checkpoint => "checkpoint",
            Event::Rollback => "rollback",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn fmt_routes(f: &mut fmt::Formatter<'_>, routes: &[Route]) -> fmt::Result {
            for (i, r) in routes.iter().enumerate() {
                if i > 0 {
                    write!(f, ";")?;
                }
                write!(f, "{}:", r.egress)?;
                for (j, s) in r.switches.iter().enumerate() {
                    if j > 0 {
                        write!(f, "-")?;
                    }
                    write!(f, "{s}")?;
                }
            }
            Ok(())
        }
        match self {
            Event::AddRule { ingress, rule } => write!(
                f,
                "add-rule {ingress} {} {} {}",
                rule.match_field(),
                action_word(rule.action()),
                rule.priority()
            ),
            Event::RemoveRule { ingress, rule } => write!(f, "remove-rule {ingress} {rule}"),
            Event::ModifyRule {
                ingress,
                rule,
                replacement,
            } => write!(
                f,
                "modify-rule {ingress} {rule} {} {} {}",
                replacement.match_field(),
                action_word(replacement.action()),
                replacement.priority()
            ),
            Event::InstallPolicy {
                ingress,
                policy,
                routes,
            } => {
                write!(f, "install-policy {ingress} via ")?;
                fmt_routes(f, routes)?;
                write!(f, " rules ")?;
                for (i, (_, r)) in policy.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(
                        f,
                        "{}:{}:{}",
                        r.match_field(),
                        action_word(r.action()),
                        r.priority()
                    )?;
                }
                Ok(())
            }
            Event::Reroute { ingress, routes } => {
                write!(f, "reroute {ingress} via ")?;
                fmt_routes(f, routes)
            }
            Event::CapacityChange { switch, capacity } => {
                write!(f, "capacity {switch} {capacity}")
            }
            Event::SwitchFail { switch } => write!(f, "switch-fail {switch}"),
            Event::SwitchRecover { switch } => write!(f, "switch-recover {switch}"),
            Event::Solve => write!(f, "solve"),
            Event::Checkpoint => write!(f, "checkpoint"),
            Event::Rollback => write!(f, "rollback"),
        }
    }
}

fn action_word(a: Action) -> &'static str {
    match a {
        Action::Permit => "permit",
        Action::Drop => "drop",
    }
}

/// Error from [`parse_trace`], carrying the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> TraceError {
    TraceError {
        line,
        message: message.into(),
    }
}

fn parse_index(token: &str, prefix: char, what: &str, line: usize) -> Result<usize, TraceError> {
    let digits = token.strip_prefix(prefix).unwrap_or(token);
    digits
        .parse::<usize>()
        .map_err(|_| err(line, format!("bad {what} `{token}`")))
}

fn parse_ingress(token: &str, line: usize) -> Result<EntryPortId, TraceError> {
    parse_index(token, 'l', "ingress", line).map(EntryPortId)
}

pub(crate) fn parse_switch(token: &str, line: usize) -> Result<SwitchId, TraceError> {
    parse_index(token, 's', "switch", line).map(SwitchId)
}

fn parse_rule_id(token: &str, line: usize) -> Result<RuleId, TraceError> {
    parse_index(token, 'r', "rule id", line).map(RuleId)
}

fn parse_action(token: &str, line: usize) -> Result<Action, TraceError> {
    match token.to_ascii_lowercase().as_str() {
        "permit" | "allow" | "accept" => Ok(Action::Permit),
        "drop" | "deny" => Ok(Action::Drop),
        _ => Err(err(line, format!("bad action `{token}`"))),
    }
}

fn parse_rule(tokens: &[&str], line: usize) -> Result<Rule, TraceError> {
    let [m, a, p] = tokens else {
        return Err(err(line, "expected MATCH ACTION PRIORITY"));
    };
    let match_field = Ternary::parse(m).map_err(|e| err(line, format!("bad match `{m}`: {e}")))?;
    let action = parse_action(a, line)?;
    let priority = p
        .parse::<u32>()
        .map_err(|_| err(line, format!("bad priority `{p}`")))?;
    Ok(Rule::new(match_field, action, priority))
}

/// Parses `EGRESS:S-S-...[;EGRESS:S-S-...]` into routes from `ingress`.
fn parse_routes(ingress: EntryPortId, spec: &str, line: usize) -> Result<Vec<Route>, TraceError> {
    let mut routes = Vec::new();
    for part in spec.split(';') {
        let (egress, path) = part
            .split_once(':')
            .ok_or_else(|| err(line, format!("route `{part}` needs EGRESS:PATH")))?;
        let egress = parse_ingress(egress, line)?;
        let switches = path
            .split('-')
            .map(|s| parse_switch(s, line))
            .collect::<Result<Vec<_>, _>>()?;
        if switches.is_empty() {
            return Err(err(line, "route has no switches"));
        }
        routes.push(Route::new(ingress, egress, switches));
    }
    Ok(routes)
}

/// Parses `MATCH:ACTION:PRIO,...` into a policy.
fn parse_policy(spec: &str, line: usize) -> Result<Policy, TraceError> {
    let mut rules = Vec::new();
    for part in spec.split(',') {
        let fields: Vec<&str> = part.split(':').collect();
        rules.push(parse_rule(&fields, line)?);
    }
    Policy::from_rules(rules).map_err(|e| err(line, format!("bad policy: {e}")))
}

/// Parses one trace line (already known to be non-blank, non-comment).
fn parse_line(text: &str, line: usize) -> Result<Event, TraceError> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    match tokens.as_slice() {
        ["add-rule", ingress, rest @ ..] => Ok(Event::AddRule {
            ingress: parse_ingress(ingress, line)?,
            rule: parse_rule(rest, line)?,
        }),
        ["remove-rule", ingress, rule] => Ok(Event::RemoveRule {
            ingress: parse_ingress(ingress, line)?,
            rule: parse_rule_id(rule, line)?,
        }),
        ["modify-rule", ingress, rule, rest @ ..] => Ok(Event::ModifyRule {
            ingress: parse_ingress(ingress, line)?,
            rule: parse_rule_id(rule, line)?,
            replacement: parse_rule(rest, line)?,
        }),
        ["install-policy", ingress, "via", routes, "rules", rules] => {
            let ingress = parse_ingress(ingress, line)?;
            Ok(Event::InstallPolicy {
                ingress,
                policy: parse_policy(rules, line)?,
                routes: parse_routes(ingress, routes, line)?,
            })
        }
        ["reroute", ingress, "via", routes] => {
            let ingress = parse_ingress(ingress, line)?;
            Ok(Event::Reroute {
                ingress,
                routes: parse_routes(ingress, routes, line)?,
            })
        }
        ["capacity", switch, capacity] => Ok(Event::CapacityChange {
            switch: parse_switch(switch, line)?,
            capacity: capacity
                .parse::<usize>()
                .map_err(|_| err(line, format!("bad capacity `{capacity}`")))?,
        }),
        ["switch-fail", switch] => Ok(Event::SwitchFail {
            switch: parse_switch(switch, line)?,
        }),
        ["switch-recover", switch] => Ok(Event::SwitchRecover {
            switch: parse_switch(switch, line)?,
        }),
        ["solve"] => Ok(Event::Solve),
        ["checkpoint"] => Ok(Event::Checkpoint),
        ["rollback"] => Ok(Event::Rollback),
        [verb, ..] => Err(err(line, format!("unknown event `{verb}`"))),
        [] => unreachable!("blank lines are filtered before parse_line"),
    }
}

/// Parses a whole trace file into events.
///
/// # Errors
///
/// The first malformed line, with its line number.
pub fn parse_trace(text: &str) -> Result<Vec<Event>, TraceError> {
    let mut events = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        events.push(parse_line(line, i + 1)?);
    }
    Ok(events)
}

/// Renders events back into the trace text format ([`parse_trace`]'s
/// inverse).
pub fn format_trace(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_event_kind() {
        let text = "\
# comment

add-rule l0 10** drop 5
remove-rule 0 r1
modify-rule l0 1 11** permit 4
install-policy l1 via l2:s0-s1;l3:s0-s2 rules 0***:drop:2,****:permit:1
reroute l1 via l2:s0-s1-s2
capacity s1 16
switch-fail s2
switch-recover 2
solve
checkpoint
rollback
";
        let events = parse_trace(text).expect("trace parses");
        assert_eq!(events.len(), 11);
        assert_eq!(
            events[6],
            Event::SwitchFail {
                switch: SwitchId(2)
            }
        );
        assert_eq!(
            events[7],
            Event::SwitchRecover {
                switch: SwitchId(2)
            }
        );
        assert_eq!(
            events[0],
            Event::AddRule {
                ingress: EntryPortId(0),
                rule: Rule::new(Ternary::parse("10**").unwrap(), Action::Drop, 5),
            }
        );
        match &events[3] {
            Event::InstallPolicy {
                ingress,
                policy,
                routes,
            } => {
                assert_eq!(*ingress, EntryPortId(1));
                assert_eq!(policy.len(), 2);
                assert_eq!(routes.len(), 2);
                assert_eq!(routes[0].egress, EntryPortId(2));
                assert_eq!(routes[1].switches, vec![SwitchId(0), SwitchId(2)]);
            }
            other => panic!("expected install-policy, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_display() {
        let text = "\
add-rule l0 10** drop 5
remove-rule l0 r1
modify-rule l0 r1 11** permit 4
install-policy l1 via l2:s0-s1;l3:s0-s2 rules 0***:drop:2,****:permit:1
reroute l1 via l2:s0-s1-s2
capacity s1 16
switch-fail s2
switch-recover s2
solve
checkpoint
rollback
";
        let events = parse_trace(text).expect("trace parses");
        assert_eq!(format_trace(&events), text);
        let again = parse_trace(&format_trace(&events)).expect("round trip parses");
        assert_eq!(events, again);
    }

    #[test]
    fn reports_line_numbers() {
        let e = parse_trace("solve\n\nbogus l0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn rejects_malformed_rules() {
        assert!(parse_trace("add-rule l0 10** sideways 5").is_err());
        assert!(parse_trace("add-rule l0 10x* drop 5").is_err());
        assert!(parse_trace("install-policy l1 via l2:s0 rules").is_err());
        assert!(parse_trace("capacity s1 many").is_err());
    }
}
