//! Prioritized rule lists.

use std::fmt;

use crate::{Action, Packet, Rule, RuleId, Ternary};

/// Identifier of an ingress policy `Q_i` (one per network ingress port).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PolicyId(pub usize);

impl fmt::Display for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// Error constructing a [`Policy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// Two rules share the same priority value (priorities must be strict).
    DuplicatePriority(u32),
    /// Two rules have match fields of different widths.
    MixedWidths {
        /// Width of the first rule.
        expected: u32,
        /// The conflicting width.
        found: u32,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::DuplicatePriority(p) => {
                write!(f, "duplicate rule priority {p} in policy")
            }
            PolicyError::MixedWidths { expected, found } => {
                write!(
                    f,
                    "mixed match-field widths in policy: {expected} vs {found}"
                )
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// A strictly prioritized ACL rule list with first-match semantics.
///
/// Rules are stored in descending priority order; [`RuleId`] indexes into
/// that order. A packet matching no rule is permitted (the ACL table only
/// filters — forwarding is owned by the routing module).
///
/// # Example
///
/// ```
/// use flowplace_acl::{Action, Packet, Policy, Rule, Ternary};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let policy = Policy::from_rules(vec![
///     Rule::new(Ternary::parse("01**")?, Action::Drop, 1),
///     Rule::new(Ternary::parse("011*")?, Action::Permit, 2),
/// ])?;
/// // The higher-priority PERMIT shields part of the DROP's space.
/// assert_eq!(policy.evaluate(&Packet::from_bits(0b0110, 4)), Action::Permit);
/// assert_eq!(policy.evaluate(&Packet::from_bits(0b0100, 4)), Action::Drop);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Policy {
    /// Rules in descending priority order.
    rules: Vec<Rule>,
    width: u32,
}

impl Policy {
    /// Builds a policy from rules in any order; they are sorted by
    /// descending priority.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::DuplicatePriority`] if two rules share a
    /// priority, or [`PolicyError::MixedWidths`] if match-field widths
    /// differ. An empty rule list is valid (everything is permitted).
    pub fn from_rules(mut rules: Vec<Rule>) -> Result<Self, PolicyError> {
        rules.sort_by_key(|r| std::cmp::Reverse(r.priority()));
        let mut width = 0;
        for w in rules.windows(2) {
            if w[0].priority() == w[1].priority() {
                return Err(PolicyError::DuplicatePriority(w[0].priority()));
            }
        }
        if let Some(first) = rules.first() {
            width = first.match_field().width();
            for r in &rules {
                let fw = r.match_field().width();
                if fw != width {
                    return Err(PolicyError::MixedWidths {
                        expected: width,
                        found: fw,
                    });
                }
            }
        }
        Ok(Policy { rules, width })
    }

    /// Convenience constructor: assigns descending priorities to rules
    /// given in match order (first rule = highest priority).
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::MixedWidths`] if match-field widths differ.
    pub fn from_ordered(specs: Vec<(Ternary, Action)>) -> Result<Self, PolicyError> {
        let n = specs.len() as u32;
        let rules = specs
            .into_iter()
            .enumerate()
            .map(|(i, (m, a))| Rule::new(m, a, n - i as u32))
            .collect();
        Policy::from_rules(rules)
    }

    /// The rules in descending priority order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rule with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0]
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the policy has no rules (everything permitted).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Match-field width, or 0 for an empty policy.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Iterates over `(RuleId, &Rule)` in descending priority order.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules.iter().enumerate().map(|(i, r)| (RuleId(i), r))
    }

    /// Ids of all DROP rules.
    pub fn drop_rules(&self) -> impl Iterator<Item = RuleId> + '_ {
        self.iter()
            .filter(|(_, r)| r.action().is_drop())
            .map(|(id, _)| id)
    }

    /// Ids of all PERMIT rules.
    pub fn permit_rules(&self) -> impl Iterator<Item = RuleId> + '_ {
        self.iter()
            .filter(|(_, r)| r.action().is_permit())
            .map(|(id, _)| id)
    }

    /// First-match evaluation: the highest-priority matching rule's action,
    /// or PERMIT if no rule matches.
    pub fn evaluate(&self, packet: &Packet) -> Action {
        self.first_match(packet)
            .map(|id| self.rules[id.0].action())
            .unwrap_or(Action::Permit)
    }

    /// The id of the highest-priority rule matching `packet`, if any.
    pub fn first_match(&self, packet: &Packet) -> Option<RuleId> {
        self.rules
            .iter()
            .position(|r| r.match_field().matches(packet))
            .map(RuleId)
    }

    /// Returns a policy with the rule at `id` removed (priorities kept).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn without_rule(&self, id: RuleId) -> Policy {
        let rules = [&self.rules[..id.0], &self.rules[id.0 + 1..]].concat();
        Policy {
            rules,
            width: self.width,
        }
    }

    /// Returns a policy extended with `rule`.
    ///
    /// # Errors
    ///
    /// Same as [`Policy::from_rules`].
    pub fn with_rule(&self, rule: Rule) -> Result<Policy, PolicyError> {
        let mut rules = Vec::with_capacity(self.rules.len() + 1);
        rules.extend_from_slice(&self.rules);
        rules.push(rule);
        Policy::from_rules(rules)
    }

    /// Tests semantic equivalence with another policy by exhaustive packet
    /// enumeration. Intended for tests and small widths.
    ///
    /// # Panics
    ///
    /// Panics if the shared width exceeds 20 bits.
    pub fn equivalent_by_enumeration(&self, other: &Policy) -> bool {
        let width = self.width.max(other.width).max(1);
        assert!(width <= 20, "width too large for enumeration");
        (0..(1u128 << width))
            .map(|bits| Packet::from_bits(bits, width))
            .all(|p| self.evaluate(&p) == other.evaluate(&p))
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "policy ({} rules):", self.rules.len())?;
        for r in &self.rules {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    #[test]
    fn sorted_by_descending_priority() {
        let p = Policy::from_rules(vec![
            Rule::new(t("0*"), Action::Drop, 1),
            Rule::new(t("1*"), Action::Permit, 5),
        ])
        .unwrap();
        assert_eq!(p.rule(RuleId(0)).priority(), 5);
        assert_eq!(p.rule(RuleId(1)).priority(), 1);
    }

    #[test]
    fn duplicate_priority_rejected() {
        let e = Policy::from_rules(vec![
            Rule::new(t("0*"), Action::Drop, 3),
            Rule::new(t("1*"), Action::Permit, 3),
        ])
        .unwrap_err();
        assert_eq!(e, PolicyError::DuplicatePriority(3));
    }

    #[test]
    fn mixed_width_rejected() {
        let e = Policy::from_rules(vec![
            Rule::new(t("0*"), Action::Drop, 1),
            Rule::new(t("1**"), Action::Permit, 2),
        ])
        .unwrap_err();
        assert!(matches!(e, PolicyError::MixedWidths { .. }));
    }

    #[test]
    fn empty_policy_permits_everything() {
        let p = Policy::from_rules(vec![]).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.evaluate(&Packet::from_bits(0b1010, 4)), Action::Permit);
    }

    #[test]
    fn first_match_wins() {
        let p = Policy::from_ordered(vec![(t("11*"), Action::Permit), (t("1**"), Action::Drop)])
            .unwrap();
        assert_eq!(p.evaluate(&Packet::from_bits(0b110, 3)), Action::Permit);
        assert_eq!(p.evaluate(&Packet::from_bits(0b100, 3)), Action::Drop);
        assert_eq!(p.evaluate(&Packet::from_bits(0b010, 3)), Action::Permit);
        assert_eq!(p.first_match(&Packet::from_bits(0b010, 3)), None);
    }

    #[test]
    fn from_ordered_assigns_strict_priorities() {
        let p = Policy::from_ordered(vec![
            (t("1*"), Action::Drop),
            (t("0*"), Action::Permit),
            (t("**"), Action::Drop),
        ])
        .unwrap();
        let prios: Vec<u32> = p.rules().iter().map(|r| r.priority()).collect();
        assert_eq!(prios, vec![3, 2, 1]);
    }

    #[test]
    fn without_and_with_rule() {
        let p =
            Policy::from_ordered(vec![(t("1*"), Action::Drop), (t("0*"), Action::Permit)]).unwrap();
        let q = p.without_rule(RuleId(0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.evaluate(&Packet::from_bits(0b10, 2)), Action::Permit);
        let r = q.with_rule(Rule::new(t("1*"), Action::Drop, 9)).unwrap();
        assert_eq!(r.evaluate(&Packet::from_bits(0b10, 2)), Action::Drop);
    }

    #[test]
    fn drop_and_permit_iterators() {
        let p = Policy::from_ordered(vec![
            (t("11*"), Action::Permit),
            (t("1**"), Action::Drop),
            (t("0**"), Action::Drop),
        ])
        .unwrap();
        assert_eq!(
            p.drop_rules().collect::<Vec<_>>(),
            vec![RuleId(1), RuleId(2)]
        );
        assert_eq!(p.permit_rules().collect::<Vec<_>>(), vec![RuleId(0)]);
    }

    #[test]
    fn equivalence_by_enumeration() {
        let a = Policy::from_ordered(vec![(t("1*"), Action::Drop)]).unwrap();
        let b =
            Policy::from_ordered(vec![(t("11"), Action::Drop), (t("10"), Action::Drop)]).unwrap();
        assert!(a.equivalent_by_enumeration(&b));
        let c = Policy::from_ordered(vec![(t("11"), Action::Drop)]).unwrap();
        assert!(!a.equivalent_by_enumeration(&c));
    }
}
