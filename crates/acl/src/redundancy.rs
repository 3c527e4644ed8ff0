//! Exact (all-match) redundancy removal for ACL policies.
//!
//! The paper's flow chart (Fig. 4) starts with an optional pre-pass that
//! removes redundant rules from each ingress policy, citing SAT- and
//! decision-tree-based firewall optimizers (refs [7–9]). This module
//! implements an exact variant using the ternary cube algebra of
//! [`CubeList`]: each removal is validated to preserve first-match
//! semantics, so the output policy is equivalent to the input on every
//! packet.
//!
//! Two classes of redundancy are eliminated:
//!
//! * **Shadowed (upward-redundant) rules** — the rule's match field is fully
//!   covered by higher-priority rules, so it can never be the first match.
//! * **Masked (downward-redundant) rules** — every packet for which the rule
//!   is the first match would receive the same action from the rules below
//!   it (or the default PERMIT), so removing it changes nothing.
//!
//! The cube algebra here is the hottest allocation site in an epoch, so
//! the pass is arena-backed: one `region`/`rest` pair of [`CubeList`]s is
//! re-seeded per rule (keeping its backing storage) and all sharp-split
//! scratch comes from the thread's cube arena, so the pool stays warm
//! from one policy to the next ([`crate::thread_arena_stats`]).

use crate::{Action, CubeList, Policy, Rule, RuleId};

/// Why a rule was removed by [`remove_redundant`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RedundancyKind {
    /// Fully covered by higher-priority rules; never the first match.
    Shadowed,
    /// First-match region falls through to the same decision below.
    Masked,
}

/// Outcome of redundancy removal on one policy.
#[derive(Clone, Debug)]
pub struct RemovalReport {
    /// The equivalent policy with redundant rules removed.
    pub policy: Policy,
    /// `(original rule id, rule, why)` for each removed rule, in descending
    /// priority order of the original policy.
    pub removed: Vec<(RuleId, Rule, RedundancyKind)>,
}

impl RemovalReport {
    /// Number of rules removed.
    pub fn removed_count(&self) -> usize {
        self.removed.len()
    }
}

/// Removes all redundant rules from `policy`, returning an equivalent,
/// typically smaller policy together with the list of removed rules.
///
/// The check is exact: a rule is removed only if the policy without it
/// accepts/drops exactly the same packets. Passes run to a fixpoint (one
/// removal can expose another — e.g. a shadowed DROP whose removal makes
/// the PERMIT above it fall through to the default), so the result
/// contains no redundant rule at all. Each pass runs in `O(n² · cubes)`
/// where fragmentation of the cube lists bounds `cubes`.
///
/// # Example
///
/// ```
/// use flowplace_acl::{redundancy, Action, Policy, Ternary};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let policy = Policy::from_ordered(vec![
///     (Ternary::parse("1***")?, Action::Drop),
///     (Ternary::parse("10**")?, Action::Drop), // shadowed by the first
/// ])?;
/// let report = redundancy::remove_redundant(&policy);
/// assert_eq!(report.policy.len(), 1);
/// assert_eq!(report.removed_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn remove_redundant(policy: &Policy) -> RemovalReport {
    let mut current = policy.clone();
    let mut all_removed: Vec<(RuleId, Rule, RedundancyKind)> = Vec::new();
    // One region/rest pair re-seeded per rule across every pass, so the
    // fixpoint loop reuses the same cube storage throughout.
    let mut region = CubeList::new();
    let mut rest = CubeList::new();
    loop {
        let pass = remove_redundant_pass(&current, &mut region, &mut rest);
        let done = pass.removed.is_empty();
        // Report removed rules by their ids in the *original* policy.
        for (_, rule, kind) in pass.removed {
            let original_id = policy
                .iter()
                .find(|(id, r)| **r == rule && !all_removed.iter().any(|(rid, _, _)| rid == id))
                .map(|(id, _)| id)
                .unwrap_or(RuleId(usize::MAX));
            all_removed.push((original_id, rule, kind));
        }
        current = pass.policy;
        if done {
            break;
        }
    }
    all_removed.sort_by_key(|(id, _, _)| *id);
    RemovalReport {
        policy: current,
        removed: all_removed,
    }
}

/// One top-down removal pass (see [`remove_redundant`]).
fn remove_redundant_pass(
    policy: &Policy,
    region: &mut CubeList,
    rest: &mut CubeList,
) -> RemovalReport {
    let mut removed = Vec::new();
    // Indices (into the original descending-priority order) of rules kept.
    let mut kept: Vec<usize> = Vec::with_capacity(policy.len());
    let rules = policy.rules();

    for i in 0..rules.len() {
        let rule = &rules[i];
        // Effective region: packets for which this rule is the first match
        // among the rules kept above it.
        region.reset_to_cube(*rule.match_field());
        for &k in &kept {
            region.subtract(rules[k].match_field());
            if region.is_empty() {
                break;
            }
        }
        if region.is_empty() {
            removed.push((RuleId(i), *rule, RedundancyKind::Shadowed));
            continue;
        }
        if falls_through_to_same_action(region, rule.action(), &rules[i + 1..], rest) {
            removed.push((RuleId(i), *rule, RedundancyKind::Masked));
            continue;
        }
        kept.push(i);
    }

    let kept_rules: Vec<Rule> = kept.into_iter().map(|i| rules[i]).collect();
    let policy = Policy::from_rules(kept_rules).expect("kept subset of a valid policy is valid");
    RemovalReport { policy, removed }
}

/// True if every packet in `region` receives `action` from the first
/// matching rule in `below` (or the default PERMIT when none matches).
///
/// `rest` is caller-owned working storage (overwritten, contents
/// unspecified on return) so repeated calls reuse one cube buffer.
fn falls_through_to_same_action(
    region: &CubeList,
    action: Action,
    below: &[Rule],
    rest: &mut CubeList,
) -> bool {
    rest.clone_from(region);
    for lower in below {
        if rest.is_empty() {
            return true;
        }
        // An allocation-free emptiness probe — the old code materialised
        // the intersection just to test it.
        if !rest.is_disjoint_from(lower.match_field()) {
            if lower.action() != action {
                return false;
            }
            rest.subtract(lower.match_field());
        }
    }
    // Whatever remains falls through to the default PERMIT.
    rest.is_empty() || action == Action::Permit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ternary;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn pol(specs: Vec<(&str, Action)>) -> Policy {
        Policy::from_ordered(specs.into_iter().map(|(m, a)| (t(m), a)).collect()).unwrap()
    }

    #[test]
    fn shadowed_rule_removed() {
        let p = pol(vec![("1***", Action::Drop), ("10**", Action::Drop)]);
        let r = remove_redundant(&p);
        assert_eq!(r.policy.len(), 1);
        assert_eq!(r.removed[0].2, RedundancyKind::Shadowed);
        assert!(p.equivalent_by_enumeration(&r.policy));
    }

    #[test]
    fn masked_across_non_overlapping_middle_rule() {
        // 0*** DROP is masked by **** DROP below: the PERMIT between them
        // never intersects 0***, so the fall-through decision is unchanged.
        let p = pol(vec![
            ("0***", Action::Drop),
            ("1***", Action::Permit),
            ("****", Action::Drop),
        ]);
        let r = remove_redundant(&p);
        assert_eq!(r.policy.len(), 2);
        assert_eq!(r.removed[0].2, RedundancyKind::Masked);
        assert_eq!(r.removed[0].0, RuleId(0));
        assert!(p.equivalent_by_enumeration(&r.policy));
    }

    #[test]
    fn union_shadowing_detected() {
        // 0*** ∪ 1*** shadow ****, even though neither alone covers it.
        let p = pol(vec![
            ("0***", Action::Drop),
            ("1***", Action::Drop),
            ("****", Action::Permit),
        ]);
        let r = remove_redundant(&p);
        assert!(p.equivalent_by_enumeration(&r.policy));
        assert!(r
            .removed
            .iter()
            .any(|(_, _, k)| *k == RedundancyKind::Shadowed));
    }

    #[test]
    fn masked_rule_removed() {
        // The higher DROP's region is re-dropped by the wider DROP below.
        let p = pol(vec![("10**", Action::Drop), ("1***", Action::Drop)]);
        let r = remove_redundant(&p);
        assert_eq!(r.policy.len(), 1);
        assert_eq!(r.removed[0].2, RedundancyKind::Masked);
        assert_eq!(r.policy.rules()[0].match_field(), &t("1***"));
        assert!(p.equivalent_by_enumeration(&r.policy));
    }

    #[test]
    fn permit_falling_to_default_removed() {
        // A PERMIT whose region matches nothing below falls to default
        // PERMIT: redundant.
        let p = pol(vec![("11**", Action::Permit), ("00**", Action::Drop)]);
        let r = remove_redundant(&p);
        assert_eq!(r.policy.len(), 1);
        assert_eq!(r.removed[0].2, RedundancyKind::Masked);
        assert!(p.equivalent_by_enumeration(&r.policy));
    }

    #[test]
    fn drop_falling_to_default_kept() {
        let p = pol(vec![("11**", Action::Drop)]);
        let r = remove_redundant(&p);
        assert_eq!(r.policy.len(), 1);
        assert!(r.removed.is_empty());
    }

    #[test]
    fn partial_overlap_not_redundant() {
        // The PERMIT shields part of the DROP below; neither is redundant.
        let p = pol(vec![("11**", Action::Permit), ("1***", Action::Drop)]);
        let r = remove_redundant(&p);
        assert_eq!(r.policy.len(), 2);
    }

    #[test]
    fn mixed_action_below_blocks_masking() {
        // DROP's region partially falls into a PERMIT below: must keep the
        // DROP. The shadowed inner DROP and the default-equivalent trailing
        // PERMIT both go.
        let p = pol(vec![
            ("1***", Action::Drop),
            ("1*1*", Action::Drop),
            ("****", Action::Permit),
        ]);
        let r = remove_redundant(&p);
        assert_eq!(r.policy.len(), 1);
        assert_eq!(r.policy.rules()[0].match_field(), &t("1***"));
        assert!(p.equivalent_by_enumeration(&r.policy));
    }

    #[test]
    fn chain_of_removals_stays_equivalent() {
        let p = pol(vec![
            ("111*", Action::Drop),
            ("11**", Action::Drop),
            ("1***", Action::Drop),
            ("0***", Action::Permit),
            ("00**", Action::Permit),
        ]);
        let r = remove_redundant(&p);
        assert!(p.equivalent_by_enumeration(&r.policy));
        assert_eq!(r.policy.len(), 1); // only 1*** DROP survives
    }

    #[test]
    fn empty_policy_untouched() {
        let p = Policy::from_rules(vec![]).unwrap();
        let r = remove_redundant(&p);
        assert!(r.policy.is_empty());
        assert!(r.removed.is_empty());
    }

    #[test]
    fn second_removal_allocates_nothing_new() {
        let p = pol(vec![
            ("111*", Action::Drop),
            ("11**", Action::Drop),
            ("1***", Action::Drop),
            ("0***", Action::Permit),
            ("00**", Action::Permit),
        ]);
        let before = crate::thread_arena_stats();
        let first = remove_redundant(&p);
        let warm = crate::thread_arena_stats();
        // The pool is bounded: a handful of buffers serve the whole
        // fixpoint, everything else is reuse.
        assert!(warm.reuse_hits > before.reuse_hits);
        assert!(
            warm.allocations - before.allocations <= 4,
            "redundancy pass over-allocated: {warm:?}"
        );
        let second = remove_redundant(&p);
        assert_eq!(first.policy.rules(), second.policy.rules());
        assert_eq!(crate::thread_arena_stats().allocations, warm.allocations);
    }
}
