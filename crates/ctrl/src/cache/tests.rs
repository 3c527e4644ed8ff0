use super::*;
use flowplace_acl::Ternary;

fn entry(priority: u32, bits: &str, action: Action) -> TableEntry {
    TableEntry {
        priority,
        tags: Tags::one(EntryPortId(0)),
        match_field: Ternary::parse(bits).unwrap(),
        action,
    }
}

fn t(bits: &str) -> Ternary {
    Ternary::parse(bits).unwrap()
}

fn packet(bits: &str) -> Packet {
    let mut v = 0u128;
    for c in bits.chars() {
        v = (v << 1) | (c == '1') as u128;
    }
    Packet::from_bits(v, bits.len() as u32)
}

fn cache(capacity: usize, policy: CachePolicy) -> RuleCache {
    RuleCache::new(
        CacheConfig {
            enabled: true,
            capacity,
            policy,
            ..CacheConfig::default()
        },
        1,
    )
}

/// drop(10**) above permit(****): the §IV-A1 shape.
fn shielded_target() -> Vec<Vec<TableEntry>> {
    vec![vec![
        entry(2, "10**", Action::Drop),
        entry(1, "****", Action::Permit),
    ]]
}

#[test]
fn parse_spec_accepts_both_forms() {
    let c = CacheConfig::parse_spec("8").unwrap();
    assert!(c.enabled);
    assert_eq!((c.capacity, c.policy), (8, CachePolicy::Lru));
    let c = CacheConfig::parse_spec("depfreq:4").unwrap();
    assert_eq!((c.capacity, c.policy), (4, CachePolicy::DepFreq));
    assert!(CacheConfig::parse_spec("fifo:4").is_err());
    assert!(CacheConfig::parse_spec("lru:x").is_err());
    assert!(CacheConfig::parse_spec("0").is_err());
}

#[test]
fn parse_spec_errors_name_the_offending_token() {
    let err = CacheConfig::parse_spec("fifo:4").unwrap_err();
    assert!(
        err.contains("\"fifo\"") && err.contains("\"fifo:4\""),
        "{err}"
    );
    let err = CacheConfig::parse_spec("lru:x").unwrap_err();
    assert!(err.contains("\"x\"") && err.contains("\"lru:x\""), "{err}");
    for zero in ["0", "00", "lru:0", "depfreq:0"] {
        let err = CacheConfig::parse_spec(zero).unwrap_err();
        assert!(err.contains("must be positive"), "{zero}: {err}");
    }
    let err = CacheConfig::parse_spec("").unwrap_err();
    assert!(err.contains("empty cache spec"), "{err}");
    let err = CacheConfig::parse_spec("lru:").unwrap_err();
    assert!(err.contains("\"\""), "{err}");
}

#[test]
fn lookup_misses_then_hits_after_insert() {
    let mut c = cache(4, CachePolicy::Lru);
    c.set_target(shielded_target());
    let p = packet("0101");
    let CacheLookup::Miss { action, slot } = c.lookup(SwitchId(0), EntryPortId(0), &p) else {
        panic!("cold cache must miss");
    };
    assert_eq!(action, Action::Permit);
    assert!(c.insert(SwitchId(0), slot));
    assert_eq!(
        c.lookup(SwitchId(0), EntryPortId(0), &p),
        CacheLookup::Hit(Action::Permit)
    );
    c.audit().unwrap();
}

#[test]
fn inserting_the_permit_pulls_the_shield_drop() {
    let mut c = cache(4, CachePolicy::Lru);
    c.set_target(shielded_target());
    // Miss on the wildcard PERMIT (slot 1); its shield DROP overlaps.
    let CacheLookup::Miss { slot, .. } = c.lookup(SwitchId(0), EntryPortId(0), &packet("0000"))
    else {
        panic!("miss expected");
    };
    c.insert(SwitchId(0), slot);
    assert_eq!(c.occupancy(SwitchId(0)), 2, "closure pulled the DROP");
    assert_eq!(c.counters().closure_pulls, 1);
    // The shielded packet now decides correctly from cache.
    assert_eq!(
        c.lookup(SwitchId(0), EntryPortId(0), &packet("1011")),
        CacheLookup::Hit(Action::Drop)
    );
    c.audit().unwrap();
}

#[test]
fn eviction_cascades_to_dependents() {
    let mut c = cache(2, CachePolicy::Lru);
    c.set_target(&[vec![
        entry(3, "10**", Action::Drop),
        entry(2, "1***", Action::Permit),
        entry(1, "01**", Action::Drop),
    ]]);
    // Cache the permit (pulls its shield): capacity full at 2.
    let s = c
        .find_slot(SwitchId(0), |e| e.action == Action::Permit)
        .unwrap();
    assert!(c.insert(SwitchId(0), s));
    assert_eq!(c.occupancy(SwitchId(0)), 2);
    // Caching the disjoint 01** DROP forces an eviction; whichever
    // victim the policy picks, the invariant must hold after.
    let d = c.find_slot(SwitchId(0), |e| {
        e.match_field == Ternary::parse("01**").unwrap()
    });
    assert!(c.insert(SwitchId(0), d.unwrap()));
    assert!(c.occupancy(SwitchId(0)) <= 2);
    c.audit().unwrap();
    // Evicting the shield DROP must have cascaded to the PERMIT: a
    // 10** packet can never see a lone resident PERMIT.
    match c.lookup(SwitchId(0), EntryPortId(0), &packet("1000")) {
        CacheLookup::Hit(Action::Drop) | CacheLookup::Miss { .. } => {}
        other => panic!("decision inverted: {other:?}"),
    }
}

#[test]
fn closure_larger_than_capacity_is_uncacheable() {
    let mut c = cache(1, CachePolicy::Lru);
    c.set_target(shielded_target());
    let CacheLookup::Miss { slot, .. } = c.lookup(SwitchId(0), EntryPortId(0), &packet("0000"))
    else {
        panic!("miss expected");
    };
    // PERMIT needs its shield too: closure of 2 > capacity 1.
    assert!(!c.insert(SwitchId(0), slot));
    assert_eq!(c.counters().uncacheable, 1);
    assert_eq!(c.occupancy(SwitchId(0)), 0);
    // The DROP alone (closure of 1) is cacheable.
    let d = c
        .find_slot(SwitchId(0), |e| e.action == Action::Drop)
        .unwrap();
    assert!(c.insert(SwitchId(0), d));
    c.audit().unwrap();
}

#[test]
fn force_evict_unsafe_breaks_the_audit() {
    let mut c = cache(4, CachePolicy::Lru);
    c.set_target(shielded_target());
    let p = c
        .find_slot(SwitchId(0), |e| e.action == Action::Permit)
        .unwrap();
    c.insert(SwitchId(0), p);
    c.audit().unwrap();
    let d = c
        .find_slot(SwitchId(0), |e| e.action == Action::Drop)
        .unwrap();
    c.force_evict_unsafe(SwitchId(0), d);
    let err = c.audit().unwrap_err();
    assert!(err.contains("depends on evicted"), "{err}");
    // And the materialized tables now permit a policy-dropped packet.
    let tables = c.audit_tables();
    let t = &tables[0];
    assert_eq!(
        t.lookup(EntryPortId(0), &packet("1010")),
        Some(Action::Permit),
        "inversion visible to the verifier"
    );
}

#[test]
fn audit_tables_punt_is_a_drop() {
    let mut c = cache(4, CachePolicy::Lru);
    c.set_target(shielded_target());
    // Nothing resident: every packet punts, modelled as drop.
    let tables = c.audit_tables();
    assert_eq!(
        tables[0].lookup(EntryPortId(0), &packet("1010")),
        Some(Action::Drop)
    );
    // Resident state mirrors the full table exactly.
    let p = c
        .find_slot(SwitchId(0), |e| e.action == Action::Permit)
        .unwrap();
    c.insert(SwitchId(0), p);
    let tables = c.audit_tables();
    assert_eq!(
        tables[0].lookup(EntryPortId(0), &packet("1010")),
        Some(Action::Drop),
        "shield DROP pulled in by closure"
    );
    assert_eq!(
        tables[0].lookup(EntryPortId(0), &packet("0110")),
        Some(Action::Permit)
    );
}

#[test]
fn lru_evicts_the_coldest_depfreq_keeps_the_popular() {
    let disjoint = |i: u32| entry(i, &format!("{:02b}**", i - 1), Action::Drop);
    let target = vec![vec![disjoint(1), disjoint(2), disjoint(3)]];
    let run = |policy| {
        let mut c = cache(2, policy);
        c.set_target(&target);
        // 10** is *frequent* (5 hits) but touched before 01** was
        // inserted; 01** is cold but *recent*. Inserting 00**
        // forces one eviction; the two policies disagree on the
        // victim.
        c.insert(SwitchId(0), slot_of(&c, "10**"));
        for _ in 0..5 {
            assert_eq!(
                c.lookup(SwitchId(0), EntryPortId(0), &packet("1000")),
                CacheLookup::Hit(Action::Drop)
            );
        }
        c.insert(SwitchId(0), slot_of(&c, "01**"));
        c.insert(SwitchId(0), slot_of(&c, "00**"));
        assert_eq!(c.occupancy(SwitchId(0)), 2);
        c.audit().unwrap();
        c
    };
    // LRU judges by recency: the older-touched frequent entry goes.
    let mut lru = run(CachePolicy::Lru);
    assert!(matches!(
        lru.lookup(SwitchId(0), EntryPortId(0), &packet("1000")),
        CacheLookup::Miss { .. }
    ));
    assert_eq!(
        lru.lookup(SwitchId(0), EntryPortId(0), &packet("0100")),
        CacheLookup::Hit(Action::Drop)
    );
    // DepFreq judges by use count: the frequent entry survives.
    let mut df = run(CachePolicy::DepFreq);
    assert_eq!(
        df.lookup(SwitchId(0), EntryPortId(0), &packet("1000")),
        CacheLookup::Hit(Action::Drop)
    );
    assert!(matches!(
        df.lookup(SwitchId(0), EntryPortId(0), &packet("0100")),
        CacheLookup::Miss { .. }
    ));
}

fn slot_of(c: &RuleCache, bits: &str) -> usize {
    c.find_slot(SwitchId(0), |e| {
        e.match_field == Ternary::parse(bits).unwrap()
    })
    .unwrap()
}

#[test]
fn set_target_preserves_residency_and_recloses() {
    let mut c = cache(4, CachePolicy::Lru);
    c.set_target(shielded_target());
    let p = c
        .find_slot(SwitchId(0), |e| e.action == Action::Permit)
        .unwrap();
    c.insert(SwitchId(0), p);
    assert_eq!(c.occupancy(SwitchId(0)), 2);
    // New target: same two entries plus a higher DROP overlapping
    // the permit — the resync must pull it to keep the closure.
    let mut target = shielded_target();
    target[0].push(entry(5, "0***", Action::Drop));
    c.set_target(&target);
    assert_eq!(c.occupancy(SwitchId(0)), 3, "new shield pulled resident");
    c.audit().unwrap();
    // Shrinking the target drops stale residency without panicking.
    c.set_target(&[vec![entry(1, "****", Action::Permit)]]);
    assert_eq!(c.occupancy(SwitchId(0)), 1);
    c.audit().unwrap();
}

#[test]
fn safe_mode_entries_are_pinned_and_exempt() {
    let mut c = cache(1, CachePolicy::Lru);
    let safe = TableEntry::safe_mode_fence(EntryPortId(0), 4);
    let mut target = shielded_target();
    target[0].push(safe);
    c.set_target(&target);
    // Safe-mode fence resident from the start, free of charge.
    assert_eq!(c.occupancy(SwitchId(0)), 1);
    assert_eq!(
        c.lookup(SwitchId(0), EntryPortId(0), &packet("1010")),
        CacheLookup::Hit(Action::Drop)
    );
    // A billable insert still fits: fence does not consume capacity.
    let d = c.find_slot(SwitchId(0), |e| e.priority == 2).unwrap();
    assert!(c.insert(SwitchId(0), d));
    c.audit().unwrap();
}

#[test]
fn linear_matcher_agrees_with_linear_slot_scan() {
    // Mixed tags, overlapping matches, a width-mismatched entry, and
    // a foreign ingress: the SoA matcher must pick exactly the slot
    // the old `tags ∧ width ∧ matches` linear scan picked.
    let mut c = cache(8, CachePolicy::Lru);
    let mut e3 = entry(3, "1***", Action::Drop);
    e3.tags = Tags::one(EntryPortId(1));
    let mut e0 = entry(0, "**", Action::Drop); // width 2: never matches width-4 packets
    e0.tags = Tags::from([EntryPortId(0), EntryPortId(1)]);
    c.set_target(&[vec![
        entry(2, "10**", Action::Drop),
        entry(1, "****", Action::Permit),
        e3,
        e0,
    ]]);
    let matcher = &c.tables[0].matchers[&EntryPortId(0)];
    assert!(!matcher.classifier.is_grouped());
    let slots: Vec<TableEntry> = c.tables[0].slots.iter().map(|x| x.entry.clone()).collect();
    for ingress in [EntryPortId(0), EntryPortId(1), EntryPortId(7)] {
        for bits in 0..16u128 {
            let p = Packet::from_bits(bits, 4);
            let want = slots.iter().position(|e| {
                e.tags.contains(&ingress)
                    && e.match_field.width() == p.width()
                    && e.match_field.matches(&p)
            });
            assert_eq!(
                c.tables[0].first_match(ingress, &p),
                want,
                "ingress {ingress:?} packet {bits:04b}"
            );
        }
    }
}

/// The tuple-space layout behind a tag with 16 or more shared-prefix
/// entries: with a shadowed duplicate, a width-mismatched entry, a
/// two-tag entry and a foreign ingress, the grouped matcher must pick
/// exactly the slot the tagged linear scan picks.
#[test]
fn grouped_matcher_agrees_with_linear_slot_scan() {
    let (l0, l1) = (EntryPortId(0), EntryPortId(1));
    let own = |m: Ternary, action| (m, action, Tags::one(l0));
    let mut fields = vec![own(t("1***"), Action::Drop)]; // width 4
    for b in 0..8u128 {
        fields.push(own(Ternary::new(8, 0b1111_1100, b << 3), Action::Permit)); // /6
    }
    for b in 0..8u128 {
        let action = if b % 3 == 0 {
            Action::Permit
        } else {
            Action::Drop
        };
        fields.push(own(Ternary::new(8, 0b1110_0000, b << 5), action)); // /3
    }
    fields.push((t("1011****"), Action::Permit, Tags::from([l0, l1])));
    for b in 0..4u128 {
        fields.push(own(Ternary::new(8, 0b1100_0000, b << 6), Action::Drop)); // /2
    }
    // Shadowed by the first /3 (`000*****`, PERMIT) and of the opposite
    // action: it must never win.
    fields.push(own(t("000*****"), Action::Drop));
    fields.push((t("0*******"), Action::Drop, Tags::one(l1)));
    let n = fields.len() as u32;
    let target: Vec<TableEntry> = (fields.into_iter().enumerate())
        .map(|(i, (match_field, action, tags))| TableEntry {
            priority: n - i as u32,
            tags,
            match_field,
            action,
        })
        .collect();
    let mut c = cache(8, CachePolicy::Lru);
    c.set_target(&[target]);
    assert!(c.tables[0].matchers[&l0].classifier.is_grouped());
    let slots: Vec<TableEntry> = c.tables[0].slots.iter().map(|x| x.entry.clone()).collect();
    for ingress in [l0, l1, EntryPortId(7)] {
        for bits in 0..256u128 {
            let p = Packet::from_bits(bits, 8);
            let want = slots.iter().position(|e| {
                e.tags.contains(&ingress)
                    && e.match_field.width() == p.width()
                    && e.match_field.matches(&p)
            });
            assert_eq!(
                c.tables[0].first_match(ingress, &p),
                want,
                "ingress {ingress:?} packet {bits:08b}"
            );
        }
    }
}

#[test]
fn dump_is_deterministic() {
    let build = || {
        let mut c = cache(4, CachePolicy::Lru);
        c.set_target(shielded_target());
        let p = c
            .find_slot(SwitchId(0), |e| e.action == Action::Permit)
            .unwrap();
        c.insert(SwitchId(0), p);
        c
    };
    assert_eq!(build().dump(), build().dump());
    assert!(build().dump().contains("[R]"));
}
