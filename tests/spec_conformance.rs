//! The journal's label vocabulary against its emitters. Whether engine
//! runs journal legal transitions is not checked here: the
//! `spec_conformance` fuzz oracle replays every generated scenario's
//! journal through edm-spec, and `tests/fuzz_replay.rs` does the same
//! for every `fuzz/corpus/*.scn` under `cargo test`.

/// The journal's label vocabulary is closed (`edm-obs` interns against a
/// fixed list) but the labels are owned by the crates that emit them. A
/// label an emitter writes and the reader does not know would make a
/// journal the run itself produced fail `edm-probe --verify`, so every
/// emitted label must decode.
#[test]
fn every_label_an_emitter_can_write_is_in_the_journal_vocabulary() {
    use edm_core::{make_policy, EdmConfig, POLICY_NAMES};
    use edm_obs::{json, Event};
    use edm_ssd::VictimPolicy;

    let victims = [
        VictimPolicy::Greedy,
        VictimPolicy::Fifo,
        VictimPolicy::CostBenefit,
    ];
    // No wildcard: a new victim policy fails the build here until it is
    // added to the list above.
    match victims[0] {
        VictimPolicy::Greedy | VictimPolicy::Fifo | VictimPolicy::CostBenefit => {}
    }
    let mut carriers: Vec<Event> = Vec::new();
    for v in victims {
        carriers.push(Event::GcVictim {
            block: 1,
            valid_pages: 0,
            policy: v.label(),
        });
    }
    for name in POLICY_NAMES {
        let policy = make_policy(name, EdmConfig::default()).expect("evaluation name");
        assert_eq!(policy.name(), name);
        carriers.push(Event::PlanChosen {
            policy: name,
            moves: 0,
            moved_bytes: 0,
            objects: vec![],
            sources: vec![],
            destinations: vec![],
        });
    }
    for metric in ["erase_estimate", "ewma_latency_us"] {
        carriers.push(Event::TriggerEval {
            policy: "CMT",
            metric,
            rsd: 0.0,
            lambda: 0.1,
            mean: 0.0,
            triggered: false,
            sources: vec![],
            destinations: vec![],
        });
    }
    assert_eq!(carriers.len(), 3 + 4 + 2);
    for e in carriers {
        let mut line = String::from("{");
        json::field_str(&mut line, "kind", e.kind());
        e.write_fields(&mut line);
        line.push('}');
        let mut rec = json::Record::default();
        rec.read(&line)
            .unwrap_or_else(|err| panic!("{line}: {err}"));
        let back = Event::from_record(&rec).unwrap_or_else(|err| panic!("{line}: {err}"));
        assert_eq!(back, e, "{line}");
    }
}
