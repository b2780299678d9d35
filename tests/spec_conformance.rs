//! Engine ↔ spec conformance: real simulator runs, journaled at full
//! event level, replayed through the `edm-spec` abstract state machine.
//! Every journaled event must be a legal EDM transition — this is the
//! in-tree closure of the loop the `spec_conformance` fuzz oracle and
//! the `check.sh spec` gate step exercise on scenario corpora.

use edm_harness::Scenario;
use edm_obs::{MemoryRecorder, ObsLevel};
use edm_spec::{verify_journal, SpecReport};

fn journal_of(s: &Scenario) -> String {
    let mut rec = MemoryRecorder::new(ObsLevel::Events);
    s.run_with_obs(&mut rec).expect("scenario run failed");
    let mut out = Vec::new();
    rec.write_jsonl(&mut out).expect("journal render failed");
    String::from_utf8(out).expect("journal is UTF-8")
}

fn assert_conformant(journal: &str) -> SpecReport {
    let report = verify_journal(journal);
    assert!(
        report.violation.is_none(),
        "engine journal violates the spec: line {} — {}",
        report.violation.as_ref().map_or(0, |v| v.line),
        report.violation.as_ref().map_or("", |v| v.message.as_str()),
    );
    assert!(report.events > 0, "events run produced an empty journal");
    report
}

#[test]
fn edm_hdf_run_conforms_to_the_spec() {
    let s = Scenario::parse("scale 0.002\nosds 8\npolicy EDM-HDF\nschedule every-tick\n")
        .expect("parse");
    let report = assert_conformant(&journal_of(&s));
    // A planning run must actually exercise the planning transitions.
    for kind in ["run_meta", "block_erase", "trigger_eval", "plan_chosen"] {
        assert!(
            report.kind_counts.contains_key(kind),
            "journal never exercised {kind}"
        );
    }
}

#[test]
fn cmt_run_conforms_to_the_spec() {
    // CMT balances load across group boundaries by design; the spec's
    // same-group rule must recognize the policy exemption.
    let s =
        Scenario::parse("scale 0.002\nosds 8\npolicy CMT\nschedule every-tick\n").expect("parse");
    assert_conformant(&journal_of(&s));
}

#[test]
fn failure_and_rebuild_run_conforms_to_the_spec() {
    let s = Scenario::parse(
        "scale 0.002\nosds 8\npolicy EDM-CDF\nschedule every-tick\nfail 150000 1 rebuild\n",
    )
    .expect("parse");
    let report = assert_conformant(&journal_of(&s));
    assert!(
        report.kind_counts.contains_key("device_failed"),
        "failure injection left no device_failed event"
    );
}

#[test]
fn sharded_journal_conforms_and_matches_sequential_byte_for_byte() {
    // The datacenter smoke shape: stride 2 over 4 groups yields two
    // placement components, so the sharded engine genuinely runs in
    // parallel rather than falling back to the sequential path.
    let seq = Scenario::parse(
        "scale 0.002\nosds 16\ngroups 4\nobjects_per_file 2\nschedule every-tick\n\
         stride 2\nshards 0\naffinity component\n",
    )
    .expect("parse");
    let mut par = seq.clone();
    par.shards = 2;

    let a = journal_of(&seq);
    let b = journal_of(&par);
    assert_eq!(
        a, b,
        "sequential and sharded journals must be byte-identical"
    );

    let report = assert_conformant(&a);
    assert!(
        report.components >= 2,
        "component-affinity journal should carry component tags, saw {}",
        report.components
    );
}

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
