//! The journal's label vocabulary against its emitters, edm-spec's two
//! feeders against each other on engine runs, the queue model on the two
//! component-affine shapes where a request queues from a scope other
//! than its OSD's component, and `edm-probe --journal` against hostile
//! lines. Whether
//! engine runs in general journal legal transitions is not checked here:
//! the `spec_conformance` fuzz oracle replays every generated scenario's
//! journal through edm-spec, and `tests/fuzz_replay.rs` does the same for
//! every `fuzz/corpus/*.scn` under `cargo test`.

use edm_obs::{MemoryRecorder, ObsLevel};
use edm_scenario::Scenario;

/// The journal's label vocabulary is closed (the one-byte
/// `edm_obs::Label`), but the evaluation names a run is configured with
/// are owned by `edm-core`. Every policy name must be the text of a
/// label, and every label an emitter writes must decode back, or a
/// journal the run itself produced would fail `edm-probe --verify`.
#[test]
fn every_label_an_emitter_can_write_is_in_the_journal_vocabulary() {
    use edm_core::{make_policy, EdmConfig, POLICY_NAMES};
    use edm_obs::event::{PlanChosen, TriggerEval};
    use edm_obs::{json, Event, Label};
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
        let label = Label::parse(name).unwrap_or_else(|err| panic!("{name}: {err}"));
        assert_eq!(label.as_str(), name);
        carriers.push(Event::from(PlanChosen {
            policy: label,
            moves: 0,
            moved_bytes: 0,
            objects: vec![],
            sources: vec![],
            destinations: vec![],
        }));
    }
    for metric in [Label::EraseEstimate, Label::EwmaLatencyUs] {
        carriers.push(Event::from(TriggerEval {
            policy: Label::Cmt,
            metric,
            rsd: 0.0,
            lambda: 0.1,
            mean: 0.0,
            triggered: false,
            sources: vec![],
            destinations: vec![],
        }));
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

/// The in-memory feeder replays a run's journal in the order the file
/// holds it, so both must report the same counts and verdict. Run on the
/// component-affinity corpus scenario both sequentially and on two shard
/// workers, whose journals carry component tags.
#[test]
fn in_memory_and_file_feeders_agree_on_component_runs() {
    let text = include_str!("../fuzz/corpus/sharded-stride2.scn");
    let mut scenario = Scenario::parse(text).expect("corpus scenario parses");
    for shards in [0, 2] {
        scenario.shards = shards;
        let mut rec = MemoryRecorder::new(ObsLevel::Events);
        scenario.run(&mut rec, None).expect("scenario runs");
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let file = edm_spec::verify_journal(&String::from_utf8(out).unwrap());
        let memory = edm_spec::verify_entries(&rec);
        assert!(file.ok(), "shards {shards}: {:?}", file.violation);
        assert!(memory.ok(), "shards {shards}: {:?}", memory.violation);
        assert_eq!(memory.events, file.events, "shards {shards}");
        assert_eq!(memory.kind_counts, file.kind_counts, "shards {shards}");
        assert_eq!(memory.components, file.components, "shards {shards}");
        assert!(file.components >= 2, "shards {shards}: untagged journal");
    }
}

/// Queue events carry the component of the OSD they queue on, whatever
/// scope the caller journals under, so the `(t_us, comp)` merge keeps
/// each OSD's enqueues and dequeues in order: `text`'s Events journal
/// passes edm-spec through both feeders.
fn assert_queue_model_holds(text: &str) {
    let scenario = Scenario::parse(text).expect("scenario parses");
    let mut rec = MemoryRecorder::new(ObsLevel::Events);
    scenario.run(&mut rec, None).expect("scenario runs");
    let mut out = Vec::new();
    rec.write_jsonl(&mut out).unwrap();
    let file = edm_spec::verify_journal(&String::from_utf8(out).unwrap());
    assert!(file.ok(), "{text}: {:?}", file.violation);
    let memory = edm_spec::verify_entries(&rec);
    assert!(memory.ok(), "{text}: {:?}", memory.violation);
}

/// The midpoint plan journals untagged; the op whose completion fired it
/// then lets its client issue the next request from that scope.
#[test]
fn requests_issued_after_the_midpoint_plan_keep_their_osds_component() {
    assert_queue_model_holds(
        "trace random\nscale 0.001\nosds 6\nobjects_per_file 2\npolicy Baseline\n\
         affinity component\n",
    );
}

/// CMT moves objects across components, so a client's requests can
/// queue on an OSD outside the client's own component; a completion
/// handler can queue on one before its own OSD's next service starts;
/// and a move finishing on the destination edits the source's queue.
#[test]
fn requests_to_objects_cmt_moved_keep_their_osds_component() {
    for text in [
        "scale 0.001\nobjects_per_file 2\npolicy CMT\nclient_concurrency 16\nstride 2\n",
        "scale 0.0015\nosds 12\nobjects_per_file 2\npolicy CMT\nschedule every-tick\n\
         client_concurrency 4\nstride 2\n",
        "scale 0.003\nosds 12\nobjects_per_file 2\npolicy CMT\nstride 2\n",
    ] {
        assert_queue_model_holds(&format!("{text}affinity component\n"));
    }
}

/// A failure aborts the moves that touch the dead OSD; their mover
/// chunks still queued on surviving OSDs leave those queues with one
/// `op_dequeue` each, so the queue model stays in step (`edm-fuzz` seed
/// 5018279433466523155).
#[test]
fn mover_chunks_a_failure_drops_are_dequeued() {
    assert_queue_model_holds(
        "trace lair62\nscale 0.0015\nosds 8\npolicy CMT\nschedule every-tick\n\
         fail 118036 0 rebuild\n",
    );
}

/// `edm-probe --journal` reads through the edm-obs reader: a line it
/// cannot decode is `path:line` and exit 1, never a default value or a
/// panic, and the per-OSD timeline's memory follows the lines, not the
/// OSD ids written in them.
#[test]
fn probe_journal_rejects_undecodable_lines_and_survives_huge_osd_ids() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("edm-probe-journal");
    std::fs::create_dir_all(&dir).unwrap();
    let probe = |name: &str, line: &str| {
        let path = dir.join(name);
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_edm-probe"))
            .arg("--journal")
            .arg(&path)
            .output()
            .unwrap();
        let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
        (out.status.code(), text(out.stdout), text(out.stderr), path)
    };
    let hostile = [
        (
            "scope.jsonl",
            r#"{"t_us":5,"osd":18446744073709551615,"kind":"block_erase","block":0,"erase_count":1,"moved_pages":0}"#,
        ),
        (
            "fields.jsonl",
            r#"{"t_us":5,"osd":4000000000,"kind":"block_erase"}"#,
        ),
        (
            "trigger.jsonl",
            r#"{"t_us":5,"kind":"trigger_eval","policy":"EDM-HDF","mean":1,"triggered":false,"sources":[],"destinations":[]}"#,
        ),
    ];
    for (name, line) in hostile {
        let (code, _, err, path) = probe(name, line);
        assert_eq!(code, Some(1), "{name}: {err}");
        assert!(
            err.starts_with(&format!("{}:1: ", path.display())),
            "{name}: {err}"
        );
    }
    let (code, out, err, _) = probe(
        "huge.jsonl",
        r#"{"t_us":5,"osd":4000000000,"kind":"block_erase","block":0,"erase_count":1,"moved_pages":0}"#,
    );
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("osd4000000000 |"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}
