//! The supervised, crash-safe sweep runner, exercised end to end with
//! real engine runs: a panicking job is isolated and deterministically
//! retried without aborting its siblings, a budget-exceeding job is
//! reported as such, and an interrupted checkpointed sweep resumes from
//! disk with bit-identical results.

use osmosis::sched::Flppr;
use osmosis::sim::{
    checkpointed_sweep, supervised_sweep, CheckpointLog, EngineConfig, EngineReport, JobOutcome,
    SeedSequence, SweepError, SweepOptions,
};
use osmosis::switch::{run_switch, VoqSwitch};
use osmosis::traffic::BernoulliUniform;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

fn run_point(load: f64, seed: u64, measure: u64) -> EngineReport {
    let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(8, 1)));
    let mut tr = BernoulliUniform::new(8, load, &SeedSequence::new(seed));
    run_switch(
        &mut sw,
        &mut tr,
        &EngineConfig::new(100, measure).with_seed(seed),
    )
}

fn tmp_ckpt(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("osmosis-sweep-{}-{tag}.jsonl", std::process::id()))
}

#[test]
fn interrupted_checkpointed_sweep_resumes_bit_identically() {
    let loads = [0.1, 0.3, 0.5, 0.7, 0.9];
    let path = tmp_ckpt("resume");
    std::fs::remove_file(&path).ok();
    let ckpt = CheckpointLog::new(&path, 0xC0FFEE);
    let opts = SweepOptions::seeded(7)
        .with_backoff_base_ms(0)
        .with_max_attempts(1);

    // First pass "crashes" mid-sweep: every job past the second panics,
    // so only the surviving points reach the checkpoint file.
    let crashing = AtomicBool::new(true);
    let job = |&load: &f64| {
        if crashing.load(Ordering::SeqCst) && load > 0.35 {
            panic!("simulated crash");
        }
        run_point(load, (load * 100.0) as u64, 2_000)
    };
    let first = checkpointed_sweep(loads.to_vec(), &opts, &ckpt, job).expect("checkpoint io");
    assert!(
        !first.is_complete(),
        "the simulated crash must leave gaps: {:?}",
        first.failures()
    );
    let completed_first = first.outputs.iter().flatten().count();
    assert!(completed_first >= 2, "some points must have survived");

    // Second pass: the crash is over. Completed points restore from
    // disk; the rest run fresh. The merged sweep must be bit-identical
    // to one that was never interrupted.
    crashing.store(false, Ordering::SeqCst);
    let resumed = checkpointed_sweep(loads.to_vec(), &opts, &ckpt, job).expect("checkpoint io");
    assert!(resumed.is_complete());
    let restored = resumed
        .jobs
        .iter()
        .filter(|j| j.outcome == JobOutcome::Restored)
        .count();
    assert_eq!(
        restored, completed_first,
        "every checkpointed point must restore, not rerun"
    );

    let uninterrupted = supervised_sweep(loads.to_vec(), &opts, |&load: &f64| {
        run_point(load, (load * 100.0) as u64, 2_000)
    });
    for (i, (r, u)) in resumed
        .outputs
        .iter()
        .zip(uninterrupted.outputs.iter())
        .enumerate()
    {
        let (r, u) = (r.as_ref().expect("resumed"), u.as_ref().expect("plain"));
        assert_eq!(
            r.fingerprint(),
            u.fingerprint(),
            "point {i}: resumed sweep diverged from the uninterrupted one"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn panicking_job_is_isolated_and_retried_deterministically() {
    // Job 2 panics on its first attempt and succeeds on the second; its
    // siblings must complete untouched, on their first attempt.
    let attempts = [const { AtomicU32::new(0) }; 4];
    let opts = SweepOptions::seeded(11).with_backoff_base_ms(0);
    let summary = supervised_sweep(vec![0usize, 1, 2, 3], &opts, |&i: &usize| {
        let n = attempts[i].fetch_add(1, Ordering::SeqCst) + 1;
        if i == 2 && n == 1 {
            panic!("transient failure on job 2");
        }
        run_point(0.5, i as u64, 1_000)
    });
    assert!(summary.is_complete(), "{:?}", summary.failures());
    for (i, job) in summary.jobs.iter().enumerate() {
        assert_eq!(job.outcome, JobOutcome::Completed);
        let expect = if i == 2 { 2 } else { 1 };
        assert_eq!(job.attempts, expect, "job {i}");
    }
    // The retried job's output is the same as an undisturbed run's.
    let redo = run_point(0.5, 2, 1_000);
    assert_eq!(
        summary.outputs[2].as_ref().expect("job 2").fingerprint(),
        redo.fingerprint(),
        "retry must reproduce the run exactly"
    );
}

#[test]
fn budget_exceeding_job_is_reported_without_aborting_siblings() {
    // Budget covers the small jobs (1100 slots each) but not job 1
    // (50100 slots): the watchdog rejects it before it burns the budget,
    // every retry included, while the siblings complete normally.
    let opts = SweepOptions::seeded(13)
        .with_backoff_base_ms(0)
        .with_slot_budget(10_000)
        .with_max_attempts(2);
    let summary = supervised_sweep(vec![0usize, 1, 2], &opts, |&i: &usize| {
        let measure = if i == 1 { 50_000 } else { 1_000 };
        run_point(0.4, i as u64, measure)
    });
    assert!(!summary.is_complete());
    let failures = summary.failures();
    assert_eq!(failures.len(), 1);
    let (idx, err) = &failures[0];
    assert_eq!(*idx, 1);
    assert!(
        matches!(err, SweepError::BudgetExceeded { budget: 10_000, .. }),
        "expected a budget rejection, got {err}"
    );
    assert_eq!(summary.jobs[1].attempts, 2, "budget failures retry too");
    for i in [0usize, 2] {
        assert_eq!(summary.jobs[i].outcome, JobOutcome::Completed, "job {i}");
        assert!(summary.outputs[i].is_some());
    }
}

#[test]
fn torn_checkpoint_keeps_its_intact_records_and_recomputes_the_rest_exactly() {
    // A checkpoint log cut short (a kill mid-append, a truncated copy)
    // must not abort the sweep, and must not cost the work it still
    // holds: the records before the tear restore, the torn one and
    // everything after it run fresh, and the merged sweep is
    // bit-identical to one that never had a checkpoint.
    let loads = [0.2f64, 0.5, 0.8];
    let path = tmp_ckpt("corrupt");
    std::fs::remove_file(&path).ok();
    let opts = SweepOptions::seeded(23).with_backoff_base_ms(0);
    let job = |&l: &f64| run_point(l, (l * 10.0) as u64, 1_500);

    let clean = checkpointed_sweep(
        loads.to_vec(),
        &opts,
        &CheckpointLog::new(&path, 0xBAD),
        job,
    )
    .expect("io");
    assert!(clean.is_complete());
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let torn = &text[..text.len() / 2];
    std::fs::write(&path, torn).expect("truncate");
    // Complete lines left, less the header.
    let intact = torn.matches('\n').count() - 1;
    assert!(
        (1..loads.len()).contains(&intact),
        "{intact} intact records"
    );

    let recovered = checkpointed_sweep(
        loads.to_vec(),
        &opts,
        &CheckpointLog::new(&path, 0xBAD),
        job,
    )
    .expect("a torn checkpoint must not be fatal");
    assert!(recovered.is_complete());
    let restored = recovered
        .jobs
        .iter()
        .filter(|j| j.outcome == JobOutcome::Restored)
        .count();
    assert_eq!(restored, intact, "only the torn tail may be recomputed");
    for (r, c) in recovered.outputs.iter().zip(clean.outputs.iter()) {
        assert_eq!(
            r.as_ref().expect("recovered").fingerprint(),
            c.as_ref().expect("clean").fingerprint(),
            "recovered sweep must match the original bit for bit"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn stale_checkpoint_from_another_sweep_is_ignored() {
    // A checkpoint keyed to a different sweep (other key) must not leak
    // its points into this one — the sweep starts fresh and overwrites.
    let path = tmp_ckpt("stale");
    std::fs::remove_file(&path).ok();
    let opts = SweepOptions::seeded(17).with_backoff_base_ms(0);
    let a = checkpointed_sweep(
        vec![0.2f64, 0.6],
        &opts,
        &CheckpointLog::new(&path, 111),
        |&l: &f64| run_point(l, 1, 1_000),
    )
    .expect("io");
    assert!(a.is_complete());
    let b = checkpointed_sweep(
        vec![0.2f64, 0.6],
        &opts,
        &CheckpointLog::new(&path, 222),
        |&l: &f64| run_point(l, 2, 1_000),
    )
    .expect("io");
    assert!(b.is_complete());
    assert!(
        b.jobs.iter().all(|j| j.outcome == JobOutcome::Completed),
        "a mismatched key must force fresh runs, not restores"
    );
    std::fs::remove_file(&path).ok();
}
