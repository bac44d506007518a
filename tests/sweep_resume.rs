//! The crash-safe sweep runner, exercised end to end with real engine
//! runs: a sweep stopped by a panicking job leaves every point it
//! finished in its checkpoint log, the next run resumes from them with
//! bit-identical results, a torn log costs only its torn tail, and a log
//! from another sweep is ignored.

use osmosis::sched::Flppr;
use osmosis::sim::{
    checkpointed_sweep, parallel_sweep, CheckpointLog, EngineConfig, EngineReport, ProgressOutcome,
    SeedSequence, SweepError, SweepProgress,
};
use osmosis::switch::{run_switch, VoqSwitch};
use osmosis::traffic::BernoulliUniform;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

/// Run `checkpointed_sweep` against `ckpt` and count, through its
/// progress events, the jobs it restored instead of running.
fn sweep_counting_restores(
    loads: &[f64],
    ckpt: &CheckpointLog,
    job: impl Fn(f64) -> EngineReport + Sync,
) -> Result<(Vec<EngineReport>, usize), SweepError> {
    let restored = AtomicUsize::new(0);
    let count = |p: SweepProgress| {
        if p.outcome == ProgressOutcome::Restored {
            restored.fetch_add(1, Ordering::SeqCst);
        }
    };
    let out = checkpointed_sweep(loads.to_vec(), Some(ckpt), Some(&count), job)?;
    Ok((out, restored.into_inner()))
}

#[test]
fn interrupted_checkpointed_sweep_resumes_bit_identically() {
    let loads = [0.1, 0.3, 0.5, 0.7, 0.9];
    let path = tmp_ckpt("resume");
    std::fs::remove_file(&path).ok();
    let ckpt = CheckpointLog::new(&path, 0xC0FFEE);

    // First pass crashes mid-sweep: every job past the second panics.
    // The panic reaches the caller once every worker has stopped, so
    // each point a worker finished is already in the log.
    let crashing = AtomicBool::new(true);
    let job = |load: f64| {
        if crashing.load(Ordering::SeqCst) && load > 0.35 {
            panic!("simulated crash");
        }
        run_point(load, (load * 100.0) as u64, 2_000)
    };
    let first = catch_unwind(AssertUnwindSafe(|| {
        checkpointed_sweep(loads.to_vec(), Some(&ckpt), None, job)
    }));
    assert!(first.is_err(), "the simulated crash must propagate");
    // The log holds its records under the key with the job count folded
    // in; count them with the key the sweep used.
    let sized_key = SeedSequence::new(0xC0FFEE).child_seed("sweep-jobs", loads.len() as u64);
    let (records, warnings) = CheckpointLog::new(&path, sized_key)
        .load_and_repair()
        .expect("checkpoint readable");
    assert!(warnings.is_empty(), "{warnings:?}");
    let mut logged: Vec<u64> = records.iter().map(|(idx, _)| *idx).collect();
    logged.sort_unstable();
    assert!(
        logged.starts_with(&[0, 1]),
        "jobs 0 and 1 finish on any worker count: {logged:?}"
    );

    // Second pass: the crash is over. Exactly the logged points restore
    // from disk; the rest run fresh. The merged sweep must be
    // bit-identical to one that was never interrupted.
    crashing.store(false, Ordering::SeqCst);
    let (resumed, restored) = sweep_counting_restores(&loads, &ckpt, job).expect("checkpoint io");
    assert_eq!(
        restored,
        logged.len(),
        "every checkpointed point must restore, not rerun"
    );

    let uninterrupted = parallel_sweep(loads.to_vec(), |load| {
        run_point(load, (load * 100.0) as u64, 2_000)
    });
    assert_eq!(resumed.len(), uninterrupted.len());
    for (i, (r, u)) in resumed.iter().zip(uninterrupted.iter()).enumerate() {
        assert_eq!(
            r.fingerprint(),
            u.fingerprint(),
            "point {i}: resumed sweep diverged from the uninterrupted one"
        );
    }
    std::fs::remove_file(&path).ok();
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
    let ckpt = CheckpointLog::new(&path, 0xBAD);
    let job = |l: f64| run_point(l, (l * 10.0) as u64, 1_500);

    let (clean, restored) = sweep_counting_restores(&loads, &ckpt, job).expect("checkpoint io");
    assert_eq!(restored, 0);
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let torn = &text[..text.len() / 2];
    std::fs::write(&path, torn).expect("truncate");
    // Complete lines left, less the header.
    let intact = torn.matches('\n').count() - 1;
    assert!(
        (1..loads.len()).contains(&intact),
        "{intact} intact records"
    );

    let (recovered, restored) = sweep_counting_restores(&loads, &ckpt, job).expect("checkpoint io");
    assert_eq!(restored, intact, "only the torn tail may be recomputed");
    for (r, c) in recovered.iter().zip(clean.iter()) {
        assert_eq!(
            r.fingerprint(),
            c.fingerprint(),
            "recovered sweep must match the original bit for bit"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn stale_checkpoint_from_another_sweep_is_ignored() {
    // A checkpoint keyed to a different sweep (other key) must not leak
    // its points into this one — the sweep starts fresh and overwrites.
    let loads = [0.2f64, 0.6];
    let path = tmp_ckpt("stale");
    std::fs::remove_file(&path).ok();
    let (a, _) = sweep_counting_restores(&loads, &CheckpointLog::new(&path, 111), |l| {
        run_point(l, 1, 1_000)
    })
    .expect("checkpoint io");
    assert_eq!(a.len(), 2);
    let (b, restored) = sweep_counting_restores(&loads, &CheckpointLog::new(&path, 222), |l| {
        run_point(l, 2, 1_000)
    })
    .expect("checkpoint io");
    assert_eq!(b.len(), 2);
    assert_eq!(
        restored, 0,
        "a mismatched key must force fresh runs, not restores"
    );
    std::fs::remove_file(&path).ok();
}
