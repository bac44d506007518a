//! Fixture experiment: analyzed as `crates/bench/src/bin/repro/lat_study.rs`.
//! Reads `--smoke` but the bad-workspace ci.yml never runs it (it
//! smoke-gates a `ghost_study` experiment that does not exist, and the
//! committed `BENCH_stale.json` baseline is referenced by no bin).

pub fn run(args: &Args) {
    let points = if args.smoke { 3 } else { 40 };
    run_latency_sweep(points);
}
