//! Fixture experiment: analyzed as `crates/bench/src/bin/repro/lat_study.rs`.
//! Smoke-capable, wired into the good-workspace ci.yml, and the writer
//! of the committed `BENCH_lat.json` baseline.

pub fn run(args: &Args) {
    let points = if args.smoke { 3 } else { 40 };
    let report = run_latency_sweep(points);
    write_baseline("BENCH_lat.json", &report);
}
