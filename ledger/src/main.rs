//! `msod-ledger`: the MSoD decision benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <wire_zipf|bank_durable|deep_history> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One invocation builds the workload's
//! seeded input, sets the service up (several times; the median is
//! `setup_s`), runs the closed loop and the paced loop, checks every
//! answer against `modelcheck::Oracle`, and prints one JSON object as
//! the last line of standard output: the end-to-end metrics with
//! `--trace 0`, or with `--trace 1` the per-layer metrics of a separate
//! traced run whose spans are written to `ledger-out/`. A wrong answer
//! makes the result `"correct": false` and the exit code 1.

mod check;
mod gen;
mod layers;
mod measure;
mod run;

use std::path::PathBuf;
use std::time::Instant;

use check::Gate;
use gen::Workload;
use measure::{json_str, peak_rss_mib};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// An ordered list of named metrics, rendered as the result's
/// `metrics` object.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(n), json_str(u))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Check the checker before anything is measured: it must accept the
/// oracle's own answers and catch one flipped verdict.
fn checker_self_test(w: &Workload) -> Result<(), String> {
    let policy = policy::parse_rbac_policy(w.policy_xml).map_err(|e| e.to_string())?;
    check::self_test(&policy.msod, &w.closed[0][..SELF_TEST_OPS.min(w.closed[0].len())])
}

/// Ops of the first client's stream the self-tests decide.
const SELF_TEST_OPS: usize = 2_000;

/// Grants and denies of `ops` decided in order on a fresh in-memory
/// service (management purges are not counted).
fn grant_deny_counts(w: &Workload, ops: &[gen::Op]) -> (u64, u64) {
    let svc =
        permis::DecisionService::from_xml(w.policy_xml, run::TRAIL_KEY).expect("policy parses");
    svc.register_authority_key(gen::HR_DN, gen::HR_KEY.to_vec());
    let (mut g, mut d) = (0, 0);
    for op in ops {
        if let gen::Op::Decide(r) = op {
            if svc.decide(&r.req).is_granted() {
                g += 1;
            } else {
                d += 1;
            }
        }
    }
    (g, d)
}

/// Determinism: the same seed must give the same stream hash and the
/// same grant and deny counts; the next seed a different hash.
fn determinism_self_test(args: &Args, hash: u64, counts: (u64, u64)) -> Result<(), String> {
    let seconds = args.seconds as f64;
    let again = gen::build(&args.workload, args.seed, seconds).expect("known workload");
    let h_again = gen::stream_hash(&again);
    if hash != h_again {
        return Err(format!("same seed, different streams: {hash:016x} vs {h_again:016x}"));
    }
    let counts_again =
        grant_deny_counts(&again, &again.closed[0][..SELF_TEST_OPS.min(again.closed[0].len())]);
    if counts != counts_again {
        return Err(format!(
            "same seed, different grant/deny counts: {counts:?} vs {counts_again:?}"
        ));
    }
    drop(again);
    let other =
        gen::build(&args.workload, args.seed.wrapping_add(1), seconds).expect("known workload");
    if hash == gen::stream_hash(&other) {
        return Err(format!(
            "seeds {} and {} gave the same stream {hash:016x}",
            args.seed,
            args.seed + 1
        ));
    }
    Ok(())
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = measure::pin_to_one_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: msod-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            std::process::exit(2);
        }
    };
    let t_gen = Instant::now();
    let Some(w) = gen::build(&args.workload, args.seed, args.seconds as f64) else {
        eprintln!("unknown workload {:?} (wire_zipf, bank_durable, deep_history)", args.workload);
        std::process::exit(2);
    };
    eprintln!("generated {} in {:.2}s", w.name, t_gen.elapsed().as_secs_f64());
    let tmp = PathBuf::from(".ledger-tmp").join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the scratch directory in the checkout");
    println!(
        "{}",
        measure::provenance(w.name, args.seed, args.seconds, args.trace, nproc, pinned, &tmp)
    );
    let hash = gen::stream_hash(&w);
    let counts = grant_deny_counts(&w, &w.closed[0][..SELF_TEST_OPS.min(w.closed[0].len())]);
    if let Err(e) = checker_self_test(&w) {
        eprintln!("self-test failed: {e}");
        let _ = std::fs::remove_dir_all(&tmp);
        std::process::exit(1);
    }

    // Peak memory counts from here: the inputs are built, so the peak's
    // growth over this baseline is the service set up and run (plus the
    // answers and timings the benchmark records, reported below).
    let rss_base = measure::reset_peak_rss();
    let epoch = args.trace.then(Instant::now);
    let mut run = match w.name {
        "wire_zipf" => run::wire_zipf(&w, epoch),
        "bank_durable" => run::bank_durable(&w, &tmp.join("data"), epoch),
        _ => run::deep_history(&w, epoch),
    };
    let peak_rss = peak_rss_mib() - rss_base;
    eprintln!(
        "peak RSS growth {peak_rss:.1} MiB over a {rss_base:.1} MiB baseline; the benchmark's own records of answers and timings take {:.1} MiB of it",
        run.recorded_mib()
    );
    let power_cut = (w.name == "bank_durable").then(|| run::bank_power_cut(&w, args.seed));

    // The gate: every answer against the oracle, outside the timing.
    let t_check = Instant::now();
    let policy = policy::parse_rbac_policy(w.policy_xml).expect("policy parses");
    let mut gate = Gate::new(policy.msod.clone());
    gate.check_outcomes(&w.preload, &run.preload_outcomes);
    for (ops, seen) in w.closed.iter().zip(&run.seen_closed) {
        gate.check(ops, seen);
    }
    gate.check(&w.open, &run.seen_open);
    let retained = run.final_adi.len();
    gate.check_snapshot(std::mem::take(&mut run.final_adi));
    if let Some(after_cut) = power_cut {
        gate.check_snapshot(after_cut);
    }
    let attempted = w.closed.iter().map(Vec::len).sum::<usize>() + w.open.len();
    let failed = gate.mismatches;
    eprintln!(
        "checked {attempted} answers and {} retained records in {:.2}s: {failed} mismatches",
        retained,
        t_check.elapsed().as_secs_f64()
    );
    for e in &gate.examples {
        eprintln!("  mismatch: {e}");
    }

    let mut m = Metrics::default();
    if args.trace {
        layers::per_layer(&w, &run, &tmp, &mut m);
    } else {
        end_to_end(&run, peak_rss, &mut m);
    }
    drop(run);
    drop(w);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".ledger-tmp");
    measure::settle_disk();
    let determinism = determinism_self_test(&args, hash, counts);
    match &determinism {
        Ok(()) => {
            eprintln!("self-tests passed: stream hash {hash:016x}, prefix grants/denies {counts:?}")
        }
        Err(e) => eprintln!("self-test failed: {e}"),
    }
    let correct = failed == 0 && determinism.is_ok();
    for (n, v, u) in &m.0 {
        eprintln!("  {:<36} {:>14.4} {u}", n, v);
    }
    eprintln!(
        "  failed_ratio {:.6} ({failed}/{attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The end-to-end metrics. Tails are gated at p90: on the reference
/// host bank_durable's p99 is set by stalls of the shared virtual disk
/// and moves several-fold between runs of one build, so no bound on it
/// could hold. Every p99 is still printed on standard error.
fn end_to_end(run: &run::Run, peak_rss: f64, m: &mut Metrics) {
    let us = |l: &run::Loop, q: f64| l.latency(false, q) / 1e3;
    let probes = &run.closed.host_probe_ms;
    eprintln!(
        "host probe (not gated): median {:.3} ms, min {:.3} ms, max {:.3} ms over {} rounds",
        measure::median(probes),
        probes.iter().copied().fold(f64::INFINITY, f64::min),
        probes.iter().copied().fold(0.0, f64::max),
        probes.len()
    );
    eprintln!(
        "p99 (not gated): closed {:.1} us, paced {:.1} us",
        us(&run.closed, 0.99),
        us(&run.open, 0.99)
    );
    m.put("setup_s", run::setup_median(run), "s");
    m.put("closed_rps", run.closed.rps(), "1/s");
    m.put("closed_p50_us", us(&run.closed, 0.50), "us");
    m.put("closed_p90_us", us(&run.closed, 0.90), "us");
    m.put("open_p50_us", us(&run.open, 0.50), "us");
    m.put("open_p90_us", us(&run.open, 0.90), "us");
    m.put("cpu_us_per_decision", run.closed.cpu_us_per_request(), "us");
    m.put("peak_rss_mib", peak_rss, "MiB");
}
